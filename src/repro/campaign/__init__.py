"""Parallel experiment-campaign engine.

The paper's deliverables are *sweeps* — Fig. 5 is 6 configurations ×
13 utilisation points × 100 task sets × 3 schemes, Figs. 4/6/7 are
co-simulation campaigns over a workload suite — and the seed repo ran
every one of them strictly serially in a single Python process.  This
package turns a sweep into a declarative **campaign**: a grid of small,
independent *work units*, each seeded deterministically from the
campaign seed and the unit's spec, fanned out over a supervised pool
of worker processes and persisted to a content-addressed on-disk
cache.

Guarantees (see ``tests/campaign/``):

* **Determinism** — a unit's random stream derives only from
  ``spawn_seed(campaign seed, unit spec)``, never from process state or
  scheduling order, so ``workers=1`` and ``workers=N`` produce
  bit-identical results.
* **Fault tolerance** — the supervisor (:mod:`.supervisor`) survives
  unit exceptions, hung units (per-unit wall-clock timeouts) and
  dead/OOM-killed workers (liveness polling + respawn).  Failures are
  retried with the *same* spawn seed (a successful retry is
  bit-identical to a never-failed run) and quarantined as structured
  :class:`UnitFailure` records after the retry budget; SIGINT/SIGTERM
  drain in-flight units and a re-run resumes from the cache.  Test
  units under ``tests/campaign/`` that kill, hang or fail their own
  workers prove all of it differentially against clean ``workers=1``
  runs.
* **Resume for free** — each completed unit is written to the cache
  under a digest of (function, version, seed, spec) inside a checksum
  envelope; re-runs, partially-failed and interrupted sweeps recompute
  only what is missing, and corrupt entries are quarantined, never
  served (``python -m repro cache fsck|gc``).
* **Zero-dependency** — stdlib ``multiprocessing`` + ``json`` only.

Knobs: ``REPRO_WORKERS`` (worker count, default ``os.cpu_count()``;
``1`` = one in-process worker), ``REPRO_CACHE_DIR``
(cache root, default ``<repo>/.repro_cache``; set ``cache=None`` in
code to disable), ``REPRO_UNIT_TIMEOUT`` / ``REPRO_MAX_RETRIES`` /
``REPRO_RETRY_BACKOFF`` / ``REPRO_CAMPAIGN_STRICT`` /
``REPRO_SHUTDOWN_GRACE`` (fault tolerance; see :mod:`.engine`).
"""

from .cache import ResultCache, unit_digest
from .engine import (
    CampaignError,
    CampaignInterrupted,
    CampaignRun,
    CampaignStats,
    canonical_json,
    code_token,
    default_cache_dir,
    default_workers,
    resolve_cache,
    run_campaign,
    run_grouped_campaign,
    spawn_seed,
)
from .supervisor import UnitFailure, WorkerPool

__all__ = [
    "CampaignError",
    "CampaignInterrupted",
    "CampaignRun",
    "CampaignStats",
    "ResultCache",
    "UnitFailure",
    "WorkerPool",
    "canonical_json",
    "code_token",
    "default_cache_dir",
    "default_workers",
    "resolve_cache",
    "run_campaign",
    "run_grouped_campaign",
    "spawn_seed",
    "unit_digest",
]
