"""Deterministic parallel execution of campaign work units.

A campaign is ``run_campaign(fn, specs)``: ``fn`` is a module-level
function ``fn(spec, rng_seed) -> json-able``, ``specs`` is the
declarative grid (one JSON-able dict per unit).  The engine

1. derives each unit's ``rng_seed`` with :func:`spawn_seed` from the
   campaign seed and the unit spec (SHA-256, never ``hash()`` — stable
   across processes, platforms and Python runs),
2. answers units already in the result cache without recomputation,
3. fans the remaining units onto the fault-tolerant supervisor
   (:mod:`repro.campaign.supervisor`): per-unit wall-clock timeouts,
   dead-worker detection with respawn, bounded deterministic retries
   (same spawn seed on every attempt, so a successful retry is
   bit-identical to a never-failed run) and quarantine of poisoned
   units as structured :class:`UnitFailure` records in
   ``CampaignRun.failures`` — one bad unit degrades the campaign
   instead of killing it.  ``workers=1`` runs the same supervisor with
   one in-process worker, unless a unit timeout needs a worker process
   to preempt,
4. writes each result to the cache as it arrives, so an interrupted
   sweep resumes from where it died; SIGINT/SIGTERM trigger a graceful
   shutdown that drains in-flight units and raises
   :class:`CampaignInterrupted` (re-running resumes from the cache),
5. returns results in spec order regardless of completion order.

Every payload — computed or cached — is normalised through a JSON
round-trip before it is returned, so a campaign's output is invariant
to worker count *and* to cache state (tuples become lists exactly once,
on every path).

Every fault-tolerance knob (``REPRO_UNIT_TIMEOUT``,
``REPRO_MAX_RETRIES``, ``REPRO_RETRY_BACKOFF``,
``REPRO_CAMPAIGN_STRICT``, ``REPRO_SHUTDOWN_GRACE``) is declared in
the :mod:`repro.runtime.knobs` registry; no knob reaches a spawn seed
or a cache digest.  Run ``python -m repro knobs`` for the full
table.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from ..errors import ReproError
from ..runtime import events, knobs
from .cache import ResultCache, canonical_json, unit_digest
from .supervisor import UnitFailure, WorkerPool, run_supervised


class CampaignError(ReproError):
    """A campaign could not be set up, or failed units under strict mode.

    Carries the partial :class:`CampaignRun` (``.run``) and the
    quarantined :class:`UnitFailure` records (``.failures``) when they
    exist.
    """

    def __init__(self, message: str, *, run: Any = None,
                 failures: Optional[list] = None):
        super().__init__(message)
        self.run = run
        self.failures = failures or []


class CampaignInterrupted(CampaignError):
    """SIGINT/SIGTERM stopped the campaign after a graceful drain.

    Completed units are already in the result cache: re-running the
    identical campaign resumes with zero recompute of completed units.
    """


def spawn_seed(campaign_seed: int, *key_parts: Any) -> int:
    """A 64-bit seed derived from the campaign seed and a unit key.

    Unlike ``hash()``, the derivation is identical in every worker
    process and every Python invocation, which is what makes
    ``workers=1`` and ``workers=N`` bit-identical.
    """
    ident = canonical_json([campaign_seed, list(key_parts)])
    digest = hashlib.sha256(ident.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env, else ``os.cpu_count()``."""
    return knobs.value("workers")


def default_cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` env, else ``<repo>/.repro_cache``."""
    return knobs.value("cache_dir")


def default_strict() -> bool:
    """Strict mode: ``REPRO_CAMPAIGN_STRICT`` truthy, else graceful."""
    return knobs.value("campaign_strict")


def resolve_cache(cache: Any) -> Optional[ResultCache]:
    """Normalise the ``cache`` knob: ``None`` disables, ``"auto"`` uses
    the default directory, a path uses that directory, a
    :class:`ResultCache` passes through."""
    if cache is None:
        return None
    if isinstance(cache, ResultCache):
        return cache
    if cache == "auto":
        return ResultCache(default_cache_dir())
    return ResultCache(cache)


def _fn_ref(fn: Callable) -> str:
    """The importable ``module:qualname`` reference of a unit function."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "." in qualname:
        raise CampaignError(
            f"unit function {fn!r} must be a module-level function so "
            "worker processes can import it")
    return f"{module}:{qualname}"


_CODE_TOKEN: Optional[str] = None


def code_token() -> str:
    """A fingerprint of the ``repro`` package's source tree.

    Folded into every cache digest (never into spawn seeds): editing
    any simulator/analysis source invalidates cached unit results
    automatically, so a forgotten ``campaign_version`` bump can go
    stale only between runs of *identical* code.  Hashes (path, size,
    mtime) of every ``.py`` file — a few ms, computed once per process.
    """
    global _CODE_TOKEN
    if _CODE_TOKEN is None:
        package_root = Path(__file__).resolve().parents[1]
        entries = []
        for path in sorted(package_root.rglob("*.py")):
            stat = path.stat()
            entries.append((str(path.relative_to(package_root)),
                            stat.st_size, stat.st_mtime_ns))
        _CODE_TOKEN = hashlib.sha256(
            canonical_json(entries).encode("utf-8")).hexdigest()[:16]
    return _CODE_TOKEN


def _digest_version(version: str = "1") -> str:
    """The cache-digest namespace for one declared campaign version.

    Spawn seeds depend on the *declared* version only (stable RNG
    streams across refactors); digests also fold in the source-tree
    fingerprint (cached results never outlive a code change).
    """
    return f"{version}:{code_token()}"


@dataclass
class CampaignStats:
    """Bookkeeping for one campaign run.

    ``chunk_size`` is the derived dispatch chunking: 1 in-process and
    whenever timeouts or retries are armed, so failure handling
    keeps per-unit granularity, else about a quarter of each worker's
    share.
    """

    total: int = 0
    computed: int = 0
    cached: int = 0
    workers: int = 1
    chunk_size: int = 1
    seconds: float = 0.0
    cache_dir: Optional[str] = None
    retried: int = 0
    quarantined: int = 0
    timeouts: int = 0
    worker_respawns: int = 0
    interrupted: bool = False
    unit_timeout: Optional[float] = None
    max_retries: int = 0


@dataclass
class CampaignRun:
    """Results (in spec order) plus run statistics.

    ``failures`` holds one :class:`UnitFailure` per quarantined unit;
    the corresponding ``results`` slots stay ``None``.
    """

    results: list = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)
    failures: list = field(default_factory=list)


def _start_method() -> str:
    """Pool start method: ``REPRO_MP_START`` env, else the platform
    default (fork on Linux; spawn on macOS, where forking into system
    frameworks is unsafe — the reason CPython switched its default)."""
    return knobs.value("mp_start") or multiprocessing.get_start_method()


def _failure_summary(failures: Sequence[UnitFailure],
                     shown: int = 3) -> str:
    parts = [
        f"[{f.index}] {f.error_type} after {f.attempts} attempt(s): "
        f"{f.message}" for f in failures[:shown]]
    if len(failures) > shown:
        parts.append(f"... and {len(failures) - shown} more")
    return (f"{len(failures)} unit(s) quarantined: " + "; ".join(parts))


def run_campaign(fn: Callable[[Any, int], Any], specs: Sequence[Any], *,
                 seed: int = 0, workers: Optional[int] = None,
                 cache: Any = "auto",
                 unit_timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 retry_backoff: Optional[float] = None,
                 strict: Optional[bool] = None,
                 pool: Optional[WorkerPool] = None,
                 shutdown_event: Optional[threading.Event] = None,
                 ) -> CampaignRun:
    """Execute every unit of a campaign grid; see the module docstring.

    ``fn`` may carry a ``campaign_version`` attribute (default ``"1"``);
    bump it whenever the unit's semantics change so stale cache entries
    are never served.

    ``unit_timeout``/``max_retries``/``retry_backoff``/``strict``
    default to their ``REPRO_*`` environment knobs.  All four are
    execution-only: they never perturb spawn seeds or cache digests.

    ``pool`` keeps worker processes alive across campaigns (the
    resident ``repro serve`` path); it is only consulted when the
    campaign would use processes anyway, so results stay bit-identical
    with and without one.  ``shutdown_event`` hands interruption policy
    to the caller: when provided, no signal handlers are installed and
    setting the event triggers the same graceful drain path
    SIGINT/SIGTERM would (a service daemon sets it per job for
    cancellation and for its own shutdown).
    """
    fn_ref = _fn_ref(fn)
    version = str(getattr(fn, "campaign_version", "1"))
    store = resolve_cache(cache)
    n_workers = workers if workers is not None else default_workers()
    if n_workers < 1:
        raise CampaignError(f"workers must be >= 1, got {n_workers}")
    if unit_timeout is None:
        unit_timeout = knobs.value("unit_timeout")
    if max_retries is None:
        max_retries = knobs.value("max_retries")
    if max_retries < 0:
        raise CampaignError(f"max_retries must be >= 0, got {max_retries}")
    if retry_backoff is None:
        retry_backoff = knobs.value("retry_backoff")
    if strict is None:
        strict = default_strict()

    start = time.perf_counter()
    results: list[Any] = [None] * len(specs)
    digests: list[Optional[str]] = [None] * len(specs)
    done: set[int] = set()
    pending: list[tuple] = []
    cached = 0
    miss = object()   # distinguishes a cached null payload from a miss
    digest_version = _digest_version(version)
    for index, spec in enumerate(specs):
        rng_seed = spawn_seed(seed, fn_ref, version, spec)
        if store is not None:
            digest = unit_digest(fn_ref, digest_version, seed, spec)
            digests[index] = digest
            hit = store.get(digest, miss)
            if hit is not miss:
                results[index] = hit
                done.add(index)
                cached += 1
                continue
        pending.append((index, fn_ref, spec, rng_seed, digests[index]))

    n_workers = min(n_workers, len(pending)) or 1
    events.emit("campaign.start", fn=fn_ref, units=len(specs),
                workers=n_workers, cached=cached)

    def _record(index: int, payload: Any) -> None:
        results[index] = payload
        done.add(index)
        if store is not None:
            store.put(digests[index], payload)

    # Worker processes are required for preemption (timeouts), even at
    # workers=1; otherwise one worker runs in-process (ctx=None).
    ctx = None
    if pending and (n_workers > 1 or unit_timeout is not None):
        ctx = pool.ctx if pool is not None \
            else multiprocessing.get_context(_start_method())

    shutdown = shutdown_event if shutdown_event is not None \
        else threading.Event()
    installed: list[tuple[int, Any]] = []

    def _request_shutdown(signum, frame):
        shutdown.set()

    if (shutdown_event is None
            and threading.current_thread() is threading.main_thread()):
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((sig, signal.signal(sig,
                                                     _request_shutdown)))
            except (ValueError, OSError):  # pragma: no cover
                continue
    try:
        report = run_supervised(
            pending, workers=n_workers, ctx=ctx, record=_record,
            max_retries=max_retries, retry_backoff=retry_backoff,
            unit_timeout=unit_timeout,
            shutdown_grace=knobs.value("shutdown_grace"),
            shutdown_event=shutdown, pool=pool)
    finally:
        for sig, previous in installed:
            signal.signal(sig, previous)

    failures = report.failures
    stats = CampaignStats(
        total=len(specs), computed=len(done) - cached, cached=cached,
        workers=n_workers, chunk_size=report.chunk_size,
        seconds=time.perf_counter() - start,
        cache_dir=str(store.root) if store is not None else None,
        retried=report.retries, quarantined=len(failures),
        timeouts=report.timeouts,
        worker_respawns=report.worker_deaths,
        interrupted=report.interrupted,
        unit_timeout=unit_timeout, max_retries=max_retries)
    run = CampaignRun(results=results, stats=stats, failures=failures)
    events.emit("campaign.end", fn=fn_ref, computed=stats.computed,
                cached=stats.cached, quarantined=stats.quarantined,
                seconds=round(stats.seconds, 6),
                interrupted=report.interrupted)

    if report.interrupted:
        raise CampaignInterrupted(
            f"campaign interrupted: {len(done)}/{len(specs)} units "
            f"complete, {len(report.outstanding)} outstanding",
            run=run, failures=failures)
    if strict and failures:
        raise CampaignError(_failure_summary(failures), run=run,
                            failures=failures)
    return run


def run_grouped_campaign(fn: Callable[[Any, int], Any],
                         groups: Mapping[str, Sequence[Any]], *,
                         seed: int = 0, workers: Optional[int] = None,
                         cache: Any = "auto",
                         unit_timeout: Optional[float] = None,
                         max_retries: Optional[int] = None,
                         retry_backoff: Optional[float] = None,
                         strict: Optional[bool] = None,
                         pool: Optional[WorkerPool] = None,
                         shutdown_event: Optional[threading.Event] = None,
                         ) -> tuple[dict[str, list], CampaignStats]:
    """Run several spec groups as **one** flat campaign.

    The whole grid shares one worker pool — slow groups overlap with
    fast ones instead of draining to a single worker at every group
    boundary — and results come back re-sliced per group, in spec
    order.  This is the one-liner for grouped sweeps (Fig. 5's six
    configurations, Fig. 7's per-workload repetition grids, ...).
    """
    flat: list[Any] = []
    for specs in groups.values():
        flat.extend(specs)
    run = run_campaign(fn, flat, seed=seed, workers=workers, cache=cache,
                       unit_timeout=unit_timeout,
                       max_retries=max_retries,
                       retry_backoff=retry_backoff, strict=strict,
                       pool=pool, shutdown_event=shutdown_event)
    sliced: dict[str, list] = {}
    offset = 0
    for key, specs in groups.items():
        sliced[key] = run.results[offset:offset + len(specs)]
        offset += len(specs)
    return sliced, run.stats
