"""Compile a scenario into campaign work units and run it.

Each scenario kind maps onto the figure machinery's module-level unit
functions (`repro.analysis.slowdown`, `repro.analysis.latency`,
`repro.sched.experiments`), so a scenario run *is* a campaign run: the
grid fans out across ``REPRO_WORKERS`` processes, every unit's RNG
stream derives from SHA-256 spawn keys, and completed units persist in
the content-addressed cache — bit-identical results for any worker
count, zero-recompute replay for a warm cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..analysis.latency import _fig7_specs, _fig7_unit, merge_latency_units
from ..analysis.slowdown import _fig4_unit, _fig6_unit, _suite_specs
from ..campaign import CampaignStats, run_campaign, run_grouped_campaign
from ..config import SoCConfig
from ..core import engine_override
from ..flexstep.faults import FaultTarget
from ..flexstep.soc import soc_sched_override
from ..runtime import events, knobs
from ..sched.backend import backend_override
from ..sched.experiments import (
    _aggregate_batch_points,
    _fig5_batch_specs,
    _fig5_batch_unit,
)
from .spec import Scenario


def default_report_dir() -> Path:
    """Report root: ``REPRO_REPORT_DIR``, else ``<repo>/.repro_reports``."""
    return knobs.value("report_dir")


@dataclass
class ScenarioResult:
    """One scenario's outcome: JSON-able payload + campaign stats."""

    scenario: Scenario
    seed: int
    payload: dict
    stats: CampaignStats

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "payload": self.payload,
            "stats": dataclasses.asdict(self.stats),
        }

    def render(self) -> str:
        from .report import render_report
        return render_report(self.to_dict())

    def save(self, directory: "Path | str | None" = None) -> Path:
        """Write the result under ``<dir>/<scenario name>.json``."""
        root = Path(directory) if directory else default_report_dir()
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"{self.scenario.name}.json"
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path


def load_result(name: str,
                directory: "Path | str | None" = None) -> dict:
    """Read one saved scenario result document."""
    root = Path(directory) if directory else default_report_dir()
    with open(root / f"{name}.json") as fh:
        return json.load(fh)


def saved_results(directory: "Path | str | None" = None) -> list[str]:
    """Scenario names with a saved report, sorted."""
    root = Path(directory) if directory else default_report_dir()
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.json"))


# ---------------------------------------------------------------------------
# kind-specific compilation
# ---------------------------------------------------------------------------


def _latency_options(scenario: Scenario, seed: int) -> dict:
    topo, faults = scenario.topology, scenario.faults
    return {
        "target_instructions": scenario.target_instructions,
        "target": FaultTarget(faults.target),
        "segment_interval": faults.segment_interval,
        "segment_rate": faults.segment_rate,
        "burst_bits": faults.burst_bits,
        "side": faults.side,
        "pairs": topo.pairs,
        "checkers": topo.checkers,
        "fifo_entries": topo.fifo_entries,
        "service_pause_cycles": topo.service_pause_cycles,
        "dma_spill_entries": topo.dma_spill_entries,
        "seed": seed,
        "repeats": scenario.repeats,
    }


def _run_latency(scenario: Scenario, seed: int, workers, cache,
                 campaign_kw) -> tuple[dict, CampaignStats]:
    profiles = scenario.profiles()
    options = _latency_options(scenario, seed)
    groups = {p.name: _fig7_specs(p, **options) for p in profiles}
    sliced, stats = run_grouped_campaign(
        _fig7_unit, groups, seed=seed, workers=workers, cache=cache,
        **campaign_kw)
    workloads = []
    for profile in profiles:
        merged = merge_latency_units(profile.name, sliced[profile.name])
        workloads.append({
            "workload": merged.workload,
            "latencies_us": merged.latencies_us,
            "detected": merged.detected,
            "injected": merged.injected,
            "armed_unfired": merged.armed_unfired,
            "misattributed": merged.misattributed,
            "records": [r.to_dict() for r in merged.records],
        })
    return {"kind": "latency", "workloads": workloads}, stats


def _run_slowdown(scenario: Scenario, seed: int, workers, cache,
                  campaign_kw) -> tuple[dict, CampaignStats]:
    config = (SoCConfig(num_cores=scenario.cores)
              if scenario.cores is not None else None)
    specs = _suite_specs(scenario.profiles(),
                         scenario.target_instructions, config)
    run = run_campaign(_fig4_unit, specs, seed=seed, workers=workers,
                       cache=cache, **campaign_kw)
    return {"kind": "slowdown", "rows": run.results}, run.stats


def _run_modes(scenario: Scenario, seed: int, workers, cache,
               campaign_kw) -> tuple[dict, CampaignStats]:
    specs = _suite_specs(scenario.profiles(),
                         scenario.target_instructions, None)
    run = run_campaign(_fig6_unit, specs, seed=seed, workers=workers,
                       cache=cache, **campaign_kw)
    return {"kind": "modes", "rows": run.results}, run.stats


def _run_sched(scenario: Scenario, seed: int, workers, cache,
               campaign_kw) -> tuple[dict, CampaignStats]:
    grid = scenario.sched
    specs = _fig5_batch_specs(
        m=grid.m, n=grid.n, alpha=grid.alpha, beta=grid.beta,
        utilizations=grid.utilizations,
        sets_per_point=grid.sets_per_point, seed=seed,
        schemes=grid.schemes)
    run = run_campaign(_fig5_batch_unit, specs, seed=seed,
                       workers=workers, cache=cache, **campaign_kw)
    points = _aggregate_batch_points(specs, run.results,
                                     grid.utilizations,
                                     grid.sets_per_point, grid.schemes)
    return {
        "kind": "sched",
        "schemes": list(grid.schemes),
        "points": [{"utilization": p.utilization, "ratios": p.ratios}
                   for p in points],
    }, run.stats


_RUNNERS = {
    "latency": _run_latency,
    "slowdown": _run_slowdown,
    "modes": _run_modes,
    "sched": _run_sched,
}


def run_scenario(scenario: Scenario, *,
                 workers: Optional[int] = None,
                 cache: object = "auto",
                 seed: Optional[int] = None,
                 backend: Optional[str] = None,
                 soc_sched: Optional[str] = None,
                 engine: Optional[str] = None,
                 unit_timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 strict: Optional[bool] = None,
                 pool: Optional[object] = None,
                 shutdown_event: Optional[object] = None,
                 ) -> ScenarioResult:
    """Run one scenario end-to-end through the campaign engine.

    ``seed`` overrides the scenario's built-in seed (the catalog tables
    are all produced with the built-in one).  ``workers``/``cache``
    follow the campaign defaults (``REPRO_WORKERS``,
    ``REPRO_CACHE_DIR``); ``backend`` pins the schedulability backend
    for sched scenarios (default ``REPRO_SCHED_BACKEND`` / auto),
    ``soc_sched`` the co-simulation scheduler for co-sim scenarios
    (default ``REPRO_SOC_SCHED`` / heap), and ``engine`` the core
    execution engine tier (default ``REPRO_CORE_ENGINE`` / decoded).
    ``unit_timeout``/``max_retries``/``strict`` are the campaign
    fault-tolerance knobs (defaults ``REPRO_UNIT_TIMEOUT`` /
    ``REPRO_MAX_RETRIES`` / ``REPRO_CAMPAIGN_STRICT``).  ``pool``
    reuses a warm :class:`repro.campaign.WorkerPool` across scenarios
    (the service daemon's amortised fan-out) and ``shutdown_event`` is
    an external drain trigger for callers that run scenarios off the
    main thread.  Results are independent of every one of them — they
    are execution knobs, never part of scenario identity.
    """
    run_seed = scenario.seed if seed is None else seed
    campaign_kw = {"unit_timeout": unit_timeout,
                   "max_retries": max_retries, "strict": strict,
                   "pool": pool, "shutdown_event": shutdown_event}
    events.emit("scenario.start", scenario=scenario.name,
                kind=scenario.kind, seed=run_seed)
    started = time.perf_counter()
    with backend_override(backend), soc_sched_override(soc_sched), \
            engine_override(engine):
        payload, stats = _RUNNERS[scenario.kind](
            scenario, run_seed, workers, cache, campaign_kw)
    events.emit("scenario.end", scenario=scenario.name,
                kind=scenario.kind,
                seconds=round(time.perf_counter() - started, 6),
                computed=stats.computed, cached=stats.cached,
                quarantined=stats.quarantined)
    return ScenarioResult(scenario=scenario, seed=run_seed,
                          payload=payload, stats=stats)
