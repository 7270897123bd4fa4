"""Render saved scenario results as summary tables.

Pure functions from a result document (``ScenarioResult.to_dict()`` /
a loaded report JSON) to text, built on the figure formatters in
:mod:`repro.analysis.reporting` — the same renderers the paper-figure
benches print through, so scenario tables match the repo's artefact
style and are golden-file testable.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.latency import LatencyResult
from ..analysis.reporting import (
    format_fault_summary,
    format_fig4,
    format_fig6,
)
from ..analysis.slowdown import (
    ModeRow,
    SlowdownRow,
    geomean_mode_row,
    geomean_row,
)
from ..sched.experiments import SchedulabilityPoint, render_curves
from .spec import Scenario


def _header(doc: dict) -> list[str]:
    scenario = Scenario.from_dict(doc["scenario"])
    stats = doc.get("stats") or {}
    lines = [
        f"scenario: {scenario.name}  [{scenario.kind}]  "
        f"seed={doc['seed']}",
        f"  {scenario.description}",
    ]
    if stats:
        lines.append(
            f"  units: {stats.get('total', 0)} "
            f"(computed {stats.get('computed', 0)}, "
            f"cached {stats.get('cached', 0)})")
    return lines


def _latency_results(payload: dict) -> list[LatencyResult]:
    return [
        LatencyResult(
            workload=row["workload"],
            latencies_us=list(row["latencies_us"]),
            detected=row["detected"], injected=row["injected"],
            armed_unfired=row.get("armed_unfired", 0),
            misattributed=row.get("misattributed", 0))
        for row in payload["workloads"]
    ]


def _render_latency(doc: dict) -> str:
    results = _latency_results(doc["payload"])
    return format_fault_summary(results)


def _render_slowdown(doc: dict) -> str:
    rows = [SlowdownRow(**row) for row in doc["payload"]["rows"]]
    rows.append(geomean_row(rows))
    return format_fig4(rows, "Main-core slowdown (normalised to vanilla)")


def _render_modes(doc: dict) -> str:
    rows = [ModeRow(**row) for row in doc["payload"]["rows"]]
    rows.append(geomean_mode_row(rows))
    return format_fig6(rows, "FlexStep slowdown by verification mode")


def _sched_points(payload: dict) -> list[SchedulabilityPoint]:
    return [SchedulabilityPoint(utilization=p["utilization"],
                                ratios=dict(p["ratios"]))
            for p in payload["points"]]


def _render_sched(doc: dict) -> str:
    payload = doc["payload"]
    return render_curves(_sched_points(payload), payload["schemes"])


_RENDERERS = {
    "latency": _render_latency,
    "slowdown": _render_slowdown,
    "modes": _render_modes,
    "sched": _render_sched,
}


def render_report(doc: dict) -> str:
    """The full summary table of one scenario result document."""
    body = _RENDERERS[doc["payload"]["kind"]](doc)
    return "\n".join([*_header(doc), "", body])


def render_catalog(scenarios: Sequence[Scenario]) -> str:
    """The ``python -m repro list`` table."""
    lines = [f"{'name':<20}{'kind':<10}{'units':>6}  description"]
    for s in scenarios:
        lines.append(f"{s.name:<20}{s.kind:<10}{s.unit_count():>6}  "
                     f"{s.description}")
    return "\n".join(lines)
