"""Schedulability experiment units (paper Fig. 5).

Sweeps normalised task-set utilisation (x-axis: total utilisation
divided by m) and reports the percentage of randomly generated task
sets each scheme's test accepts, for the paper's six configurations.

A ``sched`` scenario (:mod:`repro.scenarios`) runs the sweep on the
campaign engine: one work unit generates a **batch** of task sets and
judges each under every scheme through the multi-backend engine
(:mod:`.backend` — scalar oracle or vectorized numpy), so the grid
fans out across cores, caches on disk, and evaluates whole batches as
arrays.
Task-set identity derives from ``spawn_seed`` over the generation
parameters alone — ``(seed, m, n, α, β, x, set index)`` — never from
process state, scheme selection, batch boundaries, backend choice or
unit-function version, so ``workers=1`` and ``workers=N`` (and the
cached replay, and either backend) are bit-identical, and every scheme
judges the *same* task sets.  The scalar oracle is the ``python``
backend: pin it with ``REPRO_SCHED_BACKEND=python`` to replay any unit
through the original per-set code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..campaign import spawn_seed
from .backend import get_backend
from .hmr import partition_hmr
from .lockstep import partition_lockstep
from .partition import partition_flexstep
from .result import PartitionResult

#: The six (m, n, α, β) configurations of Fig. 5(a)–(f).
FIG5_CONFIGS: dict[str, dict] = {
    "a": {"m": 8, "n": 160, "alpha": 0.0625, "beta": 0.0625},
    "b": {"m": 8, "n": 160, "alpha": 0.125, "beta": 0.125},
    "c": {"m": 8, "n": 160, "alpha": 0.25, "beta": 0.25},
    "d": {"m": 8, "n": 160, "alpha": 0.25, "beta": 0.0},
    "e": {"m": 16, "n": 160, "alpha": 0.125, "beta": 0.125},
    "f": {"m": 8, "n": 80, "alpha": 0.25, "beta": 0.25},
}

#: Default x-axis of Fig. 5.
DEFAULT_UTILIZATIONS: tuple[float, ...] = tuple(
    round(0.35 + 0.05 * i, 2) for i in range(13))  # 0.35 .. 0.95

#: The paper's three partitioning schemes; the scalar backend judges
#: each set with these.
SCHEMES: dict[str, Callable[..., PartitionResult]] = {
    "lockstep": partition_lockstep,
    "hmr": partition_hmr,
    "flexstep": partition_flexstep,
}


@dataclass
class SchedulabilityPoint:
    """One x-axis point: acceptance ratio per scheme."""

    utilization: float                      # normalised (U_total / m)
    ratios: dict[str, float] = field(default_factory=dict)

    def percent(self, scheme: str) -> float:
        return 100.0 * self.ratios[scheme]


def task_set_seed(seed: int, m: int, n: int, alpha: float, beta: float,
                  x: float, index: float) -> int:
    """The deterministic RNG seed of one generated task set.

    Shared by the campaign unit and the determinism regression tests:
    set ``index`` at utilisation point ``x`` is the same task set no
    matter which process, worker count or scheme subset evaluates it.
    """
    return spawn_seed(seed, "fig5-task-set", m, n, alpha, beta, x, index)


def _fig5_batch_unit(spec: dict, rng_seed: int) -> list[dict]:
    """One batched work unit: ``set_count`` task sets judged per scheme.

    Set ``set_start + j`` derives its RNG stream from
    :func:`task_set_seed` alone, so batch boundaries never move
    task-set identity; the active backend
    (``REPRO_SCHED_BACKEND`` — inherited by campaign workers) only
    decides *how* the batch is evaluated, never the verdicts.
    """
    del rng_seed   # identity must not depend on unit version or schemes
    seeds = [
        task_set_seed(spec["seed"], spec["m"], spec["n"], spec["alpha"],
                      spec["beta"], spec["x"], spec["set_start"] + j)
        for j in range(spec["set_count"])
    ]
    return get_backend().judge_fig5(
        m=spec["m"], n=spec["n"], alpha=spec["alpha"],
        beta=spec["beta"], total_utilization=spec["x"] * spec["m"],
        seeds=seeds, schemes=spec["schemes"])


_fig5_batch_unit.campaign_version = "1"


def _fig5_batch_specs(*, m: int, n: int, alpha: float, beta: float,
                      utilizations: Sequence[float], sets_per_point: int,
                      seed: int, schemes: Sequence[str]) -> list[dict]:
    """The batched grid: one unit per utilisation point.

    A whole x-axis point's task sets form one batch, the sweet spot for
    the vectorized backend.
    """
    return [
        {"m": m, "n": n, "alpha": alpha, "beta": beta, "x": x,
         "set_start": 0, "set_count": sets_per_point,
         "seed": seed, "schemes": list(schemes)}
        for x in utilizations
    ]


def _aggregate_batch_points(specs: Sequence[dict],
                            results: Sequence[Sequence[dict]],
                            utilizations: Sequence[float],
                            sets_per_point: int,
                            schemes: Sequence[str],
                            ) -> list[SchedulabilityPoint]:
    """Aggregate batched-unit results (a verdict list per unit)."""
    accepted: dict[float, dict[str, int]] = {
        x: {s: 0 for s in schemes} for x in utilizations}
    for spec, verdicts in zip(specs, results):
        bucket = accepted[spec["x"]]
        for verdict in verdicts:
            for s in schemes:
                bucket[s] += bool(verdict[s])
    return [
        SchedulabilityPoint(
            utilization=x,
            ratios={s: accepted[x][s] / sets_per_point for s in schemes})
        for x in utilizations
    ]


def weighted_schedulability(points: Sequence[SchedulabilityPoint],
                            scheme: str) -> float:
    """Utilisation-weighted acceptance (a standard scalar summary)."""
    num = sum(p.utilization * p.ratios[scheme] for p in points)
    den = sum(p.utilization for p in points)
    return num / den if den else 0.0


def render_curves(points: Sequence[SchedulabilityPoint],
                  schemes: Sequence[str] = ("lockstep", "hmr", "flexstep"),
                  ) -> str:
    """ASCII table matching the paper's plotted series."""
    header = "util  " + "  ".join(f"{s:>9}" for s in schemes)
    lines = [header]
    for p in points:
        row = f"{p.utilization:4.2f}  " + "  ".join(
            f"{p.percent(s):8.1f}%" for s in schemes)
        lines.append(row)
    return "\n".join(lines)
