"""Exact EDF schedulability machinery: demand bound functions and QPA.

The paper's Fig. 5 uses the (sufficient) density test, as Algorithm 3
prescribes.  This module provides the exact counterpart for sporadic
task systems on one processor — the demand bound function (Baruah et
al.) and Quick Processor-demand Analysis (Zhang & Burns) — so tests
can re-judge partition results exactly.  No scenario runs it: it is the
reference the density test is checked against.

A computation placed on a core is abstracted as a ``(C, D, T)`` triple;
for FlexStep's virtual-deadline model the original computation of a
verification task contributes ``(C, D', T)`` and each check copy
``(C, D − D', T)`` with release offset handled pessimistically (the
check behaves like an independent sporadic task with that deadline).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import AnalysisError
from .model import RTTask
from .result import PartitionResult, Role

#: Epsilon added to the job count before flooring in :meth:`DemandTask.dbf`.
#: ``(t - D) / T`` can land one ulp below an integer when ``t`` sits
#: exactly on a deadline multiple (``(0.3 - 0.1) / 0.1`` is
#: ``1.9999999999999998``), silently dropping a whole job.  The fuzz is
#: on the dimensionless job-count axis, so it is scale-free; job counts
#: are bounded by the step-point cap (200k), far below 1/eps.
DBF_JOB_EPS = 1e-9

#: Slack allowed on the processor-demand comparison ``h(t) <= t``.
QPA_DEMAND_EPS = 1e-9


@dataclass(frozen=True)
class DemandTask:
    """One sporadic demand source on a core: (C, D, T)."""

    wcet: float
    deadline: float
    period: float

    def __post_init__(self) -> None:
        if self.wcet <= 0 or self.deadline <= 0 or self.period <= 0:
            raise AnalysisError(f"non-positive parameter in {self}")
        if self.wcet > self.deadline:
            raise AnalysisError(
                f"C={self.wcet} exceeds D={self.deadline}: trivially "
                "unschedulable")

    @property
    def utilization(self) -> float:
        return self.wcet / self.period

    def dbf(self, t: float) -> float:
        """Demand bound in [0, t]: max work with both release and
        deadline inside the interval.

        The job count is epsilon-robust (see :data:`DBF_JOB_EPS`): a
        ``t`` landing exactly on a deadline multiple counts that job
        even when float division puts the quotient an ulp short of the
        integer.
        """
        if t < self.deadline:
            return 0.0
        jobs = math.floor((t - self.deadline) / self.period
                          + DBF_JOB_EPS) + 1
        return jobs * self.wcet


def total_dbf(tasks: Sequence[DemandTask], t: float) -> float:
    return sum(task.dbf(t) for task in tasks)


def _deadlines_up_to(tasks: Sequence[DemandTask], limit: float, *,
                     max_points: int = 200_000) -> list[float]:
    """All absolute deadlines ≤ limit (the dbf's step points).

    Raises rather than enumerating unboundedly when the busy-period
    bound is pathological (utilisation extremely close to 1 with long
    periods) — exact analysis is then impractical and the caller should
    fall back to the sufficient test.
    """
    eps_limit = limit + 1e-12
    # Upper-bound the enumeration analytically first: when the raw
    # (pre-dedupe) point count provably fits the budget, distinct
    # points fit too and no cap check is needed inside the hot loop.
    raw_bound = 0
    for task in tasks:
        if task.deadline <= eps_limit:
            raw_bound += int((eps_limit - task.deadline)
                             // task.period) + 2
    if raw_bound > max_points:
        # Near or past the cap: fall back to set-based enumeration so
        # the "too many *distinct* points" raise semantics match the
        # seed exactly even for duplicate-heavy task sets.
        distinct: set[float] = set()
        for task in tasks:
            d = task.deadline
            while d <= eps_limit:
                distinct.add(d)
                if len(distinct) > max_points:
                    raise AnalysisError(
                        f"QPA step-point count exceeds {max_points} "
                        f"(bound {limit:.3g})")
                d += task.period
        return sorted(distinct)
    points: list[float] = []
    for task in tasks:
        d = task.deadline
        period = task.period
        while d <= eps_limit:
            points.append(d)
            d += period
    points.sort()
    # Single dedupe pass over the sorted run: equal absolute deadlines
    # from different tasks collapse to one test point, without paying a
    # per-insert float hash as the seed's set-based enumeration did.
    out: list[float] = []
    last: float | None = None
    for p in points:
        if p != last:
            out.append(p)
            last = p
    return out


def qpa_interval_bound(task_list: Sequence[DemandTask]) -> float:
    """The analysis interval bound L of the QPA test.

    ``dbf(t) <= t`` can only be violated below this bound, so the
    step-point enumeration stops there.  QPA and the demand scan share
    it, so both test the same points.
    """
    total_u = sum(t.utilization for t in task_list)
    if total_u < 1.0 - 1e-9:
        la = max(0.0, sum((t.period - t.deadline) * t.utilization
                          for t in task_list) / (1.0 - total_u))
        return max(la, max(t.deadline for t in task_list))
    # U == 1: fall back to the hyperperiod-ish bound via max deadline
    return 2 * max(t.deadline + t.period for t in task_list)


def qpa_schedulable(tasks: Iterable[DemandTask], *,
                    max_points: int = 200_000) -> bool:
    """Exact EDF test on one processor via QPA.

    Returns True iff ``dbf(t) <= t`` for all t — checked backwards from
    the busy-period bound per Zhang & Burns.  ``max_points`` bounds the
    step-point enumeration (raises on pathological inputs rather than
    silently truncating).
    """
    task_list = [t for t in tasks]
    if not task_list:
        return True
    total_u = sum(t.utilization for t in task_list)
    if total_u > 1.0 + 1e-12:
        return False
    bound = qpa_interval_bound(task_list)
    points = _deadlines_up_to(task_list, bound, max_points=max_points)
    # QPA backward iteration
    if not points:
        return True
    t = points[-1]
    d_min = points[0]
    while t >= d_min - 1e-12:
        h = total_dbf(task_list, t)
        if h > t + QPA_DEMAND_EPS:
            return False
        if h < t - 1e-12:
            if h < d_min - 1e-12:
                # demand already below the first step point: done
                break
            # snap to the largest deadline <= h
            idx = _largest_leq(points, h)
            if idx < 0:
                break
            t = points[idx]
        else:
            idx = _largest_leq(points, t - QPA_DEMAND_EPS)
            if idx < 0:
                break
            t = points[idx]
    return True


def dbf_scan_schedulable(tasks: Iterable[DemandTask], *,
                         max_points: int = 200_000) -> bool:
    """Brute-force exact EDF test: check ``dbf(t) <= t`` at **every**
    step point up to the analysis bound.

    This is the processor-demand criterion stated directly — the oracle
    the QPA paper defines its fixed-point iteration against.  QPA must
    agree with this scan on every input (the differential suite asserts
    it).
    """
    task_list = [t for t in tasks]
    if not task_list:
        return True
    total_u = sum(t.utilization for t in task_list)
    if total_u > 1.0 + 1e-12:
        return False
    bound = qpa_interval_bound(task_list)
    points = _deadlines_up_to(task_list, bound, max_points=max_points)
    return all(total_dbf(task_list, p) <= p + QPA_DEMAND_EPS
               for p in points)


def _largest_leq(points: list[float], value: float) -> int:
    """Index of the largest point <= value, or -1."""
    return bisect.bisect_right(points, value) - 1


def demand_tasks_for_core(result: PartitionResult, core: int,
                          ) -> list[DemandTask]:
    """Translate one core's assignments into demand sources.

    Uses the scheme's semantics: FlexStep originals get their virtual
    deadline and checks the residual window; everything else
    contributes its plain (C, D, T).
    """
    out = []
    for a in result.core_assignments(core):
        task: RTTask = a.task
        if result.scheme == "flexstep" and task.is_verification \
                and result.meta.get("virtual_deadlines", True):
            if a.role is Role.ORIGINAL:
                deadline = task.virtual_deadline
            else:
                deadline = task.deadline - task.virtual_deadline
        else:
            deadline = task.deadline
        out.append(DemandTask(wcet=task.wcet, deadline=deadline,
                              period=task.period))
    return out


def qpa_judge_partition(result: PartitionResult) -> bool:
    """Exact per-core EDF verdict for a partition."""
    return all(
        qpa_schedulable(demand_tasks_for_core(result, core))
        for core in range(result.num_cores))
