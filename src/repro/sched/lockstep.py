"""LockStep baseline partitioning (paper Sec. VI-B experiment setup).

LockStep statically binds cores into DCLS pairs (one main + one
checker) or TCLS triples (one main + two checkers); checker cores are
invisible to the scheduler and *every* task executing on a lockstep
main core is checked at the group's redundancy level, whether it needs
it or not — the paper's Fig. 1(a) rigidity.

Group formation follows the paper's setup: verification tasks are
allocated first in descending utilisation, "allocating a new group of
main and checker cores only when the current group was fully utilised":

* T_V3 tasks fill TCLS groups (3 cores each),
* T_V2 tasks fill DCLS groups (2 cores each),
* all remaining cores are paired into DCLS groups (the fabric is
  lockstep throughout — cores cannot opt out of checking), and any odd
  leftover core has no checker partner, so in a strict lockstep SoC it
  can host only non-verification work *without* reliability cover; we
  conservatively leave it usable for T_N tasks (this only helps the
  baseline).
* Non-verification tasks are then allocated across all main cores by
  least load.

Each main core runs preemptive EDF; with synchronous per-cycle checking
the checker shadows it exactly, so a main core is schedulable iff its
utilisation ≤ 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PartitioningError
from .model import TaskClass, TaskSet
from .result import Assignment, PartitionResult, Role


@dataclass
class _Group:
    main: int                 # index into the virtual core list
    checkers: int             # 1 = DCLS, 2 = TCLS
    load: float = 0.0


def partition_lockstep(task_set: TaskSet, num_cores: int,
                       ) -> PartitionResult:
    """Partition under a statically lockstepped fabric."""
    if num_cores < 1:
        raise PartitioningError("need at least one core")
    v3 = sorted(task_set.by_class(TaskClass.TV3),
                key=lambda t: t.utilization, reverse=True)
    v2 = sorted(task_set.by_class(TaskClass.TV2),
                key=lambda t: t.utilization, reverse=True)
    tn = sorted(task_set.by_class(TaskClass.TN),
                key=lambda t: t.utilization, reverse=True)

    cores_left = num_cores
    groups: list[_Group] = []
    assignments: list[Assignment] = []
    next_core = 0

    def new_group(checkers: int) -> _Group | None:
        nonlocal cores_left, next_core
        need = checkers + 1
        if cores_left < need:
            return None
        group = _Group(main=next_core, checkers=checkers)
        next_core += need
        cores_left -= need
        groups.append(group)
        return group

    # --- verification tasks into their level's groups -----------------
    for tasks, checkers in ((v3, 2), (v2, 1)):
        current: _Group | None = None
        for task in tasks:
            u = task.utilization
            if current is None or current.load + u > 1.0:
                current = new_group(checkers)
                if current is None:
                    return PartitionResult(
                        scheme="lockstep", num_cores=num_cores,
                        success=False, assignments=assignments,
                        loads=[g.load for g in groups],
                        reason=f"no cores left for a new "
                               f"{checkers + 1}-core group")
            assignments.append(
                Assignment(task, current.main, Role.ORIGINAL, u))
            current.load += u

    # --- pair the remaining fabric into DCLS groups --------------------
    while cores_left >= 2:
        new_group(1)
    spare_single = cores_left == 1  # usable for T_N only (no checker)
    if spare_single:
        groups.append(_Group(main=next_core, checkers=0))
        cores_left = 0

    if not groups:
        return PartitionResult(
            scheme="lockstep", num_cores=num_cores, success=not tn
            and not v2 and not v3,
            reason="no schedulable groups" if (tn or v2 or v3) else "")

    # --- non-verification tasks across all mains by least load ---------
    for task in tn:
        group = min(groups, key=lambda g: g.load)
        u = task.utilization
        assignments.append(Assignment(task, group.main, Role.ORIGINAL, u))
        group.load += u

    loads = [g.load for g in groups]
    over = [g.main for g in groups if g.load > 1.0 + 1e-12]
    return PartitionResult(
        scheme="lockstep", num_cores=num_cores, success=not over,
        assignments=assignments, loads=loads,
        reason="" if not over else
        f"utilisation exceeds 1 on main cores {over}",
        meta={"groups": [(g.main, g.checkers) for g in groups],
              "mains": len(groups)})
