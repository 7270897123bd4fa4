"""HMR (Hybrid Modular Redundancy) baseline partitioning.

HMR [Rogenmoser et al.] supports runtime split-lock: cores run
independently until a verification task executes, at which point a main
core and its checker core(s) are bound and execute the task
synchronously.  Between verifications the coupled cores behave as
normal compute cores (paper Fig. 1(b): τ3 runs on the checker core).
Two structural limits drive HMR's schedulability:

* **Synchronous coupling** — a T_V2 task occupies its core pair for its
  whole execution (a triple for T_V3), so its utilisation lands on
  every coupled core.
* **Non-preemptable verification** — while a verification task runs in
  split-lock, non-verification tasks on the coupled cores cannot
  preempt it even with earlier deadlines (Fig. 1(b)'s missed deadline).

Allocation (paper Sec. VI-B): verification tasks are prioritised —
packed first-fit by descending utilisation into split-lock pairs
(triples for T_V3), opening a new group only when the current one is
full.  Non-verification tasks then fill cores *without* verification
load first, falling back to the least-loaded core overall.

Schedulability: every core's utilisation ≤ 1, and each non-verification
task τj sharing a core with verification work must satisfy
``U_core + B_j / D_j ≤ 1`` with ``B_j`` the largest WCET among
verification computations on that core with a longer deadline — the
classical non-preemptive blocking extension of the EDF test, applied
only to the non-preemptable verification chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PartitioningError
from .model import TaskClass, TaskSet
from .result import Assignment, PartitionResult, Role

_ROLES = (Role.ORIGINAL, Role.CHECK, Role.CHECK2)


@dataclass
class _Group:
    """One split-lock core tuple (pair or triple)."""

    cores: tuple[int, ...]
    load: float = 0.0      # verification load carried by every core


def partition_hmr(task_set: TaskSet, num_cores: int) -> PartitionResult:
    """Partition under the HMR split-lock model."""
    if num_cores < 1:
        raise PartitioningError("need at least one core")
    needed = 1 + max((t.cls.copies for t in task_set), default=0)
    if num_cores < needed:
        return PartitionResult(
            scheme="hmr", num_cores=num_cores, success=False,
            reason=f"{needed} coupled cores required, have {num_cores}")

    v3 = sorted(task_set.by_class(TaskClass.TV3),
                key=lambda t: t.utilization, reverse=True)
    v2 = sorted(task_set.by_class(TaskClass.TV2),
                key=lambda t: t.utilization, reverse=True)
    tn = sorted(task_set.by_class(TaskClass.TN),
                key=lambda t: t.utilization, reverse=True)

    loads = [0.0] * num_cores
    verif_on = [False] * num_cores
    assignments: list[Assignment] = []
    groups: list[_Group] = []
    free_cores = list(range(num_cores))

    def open_group(width: int) -> _Group | None:
        if len(free_cores) < width:
            return None
        cores = tuple(free_cores[:width])
        del free_cores[:width]
        group = _Group(cores=cores)
        groups.append(group)
        return group

    # --- verification tasks: first-fit-decreasing into groups ----------
    for tasks, width in ((v3, 3), (v2, 2)):
        for task in tasks:
            u = task.utilization
            group = next((g for g in groups
                          if len(g.cores) >= width and g.load + u <= 1.0),
                         None)
            if group is None:
                group = open_group(width)
            if group is None:
                return PartitionResult(
                    scheme="hmr", num_cores=num_cores, success=False,
                    assignments=assignments, loads=loads,
                    reason=f"no cores left for a {width}-wide "
                           "split-lock group")
            for role, core in zip(_ROLES, group.cores[:width]):
                assignments.append(Assignment(task, core, role, u))
                loads[core] += u
                verif_on[core] = True
            group.load += u

    # --- non-verification tasks: clean cores first ----------------------
    for task in tn:
        u = task.utilization
        clean = [k for k in range(num_cores) if not verif_on[k]]
        pool = clean if clean and min(loads[k] for k in clean) + u <= 1.0 \
            else list(range(num_cores))
        core = min(pool, key=lambda k: loads[k])
        assignments.append(Assignment(task, core, Role.ORIGINAL, u))
        loads[core] += u

    ok, reason = _schedulable(assignments, loads, num_cores)
    return PartitionResult(
        scheme="hmr", num_cores=num_cores, success=ok,
        assignments=assignments, loads=loads, reason=reason,
        meta={"groups": [g.cores for g in groups]})


def _schedulable(assignments: list[Assignment], loads: list[float],
                 num_cores: int) -> tuple[bool, str]:
    for k in range(num_cores):
        if loads[k] > 1.0 + 1e-12:
            return False, f"utilisation exceeds 1 on core {k}"
    by_core: dict[int, list[Assignment]] = {}
    for a in assignments:
        by_core.setdefault(a.core, []).append(a)
    for k, items in by_core.items():
        verif = [a for a in items if a.task.is_verification]
        if not verif:
            continue
        for a in items:
            if a.task.is_verification:
                continue
            blockers = [v.task.wcet for v in verif
                        if v.task.deadline > a.task.deadline]
            if not blockers:
                continue
            blocking = max(blockers)
            if loads[k] + blocking / a.task.deadline > 1.0 + 1e-12:
                return False, (
                    f"core {k}: task {a.task.task_id} suffers blocking "
                    f"{blocking:.3f} against deadline "
                    f"{a.task.deadline:.3f}")
    return True, ""
