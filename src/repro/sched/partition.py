"""FlexStep partitioning — paper Algorithm 3.

Partitioned EDF over densities with virtual deadlines:

1. Verification tasks (T_V3 then T_V2, each by descending utilisation)
   are placed first.  The original computation (density ``C/D'``) goes
   to the least-loaded core; each duplicated computation (density
   ``C/(D−D')``) goes to the least-loaded core *excluding* the cores
   already used by that task — original and checks must sit on distinct
   cores.
2. Non-verification tasks (descending utilisation) go to the
   least-loaded core with density ``C/D``.
3. The set is schedulable iff every core's total density ≤ 1 (EDF
   density test — sufficient for sporadic tasks with constrained
   deadlines).

The paper adds an explicit fallback (end of Sec. V): "Since our
schedulability test is a sufficient test, when the test fails and hard
real-time guarantees are not required, we can remove the virtual
deadline and use the verification task's original deadline and
utilisation for scheduling and partitioning."  ``mode="auto"`` (used in
the Fig. 5 experiments) applies exactly that: strict Algorithm 3 first,
the relaxed variant when it fails.  ``mode="strict"`` and
``mode="relaxed"`` select one variant explicitly (the ablation bench
compares them).
"""

from __future__ import annotations

from ..errors import PartitioningError
from .model import TaskClass, TaskSet
from .result import Assignment, PartitionResult, Role

_MODES = ("auto", "strict", "relaxed")


def _argmin_load(loads: list[float], exclude: set[int]) -> int:
    best = -1
    for k, load in enumerate(loads):
        if k in exclude:
            continue
        if best < 0 or load < loads[best]:
            best = k
    if best < 0:
        raise PartitioningError("no eligible core (m too small)")
    return best


def partition_flexstep(task_set: TaskSet, num_cores: int, *,
                       mode: str = "auto") -> PartitionResult:
    """Run Algorithm 3; always returns a result (success flag inside)."""
    if mode not in _MODES:
        raise PartitioningError(f"mode must be one of {_MODES}")
    if num_cores < 1:
        raise PartitioningError("need at least one core")
    needed = 1 + max((t.cls.copies for t in task_set), default=0)
    if num_cores < needed:
        return PartitionResult(
            scheme="flexstep", num_cores=num_cores, success=False,
            reason=f"{needed} distinct cores required, have {num_cores}")
    if mode == "auto":
        strict = _partition(task_set, num_cores, virtual=True)
        if strict.success:
            return strict
        relaxed = _partition(task_set, num_cores, virtual=False)
        relaxed.meta["fallback"] = True
        return relaxed
    return _partition(task_set, num_cores, virtual=(mode == "strict"))


def _partition(task_set: TaskSet, num_cores: int, *,
               virtual: bool) -> PartitionResult:
    loads = [0.0] * num_cores
    assignments: list[Assignment] = []

    # Verification tasks first: T_V3 before T_V2 (Al. 3 line 4 iterates
    # {T_V3, T_V2}), each class by descending utilisation.
    v3 = sorted(task_set.by_class(TaskClass.TV3),
                key=lambda t: t.utilization, reverse=True)
    v2 = sorted(task_set.by_class(TaskClass.TV2),
                key=lambda t: t.utilization, reverse=True)
    for task in (*v3, *v2):
        if virtual:
            delta_o = task.density_original
            delta_v = task.density_check
        else:
            delta_o = delta_v = task.utilization
        k = _argmin_load(loads, exclude=set())
        assignments.append(Assignment(task, k, Role.ORIGINAL, delta_o))
        loads[k] += delta_o
        k2 = _argmin_load(loads, exclude={k})
        assignments.append(Assignment(task, k2, Role.CHECK, delta_v))
        loads[k2] += delta_v
        if task.cls is TaskClass.TV3:
            k3 = _argmin_load(loads, exclude={k, k2})
            assignments.append(Assignment(task, k3, Role.CHECK2, delta_v))
            loads[k3] += delta_v

    # Non-verification tasks, descending utilisation.
    for task in sorted(task_set.by_class(TaskClass.TN),
                       key=lambda t: t.utilization, reverse=True):
        k = _argmin_load(loads, exclude=set())
        delta = task.utilization  # C/D with implicit deadline
        assignments.append(Assignment(task, k, Role.ORIGINAL, delta))
        loads[k] += delta

    over = [k for k, load in enumerate(loads) if load > 1.0 + 1e-12]
    return PartitionResult(
        scheme="flexstep", num_cores=num_cores, success=not over,
        assignments=assignments, loads=loads,
        reason="" if not over else
        f"density exceeds 1 on cores {over}",
        meta={"virtual_deadlines": virtual})
