"""The paper's task model (Sec. V).

A task set of n sporadic tasks on m cores.  Task ``τi`` has WCET ``Ci``,
period ``Ti`` and implicit deadline ``Di = Ti``.  Classes:

* ``T_N`` — non-verification: runs once per period.
* ``T_V2`` — may require double-check: one duplicated computation on a
  different core.
* ``T_V3`` — may require triple-check: two duplicated computations on
  two further cores.

For asynchronous verification the original computation is scheduled
against a *virtual deadline* ``D'`` reserving time for the check, which
runs in the window ``(D', D]``:

* V2: ``D' = D/2``             (minimises C/D' + C/(D−D'))
* V3: ``D' = (√2 − 1) D``      (minimises C/D' + 2·C/(D−D'))

Densities: ``δo = C/D'`` for the original, ``δv = C/(D−D')`` per check
copy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import TaskModelError

#: Optimal virtual-deadline factor for double-check tasks: D' = D/2.
OPT_V2_FACTOR = 0.5
#: Optimal virtual-deadline factor for triple-check tasks: D' = (√2−1)D.
OPT_V3_FACTOR = math.sqrt(2.0) - 1.0


class TaskClass(enum.Enum):
    """Reliability class of a task (paper: T_N, T_V2, T_V3)."""

    TN = "TN"
    TV2 = "TV2"
    TV3 = "TV3"

    @property
    def copies(self) -> int:
        """Number of duplicated (checking) computations."""
        if self is TaskClass.TV2:
            return 1
        if self is TaskClass.TV3:
            return 2
        return 0


@dataclass(frozen=True)
class RTTask:
    """One sporadic task with implicit deadline."""

    task_id: int
    wcet: float
    period: float
    cls: TaskClass = TaskClass.TN

    def __post_init__(self) -> None:
        if self.wcet <= 0:
            raise TaskModelError(f"task {self.task_id}: C must be > 0")
        if self.period <= 0:
            raise TaskModelError(f"task {self.task_id}: T must be > 0")
        if self.wcet > self.period:
            raise TaskModelError(
                f"task {self.task_id}: C={self.wcet} exceeds implicit "
                f"deadline D=T={self.period}")

    @property
    def deadline(self) -> float:
        """Implicit deadline D = T."""
        return self.period

    @property
    def utilization(self) -> float:
        return self.wcet / self.period

    @property
    def is_verification(self) -> bool:
        return self.cls is not TaskClass.TN

    @property
    def virtual_deadline(self) -> float:
        """D' for the original computation (D itself for T_N tasks)."""
        if self.cls is TaskClass.TV2:
            return OPT_V2_FACTOR * self.deadline
        if self.cls is TaskClass.TV3:
            return OPT_V3_FACTOR * self.deadline
        return self.deadline

    @property
    def density_original(self) -> float:
        """δo = C / D' (C/D for non-verification tasks)."""
        return self.wcet / self.virtual_deadline

    @property
    def density_check(self) -> float:
        """δv = C / (D − D'); zero for non-verification tasks."""
        if not self.is_verification:
            return 0.0
        return self.wcet / (self.deadline - self.virtual_deadline)

    def with_class(self, cls: TaskClass) -> "RTTask":
        return RTTask(task_id=self.task_id, wcet=self.wcet,
                      period=self.period, cls=cls)


class TaskSet:
    """An ordered collection of tasks with aggregate views."""

    def __init__(self, tasks: Iterable[RTTask]):
        self.tasks: list[RTTask] = list(tasks)
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise TaskModelError("duplicate task ids in task set")

    def __iter__(self) -> Iterator[RTTask]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, idx: int) -> RTTask:
        return self.tasks[idx]

    @property
    def utilization(self) -> float:
        return sum(t.utilization for t in self.tasks)

    def by_class(self, cls: TaskClass) -> list[RTTask]:
        return [t for t in self.tasks if t.cls is cls]
