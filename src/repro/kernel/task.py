"""Kernel task control blocks."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.registers import ArchSnapshot
from ..isa.program import Program


class TaskState(enum.Enum):
    NEW = "new"            # never dispatched (context must be initialised)
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass
class KernelTask:
    """One schedulable user task.

    ``verification`` marks the task as requiring error checking
    (``checkers`` cores' worth).  ``deadline`` is only used for EDF
    ordering inside the kernel's ready queues; the full analytical
    model lives in :mod:`repro.sched`.
    """

    name: str
    program: Optional[Program]
    verification: bool = False
    checkers: int = 1
    deadline: float = float("inf")
    state: TaskState = TaskState.NEW
    context: Optional[ArchSnapshot] = None
    #: True for the dedicated per-checker-core thread of Algorithm 2.
    checker_thread: bool = False

    @property
    def new_release(self) -> bool:
        """Algorithm 1 line 13: first dispatch of this task."""
        return self.state is TaskState.NEW

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KernelTask({self.name!r}, state={self.state.value}, "
                f"verification={self.verification})")
