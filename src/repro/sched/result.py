"""Shared partitioning-result types for all three schemes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .model import RTTask


class Role(enum.Enum):
    """What a placed computation is."""

    ORIGINAL = "original"
    CHECK = "check"          # first duplicated computation
    CHECK2 = "check2"        # second duplicated computation (T_V3)


@dataclass(frozen=True)
class Assignment:
    """One computation placed on one core with its load contribution."""

    task: RTTask
    core: int
    role: Role
    load: float              # density (FlexStep) or utilisation (others)


@dataclass
class PartitionResult:
    """Outcome of a partitioning attempt."""

    scheme: str
    num_cores: int
    success: bool
    assignments: list[Assignment] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)
    reason: str = ""
    #: Scheme-specific metadata (e.g. lockstep group layout).
    meta: dict = field(default_factory=dict)

    def core_assignments(self, core: int) -> list[Assignment]:
        return [a for a in self.assignments if a.core == core]

    def validate_disjoint_copies(self) -> bool:
        """Original and check copies of a task must sit on distinct cores
        (a check on the same core could share the fault)."""
        for task_id in {a.task.task_id for a in self.assignments}:
            cores = [a.core for a in self.assignments
                     if a.task.task_id == task_id]
            if len(cores) != len(set(cores)):
                return False
        return True
