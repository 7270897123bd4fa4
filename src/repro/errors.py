"""Exception hierarchy for the FlexStep reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated Python
errors.  Sub-hierarchies mirror the package layout: ISA/assembly errors,
core execution errors, FlexStep mechanism errors, kernel errors and
scheduling-analysis errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# ISA / assembler
# ---------------------------------------------------------------------------

class IsaError(ReproError):
    """Base class for instruction-set related errors."""


class AssemblerError(IsaError):
    """Assembly source could not be parsed or resolved.

    Carries the (1-based) source line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Core / execution substrate
# ---------------------------------------------------------------------------

class CoreError(ReproError):
    """Base class for processor-core execution errors."""


class IllegalInstructionError(CoreError):
    """The core fetched a word that does not decode to a valid instruction."""


class MemoryAccessError(CoreError):
    """An access touched an unmapped or misaligned address."""


class PrivilegeError(CoreError):
    """An operation was attempted from an insufficient privilege level."""


class ExecutionLimitExceeded(CoreError):
    """A run exceeded its configured instruction or cycle budget.

    Used by drivers as a watchdog against runaway programs.
    """


# ---------------------------------------------------------------------------
# FlexStep mechanism
# ---------------------------------------------------------------------------

class FlexStepError(ReproError):
    """Base class for errors in the FlexStep microarchitectural units."""


class ConfigurationError(FlexStepError):
    """Invalid core-attribute or interconnect configuration."""


class ChannelError(FlexStepError):
    """Interconnect channel misuse (unconnected, conflicting, etc.)."""


class VerificationMismatch(FlexStepError):
    """Raised (optionally) when a checker detects a divergence.

    The normal reporting path is ``C.result`` returning a failure record;
    this exception exists for strict modes and tests.
    """


class FaultAccountingError(FlexStepError):
    """Fault-injection bookkeeping is inconsistent.

    Raised when a detection is attributed to a fault that cannot have
    caused it (e.g. the checker flagged the segment *before* the fault
    was injected) — a sample that must be surfaced, never silently
    clamped into the latency distribution.
    """


# ---------------------------------------------------------------------------
# Kernel / OS layer
# ---------------------------------------------------------------------------

class KernelError(ReproError):
    """Base class for OS-layer errors."""


class SchedulerError(KernelError):
    """Scheduler invariant violated (e.g. running task not in ready queue)."""


# ---------------------------------------------------------------------------
# Scheduling theory / analysis
# ---------------------------------------------------------------------------

class AnalysisError(ReproError):
    """Base class for scheduling-analysis errors."""


class TaskModelError(AnalysisError):
    """A task or task set violates model assumptions (e.g. C > D)."""


class PartitioningError(AnalysisError):
    """A partitioning algorithm was mis-invoked (e.g. too few cores)."""


class SchedBackendError(AnalysisError):
    """A schedulability backend was requested but cannot be provided
    (unknown name, or the ``numpy`` backend without numpy installed)."""
