"""Declarative scenario schema.

A :class:`Scenario` names one complete experiment: an SoC topology
(how many main/checker groups co-simulate on one die, how many
checkers each main core gets, buffer depths), a workload mix, a fault
model (target field, burst width, per-segment rate or interval,
checker-side vs main-side injection) and — for schedulability
scenarios — the task-grid parameters of the Fig. 5 methodology.

Scenarios *compile* into campaign work units (see
:mod:`repro.scenarios.runner`), so every scenario inherits the
campaign engine's multiprocessing fan-out, SHA-256 spawn-seeding and
content-addressed result cache: results are bit-identical for any
worker count and replay from cache without recomputation.

The schema is JSON-round-trippable (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`) so saved reports embed the exact scenario
that produced them.

Execution knobs are deliberately *not* part of the schema: worker
count, cache location, the schedulability backend and the co-sim
scheduler (``REPRO_SOC_SCHED`` / ``run_scenario(soc_sched=...)``) all
leave results bit-identical, so they live outside scenario identity —
a report produced with any of them pins the same tables.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigurationError
from ..flexstep.faults import FaultTarget
from ..sched.experiments import DEFAULT_UTILIZATIONS, SCHEMES
from ..workloads.profiles import WorkloadProfile, resolve_profiles

#: The experiment families a scenario can belong to.
KINDS = ("latency", "slowdown", "modes", "sched")

#: Checker-side: corrupt one checker's receive FIFO.  Main-side:
#: corrupt the main core's forwarding logic (every checker sees it).
SIDES = ("checker", "main")


@dataclass(frozen=True)
class FaultModel:
    """What gets injected, where, and how often (Sec. VI-C, extended)."""

    target: str = "any"                   # a FaultTarget value
    segment_interval: int = 2             # arm every N-th segment...
    segment_rate: Optional[float] = None  # ...or each with probability
    burst_bits: int = 1                   # adjacent bits per fault
    side: str = "checker"                 # "checker" | "main"

    def __post_init__(self) -> None:
        FaultTarget(self.target)          # raises on unknown value
        if self.side not in SIDES:
            raise ConfigurationError(
                f"fault side must be one of {SIDES}, got {self.side!r}")
        if self.segment_interval < 1:
            raise ConfigurationError("segment_interval must be >= 1")
        if self.segment_rate is not None \
                and not 0.0 < self.segment_rate <= 1.0:
            raise ConfigurationError("segment_rate must be in (0, 1]")
        if self.burst_bits < 1:
            raise ConfigurationError("burst_bits must be >= 1")


@dataclass(frozen=True)
class Topology:
    """SoC layout for co-simulated fault-injection scenarios.

    ``pairs`` main/checker groups share one die; each group is one
    main core plus ``checkers`` checker cores, so the SoC has
    ``pairs * (1 + checkers)`` cores (the catalog spans 2 to 32).
    """

    pairs: int = 1
    checkers: int = 1
    fifo_entries: Optional[int] = None      # None = Table II default
    #: DMA spill-buffer entries backing the on-chip FIFO (Sec. III-C:
    #: "additional buffering can be allocated in main memory").
    dma_spill_entries: int = 4096
    #: Checker service pause between segments (cycles): ~12 µs the
    #: checker core spends on other tasks (asynchronous verification).
    service_pause_cycles: int = 20_000

    def __post_init__(self) -> None:
        if self.pairs < 1:
            raise ConfigurationError("pairs must be >= 1")
        if self.checkers < 1 or self.checkers > 2:
            raise ConfigurationError(
                "checkers per main must be 1 (dual) or 2 (triple)")
        if self.num_cores > 32:
            raise ConfigurationError(
                f"topology needs {self.num_cores} cores; the scenario "
                "framework models 2-32")
        if self.fifo_entries is not None and self.fifo_entries < 1:
            raise ConfigurationError("fifo_entries must be >= 1")

    @property
    def num_cores(self) -> int:
        return self.pairs * (1 + self.checkers)


@dataclass(frozen=True)
class SchedGrid:
    """Fig. 5-style schedulability grid ((m, n, α, β) × utilisation)."""

    m: int = 8
    n: int = 160
    alpha: float = 0.125
    beta: float = 0.125
    utilizations: tuple = DEFAULT_UTILIZATIONS
    sets_per_point: int = 40
    schemes: tuple = ("lockstep", "hmr", "flexstep")

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ConfigurationError("m and n must be positive")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ConfigurationError(f"unknown schemes {sorted(unknown)}")
        if self.sets_per_point < 1:
            raise ConfigurationError("sets_per_point must be >= 1")
        # JSON round-trips lists; normalise to tuples for frozen hashing
        object.__setattr__(self, "utilizations",
                           tuple(self.utilizations))
        object.__setattr__(self, "schemes", tuple(self.schemes))


@dataclass(frozen=True)
class Scenario:
    """One named, fully-specified experiment."""

    name: str
    kind: str
    description: str = ""
    #: A suite name ("parsec" / "specint" / "all") or explicit
    #: workload names; ignored by ``sched`` scenarios.
    workloads: tuple = ("parsec",)
    target_instructions: int = 20_000
    repeats: int = 1
    seed: int = 7
    #: SoC core count for slowdown scenarios (None = per-measurement
    #: defaults: 1 vanilla / checkers+1 verified).
    cores: Optional[int] = None
    topology: Topology = field(default_factory=Topology)
    faults: FaultModel = field(default_factory=FaultModel)
    sched: SchedGrid = field(default_factory=SchedGrid)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"scenario kind must be one of {KINDS}, got {self.kind!r}")
        if not self.name or any(c.isspace() for c in self.name):
            raise ConfigurationError(
                f"scenario name must be non-empty, no spaces: {self.name!r}")
        if self.target_instructions < 2000:
            raise ConfigurationError(
                "target_instructions must be >= 2000 (one block)")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if isinstance(self.workloads, str):
            object.__setattr__(self, "workloads", (self.workloads,))
        else:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        self.profiles()   # fail fast on unknown workload names

    # ------------------------------------------------------------------

    def profiles(self) -> tuple[WorkloadProfile, ...]:
        """The resolved workload profiles of this scenario."""
        return resolve_profiles(self.workloads)

    def unit_count(self) -> int:
        """How many campaign work units the scenario compiles into."""
        if self.kind == "sched":
            # one batched unit per utilisation point: the whole
            # sets-per-point population is judged as one backend batch
            return len(self.sched.utilizations)
        if self.kind == "latency":
            return len(self.profiles()) * self.repeats
        return len(self.profiles())     # slowdown / modes: one per workload

    def replace(self, **kwargs) -> "Scenario":
        """A copy with top-level fields overridden (test-time scaling)."""
        return dataclasses.replace(self, **kwargs)

    def scaled(self, *, instructions: Optional[int] = None,
               repeats: Optional[int] = None,
               sets: Optional[int] = None) -> "Scenario":
        """A cheaper copy of the scenario for smoke runs.

        ``instructions`` caps ``target_instructions``, ``repeats``
        overrides the repeat count, and ``sets`` shrinks the sched
        grid's ``sets_per_point``.  ``None`` leaves a field untouched,
        so ``scenario.scaled()`` is the identity.  Scaling changes
        scenario identity (and therefore cache digests) — it is a
        different, smaller experiment, not an execution knob.
        """
        scenario = self
        if instructions is not None:
            scenario = scenario.replace(target_instructions=instructions)
        if repeats is not None:
            scenario = scenario.replace(repeats=repeats)
        if sets is not None:
            scenario = scenario.replace(sched=dataclasses.replace(
                scenario.sched, sets_per_point=sets))
        return scenario

    # -- JSON round-trip ------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        data["workloads"] = tuple(data["workloads"])
        data["topology"] = Topology(**data["topology"])
        data["faults"] = FaultModel(**data["faults"])
        data["sched"] = SchedGrid(**data["sched"])
        return cls(**data)
