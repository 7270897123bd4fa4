"""Hardware configuration dataclasses (paper Table II).

The paper evaluates a homogeneous SoC of in-order scalar Rocket cores at
1.6 GHz with the memory hierarchy of Table II.  This module captures those
parameters as frozen dataclasses so every simulator component reads its
latencies and sizes from one place, and experiments can sweep them.

The FlexStep-specific storage budget (Sec. VI-E: 8 B CPC, 518 B ASS,
1088 B DBC, 1614 B total per core) lives in :class:`FlexStepConfig` and is
consumed both by the microarchitecture models (FIFO depths) and by the
analytic power/area model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigurationError

#: Core clock frequency from Table II (cycles per second).
DEFAULT_CLOCK_HZ: int = 1_600_000_000

#: Default checking-segment instruction-count limit (Sec. III-A).
DEFAULT_SEGMENT_LIMIT: int = 5000

#: Co-simulation scheduler names accepted by ``FlexStepSoC.run(sched=)``
#: and the ``REPRO_SOC_SCHED`` environment variable (``auto`` resolves
#: to ``heap``; ``loop`` is the round-scan oracle).  Both schedulers are
#: bit-identical, so the choice is no part of any config object or
#: campaign identity.
SOC_SCHED_CHOICES: tuple[str, ...] = ("auto", "loop", "heap")

#: Execution-engine tiers accepted by ``Core(engine=)`` and the
#: ``REPRO_CORE_ENGINE`` environment variable (``auto`` defers to the
#: env var, then ``decoded``).  ``interp`` is the seed reference
#: interpreter and ``decoded`` the kernel-dispatch engine.  Both are
#: bit-identical, so — like the co-sim scheduler — the tier is no part
#: of any config object or campaign identity.
CORE_ENGINE_CHOICES: tuple[str, ...] = ("auto", "interp", "decoded")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    ``latency_cycles`` is the load-to-use latency on a hit;
    ``mshrs`` bounds outstanding misses (only meaningful for L2 here).
    """

    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency_cycles: int = 2
    mshrs: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigurationError(
                f"cache geometry must be positive: {self}")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigurationError(
                "cache size must divide evenly into ways*line: "
                f"{self.size_bytes} B / ({self.ways} ways * "
                f"{self.line_bytes} B lines)")

    @property
    def sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Branch predictor sizing (Table II: 512 BHT, 28 BTB, 6 RAS)."""

    bht_entries: int = 512
    btb_entries: int = 28
    ras_entries: int = 6
    mispredict_penalty_cycles: int = 3

    def __post_init__(self) -> None:
        if min(self.bht_entries, self.btb_entries, self.ras_entries) <= 0:
            raise ConfigurationError(
                f"predictor table sizes must be positive: {self}")


@dataclass(frozen=True)
class CoreConfig:
    """One in-order scalar core (Table II, 'Homogeneous Core')."""

    clock_hz: int = DEFAULT_CLOCK_HZ
    pipeline_stages: int = 5
    phys_registers: int = 64
    num_alus: int = 1
    num_divs: int = 1
    num_fpus: int = 1
    branch_predictor: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig)
    #: Extra cycles for integer multiply / divide on the single DIV unit.
    mul_latency_cycles: int = 3
    div_latency_cycles: int = 16

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigurationError("clock_hz must be positive")

    def cycles_to_us(self, cycles: int | float) -> float:
        """Convert a cycle count to microseconds at this core's clock."""
        return cycles * 1e6 / self.clock_hz


@dataclass(frozen=True)
class MemoryConfig:
    """Memory hierarchy (Table II, 'Memory Hierarchy')."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024, ways=4, latency_cycles=2))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024, ways=4, latency_cycles=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=512 * 1024, ways=8, latency_cycles=40, mshrs=8))
    dram_latency_cycles: int = 120
    dram_size_bytes: int = 64 * 1024 * 1024


@dataclass(frozen=True)
class FlexStepConfig:
    """FlexStep microarchitecture parameters (Secs. III, VI-E).

    Storage budget per core (Sec. VI-E): CPC 8 B, ASS 518 B, DBC 1088 B.
    The DBC budget is interpreted as the per-core Data Buffer FIFO: with
    a 16 B entry (8 B address + 8 B data) that is 68 entries; we round the
    default to 64 entries and keep the byte figure for area modelling.
    """

    segment_limit: int = DEFAULT_SEGMENT_LIMIT
    fifo_entries: int = 64
    #: 16 B per FIFO entry: 64-bit address + 64-bit data.
    fifo_entry_bytes: int = 16
    cpc_bytes: int = 8
    ass_bytes: int = 518
    dbc_bytes: int = 1088
    #: Cycles for the interconnect to move one entry between FIFOs.
    channel_latency_cycles: int = 1
    #: Optional spill space in main memory, accessed via DMA (Sec. III-C).
    dma_spill_entries: int = 0
    #: Max checker cores attachable to one main core (one-to-N channel).
    max_checkers_per_main: int = 2

    def __post_init__(self) -> None:
        if self.segment_limit <= 0:
            raise ConfigurationError("segment_limit must be positive")
        if self.fifo_entries <= 0:
            raise ConfigurationError("fifo_entries must be positive")
        if self.max_checkers_per_main < 1:
            raise ConfigurationError("max_checkers_per_main must be >= 1")

    @property
    def storage_bytes_per_core(self) -> int:
        """Total FlexStep storage overhead per core (paper: 1614 B)."""
        return self.cpc_bytes + self.ass_bytes + self.dbc_bytes

    @property
    def total_buffer_entries(self) -> int:
        """FIFO entries plus any DMA spill space."""
        return self.fifo_entries + self.dma_spill_entries


@dataclass(frozen=True)
class SoCConfig:
    """A homogeneous multi-core SoC: n cores + shared L2 + FlexStep units."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    flexstep: FlexStepConfig = field(default_factory=FlexStepConfig)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")

    def with_flexstep(self, **kwargs) -> "SoCConfig":
        """Return a copy with FlexStep parameters overridden."""
        return dataclasses.replace(
            self, flexstep=dataclasses.replace(self.flexstep, **kwargs))


def table2_config(num_cores: int = 4) -> SoCConfig:
    """The exact evaluated configuration of paper Table II."""
    return SoCConfig(num_cores=num_cores)


def soc_config_to_dict(config: SoCConfig) -> dict:
    """JSON-able form of a :class:`SoCConfig` (campaign unit specs)."""
    return dataclasses.asdict(config)


def soc_config_from_dict(data: dict) -> SoCConfig:
    """Inverse of :func:`soc_config_to_dict` (validates via __post_init__)."""
    core = dict(data["core"])
    core["branch_predictor"] = BranchPredictorConfig(
        **core["branch_predictor"])
    memory = dict(data["memory"])
    for level in ("l1i", "l1d", "l2"):
        memory[level] = CacheConfig(**memory[level])
    return SoCConfig(
        num_cores=data["num_cores"],
        core=CoreConfig(**core),
        memory=MemoryConfig(**memory),
        flexstep=FlexStepConfig(**data["flexstep"]))


def describe_table2(config: SoCConfig | None = None) -> str:
    """Render a Table II-style description of ``config`` (for reports)."""
    cfg = config or table2_config()
    core, mem = cfg.core, cfg.memory
    bp = core.branch_predictor
    lines = [
        "Homogeneous Core",
        f"  Core        In-order scalar, @{core.clock_hz / 1e9:.1f}GHz",
        (f"  Pipeline    {core.pipeline_stages}-stage pipeline, "
         f"{core.phys_registers} Int/FP Phy Registers, "
         f"{core.num_alus} ALU, {core.num_divs} DIV, {core.num_fpus} FPU"),
        (f"  Branch Pred {bp.bht_entries}-entry BHT, "
         f"{bp.btb_entries}-entry BTB, {bp.ras_entries}-entry RAS"),
        "Memory Hierarchy",
        (f"  L1 I-Cache  {mem.l1i.size_bytes // 1024} KB, {mem.l1i.ways}-way,"
         f" Blocking, {mem.l1i.latency_cycles} LatencyCycles"),
        (f"  L1 D-Cache  {mem.l1d.size_bytes // 1024} KB, {mem.l1d.ways}-way,"
         f" Blocking, {mem.l1d.latency_cycles} LatencyCycles"),
        (f"  L2 Cache    {mem.l2.size_bytes // 1024} KB, {mem.l2.ways}-way, "
         f"{mem.l2.mshrs} MSHRs, {mem.l2.latency_cycles} LatencyCycles"),
    ]
    return "\n".join(lines)
