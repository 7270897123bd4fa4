"""Error-detection latency experiment (paper Fig. 7) and the general
fault-injection campaign unit behind the scenario catalog.

Reproduces Sec. VI-C: faults are injected into the forwarded data
(MAL entries, ASS checkpoint words) without disturbing the main core;
the detection latency is the time from injection to the checker
flagging the divergence.

Asynchrony is what gives the paper's ~20 µs latency scale: the checker
lags its main core by the buffered segments (the DBC FIFO plus DMA
spill space in main memory) and by the time it spends running other
work between segments.  The experiment therefore configures a realistic
spill buffer and a per-segment service pause; with a dedicated,
tightly-coupled checker the latency collapses to the sub-µs FIFO depth
(the ablation bench shows this).

A ``latency`` scenario (:mod:`repro.scenarios`) runs one campaign
work unit per (workload, repeat): each unit is a self-contained
co-simulation whose fault seed is fixed by the spec (``seed + 1000 ·
rep``, the seed repo's formula), so the latency samples are
bit-identical for any worker count, and a whole Fig. 7 suite fans its
profile × repeat grid across cores in a single pool.

Beyond the paper's fixed grid, the unit is parameterised over the full
fault model (multi-bit bursts, per-segment arming rate, checker-side
vs main-side injection) and over the SoC topology (``pairs``
main/checker groups co-simulated on one die, ``checkers`` per main,
FIFO depth) — the knobs :mod:`repro.scenarios` composes into named
scenarios.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from ..flexstep.die import build_verified_die
from ..flexstep.faults import FaultRecord, FaultTarget
from ..sim.stats import Histogram, percentile
from ..workloads.generator import GeneratorOptions, cached_program
from ..workloads.profiles import WorkloadProfile


@dataclass
class LatencyResult:
    """Detection-latency distribution for one workload."""

    workload: str
    latencies_us: list[float]
    detected: int
    injected: int
    records: list[FaultRecord] = field(default_factory=list)
    #: Armed segments that closed without an eligible packet (the
    #: injector re-armed the following segment for each).
    armed_unfired: int = 0
    #: Records whose segment failed *before* their injection — surfaced
    #: rather than folded into the latency distribution.
    misattributed: int = 0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.injected if self.injected else 0.0

    @property
    def mean_us(self) -> float:
        return (sum(self.latencies_us) / len(self.latencies_us)
                if self.latencies_us else 0.0)

    @property
    def p99_us(self) -> float:
        return percentile(self.latencies_us, 99) if self.latencies_us \
            else 0.0

    @property
    def max_us(self) -> float:
        return max(self.latencies_us) if self.latencies_us else 0.0

    def histogram(self, lo: float = 0.0, hi: float = 120.0,
                  bins: int = 30) -> Histogram:
        hist = Histogram(lo, hi, bins)
        hist.extend(self.latencies_us)
        return hist


def _fig7_unit(spec: dict, rng_seed: int) -> dict:
    """One work unit: one fault-injection repetition of one workload.

    :func:`~repro.flexstep.die.build_verified_die` builds the die from
    the spec: ``pairs`` main/checker groups run the same workload
    concurrently (``pairs × (1 + checkers)`` cores); each pair
    gets its own injector and fault stream, and is resolved against its
    own checkers' results (segment ids are per-main-core).

    The die has one shared memory, so co-running pairs contend on the
    workload's working set (deterministically — arbitration order is
    fixed): multi-pair latency measures detection under full-die
    contention, not an isolated replica of the single-pair run.
    Checkers replay from forwarded MAL data, so contention never
    causes false detections.
    """
    del rng_seed   # the fault seed is part of the spec (seed repo formula)
    profile = WorkloadProfile(**spec["profile"])
    program = cached_program(
        profile,
        GeneratorOptions(target_instructions=spec["target_instructions"]))
    soc, injectors = build_verified_die(program, spec)
    soc.run()
    latencies: list[float] = []
    records: list[FaultRecord] = []
    armed_unfired = 0
    for injector in injectors:
        results = []
        for cid in soc.interconnect.checkers_of(injector.channel.main_id):
            results.extend(soc.engine_of(cid).results)
        injector.resolve(results)
        latencies.extend(soc.cycles_us(c)
                         for c in injector.latencies_cycles())
        records.extend(injector.records)
        armed_unfired += injector.armed_unfired
    return {
        "latencies_us": latencies,
        "detected": sum(r.detected for r in records),
        "injected": len(records),
        "armed_unfired": armed_unfired,
        "misattributed": sum(r.misattributed for r in records),
        "records": [r.to_dict() for r in records],
    }


_fig7_unit.campaign_version = "2"


def _fig7_specs(profile: WorkloadProfile, *, target_instructions: int,
                target: FaultTarget, segment_interval: int,
                segment_rate: float | None, burst_bits: int, side: str,
                pairs: int, checkers: int, fifo_entries: int | None,
                service_pause_cycles: int, dma_spill_entries: int,
                seed: int, repeats: int) -> list[dict]:
    return [
        {"profile": dataclasses.asdict(profile),
         "target_instructions": target_instructions,
         "target": target.value,
         "segment_interval": segment_interval,
         "segment_rate": segment_rate,
         "burst_bits": burst_bits,
         "side": side,
         "pairs": pairs,
         "checkers": checkers,
         "fifo_entries": fifo_entries,
         "service_pause_cycles": service_pause_cycles,
         "dma_spill_entries": dma_spill_entries,
         "fault_seed": seed + 1000 * rep,
         "rep": rep}
        for rep in range(repeats)
    ]


def merge_latency_units(workload: str,
                        payloads: Sequence[dict]) -> LatencyResult:
    """Fold per-repetition unit payloads into one distribution."""
    latencies: list[float] = []
    records: list[FaultRecord] = []
    detected = 0
    injected = 0
    armed_unfired = 0
    misattributed = 0
    for payload in payloads:
        latencies.extend(payload["latencies_us"])
        detected += payload["detected"]
        injected += payload["injected"]
        armed_unfired += payload.get("armed_unfired", 0)
        misattributed += payload.get("misattributed", 0)
        records.extend(FaultRecord.from_dict(raw)
                       for raw in payload["records"])
    return LatencyResult(workload=workload, latencies_us=latencies,
                         detected=detected, injected=injected,
                         records=records, armed_unfired=armed_unfired,
                         misattributed=misattributed)
