"""Fault injection into forwarded verification data (paper Sec. VI-C).

The paper "injected errors in the forwarded data from the main core,
e.g., memory access data of MAL and architectural register data of ASS,
simulating the hardware faults without disrupting the main core's
normal execution."  :class:`FaultInjector` reproduces that exactly: it
taps a channel's push path and flips one bit in the payload of selected
packets.  The main core's execution is untouched; only the copy the
checker sees is corrupted.

Detection matching: each injected fault records its segment id and
injection cycle; after the run, :meth:`FaultInjector.latencies` pairs
faults with the checker's failed :class:`SegmentResult` for the same
segment and converts the cycle delta to microseconds.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import FaultAccountingError
from .checker import SegmentResult
from .dbc import Channel
from .packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    Packet,
    ProgressPacket,
    ScpPacket,
    flip_bits_in_packet,
)


class FaultTarget(enum.Enum):
    """Which forwarded-data field to corrupt."""

    MAL_ADDR = "mal_addr"    # memory access address
    MAL_DATA = "mal_data"    # memory access data
    SCP = "scp"              # start checkpoint register data
    ECP = "ecp"              # end checkpoint register data
    IC = "ic"                # instruction count
    ANY = "any"              # uniformly over eligible packets


@dataclass
class FaultRecord:
    """One injected fault and (after the run) its detection outcome.

    ``burst`` is the number of adjacent bits flipped starting at
    ``bit`` (1 = the classic single-bit model).  ``misattributed`` is
    set by :meth:`FaultInjector.resolve` when the only failure of the
    fault's segment *predates* the injection — the detection cannot
    have been caused by this fault, so it counts as neither detected
    nor silently dropped.
    """

    target: FaultTarget
    segment: int
    inject_cycle: int
    word_index: int
    bit: int
    burst: int = 1
    detected: bool = False
    detect_cycle: int = 0
    misattributed: bool = False
    detail: str = ""

    def latency_cycles(self) -> Optional[int]:
        if not self.detected:
            return None
        delta = self.detect_cycle - self.inject_cycle
        if delta < 0:
            raise FaultAccountingError(
                f"segment {self.segment}: detection at cycle "
                f"{self.detect_cycle} predates injection at cycle "
                f"{self.inject_cycle} — mis-attributed fault record")
        return delta

    def to_dict(self) -> dict:
        """JSON-able form (campaign cache payloads)."""
        return {**dataclasses.asdict(self), "target": self.target.value}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRecord":
        return cls(**{**data, "target": FaultTarget(data["target"])})


_TARGET_TYPES = {
    FaultTarget.MAL_ADDR: MemPacket,
    FaultTarget.MAL_DATA: MemPacket,
    FaultTarget.SCP: ScpPacket,
    FaultTarget.ECP: EcpPacket,
    FaultTarget.IC: IcPacket,
}


class FaultInjector:
    """Corrupts one eligible packet per *armed* segment on a channel.

    Arming policy: every ``segment_interval``-th segment, or — when
    ``segment_rate`` is given — each new segment independently with
    that probability (a Poisson-style per-segment rate).  Spacing
    faults across distinct segments keeps detections attributable: the
    checker reports per-segment results and recovers at the next SCP,
    so each corrupted segment yields an independent latency sample
    (the paper collects 5 000–10 000 per workload).

    An armed segment that closes without an eligible packet (e.g.
    ``target=MAL_DATA`` on a segment with no memory traffic, or a
    truncated final segment) is **never silently dropped**: it is
    counted in :attr:`armed_unfired` and the *next* segment is armed
    in its place, so the planned fault budget is preserved.

    ``burst_bits > 1`` flips that many adjacent bits per fault (a
    multi-bit burst).  ``mirror_channels`` replicates each corruption
    onto sibling channels of the same main core: a *main-side* fault
    (in the forwarding logic itself) corrupts the copy every checker
    receives, whereas the default single-channel tap models a
    *checker-side* fault in one receive FIFO.
    """

    def __init__(self, channel: Channel, *,
                 target: FaultTarget = FaultTarget.ANY,
                 segment_interval: int = 2,
                 segment_rate: float | None = None,
                 burst_bits: int = 1,
                 rng: random.Random | None = None,
                 mirror_channels: Sequence[Channel] = ()):
        if segment_interval < 1:
            raise ValueError("segment_interval must be >= 1")
        if segment_rate is not None and not 0.0 < segment_rate <= 1.0:
            raise ValueError("segment_rate must be in (0, 1]")
        if burst_bits < 1:
            raise ValueError("burst_bits must be >= 1")
        self.channel = channel
        self.target = target
        self.segment_interval = segment_interval
        self.segment_rate = segment_rate
        self.burst_bits = burst_bits
        self.rng = rng or random.Random(0)
        self.records: list[FaultRecord] = []
        #: Armed segments that closed without an eligible packet (each
        #: one re-armed the segment after it).
        self.armed_unfired = 0
        self._armed_segment: Optional[int] = None
        self._done_segments: set[int] = set()
        self._skip_counter = 0
        self._last_packet: Optional[Packet] = None
        self._last_flip: Optional[tuple[int, tuple[int, ...]]] = None
        channel.add_push_tap(self._tap)
        for mirror in mirror_channels:
            mirror.add_push_tap(self._mirror_tap)

    # ------------------------------------------------------------------

    def _eligible(self, packet: Packet) -> bool:
        if isinstance(packet, ProgressPacket):
            return False
        if self.target is FaultTarget.ANY:
            return isinstance(packet, (MemPacket, ScpPacket, EcpPacket,
                                       IcPacket))
        return isinstance(packet, _TARGET_TYPES[self.target])

    def _arm_decision(self) -> bool:
        """Should the segment that just started be armed?"""
        if self.segment_rate is not None:
            return self.rng.random() < self.segment_rate
        self._skip_counter += 1
        if self._skip_counter < self.segment_interval:
            return False
        self._skip_counter = 0
        return True

    def _tap(self, packet: Packet) -> Packet:
        self._last_packet = packet
        self._last_flip = None
        if packet.segment in self._done_segments:
            return packet
        if packet.segment != self._armed_segment:
            # First packet of a new segment.
            if self._armed_segment is not None:
                # The previously armed segment closed without an
                # eligible packet: account for it and re-arm here so
                # the fault budget is never silently deflated.
                self.armed_unfired += 1
                self._armed_segment = packet.segment
            elif self._arm_decision():
                self._armed_segment = packet.segment
            else:
                self._done_segments.add(packet.segment)
                return packet
        if not self._eligible(packet):
            return packet
        if not self._should_fire(packet):
            return packet
        corrupted, record = self._corrupt(packet)
        self.records.append(record)
        self._done_segments.add(packet.segment)
        self._armed_segment = None
        self._last_flip = (
            record.word_index,
            tuple(range(record.bit, record.bit + record.burst)))
        return corrupted

    def _mirror_tap(self, packet: Packet) -> Packet:
        """Replay the primary channel's corruption on a sibling channel.

        The main core pushes the *same* packet object to every one of
        its channels in one flush (primary first), so identity tells
        us whether the primary tap just corrupted this packet.
        """
        if packet is self._last_packet and self._last_flip is not None:
            word, bits = self._last_flip
            return flip_bits_in_packet(packet, word, bits)
        return packet

    def _should_fire(self, packet: Packet) -> bool:
        """Pick one packet per armed segment.

        Type-specific targets fire on their packet type (MAL targets
        sample memory entries with small probability, so a memory-poor
        armed segment may go unfired — accounted by re-arming).
        ``ANY`` corrupts a mid-segment memory entry with small
        probability and falls back to the ECP (the segment's last
        packet) so every armed segment yields exactly one fault.
        """
        if self.target in (FaultTarget.SCP, FaultTarget.ECP,
                           FaultTarget.IC):
            return True  # _eligible already matched the type
        if self.target in (FaultTarget.MAL_ADDR, FaultTarget.MAL_DATA):
            return self.rng.random() < 0.02
        # ANY
        if isinstance(packet, EcpPacket):
            return True
        return self.rng.random() < 0.01

    def _corrupt(self, packet: Packet) -> tuple[Packet, FaultRecord]:
        if isinstance(packet, (ScpPacket, EcpPacket)):
            words = len(packet.snapshot.words())
            word = self.rng.randrange(words)
        elif isinstance(packet, MemPacket):
            if self.target is FaultTarget.MAL_ADDR:
                word = 0
            elif self.target is FaultTarget.MAL_DATA:
                word = 1
            else:
                word = self.rng.randrange(2)
        else:  # IcPacket
            word = 0
        # Counts and addresses are narrow; flip low-order bits so the
        # corruption lands in architecturally meaningful bits.  Bursts
        # stay inside the window so every flipped bit is meaningful.
        width = 16 if isinstance(packet, IcPacket) else 48
        burst = min(self.burst_bits, width)
        bit = self.rng.randrange(width - burst + 1)
        target = self.target
        if target is FaultTarget.ANY:
            if isinstance(packet, MemPacket):
                target = (FaultTarget.MAL_ADDR if word == 0
                          else FaultTarget.MAL_DATA)
            elif isinstance(packet, ScpPacket):
                target = FaultTarget.SCP
            elif isinstance(packet, EcpPacket):
                target = FaultTarget.ECP
            else:
                target = FaultTarget.IC
        record = FaultRecord(target=target, segment=packet.segment,
                             inject_cycle=packet.push_cycle,
                             word_index=word, bit=bit, burst=burst)
        corrupted = flip_bits_in_packet(packet, word,
                                        tuple(range(bit, bit + burst)))
        return corrupted, record

    # ------------------------------------------------------------------

    def resolve(self, results: list[SegmentResult]) -> None:
        """Match checker results to injected faults (call after run).

        A failure of the fault's segment that *predates* the injection
        cannot have been caused by it; such records are marked
        ``misattributed`` instead of being clamped into the latency
        distribution (or silently counted as detections).
        """
        if self._armed_segment is not None:
            # The run ended inside an armed segment that never fired.
            self.armed_unfired += 1
            self._armed_segment = None
        failed_by_segment: dict[int, list[SegmentResult]] = {}
        for res in results:
            if not res.ok:
                failed_by_segment.setdefault(res.segment, []).append(res)
        for record in self.records:
            candidates = failed_by_segment.get(record.segment)
            if not candidates:
                continue
            valid = [r for r in candidates
                     if r.detect_cycle >= record.inject_cycle]
            if valid:
                # Earliest causally-possible failure: with several
                # checkers the first detection wins the race, whatever
                # order their result lists were concatenated in.
                first = min(valid, key=lambda r: r.detect_cycle)
                record.detected = True
                record.misattributed = False
                record.detect_cycle = first.detect_cycle
                record.detail = first.detail
            else:
                record.detected = False
                record.misattributed = True
                earliest = min(r.detect_cycle for r in candidates)
                record.detail = (
                    f"segment {record.segment} failed at cycle "
                    f"{earliest}, before injection "
                    f"at cycle {record.inject_cycle}")

    def latencies_cycles(self) -> list[int]:
        return [r.latency_cycles() for r in self.records
                if r.detected and r.latency_cycles() is not None]

    @property
    def detection_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.detected for r in self.records) / len(self.records)


def install_injector(soc, main_id: int, *,
                     side: str = "checker",
                     target: FaultTarget = FaultTarget.ANY,
                     segment_interval: int = 2,
                     segment_rate: float | None = None,
                     burst_bits: int = 1,
                     rng: random.Random | None = None) -> FaultInjector:
    """Attach a :class:`FaultInjector` to ``main_id``'s channels.

    ``side="checker"`` taps the first channel only (a fault in one
    checker's receive FIFO); ``side="main"`` mirrors each corruption
    onto every channel (a fault in the main core's forwarding logic,
    seen identically by all checkers).
    """
    if side not in ("checker", "main"):
        raise ValueError(f"side must be 'checker' or 'main', got {side!r}")
    channels = soc.interconnect.channels_of(main_id)
    if not channels:
        raise ValueError(f"main core {main_id} has no checker channels")
    mirrors = channels[1:] if side == "main" else ()
    return FaultInjector(channels[0], target=target,
                         segment_interval=segment_interval,
                         segment_rate=segment_rate, burst_bits=burst_bits,
                         rng=rng, mirror_channels=mirrors)
