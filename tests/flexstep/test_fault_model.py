"""Fault-model generalisation + accounting regression tests.

Covers the three accounting fixes (negative-latency surfacing,
armed-but-unfired re-arming, mis-attribution marking) and the scenario
framework's fault-model extensions (multi-bit bursts, per-segment
arming rate, main-side vs checker-side injection).
"""

import random

import pytest

from repro.core.registers import ArchSnapshot
from repro.errors import FaultAccountingError
from repro.flexstep import (
    Channel,
    FaultInjector,
    FaultRecord,
    FaultTarget,
    install_injector,
)
from repro.flexstep.checker import SegmentResult
from repro.flexstep.packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    ScpPacket,
    flip_bits_in_packet,
)

from ..conftest import make_sum_program, make_verified_soc


def _channel(capacity=10_000):
    return Channel(0, 1, capacity_entries=capacity)


def _snap():
    return ArchSnapshot.from_words(tuple(range(33)), num_csrs=0)


def _segment_packets(segment, *, with_mem=True, with_ecp=True, cycle=0):
    """A synthetic SCP / MAL / IC / ECP stream for one segment."""
    out = [ScpPacket(segment=segment, push_cycle=cycle, snapshot=_snap())]
    if with_mem:
        out.append(MemPacket(segment=segment, push_cycle=cycle + 1,
                             count=1, kind="r", addr=0x1000, data=7))
    out.append(IcPacket(segment=segment, push_cycle=cycle + 2, count=5))
    if with_ecp:
        out.append(EcpPacket(segment=segment, push_cycle=cycle + 3,
                             snapshot=_snap()))
    return out


class TestNegativeLatencySurfaced:
    def test_latency_cycles_raises_not_clamps(self):
        """Regression: a detection that predates its injection used to
        be clamped to 0 by ``max(0, ...)`` and pollute the latency
        distribution silently."""
        record = FaultRecord(target=FaultTarget.ECP, segment=3,
                             inject_cycle=500, word_index=0, bit=1,
                             detected=True, detect_cycle=100)
        with pytest.raises(FaultAccountingError):
            record.latency_cycles()

    def test_normal_latency_still_returned(self):
        record = FaultRecord(target=FaultTarget.ECP, segment=3,
                             inject_cycle=100, word_index=0, bit=1,
                             detected=True, detect_cycle=500)
        assert record.latency_cycles() == 400

    def test_resolve_marks_misattributed(self):
        """A segment failure *before* the injection cannot be this
        fault's detection: resolve marks the record instead of
        attributing it."""
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.ECP,
                                 segment_interval=1,
                                 rng=random.Random(0))
        for packet in _segment_packets(0, cycle=1000):
            channel.push(packet)
        assert len(injector.records) == 1
        injector.resolve([SegmentResult(segment=0, ok=False, count=5,
                                        detect_cycle=10)])
        record = injector.records[0]
        assert record.misattributed
        assert not record.detected
        assert injector.latencies_cycles() == []
        assert "before injection" in record.detail

    def test_resolve_prefers_valid_failure(self):
        """With both an earlier and a later failure of the segment,
        the later (causally possible) one is attributed."""
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.ECP,
                                 segment_interval=1,
                                 rng=random.Random(0))
        for packet in _segment_packets(0, cycle=1000):
            channel.push(packet)
        injector.resolve([
            SegmentResult(segment=0, ok=False, count=5, detect_cycle=10),
            SegmentResult(segment=0, ok=False, count=5,
                          detect_cycle=2000),
        ])
        record = injector.records[0]
        assert record.detected and not record.misattributed
        assert record.detect_cycle == 2000

    def test_resolve_picks_earliest_valid_failure(self):
        """With two checkers both failing the segment, the first
        detection wins regardless of result-list order."""
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.ECP,
                                 segment_interval=1,
                                 rng=random.Random(0))
        for packet in _segment_packets(0, cycle=1000):
            channel.push(packet)
        injector.resolve([
            SegmentResult(segment=0, ok=False, count=5,
                          detect_cycle=3000),
            SegmentResult(segment=0, ok=False, count=5,
                          detect_cycle=2000),
        ])
        assert injector.records[0].detect_cycle == 2000


class TestArmedUnfiredRearm:
    def test_unfired_segment_rearms_next(self):
        """Regression: an armed segment with no eligible packet used to
        vanish silently; now it is counted and the next segment is
        armed in its place."""
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.ECP,
                                 segment_interval=2,
                                 rng=random.Random(0))
        # seg 0: skipped (interval).  seg 1: armed but truncated (no
        # ECP).  seg 2: would have been skipped before the fix; now
        # re-armed and fired.
        for packet in _segment_packets(0):
            channel.push(packet)
        for packet in _segment_packets(1, with_ecp=False, cycle=10):
            channel.push(packet)
        for packet in _segment_packets(2, cycle=20):
            channel.push(packet)
        assert injector.armed_unfired == 1
        assert len(injector.records) == 1
        assert injector.records[0].segment == 2

    def test_trailing_armed_segment_counted_at_resolve(self):
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.ECP,
                                 segment_interval=1,
                                 rng=random.Random(0))
        # run ends inside an armed segment that never saw its ECP
        for packet in _segment_packets(0, with_ecp=False):
            channel.push(packet)
        assert injector.armed_unfired == 0
        injector.resolve([])
        assert injector.armed_unfired == 1
        assert injector.records == []

    def test_mal_target_on_memoryless_segments(self):
        """MAL faults on segments without memory traffic re-arm instead
        of deflating the budget."""
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.MAL_DATA,
                                 segment_interval=1,
                                 rng=random.Random(0))
        for seg in range(4):
            for packet in _segment_packets(seg, with_mem=False,
                                           cycle=10 * seg):
                channel.push(packet)
        injector.resolve([])
        # every armed segment is accounted: fired + unfired = armed
        assert injector.armed_unfired + len(injector.records) == 4
        assert injector.armed_unfired == 4   # no memory packets at all


class TestBurstFaults:
    def test_flip_bits_helper_flips_each(self):
        packet = MemPacket(segment=0, push_cycle=0, count=1, kind="r",
                           addr=0, data=0)
        corrupted = flip_bits_in_packet(packet, 1, (3, 4, 5, 6))
        assert corrupted.data == 0b1111 << 3
        assert corrupted.addr == 0

    def test_burst_recorded_and_applied(self):
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.IC,
                                 segment_interval=1, burst_bits=4,
                                 rng=random.Random(5))
        for packet in _segment_packets(0):
            channel.push(packet)
        [record] = injector.records
        assert record.burst == 4
        ic = next(p for p in channel.iter_packets()
                  if isinstance(p, IcPacket))
        diff = ic.count ^ 5      # original count was 5
        assert bin(diff).count("1") == 4
        # adjacent bits starting at record.bit
        assert diff == 0b1111 << record.bit

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(_channel(), burst_bits=0)


class TestSegmentRate:
    def test_rate_one_arms_every_segment(self):
        channel = _channel()
        injector = FaultInjector(channel, target=FaultTarget.ECP,
                                 segment_rate=1.0,
                                 rng=random.Random(0))
        for seg in range(5):
            for packet in _segment_packets(seg, cycle=10 * seg):
                channel.push(packet)
        assert len(injector.records) == 5

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(_channel(), segment_rate=0.0)
        with pytest.raises(ValueError):
            FaultInjector(_channel(), segment_rate=1.5)

    def test_rate_is_probabilistic_and_deterministic(self):
        def records_for(seed):
            channel = _channel()
            injector = FaultInjector(channel, target=FaultTarget.ECP,
                                     segment_rate=0.5,
                                     rng=random.Random(seed))
            for seg in range(40):
                for packet in _segment_packets(seg, cycle=10 * seg):
                    channel.push(packet)
            return [r.segment for r in injector.records]

        a, b = records_for(9), records_for(9)
        assert a == b
        assert 0 < len(a) < 40


class TestInjectionSide:
    def _run(self, side):
        soc = make_verified_soc(make_sum_program(n=4000), checkers=2)
        injector = install_injector(soc, 0, side=side,
                                    target=FaultTarget.ECP,
                                    segment_interval=2,
                                    rng=random.Random(3))
        soc.run()
        failed = [
            {r.segment for r in soc.engine_of(cid).results if not r.ok}
            for cid in (1, 2)
        ]
        return injector, failed

    def test_checker_side_hits_one_checker(self):
        injector, (first, second) = self._run("checker")
        assert injector.records
        assert first == {r.segment for r in injector.records}
        assert second == set()

    def test_main_side_hits_all_checkers(self):
        injector, (first, second) = self._run("main")
        assert injector.records
        assert first == second == {r.segment for r in injector.records}

    def test_bad_side_rejected(self):
        soc = make_verified_soc(make_sum_program(n=100))
        with pytest.raises(ValueError):
            install_injector(soc, 0, side="sideways")
