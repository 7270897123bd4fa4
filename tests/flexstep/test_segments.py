"""Checking-segment anatomy (paper Fig. 3).

Captures the SCP → memory-entries → IC → ECP stream framing, segment
cuts at the instruction-count limit, at privilege switches ("premature
extermination"), and at check-disable.
"""

from repro.config import SoCConfig
from repro.flexstep import FlexStepSoC
from repro.flexstep.packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    ProgressPacket,
    ScpPacket,
    SegmentCloseReason,
)
from repro.isa import assemble

from ..conftest import make_ecall_program, make_sum_program


def capture_stream(program, *, segment_limit=5000, run=True):
    """Run ``program`` under verification, recording every packet."""
    config = SoCConfig(num_cores=2).with_flexstep(
        segment_limit=segment_limit)
    soc = FlexStepSoC(config)
    soc.load_program(0, program)
    soc.setup_verification(0, [1])
    packets = []
    soc.interconnect.channels_of(0)[0].add_push_tap(
        lambda p: (packets.append(p), p)[1])
    if run:
        soc.run()
    return soc, packets


def segments_of(packets):
    """Group the packet stream by segment id, preserving order."""
    groups = {}
    for p in packets:
        groups.setdefault(p.segment, []).append(p)
    return groups


class TestStreamFraming:
    def test_segment_packet_order(self):
        _, packets = capture_stream(make_sum_program(n=300))
        for seg in segments_of(packets).values():
            assert isinstance(seg[0], ScpPacket)
            assert isinstance(seg[-1], EcpPacket)
            assert isinstance(seg[-2], IcPacket)
            for p in seg[1:-2]:
                assert isinstance(p, (MemPacket, ProgressPacket))

    def test_mem_entries_in_commit_order(self):
        _, packets = capture_stream(make_sum_program(n=100))
        for seg in segments_of(packets).values():
            counts = [p.count for p in seg
                      if isinstance(p, MemPacket)]
            assert counts == sorted(counts)

    def test_ic_counts_match_mem_coverage(self):
        _, packets = capture_stream(make_sum_program(n=100))
        for seg in segments_of(packets).values():
            ic = [p for p in seg if isinstance(p, IcPacket)][0]
            mem_counts = [p.count for p in seg
                          if isinstance(p, MemPacket)]
            assert all(c <= ic.count for c in mem_counts)

    def test_segment_ids_monotonic(self):
        _, packets = capture_stream(make_sum_program(n=2000))
        ids = [p.segment for p in packets]
        assert ids == sorted(ids)


class TestSegmentCuts:
    def test_limit_cut(self):
        soc, packets = capture_stream(make_sum_program(n=2000),
                                      segment_limit=1000)
        ics = [p for p in packets if isinstance(p, IcPacket)]
        limit_cuts = [p for p in ics
                      if p.reason is SegmentCloseReason.LIMIT]
        assert limit_cuts
        assert all(p.count == 1000 for p in limit_cuts)

    def test_privilege_switch_cut(self):
        soc, packets = capture_stream(make_ecall_program(n=5))
        ics = [p for p in packets if isinstance(p, IcPacket)]
        priv_cuts = [p for p in ics
                     if p.reason is SegmentCloseReason.PRIV_SWITCH]
        # every ecall cuts a segment prematurely (Fig. 3 case 1)
        assert len(priv_cuts) >= 5
        assert all(p.count < 5000 for p in priv_cuts)

    def test_kernel_instructions_not_logged(self):
        soc, packets = capture_stream(make_ecall_program(n=5))
        # the handler stores to 0x800; that write must not appear in MAL
        kernel_writes = [p for p in packets
                         if isinstance(p, MemPacket) and p.addr == 0x800]
        assert not kernel_writes

    def test_disable_closes_open_segment(self):
        program = make_sum_program(n=500)
        soc, packets = capture_stream(program, run=False)
        # run a few instructions, then disable mid-segment
        soc.run(max_cycles=200)
        adapter = soc.adapter_of(0)
        assert 0 < soc.cores[0].stats.user_instructions < 500
        assert adapter._segment_open
        soc.control.check_disable(0)
        assert not adapter._segment_open
        assert isinstance(packets[-1], EcpPacket)
        reasons = [p.reason for p in packets if isinstance(p, IcPacket)]
        assert SegmentCloseReason.CHECK_DISABLED in reasons

    def test_all_segments_verified_after_cuts(self):
        soc, _ = capture_stream(make_ecall_program(n=10))
        results = soc.all_results()
        assert results and all(r.ok for r in results)


class TestProgressHeartbeat:
    def test_progress_emitted_for_alu_stretches(self):
        src = ["li x1, 0"]
        src += ["addi x1, x1, 1"] * 400
        src += ["halt"]
        program = assemble("\n".join(src))
        _, packets = capture_stream(program)
        progress = [p for p in packets if isinstance(p, ProgressPacket)]
        assert progress, "pure-ALU code needs count heartbeats"
        counts = [p.count for p in progress]
        assert counts == sorted(counts)

    def test_mem_traffic_suppresses_progress(self):
        _, packets = capture_stream(make_sum_program(n=200))
        progress = [p for p in packets if isinstance(p, ProgressPacket)]
        # the sum loop does a mem op every ~5 instructions
        assert not progress


class TestExtractionCost:
    def test_snapshot_extraction_stalls_charged(self):
        soc, _ = capture_stream(make_sum_program(n=1500),
                                segment_limit=500)
        adapter = soc.adapter_of(0)
        assert adapter.stats.extraction_stall_cycles > 0
        assert adapter.stats.segments_closed >= 3

    def test_triple_mode_extraction_costs_more(self):
        def extraction(checkers):
            program = make_sum_program(n=1000)
            config = SoCConfig(num_cores=checkers + 1)
            soc = FlexStepSoC(config)
            soc.load_program(0, program)
            soc.setup_verification(0, list(range(1, checkers + 1)))
            soc.run()
            return soc.adapter_of(0).stats.extraction_stall_cycles
        assert extraction(2) > extraction(1)
