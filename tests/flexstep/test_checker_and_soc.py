"""Checker replay engine + SoC co-simulation tests."""

import pytest

from repro.config import SoCConfig
from repro.errors import ConfigurationError
from repro.flexstep import CheckerState, CoreAttr, FlexStepSoC
from repro.isa import assemble

from ..conftest import make_ecall_program, make_sum_program, \
    make_verified_soc


class TestCleanReplay:
    def test_all_segments_verified(self):
        soc = make_verified_soc(make_sum_program(n=3000))
        stats = soc.run()
        assert stats.segments_failed == 0
        assert stats.segments_checked >= 3
        assert all(r.ok for r in soc.all_results())

    def test_replay_covers_all_user_instructions(self):
        soc = make_verified_soc(make_sum_program(n=500))
        soc.run()
        replayed = sum(r.count for r in soc.all_results())
        # everything except the final halt is replayed
        assert replayed == soc.cores[0].stats.user_instructions - 1

    def test_memory_entries_verified(self):
        soc = make_verified_soc(make_sum_program(n=200))
        soc.run()
        engine = soc.engine_of(1)
        # 2 entries per iteration (ld + sd)
        assert engine.stats.verified_entries >= 400

    def test_checker_does_not_touch_memory(self):
        program = make_sum_program(n=50)
        soc = make_verified_soc(program)
        soc.run()
        # the checker's data port was swapped to the replay port; its
        # original cached port (saved in the engine) saw no accesses
        saved_port = soc.engine_of(1)._saved_port
        assert saved_port is not None
        assert saved_port.l1d.stats.accesses == 0

    def test_ecalls_replayed_correctly(self):
        soc = make_verified_soc(make_ecall_program(n=15))
        stats = soc.run()
        assert stats.segments_failed == 0
        assert soc.memory.read_word(0x800) == 15   # kernel counter

    def test_atomics_replayed(self):
        program = assemble("""
            li x1, 60
            li x10, 0x300
        loop:
            amoadd x2, x1, (x10)
            lr x3, (x10)
            sc x4, x3, (x10)
            addi x1, x1, -1
            bnez x1, loop
            halt
        """)
        soc = make_verified_soc(program)
        stats = soc.run()
        assert stats.segments_failed == 0
        assert soc.engine_of(1).stats.verified_entries >= 60 * 4

    def test_triple_mode_both_checkers_verify(self):
        soc = make_verified_soc(make_sum_program(n=800), checkers=2)
        stats = soc.run()
        assert stats.segments_failed == 0
        for cid in (1, 2):
            assert soc.engine_of(cid).stats.segments_checked >= 1

    def test_dual_slowdown_small(self):
        program = make_sum_program(n=4000)
        base = make_verified_soc(program)  # reuse builder for cores
        vanilla = FlexStepSoC(SoCConfig(num_cores=1))
        vanilla.load_program(0, program)
        base_cycles = vanilla.run().main_cycles[0]
        soc = make_verified_soc(program)
        flex_cycles = soc.run().main_cycles[0]
        slowdown = flex_cycles / base_cycles
        assert 1.0 <= slowdown < 1.05


class TestCheckerControl:
    def test_start_stop_restores_context(self):
        soc = make_verified_soc(make_sum_program(n=50))
        engine = soc.engine_of(1)
        checker = soc.cores[1]
        engine.stop_checking()
        checker.regs.write(9, 1234)     # OS-context state
        engine.start_checking()         # C.record saves it to the ASS
        checker.regs.write(9, 0)        # replay clobbers registers...
        engine.stop_checking()          # ...and C.check_state(idle)
        assert checker.regs.read(9) == 1234
        assert engine.state is CheckerState.IDLE

    def test_preempt_mid_replay_and_resume(self):
        program = make_sum_program(n=2000)
        soc = make_verified_soc(program, dma_spill_entries=8192)
        engine = soc.engine_of(1)
        # advance until the checker is mid-replay
        for bound in range(100, 200_000, 100):
            soc.run(max_cycles=bound)
            if engine.state is CheckerState.REPLAY \
                    and engine._executed > 3:
                break
        else:
            pytest.fail("checker never entered replay")
        executed_before = engine._executed
        engine.stop_checking()                 # preemption
        # checker core runs something else; its state is the OS context
        assert engine.state is CheckerState.IDLE
        assert soc.cores[1].program is None    # parked: nothing to run
        engine.start_checking()                # resume
        assert engine.state is CheckerState.REPLAY
        assert engine._executed == executed_before
        # finish the whole run cleanly
        soc.run()
        assert all(r.ok for r in soc.all_results())

    def test_buffering_survives_checker_pause(self):
        """Fig. 1(c): verification is asynchronous — while the checker
        is away, segments accumulate in the DBC and are verified later."""
        program = make_sum_program(n=1000)
        soc = make_verified_soc(program, dma_spill_entries=16384)
        engine = soc.engine_of(1)
        engine.stop_checking()
        # main core runs to completion with the checker offline
        for bound in range(10_000, 1_000_000, 10_000):
            soc.run(max_cycles=bound)
            if soc.cores[0].halted:
                break
        else:
            pytest.fail("main never halted")
        assert soc.cores[1].stats.cycles == 0  # the parked checker idled
        soc.adapter_of(0).disable()
        soc.adapter_of(0).try_flush()
        channel = soc.interconnect.channels_of(0)[0]
        assert len(channel) > 0
        engine.start_checking()
        soc.run()
        assert all(r.ok for r in soc.all_results())
        assert soc.engine_of(1).stats.segments_checked >= 1


class TestControlISA:
    def test_configure_sets_attributes(self):
        soc = FlexStepSoC(SoCConfig(num_cores=4))
        soc.control.configure([0, 2], [1, 3])
        assert soc.control.attr_of(0) is CoreAttr.MAIN
        assert soc.control.attr_of(1) is CoreAttr.CHECKER
        assert soc.control.attr_of(2) is CoreAttr.MAIN
        soc.control.configure([0], [1])
        assert soc.control.attr_of(2) is CoreAttr.COMPUTE

    def test_overlapping_configure_rejected(self):
        soc = FlexStepSoC(SoCConfig(num_cores=2))
        with pytest.raises(ConfigurationError):
            soc.control.configure([0], [0])

    def test_associate_requires_roles(self):
        soc = FlexStepSoC(SoCConfig(num_cores=3))
        soc.control.configure([0], [1])
        with pytest.raises(ConfigurationError):
            soc.control.associate(1, [0])     # checker as main
        with pytest.raises(ConfigurationError):
            soc.control.associate(0, [2])     # compute as checker

    def test_enable_before_associate_rejected(self):
        soc = FlexStepSoC(SoCConfig(num_cores=2))
        soc.control.configure([0], [1])
        with pytest.raises(RuntimeError):
            soc.control.check_enable(0)

    def test_result_reports_segments(self):
        soc = make_verified_soc(make_sum_program(n=100))
        soc.run()
        results = soc.control.result(1)
        assert results and all(r.ok for r in results)

    def test_engine_requires_association(self):
        soc = FlexStepSoC(SoCConfig(num_cores=2))
        with pytest.raises(ConfigurationError):
            soc.engine_of(1)


class TestDetection:
    """Divergence detection through real (non-injected) corruption."""

    def test_store_data_divergence_detected(self):
        soc = make_verified_soc(make_sum_program(n=400))
        channel = soc.interconnect.channels_of(0)[0]
        from repro.flexstep.packets import MemPacket, flip_bit_in_packet
        state = {"done": False}

        def corrupt_one_store(p):
            if (not state["done"] and isinstance(p, MemPacket)
                    and p.kind == "w"):
                state["done"] = True
                return flip_bit_in_packet(p, 1, 5)
            return p

        channel.add_push_tap(corrupt_one_store)
        stats = soc.run()
        assert stats.segments_failed == 1
        failed = [r for r in soc.all_results() if not r.ok][0]
        assert "divergence" in failed.detail

    def test_fault_free_run_never_fails(self):
        for n in (37, 256, 1111):
            soc = make_verified_soc(make_sum_program(n=n))
            stats = soc.run()
            assert stats.segments_failed == 0, f"n={n}"


def _compute_heavy_program():
    """A loop of 70 compute ops (with DIVs and MULs) and one load per
    iteration: its stream interleaves a progress heartbeat and a
    ``MemPacket`` per iteration, and its checker replays long fused
    blocks between them."""
    ops = ["addi x2, x2, 3", "xor x3, x2, x1", "slli x4, x3, 2",
           "div x5, x4, x1", "add x6, x5, x2", "mul x7, x6, x1",
           "sub x8, x7, x3"]
    body = "\n".join(ops * 10)
    return assemble(f"""
        li x1, 40
        li x2, 0
        li x10, 0x1000
    loop:
        ld x11, 0(x10)
        {body}
        addi x1, x1, -1
        bne x1, x0, loop
        sd x2, 0x2000(x0)
        halt
    .data
        .org 0x1000
        .word 9
    """)


def _replay_trace(limit_step, blocks, segment_limit=None):
    """Run the main to its halt with a roomy FIFO, then drive its
    checker by hand, calling ``_replay_run`` with a limit
    ``limit_step`` cycles ahead (None = no limit) wherever
    ``run_ahead`` would.  Returns ``(executed, clock, packets left)``
    after every ``_replay_run`` call that acted, and the results."""
    flex = {"fifo_entries": 1 << 14}
    if segment_limit is not None:
        flex["segment_limit"] = segment_limit
    soc = make_verified_soc(_compute_heavy_program(), **flex)
    engine = soc.engine_of(1)
    core = engine.core
    main = soc.cores[0]
    decoded = main.decoded()  # the checker replays the same decode
    shift = core.l1i.line_shift
    if not blocks:
        decoded.blocks[shift] = [()] * len(decoded.kernels)
    while not main.halted:
        soc._advance_main(0, None, 256)
    soc.retire_main(0)
    trace = []
    while not engine.drained:
        if engine.state is CheckerState.REPLAY and engine._ic is None:
            limit = None if limit_step is None \
                else core.stats.cycles + limit_step
            if engine._replay_run(limit):
                trace.append((engine._executed, core.stats.cycles,
                              len(engine.channel)))
                continue
        idle = engine.stats.idle_cycles
        engine.step()
        if engine.stats.idle_cycles != idle:
            wake = engine.channel.next_visible(core.stats.cycles)
            assert wake is not None, "a clean stream ended undrained"
            engine.idle_until(wake)
    if blocks:
        assert any(decoded.blocks[shift]), "no block was reached"
    results = [(r.segment, r.ok, r.count) for r in engine.results]
    return trace, results


class TestReplayBlocks:
    """A fused block in ``CheckerEngine._replay_run`` stops where
    replaying its members one by one would: before the first member
    at or past ``limit``, and before the first one that starts once a
    progress heartbeat or an IC at the head is visible.  With
    100-instruction segments, LIMIT closes put ICs at the head while
    the checker is still replaying the segment's last blocks."""

    @pytest.mark.parametrize("segment_limit", [None, 100],
                             ids=["default-segments", "limit100"])
    @pytest.mark.parametrize("limit_step", [None, 1, 5, 23, 61],
                             ids=["no-limit", "1", "5", "23", "61"])
    def test_blocks_stop_where_single_steps_would(self, limit_step,
                                                  segment_limit):
        fused, results = _replay_trace(limit_step, True,
                                       segment_limit=segment_limit)
        single, single_results = _replay_trace(
            limit_step, False, segment_limit=segment_limit)
        assert fused == single
        assert results == single_results
        assert results and all(ok for _, ok, _ in results)
