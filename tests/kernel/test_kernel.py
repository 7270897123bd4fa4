"""OS-layer tests: Algorithm 1 context switch, Algorithm 2 checker
thread, selective checking, preemption (paper Sec. IV, Fig. 1(c))."""

import random

import pytest

from repro.config import SoCConfig
from repro.core.core import engine_override
from repro.errors import SchedulerError
from repro.flexstep import CoreAttr, FlexStepSoC
from repro.flexstep.fingerprint import soc_fingerprint
from repro.flexstep.packets import ScpPacket
from repro.flexstep.soc import soc_sched_override
from repro.isa import assemble
from repro.kernel import FlexKernel, KernelTask
from repro.sim import TraceRecorder

from ..flexstep.test_soc_sched import check_cosim_contracts, retire_verdicts


def make_task_program(iterations, store_addr, stride=3):
    return assemble(f"""
.text
main:
    li x1, {iterations}
    li x2, 0
    li x10, 0x1000
loop:
    ld x3, 0(x10)
    add x2, x2, x3
    addi x2, x2, {stride}
    sd x2, {store_addr}(x0)
    addi x1, x1, -1
    bne x1, x0, loop
    halt
.data
    .org 0x1000
src:
    .word 1
""", name=f"task@{store_addr:#x}")


def dual_core_kernel(quantum=2000, **flex_overrides):
    config = SoCConfig(num_cores=2)
    if flex_overrides:
        config = config.with_flexstep(**flex_overrides)
    soc = FlexStepSoC(config)
    kern = FlexKernel(soc, quantum_cycles=quantum,
                      trace=TraceRecorder())
    kern.wire_verification(0, [1])
    return soc, kern


def run_checked(soc, kern):
    """Run the kernel to the end and check the co-sim contracts of the
    clean, unbounded run it finishes with."""
    stats = kern.run()
    check_cosim_contracts(soc, clean=True)
    return stats


#: FIFO entries of one SCP/ECP snapshot packet.
SCP_ENTRIES = ScpPacket(segment=0, push_cycle=0,
                        snapshot=FlexStepSoC(SoCConfig()).cores[0]
                        .snapshot()).entries


class TestContextSwitch:
    def test_two_tasks_share_main_core(self):
        soc, kern = dual_core_kernel()
        pa = make_task_program(2000, 0x2000)
        pb = make_task_program(1200, 0x2008)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        kern.spawn(0, KernelTask("B", pb, verification=False, deadline=2))
        stats = run_checked(soc, kern)
        assert stats.tasks_finished == 2
        assert soc.memory.read_word(0x2000) == 2000 * 4
        assert soc.memory.read_word(0x2008) == 1200 * 4

    def test_verification_survives_preemption(self):
        """Segments cut at every context switch still all verify."""
        soc, kern = dual_core_kernel(quantum=700)
        pa = make_task_program(3000, 0x2000)
        pb = make_task_program(500, 0x2008)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        kern.spawn(0, KernelTask("B", pb, verification=False, deadline=2))
        run_checked(soc, kern)
        results = soc.all_results()
        assert len(results) > 5            # many switch-cut segments
        assert all(r.ok for r in results)

    def test_selective_checking(self):
        """Only the verification task generates segments (Fig. 1(c):
        selective verification)."""
        soc, kern = dual_core_kernel()
        pa = make_task_program(1000, 0x2000)
        pb = make_task_program(1000, 0x2008)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        kern.spawn(0, KernelTask("B", pb, verification=False, deadline=2))
        run_checked(soc, kern)
        replayed = sum(r.count for r in soc.all_results())
        user_a = 1000 * 6 + 4  # task A's user instructions (minus halt)
        assert replayed <= user_a
        assert replayed >= user_a - 10

    def test_edf_order(self):
        soc, kern = dual_core_kernel()
        pa = make_task_program(400, 0x2000)
        pb = make_task_program(400, 0x2008)
        kern.spawn(0, KernelTask("late", pa, deadline=10))
        kern.spawn(0, KernelTask("early", pb, deadline=1))
        run_checked(soc, kern)
        finishes = kern.trace.filter(kind="task_finished")
        assert finishes[0].subject == "early"

    def test_spawn_without_program_rejected(self):
        _, kern = dual_core_kernel()
        with pytest.raises(SchedulerError):
            kern.spawn(0, KernelTask("broken", None))

    def test_context_switch_cost_charged(self):
        soc, kern = dual_core_kernel(quantum=300)
        pa = make_task_program(600, 0x2000)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        run_checked(soc, kern)
        assert kern.stats.context_switches > 2
        assert soc.cores[0].stats.cycles > 600 * 6

    def test_attributes_configured(self):
        soc, kern = dual_core_kernel()
        assert soc.control.attr_of(0) is CoreAttr.MAIN
        assert soc.control.attr_of(1) is CoreAttr.CHECKER


class TestCheckerThread:
    def test_checker_thread_spawned_by_wiring(self):
        _, kern = dual_core_kernel()
        assert any(t.checker_thread for t in kern.ready[1])

    def test_regular_task_preempts_checker_thread(self):
        """A non-verification task with a real deadline takes over the
        checker core; verification data buffers meanwhile and is still
        verified afterwards (Fig. 1(c): preemptive + asynchronous)."""
        soc = FlexStepSoC(SoCConfig(num_cores=2).with_flexstep(
            dma_spill_entries=16384))
        kern = FlexKernel(soc, quantum_cycles=1500,
                          trace=TraceRecorder())
        kern.wire_verification(0, [1])
        pa = make_task_program(2500, 0x2000)
        pc = make_task_program(800, 0x2010)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=5))
        # task C runs *on the checker core* with a finite deadline: EDF
        # prefers it over the infinite-deadline checker thread
        kern.spawn(1, KernelTask("C", pc, verification=False, deadline=1))
        run_checked(soc, kern)
        assert soc.memory.read_word(0x2010) == 800 * 4   # C ran
        results = soc.all_results()
        assert results and all(r.ok for r in results)    # A verified
        assert kern.trace.filter(kind="task_finished", subject="C")

    def test_checker_thread_loses_deadline_ties(self):
        """A task on the checker core with the checker thread's own
        infinite deadline still runs, whatever its name sorts to: the
        checker thread loses every EDF tie."""
        soc, kern = dual_core_kernel(500)
        pa = make_task_program(300, 0x2000)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        kern.spawn(1, KernelTask("z", make_task_program(50, 0x2010)))
        run_checked(soc, kern)
        assert soc.memory.read_word(0x2010) == 50 * 4   # z ran
        assert kern.trace.filter(kind="task_finished", subject="z")
        results = soc.all_results()
        assert results and all(r.ok for r in results)   # A verified

    def test_kernel_finishes_without_checker_work(self):
        soc = FlexStepSoC(SoCConfig(num_cores=2))
        kern = FlexKernel(soc, quantum_cycles=1000)
        pa = make_task_program(300, 0x2000)
        kern.spawn(0, KernelTask("plain", pa, verification=False,
                                 deadline=1))
        stats = run_checked(soc, kern)
        assert stats.tasks_finished == 1

    def test_run_budget_enforced(self):
        soc, kern = dual_core_kernel(quantum=10)
        pa = make_task_program(50000, 0x2000)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        with pytest.raises(SchedulerError):
            kern.run(max_quanta=5)


class TestStuckOutboxAtFinish:
    def test_last_segment_reaches_its_checker(self, monkeypatch):
        """A task finishes with its last segment stuck behind a full
        channel, and no task follows it on that core: the kernel still
        retires the idle core until the outbox drains, so every closed
        segment is verified."""
        soc = FlexStepSoC(SoCConfig(num_cores=2).with_flexstep(
            fifo_entries=SCP_ENTRIES + 2, segment_limit=7))
        kern = FlexKernel(soc, quantum_cycles=300)
        kern.wire_verification(0, [1])
        soc.engine_of(1).segment_service_pause = 1_000
        pa = make_task_program(20, 0x2000)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        verdicts = retire_verdicts(monkeypatch)
        assert kern.run().tasks_finished == 1
        assert any(stuck for _, stuck in verdicts)  # finished backpressured
        results = soc.all_results()
        assert len(results) == soc.adapter_of(0).stats.segments_closed
        assert all(r.ok for r in results)
        check_cosim_contracts(soc, clean=True)


def kernel_fingerprint(build, engine, sched):
    """Build a kernel die via ``build()``, run it to the end under one
    core engine tier and co-sim scheduler, check it and fingerprint it.

    ``build`` returns ``(soc, kernel, expected)``, where ``expected``
    maps each result address to the word the tasks must leave there.
    """
    with engine_override(engine), soc_sched_override(sched):
        soc, kern, expected = build()
        kern.run()
        # the finished die is quiescent: a rerun changes nothing and
        # yields the run stats the fingerprint records
        stats = soc.run()
    check_cosim_contracts(soc, clean=True)
    results = soc.all_results()
    assert all(r.ok for r in results), [r.detail for r in results
                                        if not r.ok]
    assert len(results) == soc.adapter_of(0).stats.segments_closed
    for addr, word in expected.items():
        assert soc.memory.read_word(addr) == word, hex(addr)
    return soc_fingerprint(soc, stats)


def assert_kernel_differential(build):
    """The fast path (``heap`` + ``decoded``) and the oracle (``loop`` +
    ``interp``) run the kernel to one fingerprint."""
    fast = kernel_fingerprint(build, "decoded", "heap")
    assert fast == kernel_fingerprint(build, "interp", "loop")
    return fast


def two_verified_tasks(quantum, service_pause=0):
    """Two verified tasks share main core 0, so task A's segments can
    still wait in the DBC when task B is switched in."""

    def build():
        soc, kern = dual_core_kernel(quantum, dma_spill_entries=16384)
        soc.engine_of(1).segment_service_pause = service_pause
        kern.spawn(0, KernelTask("A", make_task_program(500, 0x2000),
                                 verification=True, deadline=1))
        kern.spawn(0, KernelTask("B", make_task_program(300, 0x2008),
                                 verification=True, deadline=2))
        return soc, kern, {0x2000: 500 * 4, 0x2008: 300 * 4}

    return build


class TestTwoVerifiedTasks:
    """Each SCP carries the address space its segment runs in, so task
    A's buffered segments replay against A's text after task B (also
    verified) took the main core."""

    @pytest.mark.parametrize("quantum", [300, 700, 2000])
    def test_clean_under_both_schedulers(self, quantum):
        fingerprint = assert_kernel_differential(two_verified_tasks(quantum))
        assert fingerprint[2] > 2     # segments checked...
        assert fingerprint[3] == 0    # ...and none failed

    def test_both_tasks_segments_in_flight(self):
        """With a slow checker, SCPs of both tasks wait in the DBC at
        once; the stream itself names the text each one replays."""
        soc, kern, _ = two_verified_tasks(300, service_pause=400)()
        channel = soc.interconnect.channels_of(0)[0]
        texts = []
        channel.add_push_tap(lambda p: (
            isinstance(p, ScpPacket) and texts.append(p.program.name), p)[1])
        switched = []
        context_switch = kern.context_switch

        def recording_switch(core_id):
            if core_id == 0:
                switched.append({packet.program.name
                                 for packet in channel.iter_packets()
                                 if isinstance(packet, ScpPacket)})
            return context_switch(core_id)

        kern.context_switch = recording_switch
        run_checked(soc, kern)
        assert set(texts) == {"task@0x2000", "task@0x2008"}
        assert {"task@0x2000", "task@0x2008"} in switched
        results = soc.all_results()
        assert len(results) == len(texts) and all(r.ok for r in results)


def random_kernel_build(seed):
    """A seeded kernel task set on a dual-core die.

    Draws the quantum (50-2000 cycles), the FIFO depth (SCP entries + 0
    to 40), ``segment_limit`` (5/7/24/200) and DMA spill on or off.
    Main core 0 runs one verified task, maybe a second verified one and
    maybe an unverified one; maybe a task preempts the checker thread
    on checker core 1."""
    rng = random.Random(seed)
    quantum = rng.randint(50, 2000)
    flex = {
        "fifo_entries": SCP_ENTRIES + rng.randint(0, 40),
        "segment_limit": rng.choice((5, 7, 24, 200)),
        "dma_spill_entries": rng.choice((0, 16384)),
    }
    tasks = [(0, "A", rng.randint(20, 300), True, 5.0)]
    if rng.random() < 0.5:
        tasks.append((0, "B", rng.randint(20, 300), True, 6.0))
    if rng.random() < 0.3:
        tasks.append((0, "U", rng.randint(20, 300), False, 7.0))
    if rng.random() < 0.5:
        tasks.append((1, "C", rng.randint(20, 300), False, 1.0))

    def build():
        soc, kern = dual_core_kernel(quantum, **flex)
        expected = {}
        for index, (core_id, name, iterations, verified, deadline) \
                in enumerate(tasks):
            addr = 0x2000 + 8 * index
            kern.spawn(core_id, KernelTask(
                name, make_task_program(iterations, addr),
                verification=verified, deadline=deadline))
            expected[addr] = iterations * 4
        return soc, kern, expected

    return build


class TestKernelDifferential:
    """Kernel runs are scheduler- and engine-invariant, clean and
    contract-abiding over seeded task sets."""

    @pytest.mark.parametrize("seed", range(16))
    def test_random_task_sets(self, seed):
        assert_kernel_differential(random_kernel_build(seed))

    @pytest.mark.parametrize("quantum", [50, 300, 2000])
    def test_small_fifo_grid_finishes(self, quantum):
        """A small FIFO with short segments used to keep the kernel from
        finishing at a short quantum (``kernel did not finish within
        10000 quanta``): one verified task, FIFO = SCP entries + 0..3,
        ``segment_limit`` 5/7/24, 20 or 100 iterations."""
        for extra in range(4):
            for limit in (5, 7, 24):
                for iterations in (20, 100):
                    soc, kern = dual_core_kernel(
                        quantum, fifo_entries=SCP_ENTRIES + extra,
                        segment_limit=limit)
                    kern.spawn(0, KernelTask(
                        "A", make_task_program(iterations, 0x2000),
                        verification=True, deadline=1))
                    assert run_checked(soc, kern).tasks_finished == 1
                    results = soc.all_results()
                    assert results and all(r.ok for r in results)
                    assert len(results) == \
                        soc.adapter_of(0).stats.segments_closed
                    assert soc.memory.read_word(0x2000) == iterations * 4
