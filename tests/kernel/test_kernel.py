"""OS-layer tests: Algorithm 1 context switch, Algorithm 2 checker
thread, selective checking, preemption (paper Sec. IV, Fig. 1(c))."""

import pytest

from repro.config import SoCConfig
from repro.errors import SchedulerError
from repro.flexstep import CoreAttr, FlexStepSoC
from repro.flexstep.packets import ScpPacket
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


def dual_core_kernel(quantum=2000):
    soc = FlexStepSoC(SoCConfig(num_cores=2))
    kern = FlexKernel(soc, quantum_instructions=quantum,
                      trace=TraceRecorder())
    kern.wire_verification(0, [1])
    return soc, kern


class TestContextSwitch:
    def test_two_tasks_share_main_core(self):
        soc, kern = dual_core_kernel()
        pa = make_task_program(2000, 0x2000)
        pb = make_task_program(1200, 0x2008)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        kern.spawn(0, KernelTask("B", pb, verification=False, deadline=2))
        soc.cores[1].load_program(pa)
        stats = kern.run()
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
        soc.cores[1].load_program(pa)
        kern.run()
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
        soc.cores[1].load_program(pa)
        kern.run()
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
        soc.cores[1].load_program(pa)
        kern.run()
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
        soc.cores[1].load_program(pa)
        kern.run()
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
        kern = FlexKernel(soc, quantum_instructions=1500,
                          trace=TraceRecorder())
        kern.wire_verification(0, [1])
        pa = make_task_program(2500, 0x2000)
        pc = make_task_program(800, 0x2010)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=5))
        # task C runs *on the checker core* with a finite deadline: EDF
        # prefers it over the infinite-deadline checker thread
        kern.spawn(1, KernelTask("C", pc, verification=False, deadline=1))
        soc.cores[1].load_program(pa)
        kern.run()
        assert soc.memory.read_word(0x2010) == 800 * 4   # C ran
        results = soc.all_results()
        assert results and all(r.ok for r in results)    # A verified
        finish_c = kern.trace.first("task_finished", subject="C")
        assert finish_c is not None

    def test_kernel_finishes_without_checker_work(self):
        soc = FlexStepSoC(SoCConfig(num_cores=2))
        kern = FlexKernel(soc, quantum_instructions=1000)
        pa = make_task_program(300, 0x2000)
        kern.spawn(0, KernelTask("plain", pa, verification=False,
                                 deadline=1))
        stats = kern.run()
        assert stats.tasks_finished == 1

    def test_run_budget_enforced(self):
        soc, kern = dual_core_kernel(quantum=10)
        pa = make_task_program(50000, 0x2000)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        soc.cores[1].load_program(pa)
        with pytest.raises(SchedulerError):
            kern.run(max_quanta=5)


class TestStuckOutboxAtFinish:
    def test_last_segment_reaches_its_checker(self, monkeypatch):
        """A task finishes with its last segment stuck behind a full
        channel, and no task follows it on that core: the kernel still
        retires the idle core until the outbox drains, so every closed
        segment is verified."""
        scp = ScpPacket(segment=0, push_cycle=0,
                        snapshot=FlexStepSoC(SoCConfig()).cores[0]
                        .snapshot())
        soc = FlexStepSoC(SoCConfig(num_cores=2).with_flexstep(
            fifo_entries=scp.entries + 2, segment_limit=7))
        kern = FlexKernel(soc, quantum_instructions=300)
        kern.wire_verification(0, [1])
        soc.engine_of(1).segment_service_pause = 1_000
        pa = make_task_program(20, 0x2000)
        kern.spawn(0, KernelTask("A", pa, verification=True, deadline=1))
        soc.cores[1].load_program(pa)
        verdicts = retire_verdicts(monkeypatch)
        assert kern.run().tasks_finished == 1
        assert any(stuck for _, stuck in verdicts)  # finished backpressured
        results = soc.all_results()
        assert len(results) == soc.adapter_of(0).stats.segments_closed
        assert all(r.ok for r in results)
        check_cosim_contracts(soc, clean=True)
