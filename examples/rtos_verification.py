#!/usr/bin/env python3
"""OS-level FlexStep: Algorithm 1's context switch in action.

Two user tasks share the main core — one requires verification, one
does not (selective checking).  A third task lands on the *checker*
core with an urgent deadline: the kernel preempts the checker thread
(Algorithm 2), the verification stream buffers in the DBC, and checking
resumes afterwards.  Everything still verifies.

Run:  python examples/rtos_verification.py
"""

from repro import FlexStepSoC, FlexKernel, KernelTask, SoCConfig, assemble
from repro.sim import TraceRecorder


def make_program(iterations, result_addr, name):
    return assemble(f"""
.text
main:
    li x1, {iterations}
    li x2, 0
    li x10, 0x1000
loop:
    ld x3, 0(x10)
    add x2, x2, x3
    sd x2, {result_addr}(x0)
    addi x1, x1, -1
    bne x1, x0, loop
    halt
.data
    .org 0x1000
seed:
    .word 2
""", name=name)


def main() -> None:
    config = SoCConfig(num_cores=2).with_flexstep(
        dma_spill_entries=16384)   # spill space for buffered segments
    soc = FlexStepSoC(config)
    trace = TraceRecorder()
    # context switches every 1500 simulated cycles; in between, the
    # SoC's co-sim scheduler advances every core in clock order
    kernel = FlexKernel(soc, quantum_cycles=1500, trace=trace)
    kernel.wire_verification(main_id=0, checker_ids=[1])

    critical = make_program(3000, 0x2000, "critical")
    best_effort = make_program(1200, 0x2008, "best-effort")
    urgent = make_program(800, 0x2010, "urgent")

    kernel.spawn(0, KernelTask("critical", critical,
                               verification=True, deadline=5.0))
    kernel.spawn(0, KernelTask("best-effort", best_effort,
                               verification=False, deadline=9.0))
    # urgent work placed on the checker core: preempts the checker thread
    kernel.spawn(1, KernelTask("urgent", urgent,
                               verification=False, deadline=1.0))

    stats = kernel.run()

    print("kernel run:")
    print(f"  context switches = {stats.context_switches}")
    print(f"  tasks finished   = {stats.tasks_finished}")
    print(f"  critical result  = {soc.memory.read_word(0x2000)} "
          f"(expected {3000 * 2})")
    print(f"  best-effort      = {soc.memory.read_word(0x2008)} "
          f"(expected {1200 * 2})")
    print(f"  urgent           = {soc.memory.read_word(0x2010)} "
          f"(expected {800 * 2})")

    results = soc.all_results()
    ok = sum(1 for r in results if r.ok)
    replayed = sum(r.count for r in results)
    print("\nverification (only the 'critical' task is checked):")
    print(f"  segments verified = {ok}/{len(results)}")
    print(f"  instructions replayed = {replayed}")

    order = [e.subject for e in trace.filter(kind="task_finished")]
    print(f"  finish order = {order}")
    assert all(r.ok for r in results)


if __name__ == "__main__":
    main()
