#!/usr/bin/env python3
"""Quickstart: dual-core FlexStep verification in ~40 lines.

Assembles a small program, runs it on a main core with a checker core
replaying its checking segments, then injects a single bit flip into
the forwarded data and shows the checker catching it.

Run:  python examples/quickstart.py
"""

import random

from repro import FlexStepSoC, SoCConfig, assemble
from repro.flexstep import FaultInjector, FaultTarget

SOURCE = """
.text
main:
    li   x1, 5000          # iterations
    li   x2, 0             # accumulator
    li   x10, 0x1000       # input pointer
loop:
    ld   x3, 0(x10)
    add  x2, x2, x3
    sd   x2, 0x2000(x0)
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
.data
    .org 0x1000
input:
    .word 7
"""


def build_soc():
    program = assemble(SOURCE, name="quickstart")
    soc = FlexStepSoC(SoCConfig(num_cores=2))
    soc.load_program(0, program)            # main core; each SCP
                                            # brings the checker its text
    soc.setup_verification(0, [1])          # G.Configure + M.associate
    return soc


def main() -> None:
    # --- clean run -----------------------------------------------------
    soc = build_soc()
    stats = soc.run()
    print("clean run:")
    print(f"  result           = {soc.memory.read_word(0x2000)}"
          f" (expected {5000 * 7})")
    print(f"  segments checked = {stats.segments_checked}, "
          f"failed = {stats.segments_failed}")
    print(f"  main-core time   = "
          f"{soc.cycles_us(stats.main_cycles[0]):.1f} us")

    # --- fault-injected run ---------------------------------------------
    soc = build_soc()
    channel = soc.interconnect.channels_of(0)[0]
    injector = FaultInjector(channel, target=FaultTarget.MAL_DATA,
                             segment_interval=2, rng=random.Random(1))
    soc.run()
    injector.resolve(soc.all_results())
    print("\nfault-injected run (bit flips in forwarded MAL data):")
    print(f"  faults injected  = {len(injector.records)}")
    print(f"  detection rate   = {injector.detection_rate:.0%}")
    for record in injector.records:
        latency_us = soc.cycles_us(record.latency_cycles() or 0)
        print(f"  segment {record.segment}: detected in "
              f"{latency_us:.2f} us ({record.detail.split(':')[0]})")
    # the main core's own execution was never disturbed:
    assert soc.memory.read_word(0x2000) == 5000 * 7


if __name__ == "__main__":
    main()
