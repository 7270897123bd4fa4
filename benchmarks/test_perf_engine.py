"""Execution-engine throughput check: ``decoded`` against ``interp``.

Runs every workload of the synthetic mix to completion on a bare core
(direct memory port, no L1I model) under both engine tiers, asserts
they finish in bit-identical architectural state, and asserts the
decoded tier keeps its ≥5× geomean over the interpreter.  Each tier
gets one untimed warmup run, then the best of three timed runs counts,
so the one-time decode cost is excluded.  End-to-end performance is
measured by ``e2ebench/`` (see ``e2ebench/README.md``).
"""

import math
import time

import pytest

from repro.config import CoreConfig
from repro.core import CSR_MTVEC, Core, DirectPort, MainMemory
from repro.core.decode import decode_program
from repro.workloads.generator import (
    GeneratorOptions,
    build_program,
    trap_handler_address,
)
from repro.workloads.profiles import get_profile

#: Memory density 0.18-0.35, branchy and straight-line code, mul-heavy
#: and syscall-heavy profiles.
WORKLOADS = ("blackscholes", "dedup", "mcf", "hmmer", "x264")
#: Long enough that a run takes tens of milliseconds under ``interp``.
INSTRUCTIONS = 25_000
REPEATS = 3


def _run_once(program, engine):
    """(seconds, final state) of one run of ``program`` on ``engine``."""
    memory = MainMemory()
    memory.load_segment(program.data.words)
    core = Core(0, CoreConfig(), DirectPort(memory), engine=engine)
    core.load_program(program)
    handler = trap_handler_address(program)
    if handler is not None:
        core.csrs.raw_write(CSR_MTVEC, handler)
    start = time.perf_counter()
    stats = core.run(10_000_000)
    seconds = time.perf_counter() - start
    state = (core.snapshot().words(), stats.instructions, stats.cycles,
             stats.memory_ops, stats.traps,
             tuple(sorted(memory._words.items())))
    return seconds, state


def _speedup(name, instructions):
    program = build_program(
        get_profile(name),
        GeneratorOptions(target_instructions=instructions))
    decode_program(program, CoreConfig())
    best, states = {}, {}
    for engine in ("interp", "decoded"):
        _run_once(program, engine)
        runs = [_run_once(program, engine) for _ in range(REPEATS)]
        best[engine] = min(seconds for seconds, _ in runs)
        states[engine] = runs[0][1]
    assert states["decoded"] == states["interp"], (
        f"{name}: decoded diverged from interp")
    return best["interp"] / best["decoded"]


@pytest.fixture(scope="module")
def speedups():
    return {name: _speedup(name, INSTRUCTIONS) for name in WORKLOADS}


def test_engine_speedup_target(speedups):
    """Decoded dispatch must hold the ≥5× geomean over the interpreter,
    and no workload may fall below 3×."""
    print()
    for name, ratio in speedups.items():
        print(f"{name:<14s} decoded/interp {ratio:6.2f}x")
    geomean = math.exp(sum(map(math.log, speedups.values()))
                       / len(speedups))
    assert geomean >= 5.0, (
        f"decoded-dispatch speedup {geomean:.2f}x below the 5x target")
    assert min(speedups.values()) >= 3.0, speedups
