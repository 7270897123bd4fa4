"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.config import SoCConfig
from repro.core import Core, DirectPort, MainMemory
from repro.config import CoreConfig
from repro.flexstep import FlexStepSoC
from repro.flexstep.die import build_verified_die
from repro.isa import assemble
from repro.workloads.generator import GeneratorOptions, cached_program
from repro.workloads.profiles import get_profile


SUM_LOOP_SRC = """
.text
main:
    li   x1, {n}
    li   x2, 0
    li   x10, 0x1000
loop:
    ld   x3, 0(x10)
    add  x2, x2, x3
    sd   x2, 0x2000(x0)
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
.data
    .org 0x1000
src:
    .word {value}
"""


@pytest.fixture(scope="session", autouse=True)
def _session_cache_dir(tmp_path_factory):
    """Campaign results cache under a temporary root, not the repo's
    ``.repro_cache``: every source edit rotates the digests, so a cache
    kept across runs only grows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


def make_sum_program(n: int = 100, value: int = 7):
    """A small load/accumulate/store loop; result n*value at 0x2000."""
    return assemble(SUM_LOOP_SRC.format(n=n, value=value), name="sum")


ECALL_LOOP_SRC = """
.text
main:
    li   x1, {n}
    li   x2, 0
loop:
    addi x2, x2, 3
    ecall
    addi x1, x1, -1
    bne  x1, x0, loop
    sd   x2, 0x2000(x0)
    halt
_trap_handler:
    csrrw x31, 0x340, x31
    ld    x31, 0x800(x0)
    addi  x31, x31, 1
    sd    x31, 0x800(x0)
    csrrw x31, 0x340, x31
    mret
"""


def make_ecall_program(n: int = 20):
    """A loop that traps to the kernel every iteration."""
    return assemble(ECALL_LOOP_SRC.format(n=n), name="ecall-loop")


@pytest.fixture
def sum_program():
    return make_sum_program()


@pytest.fixture
def bare_core():
    """A core with direct (uncached) memory, no program loaded."""
    mem = MainMemory()
    return Core(0, CoreConfig(), DirectPort(mem)), mem


def make_verified_soc(program, *, checkers: int = 1, **flex_overrides):
    """A FlexStepSoC with ``program`` on core 0 under verification."""
    config = SoCConfig(num_cores=checkers + 1)
    if flex_overrides:
        config = config.with_flexstep(**flex_overrides)
    soc = FlexStepSoC(config)
    soc.load_program(0, program)
    soc.setup_verification(0, list(range(1, checkers + 1)))
    return soc


def point_die(point):
    """The verified die of a differential-suite grid point.

    ``pairs`` groups of ``1 + checkers`` cores run ``workload`` on the
    catalog's builder with a 2,048-entry spill and a 20,000-cycle
    service pause.  A faulted point arms every segment (at the small
    targets the suites use, a checker may close only one), its
    injectors seeded ``11 + 7919 * pair``.  Returns ``(soc,
    injectors)``.
    """
    program = cached_program(
        get_profile(point["workload"]),
        GeneratorOptions(target_instructions=point["target_instructions"]))
    spec = {"pairs": point["pairs"], "checkers": point["checkers"],
            "dma_spill_entries": 2_048, "service_pause_cycles": 20_000}
    if point["faults"]:
        spec.update(target="any", segment_interval=1, fault_seed=11)
    return build_verified_die(program, spec)


def run_on_core(source: str, *, max_instructions: int = 200_000):
    """Assemble and run ``source`` on a bare core; returns (core, mem)."""
    program = assemble(source)
    mem = MainMemory()
    mem.load_segment(program.data.words)
    core = Core(0, CoreConfig(), DirectPort(mem))
    core.load_program(program)
    handler = program.labels.get("_trap_handler")
    if handler is not None:
        from repro.core import CSR_MTVEC
        core.csrs.raw_write(CSR_MTVEC, handler)
    core.run(max_instructions)
    return core, mem
