"""Differential testing: every engine tier vs the seed interpreter.

Randomized programs run on all execution engines and every observable
must be bit-identical: final :class:`ArchSnapshot`, the commit-ordered
:class:`MemEntry` stream, per-commit cycle counts, memory contents,
``instret`` and all :class:`CoreStats` counters.  Per program, each
non-reference tier is compared to the ``interp`` seed reference twice:

* ``step()`` — single-step with CommitRecords (hooks),
* ``run()``  — the record-free batched fast path (where the
  ``decoded`` tier dispatches fused blocks).

The suite also proves engine invariance where it matters to the paper:
full checker-replay fault campaigns (checker-side, main-side and burst
faults) produce identical detection payloads under every tier, the
``exec_one``/``peek_kind_code`` single-step surface the checkers replay
through is tier-independent, a core timed through a conflicting L1I
counts the same fetches on every fetch path, and a fault right after a
fused block honours the uncommitted-instruction contract (memory
faults in straight lines, diamond gaps, stores and out-of-range
accesses, plus privilege traps).
"""

import random

import pytest

from repro.config import CacheConfig, CoreConfig
from repro.core import (CSR_MTVEC, Cache, CachedPort, Core, DirectPort,
                        MainMemory, MemoryHierarchy)
from repro.core import engine_override
from repro.core.core import _ENGINES
from repro.isa import assemble
from repro.isa.instructions import OPS, Instruction, OpKind
from repro.isa.program import DataSegment, Program

from ..conftest import make_ecall_program, make_sum_program, point_die

#: Registers the generator uses for data (x1 reserved as link register,
#: x6 as the memory base, x31 for jalr targets).
_DATA_REGS = (2, 3, 4, 5, 7, 8, 9, 10)
_MEM_BASE = 0x1000
_MEM_WORDS = 64

#: The tiers compared against the ``interp`` reference.
_ALT_ENGINES = tuple(e for e in _ENGINES if e != "interp")


def _random_program(seed: int, length: int = 400) -> Program:
    """A random but well-formed program: ALU/mul/div dataflow, memory
    traffic confined to a small window, forward branches, calls and
    returns, CSR reads of instret/cycle, ending in a halt."""
    rng = random.Random(seed)
    insts: list[Instruction] = []

    def r_data():
        return rng.choice(_DATA_REGS)

    # Seed the data registers with interesting 64-bit patterns.
    for i, reg in enumerate(_DATA_REGS):
        insts.append(Instruction("addi", rd=reg, rs1=0,
                                 imm=rng.choice([
                                     rng.randrange(-2048, 2048),
                                     (1 << 62) + rng.randrange(1 << 32),
                                     -(1 << 63),
                                     (1 << 63) - 1,
                                 ])))
    insts.append(Instruction("addi", rd=6, rs1=0, imm=_MEM_BASE))

    alu_rr = [n for n, i in OPS.items()
              if i.kind is OpKind.ALU and not i.has_imm and n != "nop"]
    alu_ri = [n for n, i in OPS.items()
              if i.kind is OpKind.ALU and i.has_imm]
    amos = [n for n, i in OPS.items() if i.kind is OpKind.AMO]
    branches = [n for n, i in OPS.items() if i.kind is OpKind.BRANCH]

    while len(insts) < length:
        roll = rng.random()
        if roll < 0.35:
            insts.append(Instruction(rng.choice(alu_rr), rd=r_data(),
                                     rs1=r_data(), rs2=r_data()))
        elif roll < 0.50:
            op = rng.choice(alu_ri)
            imm = rng.randrange(0, 63) if op in ("slli", "srli", "srai") \
                else rng.randrange(-2048, 2048)
            insts.append(Instruction(op, rd=r_data(), rs1=r_data(),
                                     imm=imm))
        elif roll < 0.58:
            op = rng.choice(["mul", "div", "rem"])
            insts.append(Instruction(op, rd=r_data(), rs1=r_data(),
                                     rs2=r_data()))
        elif roll < 0.74:
            # Memory op at a masked in-window address: x8 = base + off.
            off = rng.randrange(_MEM_WORDS) * 8
            insts.append(Instruction("addi", rd=8, rs1=6, imm=off))
            mem_roll = rng.random()
            if mem_roll < 0.45:
                insts.append(Instruction("ld", rd=r_data(), rs1=8))
            elif mem_roll < 0.80:
                insts.append(Instruction("sd", rs1=8, rs2=r_data()))
            elif mem_roll < 0.90:
                insts.append(Instruction(rng.choice(amos), rd=r_data(),
                                         rs1=8, rs2=r_data()))
            else:
                insts.append(Instruction("lr", rd=r_data(), rs1=8))
                if rng.random() < 0.7:
                    insts.append(Instruction("sc", rd=r_data(), rs1=8,
                                             rs2=r_data()))
        elif roll < 0.86:
            # Forward branch skipping 1-3 instructions (fillers follow,
            # so the target always lands inside the program).
            skip = rng.randrange(1, 4)
            insts.append(Instruction(rng.choice(branches), rs1=r_data(),
                                     rs2=r_data(), imm=4 * (skip + 1)))
            for _ in range(skip):
                insts.append(Instruction("addi", rd=r_data(), rs1=r_data(),
                                         imm=rng.randrange(-64, 64)))
        elif roll < 0.92:
            # jal over one filler (forward, with/without link).
            rd = rng.choice([0, 1])
            insts.append(Instruction("jal", rd=rd, imm=8))
            insts.append(Instruction("addi", rd=r_data(), rs1=r_data(),
                                     imm=1))
        elif roll < 0.96:
            # Computed jalr to the next-next slot; exercises the BTB
            # (and the RAS when rd == x1).
            target = (len(insts) + 2) * 4
            insts.append(Instruction("addi", rd=31, rs1=0, imm=target))
            insts.append(Instruction("jalr", rd=rng.choice([0, 1]),
                                     rs1=31))
        else:
            # User-readable CSR reads: instret (0xC02) / cycle (0xC00)
            # catch any retired-instruction accounting drift.
            insts.append(Instruction("csrrs", rd=r_data(), rs1=0,
                                     imm=rng.choice([0xC00, 0xC02])))
    insts.append(Instruction("halt"))

    data = DataSegment()
    for w in range(_MEM_WORDS):
        data.set_word(_MEM_BASE + 8 * w, rng.getrandbits(64))
    return Program(insts, data=data, name=f"differential-{seed}")


def _execute(program: Program, engine: str, *, via: str = "step"):
    """Run ``program``; returns (snapshot, commit trace, stats, memory).

    ``via="step"`` drives single steps and records per-commit
    (pc, next_pc, cycles, mem_ops) through a commit hook; ``via="run"``
    uses the batched fast path (no records available).
    """
    memory = MainMemory()
    memory.load_segment(program.data.words)
    core = Core(0, CoreConfig(), DirectPort(memory), engine=engine)
    core.load_program(program)
    handler = program.labels.get("_trap_handler")
    if handler is not None:
        core.csrs.raw_write(CSR_MTVEC, handler)
    trace = []
    if via == "step":
        core.add_commit_hook(
            lambda rec: trace.append(
                (rec.pc, rec.next_pc, rec.cycles, rec.trap,
                 tuple((e.kind, e.addr, e.data) for e in rec.mem_ops))))
        while not core.halted:
            core.step()
    else:
        core.run(2_000_000)
    stats = core.stats
    counters = (stats.instructions, stats.user_instructions, stats.cycles,
                stats.stall_cycles, stats.traps, stats.memory_ops,
                core.csrs.raw_read(0xC02))
    return (core.snapshot(), trace, counters,
            tuple(sorted(memory._words.items())))


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_bit_identical(seed):
    program = _random_program(seed)
    ref_snap, ref_trace, ref_counters, ref_mem = _execute(
        program, "interp", via="step")
    for engine in _ALT_ENGINES:
        snap, trace, counters, mem = _execute(program, engine, via="step")
        assert snap.diff(ref_snap) == [], engine
        assert trace == ref_trace, engine
        assert counters == ref_counters, engine
        assert mem == ref_mem, engine
        # The record-free batched path must land in the same state;
        # for "decoded" this is the path that dispatches fused blocks.
        fast_snap, _, fast_counters, fast_mem = _execute(
            program, engine, via="run")
        assert fast_snap.diff(ref_snap) == [], engine
        assert fast_counters == ref_counters, engine
        assert fast_mem == ref_mem, engine


@pytest.mark.parametrize("make_prog", [make_sum_program,
                                       make_ecall_program])
def test_fixture_programs_bit_identical(make_prog):
    """Loops and privilege round-trips match across all engines too."""
    program = make_prog()
    ref = _execute(program, "interp", via="step")
    for engine in _ALT_ENGINES:
        stepped = _execute(program, engine, via="step")
        fast = _execute(program, engine, via="run")
        assert stepped[0].diff(ref[0]) == [], engine
        assert stepped[1] == ref[1], engine
        assert stepped[2] == ref[2] == fast[2], engine
        assert stepped[3] == ref[3] == fast[3], engine
        assert fast[0].diff(ref[0]) == [], engine


#: The synthetic workload mix: memory density 0.18-0.35, branchy and
#: straight-line code, mul-heavy and syscall-heavy profiles.
_WORKLOAD_MIX = ("blackscholes", "dedup", "mcf", "hmmer", "x264")


def test_workload_generator_programs_bit_identical():
    """The paper's synthetic workload mix, all engines, both modes."""
    from repro.workloads.generator import GeneratorOptions, build_program
    from repro.workloads.profiles import get_profile
    cases = [(name, "plain") for name in _WORKLOAD_MIX] + [("hmmer", "nzdc")]
    for name, mode in cases:
        program = build_program(
            get_profile(name),
            GeneratorOptions(target_instructions=8000, mode=mode))
        ref = _execute(program, "interp", via="step")
        for engine in _ALT_ENGINES:
            stepped = _execute(program, engine, via="step")
            fast = _execute(program, engine, via="run")
            assert stepped[0].diff(ref[0]) == [], (name, mode, engine)
            assert stepped[1] == ref[1], (name, mode, engine)
            assert stepped[2] == ref[2] == fast[2], (name, mode, engine)
            assert stepped[3] == ref[3] == fast[3], (name, mode, engine)
            assert fast[0].diff(ref[0]) == [], (name, mode, engine)


def _run_through_l1i(program: Program, engine: str, via: str):
    """Run ``program`` on one core timed through a small L1I and L1D
    (2 sets x 2 ways each, so fetches conflict and evict) in front of a
    shared L2; returns every counter the fetch path can move."""
    memory = MainMemory()
    memory.load_segment(program.data.words)
    l2 = Cache(CacheConfig(size_bytes=2048, ways=4, line_bytes=64), "l2")
    hierarchy = MemoryHierarchy(l2, l2_latency=20, dram_latency=80)
    l1i = Cache(CacheConfig(size_bytes=256, ways=2, line_bytes=64), "l1i")
    l1d = Cache(CacheConfig(size_bytes=256, ways=2, line_bytes=64), "l1d")
    core = Core(0, CoreConfig(), CachedPort(memory, hierarchy, l1d),
                l1i=l1i, hierarchy=hierarchy, engine=engine)
    core.load_program(program)
    handler = program.labels.get("_trap_handler")
    if handler is not None:
        core.csrs.raw_write(CSR_MTVEC, handler)
    while not core.halted:
        if via == "advance":
            core.advance(97)
        elif via == "exec_one":
            core.exec_one()
        else:
            core.step()
    return (core.stats, core.csrs.raw_read(0xC02), l1i.stats, l1d.stats,
            l2.stats, hierarchy.stats, core.snapshot().regs)


# The workload mix of ``benchmarks/test_perf_engine.py``.
@pytest.mark.parametrize(
    "name", ["blackscholes", "dedup", "mcf", "hmmer", "x264"])
def test_core_fetch_sites_identical_through_l1i(name):
    """The decoded tier's three standalone fetch sites (``advance``,
    ``exec_one`` and ``step``) take the L1I's last-line shortcut; the
    ``interp`` ``step`` always takes the full ``fetch_access``.  With an
    L1I small enough to evict, all four agree on cycles, ``instret``,
    core stats and every cache counter."""
    from repro.workloads.generator import GeneratorOptions, build_program
    from repro.workloads.profiles import get_profile
    program = build_program(get_profile(name),
                            GeneratorOptions(target_instructions=4000))
    ref = _run_through_l1i(program, "interp", "step")
    for via in ("advance", "exec_one", "step"):
        assert _run_through_l1i(program, "decoded", via) == ref, via
    l1i_stats = ref[2]
    assert l1i_stats.hits > 10 * l1i_stats.misses > 0
    assert l1i_stats.evictions > 0


# ---------------------------------------------------------------------------
# checker replay with injected faults — full campaign payload per tier
# ---------------------------------------------------------------------------

#: Fault-campaign variants: single-bit checker-side faults, main-side
#: faults (the checker's replay must *disagree* to detect them), and
#: multi-bit bursts.
_FAULT_SCENARIOS = {
    "checker-side": {"side": "checker"},
    "main-side": {"side": "main"},
    "bursts": {"side": "checker", "burst_bits": 3},
}


def _latency_payload(engine: str, overrides: dict) -> dict:
    from repro.scenarios import FaultModel, Scenario, run_scenario

    scenario = Scenario(name="engine-faults", kind="latency",
                        workloads=("dedup",), target_instructions=8000,
                        seed=11, faults=FaultModel(**overrides))
    workload, = run_scenario(scenario, engine=engine, workers=1,
                             cache=None).payload["workloads"]
    return workload


@pytest.mark.parametrize("scenario", sorted(_FAULT_SCENARIOS))
def test_checker_replay_faults_engine_invariant(scenario):
    """Injected-fault detection payloads are identical per tier.

    The main core may run any engine; the checker replays one
    instruction at a time regardless.  Latencies, detection counts and
    the full per-fault record list must not move by a bit.
    """
    overrides = _FAULT_SCENARIOS[scenario]
    ref = _latency_payload("interp", overrides)
    assert ref["injected"] > 0
    assert ref["detected"] > 0
    for engine in _ALT_ENGINES:
        assert _latency_payload(engine, overrides) == ref, engine


@pytest.mark.parametrize("pairs,checkers", [(2, 1), (1, 2)])
def test_soc_fingerprint_engine_invariant(pairs, checkers):
    """A fault-injected co-sim die has one full fingerprint -- every
    core's stats, ``instret``, pc and registers, every channel, adapter
    and cache counter -- whether the ``loop`` scheduler drives the
    reference interpreter or the ``heap`` scheduler drives a faster
    tier."""
    from repro.flexstep.fingerprint import soc_fingerprint

    point = {"name": f"{pairs}x{checkers}", "workload": "dedup",
             "pairs": pairs, "checkers": checkers, "faults": True,
             "target_instructions": 3_000}

    def fingerprint(engine, sched):
        with engine_override(engine):
            soc, injectors = point_die(point)
            stats = soc.run(sched=sched)
        return soc_fingerprint(soc, stats, injectors)

    ref = fingerprint("interp", "loop")
    assert ref[5]  # faults were injected
    for engine in _ALT_ENGINES:
        assert fingerprint(engine, "heap") == ref, engine


# ---------------------------------------------------------------------------
# exec_one / peek_kind_code — the surface checker replay steps through
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", _ALT_ENGINES)
def test_exec_one_and_peek_match_interp(engine):
    program = make_sum_program(40)

    def drive(eng):
        memory = MainMemory()
        memory.load_segment(program.data.words)
        core = Core(0, CoreConfig(), DirectPort(memory), engine=eng)
        core.load_program(program)
        stream = []
        while not core.halted:
            stream.append((core.pc, core.peek_kind_code(),
                           core.exec_one()))
        return stream, core.snapshot(), core.stats

    ref_stream, ref_snap, ref_stats = drive("interp")
    stream, snap, stats = drive(engine)
    assert stream == ref_stream
    assert snap.diff(ref_snap) == []
    assert stats == ref_stats


# ---------------------------------------------------------------------------
# faults after a fused block — the uncommitted-instruction contract
# ---------------------------------------------------------------------------

#: Programs that fault right after a fused block (a block holds no op
#: that can raise, so the fault lands on a single instruction the loop
#: takes after the block): a load fault after ALU work, a fault inside
#: a forward-branch diamond's gap arm, a store fault after a committed
#: store, an out-of-range access (address past the memory size), and a
#: privilege trap from user mode.
_GUARD_CASES = {
    "mid_trace_fault": """
        li x1, 100
        addi x2, x1, 23
        xor x3, x2, x1
        li x4, 3
        ld x5, 0(x4)
        addi x6, x0, 99
        halt
    """,
    "diamond_gap_fault": """
        li x1, 0
        li x4, 5
        beq x1, x4, 8
        ld x5, 3(x0)
        addi x6, x0, 1
        halt
    """,
    "store_fault": """
        li x1, 64
        li x2, 7
        sd x2, 0(x1)
        sd x2, 3(x1)
        halt
    """,
    "oob_fault": """
        li x1, 1
        slli x1, x1, 40
        addi x2, x0, 11
        ld x3, 0(x1)
        halt
    """,
    "mret_from_user": """
        addi x1, x0, 1
        addi x2, x1, 2
        mret
        halt
    """,
}


def _run_to_fault(prog, engine: str):
    """Run until the program faults; return the error + full state."""
    cfg = CoreConfig()
    memory = MainMemory()
    memory.load_segment(prog.data.words)
    core = Core(0, cfg, DirectPort(memory), engine=engine)
    core.load_program(prog)
    err = None
    try:
        core.run(1000)
    except Exception as exc:
        err = (type(exc).__name__, str(exc))
    pstats = core.predictor.stats
    return (err, core.snapshot().words(), core.pc,
            core.stats.instructions, core.stats.user_instructions,
            core.stats.cycles, core.stats.memory_ops, core.stats.traps,
            pstats.predictions, pstats.mispredictions,
            tuple(sorted(memory._words.items())))


@pytest.mark.parametrize("case", sorted(_GUARD_CASES))
@pytest.mark.parametrize("engine", _ALT_ENGINES)
def test_mid_block_faults_bit_identical(case, engine):
    """A fault after a fused block settles to the exact interp state: the
    interpreter's error, architectural state, pc, counters, predictor
    stats and memory."""
    prog = assemble(_GUARD_CASES[case])
    ref = _run_to_fault(prog, "interp")
    assert ref[0] is not None, "case must actually fault"
    assert _run_to_fault(prog, engine) == ref


@pytest.mark.parametrize("engine", _ALT_ENGINES)
def test_mid_block_fault_contract(engine):
    """The uncommitted-instruction contract, spelled out.

    A trap after a fused run must settle exactly the committed prefix: the
    faulting load is not retired, pc sits on the faulting slot, the
    prefix's register writes are visible, and the destination register
    keeps its old committed value.
    """
    prog = assemble(_GUARD_CASES["mid_trace_fault"])
    memory = MainMemory()
    core = Core(0, CoreConfig(), DirectPort(memory), engine=engine)
    core.load_program(prog)
    from repro.errors import MemoryAccessError
    with pytest.raises(MemoryAccessError):
        core.run(1000)
    assert core.stats.instructions == 4          # li/addi/xor/li only
    assert core.csrs.raw_read(0xC02) == 4        # instret agrees
    assert core.pc == 16                         # the faulting ld slot
    assert core.regs.read(2) == 123              # prefix writes landed
    assert core.regs.read(3) == 123 ^ 100
    assert core.regs.read(5) == 0                # rd not clobbered
    assert core.regs.read(6) == 0                # successor not run
    assert core.stats.memory_ops == 0            # the load never landed
