"""Decoded-dispatch engine mechanics: blocks, caching, fast paths.

Semantic equivalence with the interpreter is covered by
``test_differential_engine.py``; this module pins down the engine's own
contract — decode caching, the block table, the batched
``advance``/``exec_one`` paths, and exception behaviour next to a
fused block.
"""

import pytest

from repro.config import CoreConfig, MemoryConfig
from repro.core import Core, DirectPort, MainMemory
from repro.core.decode import UNBOUNDED_LINE, decode_program
from repro.errors import (
    ConfigurationError,
    ExecutionLimitExceeded,
    IllegalInstructionError,
    IsaError,
    MemoryAccessError,
    PrivilegeError,
)
from repro.isa import assemble
from repro.isa.instructions import KIND_CODES, OpKind
from repro.workloads.generator import GeneratorOptions, build_program
from repro.workloads.profiles import get_profile

#: The fetch-line shift of every SoC core's L1I.
L1I_LINE_SHIFT = MemoryConfig().l1i.line_bytes.bit_length() - 1

_COMPUTE = {KIND_CODES[k] for k in (OpKind.ALU, OpKind.MUL, OpKind.DIV)}
_CONTROL = {KIND_CODES[k] for k in (OpKind.BRANCH, OpKind.JUMP)}


def _core(prog, **kw):
    mem = MainMemory()
    mem.load_segment(prog.data.words)
    core = Core(0, CoreConfig(), DirectPort(mem), **kw)
    core.load_program(prog)
    return core, mem


class TestDecodeCache:
    def test_decode_is_shared_across_cores(self):
        prog = assemble("nop\nnop\nhalt")
        cfg = CoreConfig()
        assert decode_program(prog, cfg) is decode_program(prog, cfg)
        assert len(prog.decode_cache) == 1

    def test_distinct_timing_decodes_separately(self):
        import dataclasses
        prog = assemble("nop\nhalt")
        cfg = CoreConfig()
        slow = dataclasses.replace(cfg, div_latency_cycles=99)
        assert decode_program(prog, cfg) is not decode_program(prog, slow)
        assert len(prog.decode_cache) == 2

    def test_fresh_decode_builds_no_block(self):
        prog = assemble("\n".join(["addi x1, x1, 1"] * 10 + ["halt"]))
        assert decode_program(prog, CoreConfig()).blocks == {}

    def test_blocks_cover_program(self):
        prog = assemble("\n".join(["addi x1, x1, 1"] * 10
                                  + ["beq x1, x0, 8", "nop", "halt"]))
        d = decode_program(prog, CoreConfig())
        # Slot 0's block runs the straight line through the branch.
        kernel, length, lead = d.block_at(0, UNBOUNDED_LINE)
        assert (length, lead) == (11, 10)
        # A block entered mid-run is its own (shorter) block.
        assert d.block_at(5, UNBOUNDED_LINE)[1:] == (6, 5)
        # 16-byte lines: the block ends at its line's last slot.
        assert d.block_at(0, 4)[1:] == (4, 3)
        assert d.block_at(3, 4) == ()
        # No block starts at a control op or ends before a second member.
        assert d.block_at(10, UNBOUNDED_LINE) == ()
        assert d.block_at(11, UNBOUNDED_LINE) == ()
        # Each table is filled only where it was asked.
        assert set(d.blocks) == {UNBOUNDED_LINE, 4}
        assert d.blocks[4] == [d.blocks[4][0], None, None, ()] + [None] * 9
        assert d.blocks[UNBOUNDED_LINE][0][0] is kernel

    def test_a_run_fills_only_the_slots_it_reaches(self):
        prog = assemble("\n".join(["addi x1, x1, 1"] * 20 + ["halt"]))
        core, _ = _core(prog)
        core.run(100)
        table = decode_program(prog, CoreConfig()).blocks[UNBOUNDED_LINE]
        assert table[0][1:] == (20, 19)
        assert table[1:] == [None] * 19 + [()]


def _assert_block_table_exact(program, line_shift):
    """Every block of ``program``'s ``line_shift`` table stays in one
    line, holds compute ops and at most one ending branch/jump, and has
    the ``lead``, cycles and effect of its members run one by one."""
    config = CoreConfig()
    d = decode_program(program, config)
    kinds = d.kinds
    blocks = 0
    for idx in range(len(kinds)):
        entry = d.block_at(idx, line_shift)
        if not entry:
            continue
        blocks += 1
        kernel, length, lead = entry
        members = range(idx, idx + length)
        assert length >= 2
        assert len({(d.base + 4 * j) >> line_shift for j in members}) == 1
        assert all(kinds[j] in _COMPUTE for j in members[:-1])
        assert kinds[members[-1]] in _COMPUTE | _CONTROL
        # Run the fused kernel and the members on twin cores.
        fused, _ = _core(program)
        single, _ = _core(program)
        for core in (fused, single):
            core.pc = d.base + 4 * idx
            for reg in range(1, 32):
                core.regs.write(reg, (idx * 977 + reg * 131) & 0xFFFF)
        cycles = [d.kernels[j](single) for j in members]
        assert lead == sum(cycles[:-1]), idx
        assert kernel(fused) == sum(cycles), idx
        assert fused.snapshot().diff(single.snapshot()) == [], idx
    assert d.blocks[line_shift] == [
        d.block_at(i, line_shift) for i in range(len(kinds))]
    return blocks


@pytest.mark.parametrize(
    "name", ["blackscholes", "dedup", "mcf", "hmmer", "x264"])
@pytest.mark.parametrize("line_shift", [L1I_LINE_SHIFT, UNBOUNDED_LINE],
                         ids=["l1i-line", "bare-core"])
def test_block_table_is_exact_over_the_workload_mix(name, line_shift):
    program = build_program(get_profile(name),
                            GeneratorOptions(target_instructions=2000))
    assert decode_program(program, CoreConfig()).blocks == {}
    assert _assert_block_table_exact(program, line_shift) > 0


class TestAdvance:
    def test_advance_respects_budget_exactly(self):
        prog = assemble("\n".join(["addi x1, x1, 1"] * 50 + ["halt"]))
        core, _ = _core(prog)
        assert core.advance(7) == 7
        assert core.stats.instructions == 7
        assert core.regs.read(1) == 7
        assert core.pc == 28
        assert core.advance(1000) == 44   # the rest + halt
        assert core.halted

    def test_advance_zero_or_halted(self):
        prog = assemble("halt")
        core, _ = _core(prog)
        assert core.advance(0) == 0
        assert core.advance(5) == 1
        assert core.advance(5) == 0       # halted: no-op, no raise

    def test_run_watchdog_parity(self):
        prog = assemble("loop:\nj loop")
        for engine in ("interp", "decoded"):
            core, _ = _core(prog, engine=engine)
            with pytest.raises(ExecutionLimitExceeded):
                core.run(max_instructions=100)
            assert core.stats.instructions == 101

    def test_advance_with_hooks_matches_step_path(self):
        prog = assemble("\n".join(["addi x1, x1, 1"] * 5 + ["halt"]))
        core, _ = _core(prog)
        seen = []
        core.add_commit_hook(seen.append)
        assert core.advance(100) == 6
        assert len(seen) == 6
        assert [r.pc for r in seen] == [0, 4, 8, 12, 16, 20]

    def test_advance_without_program_raises(self):
        core = Core(0, CoreConfig(), DirectPort(MainMemory()))
        with pytest.raises(IllegalInstructionError):
            core.advance(10)

    def test_runaway_pc_raises_canonical_error(self):
        prog = assemble("nop\nnop")        # no halt: falls off the end
        for engine in ("interp", "decoded"):
            core, _ = _core(prog, engine=engine)
            with pytest.raises(IsaError, match="outside program"):
                core.run(100)
            assert core.stats.instructions == 2


class TestMidBlockExceptions:
    """A block holds no op that can raise, so a fault lands on the
    single instruction right after a fused run, which the loop has
    already settled."""

    def test_memory_fault_mid_block_settles_stats(self):
        # Four ALU ops fuse into one block; the load after them faults
        # on its own.
        prog = assemble("""
            addi x1, x0, 1
            addi x2, x0, 2
            addi x3, x0, 3
            li   x4, -8
            ld   x5, 0(x4)
            halt
        """)
        core, _ = _core(prog)
        with pytest.raises(MemoryAccessError):
            core.run(100)
        # Exactly the four committed instructions are accounted, the
        # faulting load is not, and pc sits on the faulting slot.
        assert core.stats.instructions == 4
        assert core.stats.memory_ops == 0
        assert core.csrs.raw_read(0xC02) == 4
        assert core.pc == 16
        assert core.regs.read(3) == 3
        assert core.regs.read(5) == 0

    def test_csr_privilege_fault_mid_block(self):
        # A lone ALU op fuses with nothing: the CSR op ends no block.
        prog = assemble("""
            addi x1, x0, 7
            csrrw x2, 0x340, x1
            halt
        """)
        for engine in ("interp", "decoded"):
            core, _ = _core(prog, engine=engine)
            with pytest.raises(PrivilegeError):
                core.run(100)
            assert core.stats.instructions == 1, engine
            assert core.pc == 4, engine

    def test_mret_from_user_mid_block(self):
        # mret is a system op, so it never joins the ALU op's block.
        prog = assemble("addi x1, x0, 1\nmret\nhalt")
        core, _ = _core(prog)
        with pytest.raises(PrivilegeError):
            core.run(100)
        assert core.stats.instructions == 1
        assert core.pc == 4


class TestExecOne:
    def test_exec_one_matches_step_accounting(self):
        src = "li x1, 3\nli x2, 4\nmul x3, x1, x2\nsd x3, 0x100(x0)\nhalt"
        a, _ = _core(assemble(src))
        b, _ = _core(assemble(src))
        cycles_a = []
        while not a.halted:
            cycles_a.append(a.exec_one())
        cycles_b = []
        while not b.halted:
            cycles_b.append(b.step().cycles)
        assert cycles_a == cycles_b
        assert a.stats == b.stats
        assert a.snapshot().diff(b.snapshot()) == []
        assert a.csrs.raw_read(0xC02) == b.csrs.raw_read(0xC02)

    def test_peek_kind_code(self):
        from repro.core.decode import K_HALT
        from repro.isa.instructions import KIND_CODES, OpKind
        prog = assemble("ld x1, 0x100(x0)\nhalt")
        core, _ = _core(prog)
        assert core.peek_kind_code() == KIND_CODES[OpKind.LOAD]
        core.exec_one()
        assert core.peek_kind_code() == K_HALT

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="turbo") as exc:
            Core(0, CoreConfig(), DirectPort(MainMemory()),
                 engine="turbo")
        # The error names every valid tier so typos are self-repairing.
        for name in ("interp", "decoded"):
            assert name in str(exc.value)

    @pytest.mark.parametrize("name", ["jit", "compiled"])
    def test_unknown_engine_env_rejected(self, monkeypatch, name):
        """Unknown REPRO_CORE_ENGINE names (typos, and ``compiled``,
        which is not a tier) fail loudly, naming the source."""
        monkeypatch.setenv("REPRO_CORE_ENGINE", name)
        with pytest.raises(ConfigurationError, match="REPRO_CORE_ENGINE"):
            Core(0, CoreConfig(), DirectPort(MainMemory()))
