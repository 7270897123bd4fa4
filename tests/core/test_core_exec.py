"""Functional and timing tests for the in-order core."""

import pytest
from hypothesis import given, strategies as st

from repro.config import CoreConfig
from repro.core import Core, DirectPort, MainMemory, Privilege
from repro.core.registers import CSR_MEPC, CSR_MTVEC
from repro.errors import (
    ExecutionLimitExceeded,
    IllegalInstructionError,
    PrivilegeError,
)
from repro.isa import assemble
from repro.isa.instructions import MASK64, to_signed64

from ..conftest import run_on_core


def run_src(source, **kwargs):
    return run_on_core(source, **kwargs)


class TestAluSemantics:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 3, 4, 7),
        ("sub", 3, 4, MASK64),            # wraps to -1
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("slt", 3, 4, 1),
        ("slt", 4, 3, 0),
        ("sltu", 1, MASK64, 1),           # unsigned: huge b
        ("sll", 1, 4, 16),
        ("srl", 16, 4, 1),
        ("mul", 7, 6, 42),
    ])
    def test_rr_ops(self, op, a, b, expected):
        core, _ = run_src(f"""
            li x1, {to_signed64(a) if a < (1 << 31) else 0}
            li x2, {to_signed64(b) if b < (1 << 31) else 0}
            {'addi x1, x0, -1' if a == MASK64 else 'nop'}
            {'addi x2, x0, -1' if b == MASK64 else 'nop'}
            {op} x3, x1, x2
            halt
        """)
        assert core.regs.read(3) == expected

    def test_sra_sign_extends(self):
        core, _ = run_src("""
            li x1, -16
            srai x2, x1, 2
            halt
        """)
        assert to_signed64(core.regs.read(2)) == -4

    def test_lui(self):
        core, _ = run_src("lui x1, 5\nhalt")
        assert core.regs.read(1) == 5 << 12

    @pytest.mark.parametrize("a,b,q,r", [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),   # truncation toward zero
        (7, -2, -3, 1),
    ])
    def test_div_rem(self, a, b, q, r):
        core, _ = run_src(f"""
            li x1, {a}
            li x2, {b}
            div x3, x1, x2
            rem x4, x1, x2
            halt
        """)
        assert to_signed64(core.regs.read(3)) == q
        assert to_signed64(core.regs.read(4)) == r

    @pytest.mark.parametrize("engine", ["interp", "decoded"])
    @pytest.mark.parametrize("a,b", [
        ((1 << 62) + 12345, 3),            # beyond float53 precision
        ((1 << 63) - 1, 7),                # INT64_MAX
        (-(1 << 63), 3),                   # INT64_MIN
        (-(1 << 63), -1),                  # RISC-V overflow case
        ((1 << 63) - 1, -(1 << 63)),
        ((1 << 53) + 1, 1),                # first float-unrepresentable
    ])
    def test_div_rem_64bit_boundary(self, engine, a, b):
        """int(a / b) went through a float and corrupted quotients
        beyond 2**53; pure integer division must be exact."""
        prog = assemble(f"""
            li x1, {a}
            li x2, {b}
            div x3, x1, x2
            rem x4, x1, x2
            halt
        """)
        core = Core(0, CoreConfig(), DirectPort(MainMemory()),
                    engine=engine)
        core.load_program(prog)
        core.run()
        # Python // floors; RISC-V truncates toward zero.
        expect_q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expect_q = -expect_q
        expect_r = a - expect_q * b
        assert to_signed64(core.regs.read(3)) == to_signed64(expect_q)
        assert to_signed64(core.regs.read(4)) == to_signed64(expect_r)

    def test_div_by_zero_riscv_semantics(self):
        core, _ = run_src("""
            li x1, 5
            div x3, x1, x0
            rem x4, x1, x0
            halt
        """)
        assert core.regs.read(3) == MASK64          # -1
        assert to_signed64(core.regs.read(4)) == 5  # dividend

    @given(st.integers(-(2 ** 31), 2 ** 31 - 1),
           st.integers(-(2 ** 31), 2 ** 31 - 1))
    def test_add_matches_python_semantics(self, a, b):
        core, _ = run_src(f"""
            li x1, {a}
            li x2, {b}
            add x3, x1, x2
            halt
        """)
        assert to_signed64(core.regs.read(3)) == a + b


class TestMemoryOps:
    def test_load_store_roundtrip(self):
        core, mem = run_src("""
            li x1, 1234
            sd x1, 0x100(x0)
            ld x2, 0x100(x0)
            halt
        """)
        assert core.regs.read(2) == 1234
        assert mem.read_word(0x100) == 1234

    def test_lr_sc_success(self):
        core, mem = run_src("""
            li x10, 0x200
            li x2, 55
            lr x1, (x10)
            sc x3, x2, (x10)
            halt
        """)
        assert core.regs.read(3) == 0       # success
        assert mem.read_word(0x200) == 55

    def test_sc_without_reservation_fails(self):
        core, mem = run_src("""
            li x10, 0x200
            li x2, 55
            sc x3, x2, (x10)
            halt
        """)
        assert core.regs.read(3) == 1       # failure
        assert mem.read_word(0x200) == 0

    def test_sc_wrong_address_fails(self):
        core, _ = run_src("""
            li x10, 0x200
            li x11, 0x300
            lr x1, (x10)
            sc x3, x2, (x11)
            halt
        """)
        assert core.regs.read(3) == 1

    @pytest.mark.parametrize("op,init,operand,expected_mem,expected_rd", [
        ("amoadd", 10, 5, 15, 10),
        ("amoswap", 10, 5, 5, 10),
        ("amoand", 0b1100, 0b1010, 0b1000, 0b1100),
        ("amoor", 0b1100, 0b1010, 0b1110, 0b1100),
        ("amoxor", 0b1100, 0b1010, 0b0110, 0b1100),
        ("amomax", 3, 9, 9, 3),
        ("amomin", 3, 9, 3, 3),
    ])
    def test_amo_ops(self, op, init, operand, expected_mem, expected_rd):
        core, mem = run_src(f"""
            li x10, 0x200
            li x2, {operand}
            {op} x1, x2, (x10)
            halt
        .data
            .org 0x200
        cell:
            .word {init}
        """)
        assert mem.read_word(0x200) == expected_mem
        assert core.regs.read(1) == expected_rd

    def test_amo_produces_two_mem_entries(self):
        prog = assemble("""
            li x10, 0x200
            li x2, 1
            amoadd x1, x2, (x10)
            halt
        """)
        mem = MainMemory()
        core = Core(0, CoreConfig(), DirectPort(mem))
        core.load_program(prog)
        records = []
        core.add_commit_hook(records.append)
        core.run()
        amo = [r for r in records if r.inst.op == "amoadd"][0]
        assert [e.kind for e in amo.mem_ops] == ["r", "w"]
        assert amo.mem_ops[0].addr == amo.mem_ops[1].addr == 0x200


class TestControlFlow:
    def test_loop_sum(self):
        core, _ = run_src("""
            li x1, 10
            li x2, 0
        loop:
            add x2, x2, x1
            addi x1, x1, -1
            bnez x1, loop
            halt
        """)
        assert core.regs.read(2) == 55

    def test_call_return(self):
        core, _ = run_src("""
        main:
            li x10, 5
            call double
            halt
        double:
            add x10, x10, x10
            ret
        """)
        assert core.regs.read(10) == 10

    def test_indirect_jump(self):
        core, _ = run_src("""
            li x5, 12          # address of target
            jr x5
            li x1, 111         # skipped
        target:
            li x1, 222
            halt
        """)
        assert core.regs.read(1) == 222

    @pytest.mark.parametrize("op,a,b,taken", [
        ("beq", 1, 1, True), ("beq", 1, 2, False),
        ("bne", 1, 2, True), ("bne", 2, 2, False),
        ("blt", -1, 1, True), ("blt", 1, -1, False),
        ("bge", 1, 1, True), ("bge", -2, -1, False),
        ("bltu", 1, 2, True), ("bgeu", 2, 1, True),
    ])
    def test_branch_conditions(self, op, a, b, taken):
        core, _ = run_src(f"""
            li x1, {a}
            li x2, {b}
            {op} x1, x2, yes
            li x3, 0
            halt
        yes:
            li x3, 1
            halt
        """)
        assert core.regs.read(3) == (1 if taken else 0)

    @pytest.mark.parametrize("engine", ["interp", "decoded"])
    def test_jalr_call_path(self, engine):
        """jalr with rd != 0 is a call: writes the link register."""
        prog = assemble("""
            li x5, 16          # address of target
            jalr x3, x5, 0
            li x1, 111         # skipped
            halt
        target:
            li x1, 222
            halt
        """)
        core = Core(0, CoreConfig(), DirectPort(MainMemory()),
                    engine=engine)
        core.load_program(prog)
        core.run()
        assert core.regs.read(1) == 222
        assert core.regs.read(3) == 8   # pc of jalr + 4

    @pytest.mark.parametrize("engine", ["interp", "decoded"])
    def test_jalr_return_path_uses_ras(self, engine):
        """jalr x0, x1 is a return: predicted via the RAS, no penalty
        when the call/return pair matches."""
        prog = assemble("""
        main:
            li x10, 5
            call double
            call double
            halt
        double:
            add x10, x10, x10
            ret
        """)
        core = Core(0, CoreConfig(), DirectPort(MainMemory()),
                    engine=engine)
        core.load_program(prog)
        core.run()
        assert core.regs.read(10) == 20
        # Matched call/return pairs: the RAS predicts both returns, the
        # BTB never trains on them.
        assert core.predictor._btb == {}

    @pytest.mark.parametrize("engine", ["interp", "decoded"])
    def test_jalr_call_with_rd_equal_rs1(self, engine):
        """The target is computed before the link write clobbers rs1."""
        prog = assemble("""
            li x5, 16
            jalr x5, x5, 0
            li x1, 111         # skipped
            halt
        target:
            halt
        """)
        core = Core(0, CoreConfig(), DirectPort(MainMemory()),
                    engine=engine)
        core.load_program(prog)
        core.run()
        assert core.regs.read(1) == 0
        assert core.regs.read(5) == 8   # link, not the old target

    @pytest.mark.parametrize("engine", ["interp", "decoded"])
    def test_jalr_indirect_writes_rd_exactly_once(self, engine):
        """Plain indirect jump (rd=0, rs1!=ra) must not write anything;
        the seed had a dead duplicated rd write on this path."""
        prog = assemble("""
            li x5, 12
            jr x5              # jalr x0, x5, 0
            halt
        target:
            li x2, 7
            halt
        """)
        core = Core(0, CoreConfig(), DirectPort(MainMemory()),
                    engine=engine)
        core.load_program(prog)
        records = []
        core.add_commit_hook(records.append)
        core.run()
        assert core.regs.read(2) == 7
        jalr_rec = [r for r in records if r.inst.op == "jalr"][0]
        assert jalr_rec.next_pc == 12
        assert core.regs.read(0) == 0

    def test_bltu_unsigned_negative(self):
        core, _ = run_src("""
            li x1, -1
            li x2, 1
            bltu x1, x2, yes
            li x3, 0
            halt
        yes:
            li x3, 1
            halt
        """)
        assert core.regs.read(3) == 0  # -1 is huge unsigned


class TestTraps:
    def test_ecall_enters_kernel_and_mret_returns(self):
        core, mem = run_src("""
        main:
            ecall
            li x1, 42
            halt
        _trap_handler:
            csrrw x31, 0x340, x31
            li x31, 1
            sd x31, 0x800(x0)
            csrrw x31, 0x340, x31
            mret
        """)
        assert core.regs.read(1) == 42
        assert mem.read_word(0x800) == 1
        assert core.priv is Privilege.USER

    def test_ecall_sets_mepc_and_mcause(self):
        prog = assemble("""
        main:
            ecall
            halt
        _trap_handler:
            mret
        """)
        mem = MainMemory()
        core = Core(0, CoreConfig(), DirectPort(mem))
        core.load_program(prog)
        core.csrs.raw_write(CSR_MTVEC, prog.labels["_trap_handler"])
        rec = core.step()
        assert rec.trap and rec.trap_cause == 8
        assert core.priv is Privilege.KERNEL
        assert core.csrs.raw_read(CSR_MEPC) == 4
        assert core.pc == prog.labels["_trap_handler"]

    def test_mret_from_user_rejected(self):
        prog = assemble("mret\nhalt")
        core = Core(0, CoreConfig(), DirectPort(MainMemory()))
        core.load_program(prog)
        with pytest.raises(PrivilegeError):
            core.step()

    def test_user_csr_write_rejected(self):
        prog = assemble("csrrw x1, 0x340, x2\nhalt")
        core = Core(0, CoreConfig(), DirectPort(MainMemory()))
        core.load_program(prog)
        with pytest.raises(PrivilegeError):
            core.step()


class TestTimingAndStats:
    def test_mul_div_latency_charged(self):
        slow, _ = run_src("li x1, 3\nli x2, 5\ndiv x3, x1, x2\nhalt")
        fast, _ = run_src("li x1, 3\nli x2, 5\nadd x3, x1, x2\nhalt")
        cfg = CoreConfig()
        assert slow.stats.cycles - fast.stats.cycles \
            == cfg.div_latency_cycles - 1

    def test_user_instruction_counting(self):
        core, _ = run_src("""
        main:
            ecall
            halt
        _trap_handler:
            li x30, 1
            mret
        """)
        # user: ecall + halt; kernel: li + mret
        assert core.stats.user_instructions == 2
        assert core.stats.instructions == 4

    def test_ipc_bounded_by_one(self):
        core, _ = run_src("li x1, 100\nloop:\naddi x1, x1, -1\n"
                          "bnez x1, loop\nhalt")
        assert 0 < core.stats.instructions <= core.stats.cycles

    def test_snapshot_restore_roundtrip(self):
        core, _ = run_src("li x1, 5\nli x2, 6\nhalt")
        snap = core.snapshot()
        core.regs.write(1, 99)
        core.pc = 0
        core.restore(snap)
        assert core.regs.read(1) == 5
        assert core.pc == snap.npc

    def test_run_watchdog(self):
        prog = assemble("loop:\nj loop")
        core = Core(0, CoreConfig(), DirectPort(MainMemory()))
        core.load_program(prog)
        with pytest.raises(ExecutionLimitExceeded):
            core.run(max_instructions=100)

    def test_step_after_halt_rejected(self):
        prog = assemble("halt")
        core = Core(0, CoreConfig(), DirectPort(MainMemory()))
        core.load_program(prog)
        core.step()
        with pytest.raises(IllegalInstructionError):
            core.step()

    def test_step_without_program_rejected(self):
        core = Core(0, CoreConfig(), DirectPort(MainMemory()))
        with pytest.raises(IllegalInstructionError):
            core.step()
