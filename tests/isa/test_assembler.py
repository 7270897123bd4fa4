"""Assembler tests: syntax, labels, pseudo-ops, data section, errors."""

import pytest

from repro.isa import AssemblerError, assemble
from repro.isa.instructions import INST_BYTES


class TestBasicSyntax:
    def test_empty_source(self):
        prog = assemble("")
        assert len(prog) == 0

    def test_comments_and_blank_lines(self):
        prog = assemble("""
        # leading comment
        .text
        addi x1, x0, 1   # trailing comment

        halt
        """)
        assert len(prog) == 2

    def test_rr_alu(self):
        prog = assemble("add x1, x2, x3")
        inst = prog.instructions[0]
        assert (inst.op, inst.rd, inst.rs1, inst.rs2) == ("add", 1, 2, 3)

    def test_imm_alu_negative(self):
        prog = assemble("addi x1, x2, -42")
        assert prog.instructions[0].imm == -42

    def test_hex_immediate(self):
        prog = assemble("addi x1, x0, 0x10")
        assert prog.instructions[0].imm == 16

    def test_load_store_operands(self):
        prog = assemble("""
        ld x3, 8(x10)
        sd x4, -16(x11)
        """)
        ld, sd = prog.instructions
        assert (ld.op, ld.rd, ld.rs1, ld.imm) == ("ld", 3, 10, 8)
        assert (sd.op, sd.rs2, sd.rs1, sd.imm) == ("sd", 4, 11, -16)

    def test_atomics(self):
        prog = assemble("""
        lr x1, (x10)
        sc x2, x3, (x10)
        amoadd x4, x5, (x11)
        """)
        lr, sc, amo = prog.instructions
        assert (lr.op, lr.rd, lr.rs1) == ("lr", 1, 10)
        assert (sc.op, sc.rd, sc.rs2, sc.rs1) == ("sc", 2, 3, 10)
        assert (amo.op, amo.rd, amo.rs2, amo.rs1) == ("amoadd", 4, 5, 11)

    def test_csr_ops(self):
        prog = assemble("csrrw x1, 0x340, x2")
        inst = prog.instructions[0]
        assert (inst.op, inst.rd, inst.imm, inst.rs1) == ("csrrw", 1,
                                                          0x340, 2)

    def test_register_aliases(self):
        prog = assemble("add x1, zero, ra")
        inst = prog.instructions[0]
        assert inst.rs1 == 0 and inst.rs2 == 1


class TestLabels:
    def test_backward_branch_offset(self):
        prog = assemble("""
        loop:
            addi x1, x1, -1
            bne x1, x0, loop
        """)
        bne = prog.instructions[1]
        assert bne.imm == -INST_BYTES
        assert bne.label == "loop"

    def test_forward_jump(self):
        prog = assemble("""
            jal x0, end
            addi x1, x0, 1
        end:
            halt
        """)
        assert prog.instructions[0].imm == 2 * INST_BYTES

    def test_label_on_own_line(self):
        prog = assemble("""
        start:
            halt
        """)
        assert prog.labels["start"] == 0

    def test_multiple_labels_same_address(self):
        prog = assemble("""
        a: b:
            halt
        """)
        assert prog.labels["a"] == prog.labels["b"] == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\na:\nhalt")

    def test_unknown_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jal x0, nowhere")

    def test_data_label_as_load_offset(self):
        prog = assemble("""
        .text
            ld x1, counter(x0)
            halt
        .data
            .org 0x100
        counter:
            .word 99
        """)
        assert prog.instructions[0].imm == 0x100
        assert prog.data.words[0x100] == 99


class TestPseudoInstructions:
    @pytest.mark.parametrize("source,expansion", [
        ("li x1, 5", ("addi", 1, 0, 5)),
        ("mv x2, x3", ("addi", 2, 3, 0)),
    ])
    def test_li_mv(self, source, expansion):
        inst = assemble(source).instructions[0]
        assert (inst.op, inst.rd, inst.rs1, inst.imm) == expansion

    def test_j_and_jr_and_ret(self):
        prog = assemble("""
        main:
            j main
            jr x5
            ret
        """)
        j, jr, ret = prog.instructions
        assert (j.op, j.rd) == ("jal", 0)
        assert (jr.op, jr.rd, jr.rs1) == ("jalr", 0, 5)
        assert (ret.op, ret.rd, ret.rs1) == ("jalr", 0, 1)

    def test_call(self):
        prog = assemble("""
        main:
            call func
            halt
        func:
            ret
        """)
        call = prog.instructions[0]
        assert (call.op, call.rd, call.imm) == ("jal", 1, 2 * INST_BYTES)

    def test_beqz_bnez(self):
        prog = assemble("""
        loop:
            beqz x1, loop
            bnez x2, loop
        """)
        beq, bne = prog.instructions
        assert (beq.op, beq.rs2) == ("beq", 0)
        assert (bne.op, bne.rs2) == ("bne", 0)


class TestDataSection:
    def test_word_list(self):
        prog = assemble("""
        .data
            .org 0x80
        vals:
            .word 1, 2, 3
        """)
        assert [prog.data.words[0x80 + 8 * i] for i in range(3)] \
            == [1, 2, 3]

    def test_zero_directive(self):
        prog = assemble("""
        .data
            .org 0x40
        buf:
            .zero 3
        after:
            .word 9
        """)
        assert prog.labels["after"] == 0x40 + 3 * 8
        assert prog.data.words[prog.labels["after"]] == 9

    def test_sequential_allocation_without_org(self):
        prog = assemble("""
        .data
        a:
            .word 1
        b:
            .word 2
        """)
        assert prog.labels["b"] - prog.labels["a"] == 8

    def test_word_outside_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 5")

    def test_misaligned_org_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\n.org 0x41\n.word 1")


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError) as err:
            assemble("blorp x1, x2")
        assert "blorp" in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError) as err:
            assemble("nop\nnop\nblorp x1")
        assert err.value.line == 3

    def test_too_few_operands(self):
        with pytest.raises(AssemblerError):
            assemble("add x1, x2")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("add x1, x2, x99")

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblerError):
            assemble("ld x1, x2")

    def test_offset_on_atomic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("lr x1, 8(x2)")

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\nadd x1, x2, x3")

    def test_operands_on_halt_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("halt x1")
