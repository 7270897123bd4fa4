"""Unit tests for the operation registry and Instruction type."""

import pytest

from repro.errors import IsaError
from repro.isa import OPS, Instruction, OpKind, reg_name
from repro.isa.instructions import (
    to_signed64,
    MASK64,
)


class TestRegistry:
    def test_all_ops_have_unique_names(self):
        assert len(OPS) == len({info.name for info in OPS.values()})

    def test_registry_covers_all_kinds(self):
        kinds = {info.kind for info in OPS.values()}
        assert kinds == set(OpKind)

    def test_branch_ops_read_both_sources(self):
        for name in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            info = OPS[name]
            assert info.reads_rs1 and info.reads_rs2 and info.has_imm
            assert not info.writes_rd


class TestInstruction:
    def test_unknown_op_rejected(self):
        with pytest.raises(IsaError):
            Instruction("frobnicate")

    def test_register_range_checked(self):
        with pytest.raises(IsaError):
            Instruction("add", rd=32)
        with pytest.raises(IsaError):
            Instruction("add", rs1=-1)

    def test_info_property(self):
        inst = Instruction("ld", rd=3, rs1=10, imm=8)
        assert inst.info.kind is OpKind.LOAD

    def test_str_rr_format(self):
        assert str(Instruction("add", rd=1, rs1=2, rs2=3)) \
            == "add x1, x2, x3"

    def test_str_imm_format(self):
        assert str(Instruction("addi", rd=1, rs1=0, imm=-5)) \
            == "addi x1, x0, -5"

    def test_str_uses_label_when_present(self):
        inst = Instruction("beq", rs1=1, rs2=0, imm=-8, label="loop")
        assert "loop" in str(inst)

    def test_label_not_part_of_equality(self):
        a = Instruction("jal", rd=0, imm=16, label="foo")
        b = Instruction("jal", rd=0, imm=16, label="bar")
        assert a == b


class TestNumericHelpers:
    def test_reg_name(self):
        assert reg_name(0) == "x0"
        assert reg_name(31) == "x31"
        with pytest.raises(IsaError):
            reg_name(32)

    @pytest.mark.parametrize("value,expected", [
        (0, 0),
        (1, 1),
        (MASK64, -1),
        (1 << 63, -(1 << 63)),
        ((1 << 63) - 1, (1 << 63) - 1),
    ])
    def test_to_signed64(self, value, expected):
        assert to_signed64(value) == expected