"""Program container and data segment tests."""

import pytest

from repro.errors import IsaError
from repro.isa import DataSegment, Instruction, Program
from repro.isa.instructions import INST_BYTES


class TestProgram:
    def _prog(self):
        return Program([Instruction("nop"), Instruction("halt")],
                       labels={"main": 0}, name="p")

    def test_len_and_iter(self):
        prog = self._prog()
        assert len(prog) == 2
        assert [i.op for i in prog] == ["nop", "halt"]

    def test_fetch_by_address(self):
        prog = self._prog()
        assert prog.fetch(0).op == "nop"
        assert prog.fetch(INST_BYTES).op == "halt"

    def test_fetch_outside_raises(self):
        prog = self._prog()
        with pytest.raises(IsaError):
            prog.fetch(2 * INST_BYTES)
        with pytest.raises(IsaError):
            prog.fetch(-INST_BYTES)

    def test_fetch_misaligned_raises(self):
        with pytest.raises(IsaError):
            self._prog().fetch(2)

    def test_contains(self):
        prog = self._prog()
        assert prog.contains(0)
        assert not prog.contains(prog.end)

    def test_nonzero_base(self):
        prog = Program([Instruction("halt")], base=0x100)
        assert prog.fetch(0x100).op == "halt"
        assert prog.entry == 0x100
        assert not prog.contains(0)

    def test_misaligned_base_rejected(self):
        with pytest.raises(IsaError):
            Program([Instruction("halt")], base=2)


class TestDataSegment:
    def test_set_get(self):
        seg = DataSegment()
        seg.set_word(0x10, 42)
        assert seg.words == {0x10: 42}

    def test_values_wrap_to_64bit(self):
        seg = DataSegment()
        seg.set_word(0, -1)
        assert seg.words[0] == (1 << 64) - 1

    def test_misaligned_rejected(self):
        seg = DataSegment()
        with pytest.raises(IsaError):
            seg.set_word(0x11, 1)

    def test_negative_address_rejected(self):
        with pytest.raises(IsaError):
            DataSegment().set_word(-8, 1)

    def test_len_counts_words(self):
        seg = DataSegment()
        seg.set_word(0, 1)
        seg.set_word(8, 2)
        assert len(seg) == 2
