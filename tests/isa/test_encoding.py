"""Encode/decode round-trip tests, including property-based coverage."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DecodingError, EncodingError
from repro.isa import OPS, Instruction, decode, encode
from repro.isa.encoding import _IMM_MAX, _IMM_MIN


def _instruction_strategy():
    return st.builds(
        Instruction,
        op=st.sampled_from(sorted(OPS)),
        rd=st.integers(0, 31),
        rs1=st.integers(0, 31),
        rs2=st.integers(0, 31),
        imm=st.integers(_IMM_MIN, _IMM_MAX),
    )


class TestRoundTrip:
    @given(_instruction_strategy())
    def test_encode_decode_identity(self, inst):
        assert decode(encode(inst)) == inst

    @given(_instruction_strategy())
    def test_encoded_word_is_64bit(self, inst):
        word = encode(inst)
        assert 0 <= word < (1 << 64)

    def test_distinct_instructions_encode_distinct(self):
        a = encode(Instruction("add", rd=1, rs1=2, rs2=3))
        b = encode(Instruction("add", rd=1, rs1=3, rs2=2))
        assert a != b


class TestEncodeErrors:
    def test_imm_overflow_rejected(self):
        with pytest.raises(EncodingError):
            encode(Instruction("addi", rd=1, imm=_IMM_MAX + 1))
        with pytest.raises(EncodingError):
            encode(Instruction("addi", rd=1, imm=_IMM_MIN - 1))


class TestDecodeErrors:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(DecodingError):
            decode(0xFF)  # opcode 255 unused

    def test_reserved_bits_rejected(self):
        good = encode(Instruction("add", rd=1, rs1=2, rs2=3))
        with pytest.raises(DecodingError):
            decode(good | (1 << 60))

    def test_negative_word_rejected(self):
        with pytest.raises(DecodingError):
            decode(-1)

    def test_oversized_word_rejected(self):
        with pytest.raises(DecodingError):
            decode(1 << 64)
