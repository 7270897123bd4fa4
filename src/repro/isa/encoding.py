"""Binary encoding of instructions.

Instructions encode into one 64-bit word:

=========  ======  =============================================
bits       field   meaning
=========  ======  =============================================
[7:0]      opcode  index into the sorted operation table
[12:8]     rd      destination register
[17:13]    rs1     first source register
[22:18]    rs2     second source register
[54:23]    imm     32-bit immediate, two's complement
[63:55]    zero    reserved, must be zero
=========  ======  =============================================

The encoding is an implementation convenience (the real Rocket core is
RV64GC); it exists so checkpoint/FIFO payloads have a concrete width and
so property tests can round-trip every instruction.
"""

from __future__ import annotations

from ..errors import DecodingError, EncodingError
from .instructions import OPS, Instruction

#: Stable opcode numbering: alphabetical over the registry.
_OPCODE_OF = {name: i for i, name in enumerate(sorted(OPS))}
_NAME_OF = {i: name for name, i in _OPCODE_OF.items()}

_IMM_BITS = 32
_IMM_MIN = -(1 << (_IMM_BITS - 1))
_IMM_MAX = (1 << (_IMM_BITS - 1)) - 1


def encode(inst: Instruction) -> int:
    """Encode ``inst`` into its 64-bit word."""
    opcode = _OPCODE_OF.get(inst.op)
    if opcode is None:
        raise EncodingError(f"unknown op {inst.op!r}")
    if not _IMM_MIN <= inst.imm <= _IMM_MAX:
        raise EncodingError(
            f"immediate {inst.imm} outside {_IMM_BITS}-bit signed range")
    imm_field = inst.imm & ((1 << _IMM_BITS) - 1)
    word = (opcode
            | (inst.rd << 8)
            | (inst.rs1 << 13)
            | (inst.rs2 << 18)
            | (imm_field << 23))
    return word


def decode(word: int) -> Instruction:
    """Decode a 64-bit word back into an :class:`Instruction`."""
    if word < 0 or word >= (1 << 64):
        raise DecodingError(f"word out of 64-bit range: {word:#x}")
    if word >> 55:
        raise DecodingError(f"reserved bits set in word {word:#x}")
    opcode = word & 0xFF
    name = _NAME_OF.get(opcode)
    if name is None:
        raise DecodingError(f"unknown opcode {opcode} in word {word:#x}")
    rd = (word >> 8) & 0x1F
    rs1 = (word >> 13) & 0x1F
    rs2 = (word >> 18) & 0x1F
    imm = (word >> 23) & ((1 << _IMM_BITS) - 1)
    if imm >= 1 << (_IMM_BITS - 1):
        imm -= 1 << _IMM_BITS
    return Instruction(op=name, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
