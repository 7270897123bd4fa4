"""Instruction definitions and the operation registry.

Each operation is described by an :class:`OpInfo` entry in :data:`OPS`;
the core's executor and the MAL unit dispatch on ``OpInfo.kind`` rather
than string-matching opcodes in many places.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import IsaError

#: Number of architectural integer registers (x0 hard-wired to zero).
REG_COUNT = 32

#: Data word size in bytes; all memory accesses are word-sized & aligned.
WORD_BYTES = 8

#: Instruction size in bytes (PC advances by this per instruction).
INST_BYTES = 4

#: 64-bit wrap mask for register arithmetic.
MASK64 = (1 << 64) - 1


class OpKind(enum.Enum):
    """Coarse operation class; drives execution, timing and MAL logging."""

    ALU = "alu"          # single-cycle integer op
    MUL = "mul"          # multi-cycle multiply
    DIV = "div"          # multi-cycle divide/remainder
    LOAD = "load"        # memory read (logged by MAL)
    STORE = "store"      # memory write (logged by MAL)
    LR = "lr"            # load-reserved (multi-entry MAL package)
    SC = "sc"            # store-conditional (multi-entry MAL package)
    AMO = "amo"          # atomic read-modify-write (multi-entry MAL)
    BRANCH = "branch"    # conditional branch
    JUMP = "jump"        # jal / jalr
    CSR = "csr"          # CSR read/write
    SYSTEM = "system"    # ecall / mret
    HALT = "halt"        # stop the hart (simulation convenience)


#: Dense integer code per OpKind, for table-driven dispatch on hot paths
#: (byte-array friendly; enum identity checks cost a dict hash each).
KIND_CODES: dict[OpKind, int] = {kind: i for i, kind in enumerate(OpKind)}


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one operation."""

    name: str
    kind: OpKind
    writes_rd: bool = False
    reads_rs1: bool = False
    reads_rs2: bool = False
    has_imm: bool = False


def _op(name: str, kind: OpKind, *, rd: bool = False, rs1: bool = False,
        rs2: bool = False, imm: bool = False) -> OpInfo:
    return OpInfo(name=name, kind=kind, writes_rd=rd, reads_rs1=rs1,
                  reads_rs2=rs2, has_imm=imm)


_OP_LIST = [
    # register-register ALU
    _op("add", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("sub", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("and", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("or", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("xor", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("slt", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("sltu", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("sll", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("srl", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("sra", OpKind.ALU, rd=True, rs1=True, rs2=True),
    _op("mul", OpKind.MUL, rd=True, rs1=True, rs2=True),
    _op("div", OpKind.DIV, rd=True, rs1=True, rs2=True),
    _op("rem", OpKind.DIV, rd=True, rs1=True, rs2=True),
    # register-immediate ALU
    _op("addi", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("andi", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("ori", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("xori", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("slti", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("slli", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("srli", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("srai", OpKind.ALU, rd=True, rs1=True, imm=True),
    _op("lui", OpKind.ALU, rd=True, imm=True),
    # memory
    _op("ld", OpKind.LOAD, rd=True, rs1=True, imm=True),
    _op("sd", OpKind.STORE, rs1=True, rs2=True, imm=True),
    _op("lr", OpKind.LR, rd=True, rs1=True),
    _op("sc", OpKind.SC, rd=True, rs1=True, rs2=True),
    _op("amoadd", OpKind.AMO, rd=True, rs1=True, rs2=True),
    _op("amoswap", OpKind.AMO, rd=True, rs1=True, rs2=True),
    _op("amoand", OpKind.AMO, rd=True, rs1=True, rs2=True),
    _op("amoor", OpKind.AMO, rd=True, rs1=True, rs2=True),
    _op("amoxor", OpKind.AMO, rd=True, rs1=True, rs2=True),
    _op("amomax", OpKind.AMO, rd=True, rs1=True, rs2=True),
    _op("amomin", OpKind.AMO, rd=True, rs1=True, rs2=True),
    # control
    _op("beq", OpKind.BRANCH, rs1=True, rs2=True, imm=True),
    _op("bne", OpKind.BRANCH, rs1=True, rs2=True, imm=True),
    _op("blt", OpKind.BRANCH, rs1=True, rs2=True, imm=True),
    _op("bge", OpKind.BRANCH, rs1=True, rs2=True, imm=True),
    _op("bltu", OpKind.BRANCH, rs1=True, rs2=True, imm=True),
    _op("bgeu", OpKind.BRANCH, rs1=True, rs2=True, imm=True),
    _op("jal", OpKind.JUMP, rd=True, imm=True),
    _op("jalr", OpKind.JUMP, rd=True, rs1=True, imm=True),
    # system / CSR
    _op("ecall", OpKind.SYSTEM),
    _op("mret", OpKind.SYSTEM),
    _op("csrrw", OpKind.CSR, rd=True, rs1=True, imm=True),
    _op("csrrs", OpKind.CSR, rd=True, rs1=True, imm=True),
    _op("csrrc", OpKind.CSR, rd=True, rs1=True, imm=True),
    # simulation control
    _op("halt", OpKind.HALT),
    _op("nop", OpKind.ALU),
]

#: Operation registry: name -> OpInfo.
OPS: dict[str, OpInfo] = {info.name: info for info in _OP_LIST}


def reg_name(index: int) -> str:
    """Architectural name of register ``index`` (``x0`` .. ``x31``)."""
    if not 0 <= index < REG_COUNT:
        raise IsaError(f"register index out of range: {index}")
    return f"x{index}"


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``imm`` doubles as the CSR index for CSR ops and as the branch/jump
    offset in *bytes* for control ops.  ``label`` survives assembly for
    nicer disassembly; it never affects semantics.
    """

    op: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise IsaError(f"unknown operation: {self.op!r}")
        for reg in (self.rd, self.rs1, self.rs2):
            if not 0 <= reg < REG_COUNT:
                raise IsaError(
                    f"register out of range in {self.op}: {reg}")

    @property
    def info(self) -> OpInfo:
        return OPS[self.op]

    def __str__(self) -> str:
        info = self.info
        parts = [self.op]
        operands = []
        if info.writes_rd:
            operands.append(reg_name(self.rd))
        if info.reads_rs1:
            operands.append(reg_name(self.rs1))
        if info.reads_rs2:
            operands.append(reg_name(self.rs2))
        if info.has_imm:
            operands.append(self.label or str(self.imm))
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)


def to_signed64(value: int) -> int:
    """Interpret the low 64 bits of ``value`` as a signed integer."""
    value &= MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value
