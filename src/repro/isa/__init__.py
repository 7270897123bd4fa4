"""A small RISC-style instruction set standing in for the Rocket RV64 core.

The FlexStep mechanism only requires committed-instruction semantics, a
user/kernel privilege distinction and an ordered stream of memory
operations (LD/ST/LR/SC/AMO — the classes the MAL unit logs).  This ISA
provides exactly that, plus a tiny assembler so tests and examples can be
written as readable source.
"""

from .instructions import (
    OPS,
    Instruction,
    OpInfo,
    OpKind,
    REG_COUNT,
    WORD_BYTES,
    reg_name,
)
from .program import Program, DataSegment
from .assembler import assemble, AssemblerError

__all__ = [
    "OPS",
    "Instruction",
    "OpInfo",
    "OpKind",
    "REG_COUNT",
    "WORD_BYTES",
    "reg_name",
    "Program",
    "DataSegment",
    "assemble",
    "AssemblerError",
]
