"""A two-pass assembler for the repro ISA.

Supported syntax (one statement per line, ``#`` comments)::

    .text                     # default section
    main:
        li   x1, 10           # pseudo: addi x1, x0, 10
        addi x2, x0, 0
    loop:
        ld   x3, 0(x10)       # memory operand: imm(base)
        add  x2, x2, x3
        addi x10, x10, 8
        addi x1, x1, -1
        bne  x1, x0, loop     # branch targets are labels or byte offsets
        sd   x2, 0(x11)
        halt

    .data                     # word-granular data section
        .org 0x1000           # set the data location counter
    src:
        .word 1, 2, 3, 4
    dst:
        .zero 4               # reserve 4 zeroed words

Atomics: ``lr rd, (rs1)``, ``sc rd, rs2, (rs1)``, ``amoadd rd, rs2, (rs1)``.
CSR ops: ``csrrw rd, <csr>, rs1`` where ``<csr>`` is an integer index.
Pseudo-instructions: ``li``, ``mv``, ``j``, ``jr``, ``ret``, ``call``,
``beqz``, ``bnez``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import AssemblerError
from .instructions import INST_BYTES, OPS, WORD_BYTES, Instruction, OpKind
from .program import DataSegment, Program

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_OPERAND_RE = re.compile(r"^(-?[\w.$]+)?\(\s*(\w+)\s*\)$")

#: Default base address of the data section.
DATA_BASE = 0x1000


@dataclass
class _Statement:
    """One parsed source statement awaiting label resolution."""

    line: int
    mnemonic: str
    operands: list[str]
    address: int


def _parse_register(token: str, line: int) -> int:
    token = token.strip().lower()
    if token == "zero":
        return 0
    if token in ("ra",):
        return 1
    if token in ("sp",):
        return 2
    if not token.startswith("x"):
        raise AssemblerError(f"expected register, got {token!r}", line)
    try:
        index = int(token[1:])
    except ValueError:
        raise AssemblerError(f"bad register {token!r}", line) from None
    if not 0 <= index < 32:
        raise AssemblerError(f"register out of range {token!r}", line)
    return index


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise AssemblerError(f"expected integer, got {token!r}",
                             line) from None


def _split_operands(rest: str) -> list[str]:
    """Split on commas not inside parentheses (none in this syntax)."""
    return [part.strip() for part in rest.split(",")] if rest.strip() else []


class _Assembler:
    def __init__(self, source: str, *, base: int, name: str):
        self.source = source
        self.base = base
        self.name = name
        self.labels: dict[str, int] = {}
        self.statements: list[_Statement] = []
        self.data = DataSegment()
        self._text_addr = base
        self._data_addr = DATA_BASE
        self._section = "text"
        self._pending_labels: list[tuple[str, int]] = []

    # -- pass 1: parse lines, record label addresses ------------------

    def parse(self) -> None:
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            while True:
                match = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*", line)
                if not match:
                    break
                self._define_label(match.group(1), lineno)
                line = line[match.end():]
            if not line:
                continue
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if mnemonic.startswith("."):
                self._directive(mnemonic, rest, lineno)
            else:
                self._instruction(mnemonic, rest, lineno)

    def _define_label(self, label: str, lineno: int) -> None:
        if not _LABEL_RE.match(label):
            raise AssemblerError(f"bad label {label!r}", lineno)
        if label in self.labels:
            raise AssemblerError(f"duplicate label {label!r}", lineno)
        addr = self._text_addr if self._section == "text" else self._data_addr
        self.labels[label] = addr

    def _directive(self, mnemonic: str, rest: str, lineno: int) -> None:
        if mnemonic == ".text":
            self._section = "text"
        elif mnemonic == ".data":
            self._section = "data"
        elif mnemonic == ".org":
            addr = _parse_int(rest, lineno)
            if self._section == "data":
                if addr % WORD_BYTES:
                    raise AssemblerError(
                        f".org {addr:#x} not word-aligned", lineno)
                self._data_addr = addr
            else:
                if addr % INST_BYTES:
                    raise AssemblerError(
                        f".org {addr:#x} not instruction-aligned", lineno)
                raise AssemblerError(
                    ".org in .text is not supported (single text run)",
                    lineno)
        elif mnemonic == ".word":
            if self._section != "data":
                raise AssemblerError(".word outside .data", lineno)
            for token in _split_operands(rest):
                self.data.set_word(self._data_addr, _parse_int(token, lineno))
                self._data_addr += WORD_BYTES
        elif mnemonic == ".zero":
            if self._section != "data":
                raise AssemblerError(".zero outside .data", lineno)
            count = _parse_int(rest, lineno)
            if count < 0:
                raise AssemblerError(f".zero with negative count", lineno)
            for _ in range(count):
                self.data.set_word(self._data_addr, 0)
                self._data_addr += WORD_BYTES
        else:
            raise AssemblerError(f"unknown directive {mnemonic!r}", lineno)

    def _instruction(self, mnemonic: str, rest: str, lineno: int) -> None:
        if self._section != "text":
            raise AssemblerError("instruction outside .text", lineno)
        operands = _split_operands(rest)
        for expansion in self._expand_pseudo(mnemonic, operands, lineno):
            stmt = _Statement(line=lineno, mnemonic=expansion[0],
                              operands=expansion[1],
                              address=self._text_addr)
            self.statements.append(stmt)
            self._text_addr += INST_BYTES

    def _expand_pseudo(self, mnemonic: str, ops: list[str], lineno: int,
                       ) -> list[tuple[str, list[str]]]:
        if mnemonic == "li":
            if len(ops) != 2:
                raise AssemblerError("li needs rd, imm", lineno)
            return [("addi", [ops[0], "x0", ops[1]])]
        if mnemonic == "mv":
            if len(ops) != 2:
                raise AssemblerError("mv needs rd, rs", lineno)
            return [("addi", [ops[0], ops[1], "0"])]
        if mnemonic == "j":
            if len(ops) != 1:
                raise AssemblerError("j needs a target", lineno)
            return [("jal", ["x0", ops[0]])]
        if mnemonic == "jr":
            if len(ops) != 1:
                raise AssemblerError("jr needs rs", lineno)
            return [("jalr", ["x0", ops[0], "0"])]
        if mnemonic == "ret":
            if ops:
                raise AssemblerError("ret takes no operands", lineno)
            return [("jalr", ["x0", "x1", "0"])]
        if mnemonic == "call":
            if len(ops) != 1:
                raise AssemblerError("call needs a target", lineno)
            return [("jal", ["x1", ops[0]])]
        if mnemonic == "beqz":
            if len(ops) != 2:
                raise AssemblerError("beqz needs rs, target", lineno)
            return [("beq", [ops[0], "x0", ops[1]])]
        if mnemonic == "bnez":
            if len(ops) != 2:
                raise AssemblerError("bnez needs rs, target", lineno)
            return [("bne", [ops[0], "x0", ops[1]])]
        return [(mnemonic, ops)]

    # -- pass 2: resolve labels, build instructions --------------------

    def resolve(self) -> list[Instruction]:
        return [self._build(stmt) for stmt in self.statements]

    def _imm_or_label(self, token: str, stmt: _Statement, *,
                      pc_relative: bool) -> tuple[int, str]:
        if token in self.labels:
            target = self.labels[token]
            if pc_relative:
                return target - stmt.address, token
            return target, token
        try:
            return int(token, 0), ""
        except ValueError:
            raise AssemblerError(
                f"unknown label or bad immediate {token!r}",
                stmt.line) from None

    def _build(self, stmt: _Statement) -> Instruction:
        name, ops, line = stmt.mnemonic, stmt.operands, stmt.line
        info = OPS.get(name)
        if info is None:
            raise AssemblerError(f"unknown instruction {name!r}", line)
        kind = info.kind
        try:
            if kind in (OpKind.LOAD,):
                rd = _parse_register(ops[0], line)
                imm, base = self._mem_operand(ops[1], line)
                return Instruction(name, rd=rd, rs1=base, imm=imm)
            if kind in (OpKind.STORE,):
                rs2 = _parse_register(ops[0], line)
                imm, base = self._mem_operand(ops[1], line)
                return Instruction(name, rs1=base, rs2=rs2, imm=imm)
            if kind is OpKind.LR:
                rd = _parse_register(ops[0], line)
                _, base = self._mem_operand(ops[1], line, allow_offset=False)
                return Instruction(name, rd=rd, rs1=base)
            if kind in (OpKind.SC, OpKind.AMO):
                rd = _parse_register(ops[0], line)
                rs2 = _parse_register(ops[1], line)
                _, base = self._mem_operand(ops[2], line, allow_offset=False)
                return Instruction(name, rd=rd, rs1=base, rs2=rs2)
            if kind is OpKind.BRANCH:
                rs1 = _parse_register(ops[0], line)
                rs2 = _parse_register(ops[1], line)
                imm, label = self._imm_or_label(ops[2], stmt,
                                                pc_relative=True)
                return Instruction(name, rs1=rs1, rs2=rs2, imm=imm,
                                   label=label)
            if name == "jal":
                rd = _parse_register(ops[0], line)
                imm, label = self._imm_or_label(ops[1], stmt,
                                                pc_relative=True)
                return Instruction(name, rd=rd, imm=imm, label=label)
            if name == "jalr":
                rd = _parse_register(ops[0], line)
                rs1 = _parse_register(ops[1], line)
                imm = _parse_int(ops[2], line) if len(ops) > 2 else 0
                return Instruction(name, rd=rd, rs1=rs1, imm=imm)
            if kind is OpKind.CSR:
                rd = _parse_register(ops[0], line)
                csr = _parse_int(ops[1], line)
                rs1 = _parse_register(ops[2], line)
                return Instruction(name, rd=rd, rs1=rs1, imm=csr)
            if kind in (OpKind.SYSTEM, OpKind.HALT) or name == "nop":
                if ops:
                    raise AssemblerError(
                        f"{name} takes no operands", line)
                return Instruction(name)
            # generic ALU / MUL / DIV forms
            if info.has_imm:
                rd = _parse_register(ops[0], line)
                if info.reads_rs1:
                    rs1 = _parse_register(ops[1], line)
                    imm, label = self._imm_or_label(ops[2], stmt,
                                                    pc_relative=False)
                    return Instruction(name, rd=rd, rs1=rs1, imm=imm,
                                       label=label)
                imm, label = self._imm_or_label(ops[1], stmt,
                                                pc_relative=False)
                return Instruction(name, rd=rd, imm=imm, label=label)
            rd = _parse_register(ops[0], line)
            rs1 = _parse_register(ops[1], line)
            rs2 = _parse_register(ops[2], line)
            return Instruction(name, rd=rd, rs1=rs1, rs2=rs2)
        except IndexError:
            raise AssemblerError(
                f"too few operands for {name!r}", line) from None

    def _mem_operand(self, token: str, line: int, *,
                     allow_offset: bool = True) -> tuple[int, int]:
        match = _MEM_OPERAND_RE.match(token.strip())
        if not match:
            raise AssemblerError(
                f"bad memory operand {token!r} (expected imm(reg))", line)
        offset_str, base_str = match.groups()
        base = _parse_register(base_str, line)
        offset = 0
        if offset_str:
            if offset_str in self.labels:
                offset = self.labels[offset_str]
            else:
                offset = _parse_int(offset_str, line)
        if not allow_offset and offset != 0:
            raise AssemblerError(
                f"offset not allowed in {token!r}", line)
        return offset, base


def assemble(source: str, *, base: int = 0, name: str = "program") -> Program:
    """Assemble ``source`` into a :class:`Program`."""
    asm = _Assembler(source, base=base, name=name)
    asm.parse()
    instructions = asm.resolve()
    return Program(instructions, labels=asm.labels, data=asm.data,
                   base=base, name=name)
