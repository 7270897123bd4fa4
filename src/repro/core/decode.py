"""Decoded-dispatch execution engine: decode once, execute many.

The seed interpreter re-decoded every instruction on every commit: a
string-keyed ``if/elif`` chain over ``inst.op``, an ``OPS`` dict lookup
behind every ``inst.info`` access, and two frozen-dataclass allocations
per step.  This module removes all of that from the hot loop by decoding
each :class:`~repro.isa.program.Program` slot exactly once into a
pre-bound *execution kernel* — a closure over the slot's register
indices, immediates and timing constants — so a core's inner loop is::

    cycles = kernels[(pc - base) >> 2](core)

Kernel contract
---------------
``kernel(core) -> cycles`` executes one instruction:

* reads/writes architectural state through ``core`` (register list,
  CSR dict, memory port, predictor, ``core._reservation``),
* sets ``core.pc`` to the next pc **last**, so an exception (privilege
  fault, replay mismatch, memory error) leaves the instruction
  uncommitted exactly like the reference interpreter,
* returns the instruction's total cycle cost *excluding* I-fetch (the
  caller adds the L1I path when modelled),
* bumps ``core.stats.memory_ops`` / ``core.stats.traps`` itself (these
  are the only stats a kernel owns — the caller owns instruction,
  user-instruction, cycle and ``instret`` accounting),
* when ``core._record_mem`` is true, publishes the commit-ordered
  Memory Access Log entries of the instruction in ``core._mem_scratch``
  and a trap cause in ``core._trap_scratch`` (ecall only), which
  ``Core.step`` turns into a :class:`~repro.core.core.CommitRecord`.
  On the record-free fast path (``Core.advance`` / ``Core.exec_one``)
  nothing is allocated for non-memory instructions, and memory kernels
  skip building entries too.

Decoded tables are cached on ``program.decode_cache`` keyed by the
timing parameters they bake in, so main, checker and lockstep-shadow
cores sharing one program decode it once.

Block table
-----------
Besides one kernel per slot, a decode keeps one *block table* per
fetch-line shift (:meth:`DecodedProgram.block_table`), empty at decode
time and filled slot by slot the first time a loop reaches the slot.
A block is a run of fixed-cycle compute ops (ALU/MUL/DIV) within one
fetch line, plus at most one ending branch or jump: its members cannot
raise, and under an L1I every member after the first fetches the line
the first one left as the L1I's last line.  The three decoded loops
the catalog runs -- ``Core.advance``, ``MainCoreAdapter.run_window``
and ``CheckerEngine._replay_run`` -- commit a whole block in one call
wherever stepping its members one by one would have taken them all.

This is the default of two engine tiers
(``REPRO_CORE_ENGINE=interp|decoded``); the seed interpreter stays the
executable reference.  Single kernels here are also what
``exec_one``/``peek_kind_code`` step through, and what the heap
co-sim's fused windows call directly: a checked main commits its
user-mode instructions through them
(``MainCoreAdapter.run_window``), and a checker replays covered
instructions through them (``CheckerEngine._replay_run``).  On the
``interp`` tier both windows fall back to ``Core.step``/``exec_one``,
which keeps that tier the reference for checked runs too.
"""

from __future__ import annotations

from typing import Callable, List

from ..config import CoreConfig
from ..errors import IllegalInstructionError, PrivilegeError
from ..isa.instructions import (
    INST_BYTES,
    KIND_CODES,
    MASK64,
    OPS,
    Instruction,
    OpKind,
)
from ..isa.program import Program
from .registers import (
    CSR_MCAUSE,
    CSR_MEPC,
    CSR_MTVEC,
    ECALL_FROM_KERNEL,
    ECALL_FROM_USER,
    Privilege,
)

#: Kernel signature: execute one instruction on ``core``, return cycles.
Kernel = Callable[[object], int]

_SIGN = 1 << 63
_WRAP = 1 << 64
#: Clear bit 0 of a jalr target (RISC-V alignment rule).
_EVEN = MASK64 & ~1

# Integer codes of the kinds the replay loops test one by one
# (rcpm.py and checker.py compare per-entry kind codes against these).
K_SC = KIND_CODES[OpKind.SC]
K_AMO = KIND_CODES[OpKind.AMO]
K_SYSTEM = KIND_CODES[OpKind.SYSTEM]
K_HALT = KIND_CODES[OpKind.HALT]

#: Memory Access Log entries each kind must have in hand before the
#: checker's replay can execute it, indexed by kind code.  SC needs at
#: most one entry but only when the reservation holds; requiring a
#: delivered packet would deadlock on a failed SC, so it is let through
#: and the replay port raises on true misses.
MAL_ENTRIES_BY_KIND: tuple[int, ...] = tuple(
    2 if kind is OpKind.AMO
    else 1 if kind in (OpKind.LOAD, OpKind.STORE, OpKind.LR)
    else 0
    for kind in OpKind
)

#: Kind codes of the kinds that access data memory, and of those whose
#: address has an immediate offset (LR/SC/AMO address ``regs[rs1]``
#: alone).  Integer codes: an ``OpKind`` member hashes in Python.
_MEMORY_CODES = frozenset(KIND_CODES[kind] for kind in (
    OpKind.LOAD, OpKind.STORE, OpKind.LR, OpKind.SC, OpKind.AMO,
))
_OFFSET_CODES = frozenset((KIND_CODES[OpKind.LOAD],
                           KIND_CODES[OpKind.STORE]))

#: Kind code per op name, so decoding a slot hashes a string rather
#: than an ``OpKind``.
_KIND_CODE_OF_OP = {name: KIND_CODES[info.kind] for name, info in OPS.items()}

#: Kind codes a block holds: fixed-cycle compute ops, which cannot
#: raise, and at most one control op, which ends the block.
_COMPUTE_CODES = frozenset(KIND_CODES[kind] for kind in (
    OpKind.ALU, OpKind.MUL, OpKind.DIV,
))
_CONTROL_CODES = frozenset(KIND_CODES[kind] for kind in (
    OpKind.BRANCH, OpKind.JUMP,
))
_K_ALU = KIND_CODES[OpKind.ALU]
_K_MUL = KIND_CODES[OpKind.MUL]
_K_DIV = KIND_CODES[OpKind.DIV]

#: Line shift of a core without an L1I: one unbounded fetch line (every
#: 64-bit pc shifted right by 64 is 0).
UNBOUNDED_LINE = 64


def _signed(value: int) -> int:
    return value - _WRAP if value >= _SIGN else value


class DecodedProgram:
    """One program decoded against one set of core timing parameters."""

    __slots__ = ("program", "base", "limit", "kernels", "kinds", "insts",
                 "mem_operands", "config", "blocks")

    def __init__(self, program: Program, kernels: List[Kernel],
                 kinds: bytearray, config: CoreConfig):
        self.program = program
        self.base = program.base
        #: One past the last valid pc offset (bytes).
        self.limit = len(program.instructions) * INST_BYTES
        self.kernels = kernels
        #: Integer kind code per slot (replay scheduling peeks at this).
        self.kinds = kinds
        self.insts = program.instructions
        #: Per slot, ``(rs1, imm)`` of a memory op, or None.  The data
        #: address is ``(regs[rs1] + imm) & MASK64``, which the
        #: load/store/LR/SC/AMO kernels compute before they touch the
        #: port or any register, so it can be peeked before the step.
        self.mem_operands = [
            (inst.rs1, inst.imm if code in _OFFSET_CODES else 0)
            if code in _MEMORY_CODES else None
            for inst, code in zip(self.insts, kinds)]
        #: The timing the kernels bake in (a block's ``lead`` reads it).
        self.config = config
        #: Block table per fetch-line shift (see :meth:`block_table`);
        #: empty until a decoded loop asks for one.
        self.blocks: dict[int, list] = {}

    def block_table(self, line_shift: int) -> list:
        """The per-slot block table for fetch lines of ``1 << line_shift``
        bytes (:data:`UNBOUNDED_LINE` on a core without an L1I).

        A slot's entry is None until a loop first reaches it and calls
        :meth:`block_at`; then it is ``()`` (no block starts there) or
        ``(kernel, length, lead)``.  A block is the run of ALU/MUL/DIV
        slots from the slot to the end of its fetch line, plus at most
        one ending BRANCH/JUMP, and has at least two members.  Its
        members cannot raise and, after the first member's fetch, every
        fetch is a hit of the L1I's last line, so a loop may commit the
        whole block in one ``kernel(core)`` call, which returns its
        cycles, and count ``length - 1`` hits.  ``lead`` is the
        cycles of every member but the last: the last member starts
        ``lead`` cycles after the first.
        """
        table = self.blocks.get(line_shift)
        if table is None:
            table = self.blocks[line_shift] = [None] * len(self.kernels)
        return table

    def block_at(self, idx: int, line_shift: int) -> tuple:
        """Fill slot ``idx`` of the ``line_shift`` block table and return
        the entry (see :meth:`block_table`)."""
        kinds = self.kinds
        entry: tuple = ()
        if kinds[idx] in _COMPUTE_CODES:
            base = self.base
            line = (base + idx * INST_BYTES) >> line_shift
            n = len(kinds)
            end = idx + 1
            while end < n and kinds[end] in _COMPUTE_CODES \
                    and (base + end * INST_BYTES) >> line_shift == line:
                end += 1
            if end < n and kinds[end] in _CONTROL_CODES \
                    and (base + end * INST_BYTES) >> line_shift == line:
                end += 1
            if end - idx >= 2:
                config = self.config
                fixed = {_K_ALU: 1, _K_MUL: config.mul_latency_cycles,
                         _K_DIV: config.div_latency_cycles}
                lead = sum(fixed[kinds[j]] for j in range(idx, end - 1))
                entry = (_fuse(tuple(self.kernels[idx:end - 1]),
                               self.kernels[end - 1], lead),
                         end - idx, lead)
        self.block_table(line_shift)[idx] = entry
        return entry


def _fuse(first: tuple, last: Kernel, lead: int) -> Kernel:
    """One kernel for a block: the fixed-cycle ``first`` members, whose
    cycles add up to ``lead``, then ``last``.  Each member sets
    ``core.pc`` itself."""
    def block(core):
        for k in first:
            k(core)
        return lead + last(core)
    return block


def decode_program(program: Program, config: CoreConfig) -> DecodedProgram:
    """Decode ``program`` once for ``config``'s timing; memoised."""
    bp = config.branch_predictor
    key = ("kernels", config.mul_latency_cycles, config.div_latency_cycles,
           bp.mispredict_penalty_cycles)
    cached = program.decode_cache.get(key)
    if cached is not None:
        return cached
    # Import here to avoid a module cycle (core.core imports this module
    # for dispatch; kernels only need the MemEntry constructor).
    from .core import MemEntry

    kernels: List[Kernel] = []
    pc = program.base
    for inst in program.instructions:
        kernels.append(_build_kernel(inst, pc, config, MemEntry))
        pc += INST_BYTES
    kinds = bytearray(_KIND_CODE_OF_OP[inst.op]
                      for inst in program.instructions)
    decoded = DecodedProgram(program, kernels, kinds, config)
    program.decode_cache[key] = decoded
    return decoded


# ----------------------------------------------------------------------
# kernel builders
# ----------------------------------------------------------------------

def _k_advance(npc: int, cycles: int) -> Kernel:
    """Result-free op (nop, or any pure compute with rd = x0)."""
    def k(core):
        core.pc = npc
        return cycles
    return k


def _k_halt(npc: int) -> Kernel:
    def k(core):
        core.halted = True
        core.pc = npc
        return 1
    return k


# -- ALU ----------------------------------------------------------------

def _alu_rr(op: str, rd: int, rs1: int, rs2: int, npc: int) -> Kernel:
    if op in ("add", "nop"):
        def k(core):
            r = core.regs._regs
            r[rd] = (r[rs1] + r[rs2]) & MASK64
            core.pc = npc
            return 1
    elif op == "sub":
        def k(core):
            r = core.regs._regs
            r[rd] = (r[rs1] - r[rs2]) & MASK64
            core.pc = npc
            return 1
    elif op == "and":
        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] & r[rs2]
            core.pc = npc
            return 1
    elif op == "or":
        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] | r[rs2]
            core.pc = npc
            return 1
    elif op == "xor":
        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] ^ r[rs2]
            core.pc = npc
            return 1
    elif op == "slt":
        def k(core):
            r = core.regs._regs
            a = r[rs1]
            b = r[rs2]
            if a >= _SIGN:
                a -= _WRAP
            if b >= _SIGN:
                b -= _WRAP
            r[rd] = 1 if a < b else 0
            core.pc = npc
            return 1
    elif op == "sltu":
        def k(core):
            r = core.regs._regs
            r[rd] = 1 if r[rs1] < r[rs2] else 0
            core.pc = npc
            return 1
    elif op == "sll":
        def k(core):
            r = core.regs._regs
            r[rd] = (r[rs1] << (r[rs2] & 63)) & MASK64
            core.pc = npc
            return 1
    elif op == "srl":
        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] >> (r[rs2] & 63)
            core.pc = npc
            return 1
    elif op == "sra":
        def k(core):
            r = core.regs._regs
            a = r[rs1]
            if a >= _SIGN:
                a -= _WRAP
            r[rd] = (a >> (r[rs2] & 63)) & MASK64
            core.pc = npc
            return 1
    else:  # pragma: no cover - registry guards this
        raise IllegalInstructionError(f"unknown ALU op {op!r}")
    return k


def _alu_ri(op: str, rd: int, rs1: int, imm: int, npc: int) -> Kernel:
    if op == "addi":
        def k(core):
            r = core.regs._regs
            r[rd] = (r[rs1] + imm) & MASK64
            core.pc = npc
            return 1
    elif op == "andi":
        imm_m = imm & MASK64

        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] & imm_m
            core.pc = npc
            return 1
    elif op == "ori":
        imm_m = imm & MASK64

        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] | imm_m
            core.pc = npc
            return 1
    elif op == "xori":
        imm_m = imm & MASK64

        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] ^ imm_m
            core.pc = npc
            return 1
    elif op == "slti":
        imm_s = _signed(imm & MASK64)

        def k(core):
            r = core.regs._regs
            a = r[rs1]
            if a >= _SIGN:
                a -= _WRAP
            r[rd] = 1 if a < imm_s else 0
            core.pc = npc
            return 1
    elif op == "slli":
        sh = imm & 63

        def k(core):
            r = core.regs._regs
            r[rd] = (r[rs1] << sh) & MASK64
            core.pc = npc
            return 1
    elif op == "srli":
        sh = imm & 63

        def k(core):
            r = core.regs._regs
            r[rd] = r[rs1] >> sh
            core.pc = npc
            return 1
    elif op == "srai":
        sh = imm & 63

        def k(core):
            r = core.regs._regs
            a = r[rs1]
            if a >= _SIGN:
                a -= _WRAP
            r[rd] = (a >> sh) & MASK64
            core.pc = npc
            return 1
    elif op == "lui":
        value = (imm << 12) & MASK64

        def k(core):
            core.regs._regs[rd] = value
            core.pc = npc
            return 1
    else:  # pragma: no cover - registry guards this
        raise IllegalInstructionError(f"unknown ALU op {op!r}")
    return k


# -- multiply / divide --------------------------------------------------

def _k_mul(rd: int, rs1: int, rs2: int, npc: int, cycles: int) -> Kernel:
    def k(core):
        r = core.regs._regs
        r[rd] = (r[rs1] * r[rs2]) & MASK64
        core.pc = npc
        return cycles
    return k


def _k_div(op: str, rd: int, rs1: int, rs2: int, npc: int,
           cycles: int) -> Kernel:
    is_div = op == "div"

    def k(core):
        r = core.regs._regs
        a = r[rs1]
        b = r[rs2]
        if a >= _SIGN:
            a -= _WRAP
        if b >= _SIGN:
            b -= _WRAP
        if b == 0:
            # RISC-V: div by zero yields -1, rem by zero the dividend.
            r[rd] = MASK64 if is_div else a & MASK64
        else:
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            r[rd] = (q if is_div else a - q * b) & MASK64
        core.pc = npc
        return cycles
    return k


# -- memory -------------------------------------------------------------

def _k_load(rd: int, rs1: int, imm: int, npc: int,
            mem_entry: type) -> Kernel:
    def k(core):
        addr = (core.regs._regs[rs1] + imm) & MASK64
        value, cycles = core.port.read(addr)
        if rd:
            core.regs._regs[rd] = value
        if core._record_mem:
            core._mem_scratch = (mem_entry("r", addr, value),)
        core.stats.memory_ops += 1
        core.pc = npc
        return cycles
    return k


def _k_store(rs1: int, rs2: int, imm: int, npc: int,
             mem_entry: type) -> Kernel:
    def k(core):
        r = core.regs._regs
        addr = (r[rs1] + imm) & MASK64
        value = r[rs2]
        cycles = core.port.write(addr, value)
        if core._record_mem:
            core._mem_scratch = (mem_entry("w", addr, value),)
        core.stats.memory_ops += 1
        core.pc = npc
        return cycles
    return k


def _k_lr(rd: int, rs1: int, npc: int, mem_entry: type) -> Kernel:
    def k(core):
        addr = core.regs._regs[rs1]
        value, cycles = core.port.read(addr)
        if rd:
            core.regs._regs[rd] = value
        core._reservation = addr
        if core._record_mem:
            core._mem_scratch = (mem_entry("r", addr, value),)
        core.stats.memory_ops += 1
        core.pc = npc
        return cycles
    return k


def _k_sc(rd: int, rs1: int, rs2: int, npc: int, mem_entry: type) -> Kernel:
    def k(core):
        r = core.regs._regs
        addr = r[rs1]
        if core._reservation == addr:
            value = r[rs2]
            cycles = core.port.write(addr, value)
            if rd:
                r[rd] = 0
            if core._record_mem:
                core._mem_scratch = (mem_entry("w", addr, value),)
            core.stats.memory_ops += 1
        else:
            if rd:
                r[rd] = 1
            cycles = 1
        core._reservation = None
        core.pc = npc
        return cycles
    return k


_AMO_FNS = {
    "amoadd": lambda old, rs2: (old + rs2) & MASK64,
    "amoswap": lambda old, rs2: rs2,
    "amoand": lambda old, rs2: old & rs2,
    "amoor": lambda old, rs2: old | rs2,
    "amoxor": lambda old, rs2: old ^ rs2,
    "amomax": lambda old, rs2:
        old if _signed(old) >= _signed(rs2) else rs2,
    "amomin": lambda old, rs2:
        old if _signed(old) <= _signed(rs2) else rs2,
}


def _k_amo(op: str, rd: int, rs1: int, rs2: int, npc: int,
           mem_entry: type) -> Kernel:
    fn = _AMO_FNS[op]

    def k(core):
        r = core.regs._regs
        addr = r[rs1]
        old, read_cycles = core.port.read(addr)
        new = fn(old, r[rs2])
        write_cycles = core.port.write(addr, new)
        if rd:
            r[rd] = old
        if core._record_mem:
            core._mem_scratch = (mem_entry("r", addr, old),
                                 mem_entry("w", addr, new))
        core.stats.memory_ops += 2
        core.pc = npc
        return read_cycles + write_cycles
    return k


# -- control flow -------------------------------------------------------

_BRANCH_CMPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}


def _k_branch(op: str, rs1: int, rs2: int, pc: int, target: int, npc: int,
              penalty: int) -> Kernel:
    taken_cost = 1
    if op in _BRANCH_CMPS:
        cmp = _BRANCH_CMPS[op]

        def k(core):
            r = core.regs._regs
            taken = cmp(r[rs1], r[rs2])
            cycles = 1 + penalty \
                if core.predictor.update_branch(pc, taken) else taken_cost
            core.pc = target if taken else npc
            return cycles
    elif op in ("blt", "bge"):
        want_lt = op == "blt"

        def k(core):
            r = core.regs._regs
            a = r[rs1]
            b = r[rs2]
            if a >= _SIGN:
                a -= _WRAP
            if b >= _SIGN:
                b -= _WRAP
            taken = (a < b) if want_lt else (a >= b)
            cycles = 1 + penalty \
                if core.predictor.update_branch(pc, taken) else taken_cost
            core.pc = target if taken else npc
            return cycles
    else:  # pragma: no cover - registry guards this
        raise IllegalInstructionError(f"unknown branch {op!r}")
    return k


def _k_jal(rd: int, target: int, link: int) -> Kernel:
    if rd == 0:
        def k(core):
            core.pc = target
            return 1
    else:
        def k(core):
            core.regs._regs[rd] = link
            core.predictor.push_return(link)
            core.pc = target
            return 1
    return k


def _k_jalr(rd: int, rs1: int, imm: int, pc: int, link: int,
            penalty: int) -> Kernel:
    if rd == 0 and rs1 == 1:
        # function return: predict via the RAS
        def k(core):
            target = (core.regs._regs[1] + imm) & _EVEN
            cycles = 1 if core.predictor.pop_return() == target \
                else 1 + penalty
            core.pc = target
            return cycles
    elif rd == 0:
        # plain indirect jump: predict via the BTB
        def k(core):
            target = (core.regs._regs[rs1] + imm) & _EVEN
            cycles = 1 + penalty \
                if core.predictor.update_target(pc, target) else 1
            core.pc = target
            return cycles
    else:
        # indirect call: predict via the BTB, push the return address
        def k(core):
            r = core.regs._regs
            target = (r[rs1] + imm) & _EVEN
            cycles = 1 + penalty \
                if core.predictor.update_target(pc, target) else 1
            r[rd] = link
            core.predictor.push_return(link)
            core.pc = target
            return cycles
    return k


# -- CSR / system -------------------------------------------------------

def _k_csr(op: str, rd: int, rs1: int, csr: int, npc: int) -> Kernel:
    if op == "csrrw":
        def k(core):
            csrs = core.csrs
            priv = core.priv
            old = csrs.read(csr, priv)
            csrs.write(csr, core.regs._regs[rs1], priv)
            core.regs.write(rd, old)
            core.pc = npc
            return 1
    elif op == "csrrs":
        def k(core):
            csrs = core.csrs
            priv = core.priv
            old = csrs.read(csr, priv)
            if rs1:
                csrs.write(csr, old | core.regs._regs[rs1], priv)
            core.regs.write(rd, old)
            core.pc = npc
            return 1
    elif op == "csrrc":
        def k(core):
            csrs = core.csrs
            priv = core.priv
            old = csrs.read(csr, priv)
            if rs1:
                csrs.write(csr, old & ~core.regs._regs[rs1], priv)
            core.regs.write(rd, old)
            core.pc = npc
            return 1
    else:  # pragma: no cover - registry guards this
        raise IllegalInstructionError(f"unknown CSR op {op!r}")
    return k


def _k_ecall(npc: int, penalty: int) -> Kernel:
    def k(core):
        cause = ECALL_FROM_USER if core.priv is Privilege.USER \
            else ECALL_FROM_KERNEL
        csrs = core.csrs._csrs
        csrs[CSR_MEPC] = npc
        csrs[CSR_MCAUSE] = cause
        core.priv = Privilege.KERNEL
        core.stats.traps += 1
        core._trap_scratch = cause
        core.pc = csrs.get(CSR_MTVEC, 0)
        return 1 + penalty
    return k


def _k_mret(penalty: int) -> Kernel:
    def k(core):
        if core.priv is not Privilege.KERNEL:
            raise PrivilegeError("mret from user mode")
        core.priv = Privilege.USER
        core.pc = core.csrs._csrs.get(CSR_MEPC, 0)
        return 1 + penalty
    return k


def _build_kernel(inst: Instruction, pc: int, config: CoreConfig,
                  mem_entry: type) -> Kernel:
    """Decode one instruction slot into its execution kernel.

    ``mem_entry`` is :class:`repro.core.core.MemEntry`, passed in
    because this module cannot import it at load time.
    """
    op = inst.op
    info = OPS[op]
    kind = info.kind
    rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm
    npc = pc + INST_BYTES
    penalty = config.branch_predictor.mispredict_penalty_cycles

    if kind is OpKind.ALU:
        if rd == 0:
            return _k_advance(npc, 1)
        if info.has_imm:
            return _alu_ri(op, rd, rs1, imm, npc)
        return _alu_rr(op, rd, rs1, rs2, npc)
    if kind is OpKind.MUL:
        cycles = config.mul_latency_cycles
        if rd == 0:
            return _k_advance(npc, cycles)
        return _k_mul(rd, rs1, rs2, npc, cycles)
    if kind is OpKind.DIV:
        cycles = config.div_latency_cycles
        if rd == 0:
            return _k_advance(npc, cycles)
        return _k_div(op, rd, rs1, rs2, npc, cycles)
    if kind is OpKind.LOAD:
        return _k_load(rd, rs1, imm, npc, mem_entry)
    if kind is OpKind.STORE:
        return _k_store(rs1, rs2, imm, npc, mem_entry)
    if kind is OpKind.LR:
        return _k_lr(rd, rs1, npc, mem_entry)
    if kind is OpKind.SC:
        return _k_sc(rd, rs1, rs2, npc, mem_entry)
    if kind is OpKind.AMO:
        return _k_amo(op, rd, rs1, rs2, npc, mem_entry)
    if kind is OpKind.BRANCH:
        return _k_branch(op, rs1, rs2, pc, pc + imm, npc, penalty)
    if kind is OpKind.JUMP:
        if op == "jal":
            return _k_jal(rd, pc + imm, npc)
        return _k_jalr(rd, rs1, imm, pc, npc, penalty)
    if kind is OpKind.CSR:
        return _k_csr(op, rd, rs1, imm, npc)
    if kind is OpKind.SYSTEM:
        if op == "ecall":
            return _k_ecall(npc, penalty)
        if op == "mret":
            return _k_mret(penalty)
        raise IllegalInstructionError(  # pragma: no cover
            f"unknown system op {op!r}")
    if kind is OpKind.HALT:
        return _k_halt(npc)
    raise IllegalInstructionError(  # pragma: no cover
        f"unhandled op kind {kind}")
