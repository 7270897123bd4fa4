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

#: Kinds that always fall through to pc+4, never touch privilege or
#: ``halted``, and never observe ``instret`` — the only ones whose
#: kernels may sit mid-block (CSR reads instret, so it is a boundary).
_SEQUENTIAL_KINDS = frozenset((
    OpKind.ALU, OpKind.MUL, OpKind.DIV, OpKind.LOAD, OpKind.STORE,
    OpKind.LR, OpKind.SC, OpKind.AMO,
))

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

#: Upper bound on instructions per block kernel (keeps the tail-budget
#: fallback in Core.advance cheap and member lists small).
BLOCK_CAP = 64


def _signed(value: int) -> int:
    return value - _WRAP if value >= _SIGN else value


class DecodedProgram:
    """One program decoded against one set of core timing parameters."""

    __slots__ = ("program", "base", "limit", "kernels", "kinds", "insts",
                 "blocks", "block_lens", "mem_operands")

    def __init__(self, program: Program, kernels: List[Kernel],
                 kinds: bytearray):
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
        #: Per-slot block kernel: executes the straight-line run starting
        #: at the slot (through its terminating control/CSR/system op) in
        #: one call.  ``block_lens[i]`` instructions commit per call.
        self.blocks: List[Kernel] = []
        self.block_lens: List[int] = []
        self._build_blocks()

    def _build_blocks(self) -> None:
        kernels = self.kernels
        n = len(kernels)
        all_kinds = [inst.info.kind for inst in self.insts]
        seq = bytes(1 if kind in _SEQUENTIAL_KINDS else 0
                    for kind in all_kinds)
        # CSR ops observe instret, which the dispatch loop settles only
        # between blocks — so they must execute as singletons, never
        # fused into a larger block.
        csr = bytes(1 if kind is OpKind.CSR else 0 for kind in all_kinds)
        for i in range(n):
            if not seq[i]:
                self.blocks.append(kernels[i])
                self.block_lens.append(1)
                continue
            # Extend through the straight-line run...
            j = i
            while j < n and seq[j] and j - i < BLOCK_CAP - 1:
                j += 1
            # ...and fuse the terminating control/system/halt op (but
            # not a CSR, and not past the cap or the program end).
            if j < n and not seq[j] and not csr[j] and j - i < BLOCK_CAP:
                j += 1
            if j - i == 1:
                self.blocks.append(kernels[i])
                self.block_lens.append(1)
            else:
                self.blocks.append(_make_block(tuple(kernels[i:j])))
                self.block_lens.append(j - i)


def _make_block(members: tuple) -> Kernel:
    """Fuse a straight-line run of kernels into one block kernel.

    Each member still sets ``core.pc`` itself, so an exception from any
    member (memory fault, replay mismatch, CSR privilege error) leaves
    the architectural state exactly as single-stepping would; the block
    records how many members committed (and their cycles) in
    ``core._block_scratch`` so the caller can settle stats.
    """
    def blk(core):
        cycles = 0
        done = 0
        try:
            for k in members:
                cycles += k(core)
                done += 1
        except BaseException:
            core._block_scratch = (done, cycles)
            raise
        return cycles
    return blk


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
    decoded = DecodedProgram(program, kernels, kinds)
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
