"""Deterministic synthetic-program generator.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into a
:class:`~repro.isa.program.Program` whose committed-instruction stream
matches the profile's mix: memory density, load/store split, branch
density and predictability, atomics, multiplies and syscall rate.

The generator emits ``Instruction`` objects directly; no assembly text
is written or parsed.  ``li rd, imm`` is emitted as ``addi rd, x0,
imm``, the assembler's expansion, and a branch to a label is resolved
to its pc-relative offset once the last label is placed, keeping the
label name.  The program is the one ``assemble`` returns for the
equivalent source.

Two emission modes:

* ``plain`` — the workload as compiled normally (run under FlexStep or
  LockStep).
* ``nzdc`` — EDDI/Nzdc-style software error detection compiled in:
  every load and every value-producing ALU op is duplicated into a
  shadow register file half, and stores are preceded by a
  shadow-vs-primary comparison branching to an error stub.  This is the
  mechanism behind Nzdc's 57–92 % slowdowns in paper Fig. 4.

Register conventions (generated code only):

====  ==========================================
x5    LCG state (address/branch randomness)
x12   LCG multiplier
x6    working-set base,  x9  working-set mask
x8    current memory address
x4    loaded value,  x13/x14  accumulators
x7    branch scratch,  x15  outer-loop counter
x20+  nzdc shadow registers (x4->x20, x13->x29,
      x14->x30)
x31   trap-handler scratch (swapped via mscratch)
====  ==========================================
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from ..isa.instructions import INST_BYTES, Instruction
from ..isa.program import Program
from .profiles import WorkloadProfile

#: Address of the kernel's syscall counter (kernel data, never logged).
KERNEL_COUNTER_ADDR = 0x800
#: Address the final accumulator is stored to.
RESULT_ADDR = 0x900
#: Base address of the workload's working set.
WORKING_SET_BASE = 0x10000

#: mscratch CSR index (kept in sync with repro.core.registers).
_MSCRATCH = 0x340

#: ``(op, rd, rs1, rs2, imm) -> Instruction``, one shared object per
#: distinct label-free instruction: instructions are frozen, so every
#: slot of every program that repeats one can hold the same object.
#: Every catalog program together has about 130 distinct ones.
_shared = functools.lru_cache(maxsize=1024)(Instruction)


@dataclass(frozen=True)
class GeneratorOptions:
    """Size/shape knobs independent of the workload profile."""

    target_instructions: int = 60_000
    block_instructions: int = 2_000
    mode: str = "plain"  # "plain" | "nzdc"

    def __post_init__(self) -> None:
        if self.mode not in ("plain", "nzdc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.target_instructions < self.block_instructions:
            raise ValueError("target smaller than one block")


class _Emitter:
    """Accumulates instructions, label slots and branch fixups."""

    def __init__(self) -> None:
        #: One entry per slot; None where a branch awaits its label.
        self.insts: list[Instruction | None] = []
        #: Label -> slot index, in definition order.
        self.labels: dict[str, int] = {}
        #: ``(slot, op, rs1, rs2, label)`` of each branch to a label.
        self.fixups: list[tuple[int, str, int, int, str]] = []
        self._label = 0

    def ins(
        self, op: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0
    ) -> None:
        self.insts.append(_shared(op, rd, rs1, rs2, imm))

    def li(self, rd: int, imm: int) -> None:
        """``li rd, imm``, expanded as the assembler expands it."""
        self.ins("addi", rd=rd, imm=imm)

    def branch(self, op: str, rs1: int, rs2: int, target: str) -> None:
        """A branch to label ``target``, resolved by :meth:`program`."""
        self.fixups.append((len(self.insts), op, rs1, rs2, target))
        self.insts.append(None)

    def label(self, name: str) -> None:
        self.labels[name] = len(self.insts)

    def fresh_label(self, prefix: str = "L") -> str:
        self._label += 1
        return f"{prefix}{self._label}"

    def extend(self, other: _Emitter) -> None:
        """Append ``other``'s instructions, labels and fixups."""
        base = len(self.insts)
        self.insts.extend(other.insts)
        for name, slot in other.labels.items():
            self.labels[name] = base + slot
        for slot, *branch in other.fixups:
            self.fixups.append((base + slot, *branch))

    def program(self, name: str) -> Program:
        """Resolve every branch pc-relative and build the program."""
        insts = self.insts
        labels = self.labels
        for slot, op, rs1, rs2, target in self.fixups:
            offset = (labels[target] - slot) * INST_BYTES
            insts[slot] = Instruction(
                op, rs1=rs1, rs2=rs2, imm=offset, label=target
            )
        addresses = {
            label: slot * INST_BYTES for label, slot in labels.items()
        }
        return Program(insts, labels=addresses, name=name)


def _entropy_mask(entropy: float) -> int:
    """Map branch entropy to an AND mask: wider mask = more biased."""
    if entropy >= 0.45:
        return 1  # ~50% taken
    if entropy >= 0.30:
        return 3  # ~25% taken
    if entropy >= 0.15:
        return 7  # ~12.5% taken
    return 15  # ~6% taken


def _slot_plan(
    profile: WorkloadProfile, block: int, rng: random.Random
) -> list[str]:
    """Build the shuffled slot sequence for one block."""
    mem = int(block * profile.mem_ratio)
    stores = int(mem * profile.store_fraction)
    amos = int(block * profile.amo_ratio)
    loads = max(1, mem - stores - amos)
    branches = int(block * profile.branch_ratio)
    rands = max(1, (loads + stores + amos) // 4)
    ecalls = round(block / profile.syscall_interval)
    slots = (
        ["load"] * loads
        + ["store"] * stores
        + ["amo"] * amos
        + ["branch"] * branches
        + ["rand"] * rands
        + ["ecall"] * ecalls
    )
    # instruction cost of the structured slots
    cost = 2 * loads + 2 * stores + amos + 3 * branches + 5 * rands + ecalls
    alu_fill = max(0, block - cost)
    slots += ["alu"] * alu_fill
    rng.shuffle(slots)
    # ensure an address exists before the first memory op
    slots.insert(0, "rand")
    return slots


def _emit_slot(
    e: _Emitter,
    slot: str,
    profile: WorkloadProfile,
    rng: random.Random,
    nzdc: bool,
) -> None:
    """Emit one slot.

    Nzdc-mode emission follows the nZDC/EDDI recipe: *all* computation
    (address generation, branch conditions, ALU dataflow) is duplicated
    into shadow registers; loads execute once and copy their result to
    the shadow half (memory itself is out of scope for the compiler
    scheme); stores and branches are the synchronisation points where
    primary and shadow values are cross-checked.  Shadow mapping:
    x4→x20, x5→x21, x7→x27, x8→x28, x13→x29, x14→x30.
    """
    mask = profile.working_set_words - 1
    if slot == "rand":
        # LCG step + fold into a working-set address.
        e.ins("mul", rd=5, rs1=5, rs2=12)
        e.ins("addi", rd=5, rs1=5, imm=12345)
        e.ins("andi", rd=8, rs1=5, imm=mask)
        e.ins("slli", rd=8, rs1=8, imm=3)
        e.ins("add", rd=8, rs1=8, rs2=6)
        if nzdc:
            # The shadow address chain re-derives the address from the
            # (already-checked) LCG value; nZDC checks the expensive
            # generator chain once at its use rather than re-running it.
            e.ins("andi", rd=28, rs1=5, imm=mask)
            e.ins("slli", rd=28, rs1=28, imm=3)
            e.ins("add", rd=28, rs1=28, rs2=6)
    elif slot == "load":
        off = rng.randrange(8) * 8
        if nzdc:
            e.branch("bne", 8, 28, "_nzdc_err")
        e.ins("ld", rd=4, rs1=8, imm=off)
        if nzdc:
            e.ins("addi", rd=20, rs1=4, imm=0)
            e.ins("add", rd=13, rs1=13, rs2=4)
            e.ins("add", rd=29, rs1=29, rs2=20)
        else:
            e.ins("add", rd=13, rs1=13, rs2=4)
    elif slot == "store":
        off = rng.randrange(8) * 8
        e.ins("xor", rd=14, rs1=14, rs2=13)
        if nzdc:
            e.ins("xor", rd=30, rs1=30, rs2=29)
            e.branch("bne", 8, 28, "_nzdc_err")
            e.branch("bne", 14, 30, "_nzdc_err")
        e.ins("sd", rs1=8, rs2=14, imm=off)
    elif slot == "amo":
        e.ins("amoadd", rd=4, rs1=8, rs2=13)
        if nzdc:
            e.ins("addi", rd=20, rs1=4, imm=0)
    elif slot == "branch":
        shift = rng.randrange(0, 12)
        m = _entropy_mask(profile.branch_entropy)
        checked = rng.random() < profile.nzdc_branch_check
        skip = e.fresh_label()
        e.ins("srli", rd=7, rs1=5, imm=shift)
        e.ins("andi", rd=7, rs1=7, imm=m)
        if nzdc and checked:
            # nZDC verifies control-flow decisions; its scheduler elides
            # the check where the condition chain is already covered by
            # a dominating store/branch check.
            e.ins("srli", rd=27, rs1=5, imm=shift)
            e.ins("andi", rd=27, rs1=27, imm=m)
            e.branch("bne", 7, 27, "_nzdc_err")
        e.branch("beq", 7, 0, skip)
        e.ins("xor", rd=14, rs1=14, rs2=13)
        if nzdc:
            e.ins("xor", rd=30, rs1=30, rs2=29)
        e.label(skip)
    elif slot == "ecall":
        e.ins("ecall")
    elif slot == "alu":
        choice = rng.random()
        if choice < profile.mul_ratio:
            e.ins("mul", rd=13, rs1=13, rs2=12)
            if nzdc:
                e.ins("mul", rd=29, rs1=29, rs2=12)
        elif choice < profile.mul_ratio + profile.dead_alu_fraction:
            # Dead-end computation (address speculation, bookkeeping):
            # its result never reaches a store or branch, so nZDC's
            # liveness analysis does not duplicate it.
            e.ins("add", rd=10, rs1=13, rs2=14)
        elif choice < 0.55:
            e.ins("add", rd=13, rs1=13, rs2=14)
            if nzdc:
                e.ins("add", rd=29, rs1=29, rs2=30)
        elif choice < 0.75:
            e.ins("xor", rd=14, rs1=14, rs2=5)
            if nzdc:
                e.ins("xor", rd=30, rs1=30, rs2=5)
        else:
            e.ins("slli", rd=13, rs1=13, imm=1)
            if nzdc:
                e.ins("slli", rd=29, rs1=29, imm=1)
    else:  # pragma: no cover
        raise ValueError(f"unknown slot {slot!r}")


def _emit_body(
    plan: list[str], profile: WorkloadProfile, nzdc: bool
) -> _Emitter:
    """One block of ``plan``'s slots; its labels count from ``L1001``."""
    body = _Emitter()
    body._label = 1000
    rng = random.Random(profile.seed + 77)
    for slot in plan:
        _emit_slot(body, slot, profile, rng, nzdc)
    return body


def build_program(
    profile: WorkloadProfile, options: GeneratorOptions | None = None
) -> Program:
    """Generate the synthetic program for ``profile``.

    The program runs in user mode; its trap handler (label
    ``_trap_handler``) services the generated ``ecall`` instructions by
    bumping a kernel counter and returning.  Loaders should point mtvec
    at that label (``FlexStepSoC.load_program`` does this when the label
    is present; see :func:`trap_handler_address`).
    """
    opts = options or GeneratorOptions()
    nzdc = opts.mode == "nzdc"
    if nzdc and not profile.nzdc_compiles:
        raise ValueError(
            f"Nzdc fails to compile {profile.name} (paper Sec. VI-A)"
        )
    rng = random.Random(profile.seed * 1000003 + len(profile.name))
    e = _Emitter()
    e.label("main")
    e.li(5, profile.seed * 2654435761 % 0x7FFFFFFF or 1)
    e.li(12, 1103515245)
    e.li(6, WORKING_SET_BASE)
    e.li(9, profile.working_set_words - 1)
    for reg in (4, 7, 8, 13, 14):
        e.li(reg, 0)
    if nzdc:
        for reg in (20, 27, 28, 29, 30):
            e.li(reg, 0)
        e.ins("addi", rd=21, rs1=5, imm=0)  # shadow LCG starts in sync

    # Body: one block of slots, iterated outer-loop times.  The
    # iteration count is always derived from the *plain* body size so a
    # plain and an nzdc build of the same profile perform the same
    # algorithmic work — the nzdc variant just needs more instructions
    # for it (that extra is exactly what Fig. 4 measures).
    plan = _slot_plan(profile, opts.block_instructions, rng)
    body = _emit_body(plan, profile, nzdc=False)
    per_iteration = len(body.insts) + 2  # + the loop's addi and bne
    iterations = max(1, round(opts.target_instructions / per_iteration))
    if nzdc:
        body = _emit_body(plan, profile, nzdc=True)

    e.li(15, iterations)
    e.label("outer")
    e.extend(body)
    e.ins("addi", rd=15, rs1=15, imm=-1)
    e.branch("bne", 15, 0, "outer")
    e.ins("sd", rs1=0, rs2=14, imm=RESULT_ADDR)
    e.ins("halt")

    if nzdc:
        e.label("_nzdc_err")
        e.ins("sd", rs1=0, rs2=0, imm=RESULT_ADDR + 8)
        e.ins("halt")

    e.label("_trap_handler")
    e.ins("csrrw", rd=31, rs1=31, imm=_MSCRATCH)
    e.ins("ld", rd=31, rs1=0, imm=KERNEL_COUNTER_ADDR)
    e.ins("addi", rd=31, rs1=31, imm=1)
    e.ins("sd", rs1=0, rs2=31, imm=KERNEL_COUNTER_ADDR)
    e.ins("csrrw", rd=31, rs1=31, imm=_MSCRATCH)
    e.ins("mret")

    return e.program(profile.name + ("-nzdc" if nzdc else ""))


def trap_handler_address(program: Program) -> int | None:
    """Address of the generated trap handler, if the program has one."""
    return program.labels.get("_trap_handler")


_PROGRAM_MEMO: dict[tuple[WorkloadProfile, GeneratorOptions], Program] = {}


def cached_program(
    profile: WorkloadProfile, options: GeneratorOptions | None = None
) -> Program:
    """Per-process memo over :func:`build_program`.

    Generation is pure — the program depends only on (profile, options)
    — so campaign units that revisit a workload (e.g. Fig. 7's repeat
    grid) build it once per worker instead of once per unit.
    Callers must not mutate the returned program.
    """
    key = (profile, options or GeneratorOptions())
    program = _PROGRAM_MEMO.get(key)
    if program is None:
        program = build_program(profile, options)
        _PROGRAM_MEMO[key] = program
    return program
