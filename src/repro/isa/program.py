"""Program containers: instruction stream + initial data segment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..errors import IsaError
from .instructions import INST_BYTES, WORD_BYTES, Instruction


@dataclass
class DataSegment:
    """Initial contents of data memory: word-aligned address -> value."""

    words: dict[int, int] = field(default_factory=dict)

    def set_word(self, addr: int, value: int) -> None:
        if addr % WORD_BYTES != 0:
            raise IsaError(f"data address {addr:#x} not word-aligned")
        if addr < 0:
            raise IsaError(f"negative data address {addr:#x}")
        self.words[addr] = value & ((1 << 64) - 1)

    def __len__(self) -> int:
        return len(self.words)


class Program:
    """An assembled program: instructions, labels, entry point, data.

    Instruction addresses start at ``base`` and advance by
    :data:`INST_BYTES`; ``labels`` map symbol -> byte address.
    """

    def __init__(self, instructions: Iterable[Instruction], *,
                 labels: Mapping[str, int] | None = None,
                 data: DataSegment | None = None,
                 base: int = 0,
                 entry: int | None = None,
                 name: str = "program"):
        self.instructions: list[Instruction] = list(instructions)
        self.labels: dict[str, int] = dict(labels or {})
        self.data = data or DataSegment()
        self.base = base
        self.entry = entry if entry is not None else base
        self.name = name
        #: Decode artefacts keyed by timing parameters, so each program is
        #: decoded once per core configuration and every core (main,
        #: checker, lockstep shadow) sharing it reuses the same kernels.
        #: See :mod:`repro.core.decode`.
        self.decode_cache: dict = {}
        if base % INST_BYTES != 0:
            raise IsaError(f"program base {base:#x} not aligned")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def end(self) -> int:
        """First byte address past the last instruction."""
        return self.base + len(self.instructions) * INST_BYTES

    def contains(self, pc: int) -> bool:
        return (self.base <= pc < self.end
                and (pc - self.base) % INST_BYTES == 0)

    def fetch(self, pc: int) -> Instruction:
        """Instruction at byte address ``pc``."""
        if not self.contains(pc):
            raise IsaError(
                f"pc {pc:#x} outside program [{self.base:#x}, {self.end:#x})")
        return self.instructions[(pc - self.base) // INST_BYTES]
