"""Functional memory and the port abstraction cores access it through.

Cores never touch :class:`MainMemory` directly; they go through a
:class:`MemoryPort`.  The FlexStep checker substitutes a replay port
(:class:`repro.flexstep.checker.ReplayPort`) that feeds loads from the
Memory Access Log instead of memory — exactly the paper's "the checker
core halts memory access" behaviour (Sec. II).
"""

from __future__ import annotations

from typing import Protocol

from ..errors import MemoryAccessError
from ..isa.instructions import MASK64, WORD_BYTES
from .cache import Cache, MemoryHierarchy


class MainMemory:
    """Sparse word-addressed backing store."""

    def __init__(self, size_bytes: int = 64 * 1024 * 1024):
        self.size_bytes = size_bytes
        self._words: dict[int, int] = {}

    def _check(self, addr: int) -> None:
        if addr % WORD_BYTES != 0:
            raise MemoryAccessError(f"misaligned access at {addr:#x}")
        if not 0 <= addr < self.size_bytes:
            raise MemoryAccessError(
                f"address {addr:#x} outside memory of {self.size_bytes} B")

    def read_word(self, addr: int) -> int:
        self._check(addr)
        return self._words.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        self._check(addr)
        self._words[addr] = value & MASK64

    def load_segment(self, words: dict[int, int] | None) -> None:
        """Install a program's initial data segment."""
        if not words:
            return
        for addr, value in words.items():
            self.write_word(addr, value)

    def __len__(self) -> int:
        return len(self._words)


class MemoryPort(Protocol):
    """What a core requires from its data-memory connection.

    ``read``/``write`` return ``(value_or_None, latency_cycles)``.
    """

    def read(self, addr: int) -> tuple[int, int]:
        """Read a word; returns (value, cycles)."""
        ...

    def write(self, addr: int, value: int) -> int:
        """Write a word; returns cycles."""
        ...


class DirectPort:
    """Fixed-latency port straight to memory (no cache model).

    Used by unit tests and by fast functional-only runs.
    """

    def __init__(self, memory: MainMemory, latency: int = 1):
        self.memory = memory
        self.latency = latency

    def read(self, addr: int) -> tuple[int, int]:
        return self.memory.read_word(addr), self.latency

    def write(self, addr: int, value: int) -> int:
        self.memory.write_word(addr, value)
        return self.latency


class CachedPort:
    """Port through a private L1D and the shared hierarchy (Table II)."""

    def __init__(self, memory: MainMemory, hierarchy: MemoryHierarchy,
                 l1d: Cache):
        self.memory = memory
        self.hierarchy = hierarchy
        self.l1d = l1d

    def read(self, addr: int) -> tuple[int, int]:
        cycles = self.hierarchy.data_access(self.l1d, addr, write=False)
        return self.memory.read_word(addr), cycles

    def write(self, addr: int, value: int) -> int:
        cycles = self.hierarchy.data_access(self.l1d, addr, write=True)
        self.memory.write_word(addr, value)
        return cycles
