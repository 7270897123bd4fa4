"""Set-associative cache timing model and a two-level hierarchy.

Functional data always lives in :class:`~repro.core.memory.MainMemory`;
caches only decide *latency* (hit/miss), mirroring how FireSim timing
models wrap functional execution.  Caches are write-allocate, write-back;
dirtiness is tracked so eviction traffic is countable, but writebacks add
no extra latency in this model (Rocket's blocking caches overlap them).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class Cache:
    """One level of set-associative cache with LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.sets)]
        self._set_mask = config.sets - 1
        self.line_shift = config.line_bytes.bit_length() - 1
        #: Line of the last :meth:`access` (-1: none yet).  That line is
        #: present and MRU in its set, so a read of it is a hit that
        #: changes nothing but ``stats.hits``: the fetch sites take that
        #: shortcut when ``pc >> line_shift`` matches (see
        #: :meth:`MemoryHierarchy.fetch_access`).
        self.last_line = -1
        # sets is a power of two for all Table II configs; fall back to
        # modulo indexing otherwise.
        self._pow2 = (config.sets & (config.sets - 1)) == 0

    def _index(self, addr: int) -> tuple[int, int]:
        line = addr >> self.line_shift
        if self._pow2:
            return line & self._set_mask, line
        return line % self.config.sets, line

    def access(self, addr: int, write: bool) -> bool:
        """Look up ``addr``; allocate on miss.  Returns hit?"""
        set_idx, tag = self._index(addr)
        self.last_line = tag
        ways = self._sets[set_idx]
        if tag in ways:
            self.stats.hits += 1
            ways.move_to_end(tag)
            if write:
                ways[tag] = True
            return True
        self.stats.misses += 1
        if len(ways) >= self.config.ways:
            _, dirty = ways.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        ways[tag] = write
        return False

    def contains(self, addr: int) -> bool:
        """Non-mutating lookup (no stats, no LRU update).

        Inlines :meth:`_index`: the heap co-sim asks this before nearly
        every step of a core running ahead of the others."""
        line = addr >> self.line_shift
        if self._pow2:
            return line in self._sets[line & self._set_mask]
        return line in self._sets[line % self.config.sets]


@dataclass
class HierarchyStats:
    """Aggregated per-port access latencies."""

    accesses: int = 0
    total_cycles: int = 0


class MemoryHierarchy:
    """Private L1s in front of a shared L2 and DRAM.

    One instance per SoC; each core owns private L1 I/D caches and calls
    :meth:`data_access` / :meth:`fetch_access` with them.  The L2 is
    shared (paper Table II: one 512 KB L2).
    """

    def __init__(self, l2: Cache, *, l2_latency: int, dram_latency: int):
        self.l2 = l2
        self.l2_latency = l2_latency
        self.dram_latency = dram_latency
        self.stats = HierarchyStats()

    def data_access(self, l1d: Cache, addr: int, write: bool) -> int:
        """Latency in cycles for a data access through ``l1d``."""
        cycles = l1d.config.latency_cycles
        if not l1d.access(addr, write):
            cycles += self.l2_latency
            if not self.l2.access(addr, write):
                cycles += self.dram_latency
        self.stats.accesses += 1
        self.stats.total_cycles += cycles
        return cycles

    def fetch_access(self, l1i: Cache, addr: int) -> int:
        """Extra cycles a fetch adds beyond the pipelined hit path.

        An L1I hit is fully pipelined (0 extra); a miss pays the L2 (and
        possibly DRAM) round trip.  This is the full path; the decoded
        fetch sites first test ``pc >> l1i.line_shift == l1i.last_line``
        and on a match only add one to ``l1i.stats.hits``, which is all
        this call would change.  The ``interp`` tier always calls it.
        """
        if l1i.access(addr, False):
            return 0
        cycles = self.l2_latency
        if not self.l2.access(addr, False):
            cycles += self.dram_latency
        return cycles
