"""Memory, port and cache-model tests."""

import random

import pytest

from repro.config import CacheConfig
from repro.core import Cache, CachedPort, DirectPort, MainMemory, \
    MemoryHierarchy
from repro.errors import ConfigurationError, MemoryAccessError


class TestMainMemory:
    def test_default_zero(self):
        assert MainMemory().read_word(0x100) == 0

    def test_write_read(self):
        mem = MainMemory()
        mem.write_word(0x40, 77)
        assert mem.read_word(0x40) == 77

    def test_misaligned_rejected(self):
        mem = MainMemory()
        with pytest.raises(MemoryAccessError):
            mem.read_word(0x41)
        with pytest.raises(MemoryAccessError):
            mem.write_word(0x42, 1)

    def test_out_of_range_rejected(self):
        mem = MainMemory(size_bytes=0x1000)
        with pytest.raises(MemoryAccessError):
            mem.read_word(0x1000)
        with pytest.raises(MemoryAccessError):
            mem.read_word(-8)

    def test_values_wrap_64bit(self):
        mem = MainMemory()
        mem.write_word(0, -1)
        assert mem.read_word(0) == (1 << 64) - 1

    def test_load_segment(self):
        mem = MainMemory()
        mem.load_segment({0x10: 3, 0x18: 4})
        assert mem.read_word(0x18) == 4
        mem.load_segment(None)  # no-op


class TestCacheConfig:
    def test_sets_computed(self):
        cfg = CacheConfig(size_bytes=16 * 1024, ways=4, line_bytes=64)
        assert cfg.sets == 64

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, ways=3, line_bytes=64)
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=0, ways=1)


class TestCache:
    def _tiny(self):
        # 2 sets, 2 ways, 64 B lines
        return Cache(CacheConfig(size_bytes=256, ways=2, line_bytes=64))

    def test_miss_then_hit(self):
        cache = self._tiny()
        assert cache.access(0, False) is False
        assert cache.access(0, False) is True
        assert cache.access(8, False) is True  # same line

    def test_lru_eviction(self):
        cache = self._tiny()
        # set 0 holds lines with even line index (line = addr>>6)
        cache.access(0x000, False)   # line 0 -> set 0
        cache.access(0x080, False)   # line 2 -> set 0
        cache.access(0x100, False)   # line 4 -> set 0, evicts line 0
        assert cache.stats.evictions == 1
        assert cache.access(0x000, False) is False  # was evicted

    def test_lru_refresh_on_hit(self):
        cache = self._tiny()
        cache.access(0x000, False)
        cache.access(0x080, False)
        cache.access(0x000, False)        # refresh line 0
        cache.access(0x100, False)        # should evict line 2 now
        assert cache.access(0x000, False) is True

    def test_dirty_writeback_counted(self):
        cache = self._tiny()
        cache.access(0x000, True)    # dirty
        cache.access(0x080, False)
        cache.access(0x100, False)   # evicts dirty line 0
        assert cache.stats.writebacks == 1

    def test_contains_does_not_mutate(self):
        cache = self._tiny()
        cache.access(0, False)
        hits_before = cache.stats.hits
        assert cache.contains(0)
        assert not cache.contains(0x500)
        assert cache.stats.hits == hits_before


class TestHierarchy:
    def _setup(self):
        l1 = Cache(CacheConfig(size_bytes=256, ways=2, line_bytes=64,
                               latency_cycles=2))
        l2 = Cache(CacheConfig(size_bytes=1024, ways=4, line_bytes=64,
                               latency_cycles=40))
        hier = MemoryHierarchy(l2, l2_latency=40, dram_latency=120)
        return l1, l2, hier

    def test_l1_hit_latency(self):
        l1, _l2, hier = self._setup()
        hier.data_access(l1, 0, False)          # cold miss
        assert hier.data_access(l1, 0, False) == 2

    def test_l1_miss_l2_hit_latency(self):
        l1, l2, hier = self._setup()
        l2.access(0x2000, False)                # warm L2
        assert hier.data_access(l1, 0x2000, False) == 2 + 40

    def test_full_miss_latency(self):
        l1, _l2, hier = self._setup()
        assert hier.data_access(l1, 0x4000, False) == 2 + 40 + 120

    def test_fetch_hit_is_free(self):
        l1, _l2, hier = self._setup()
        hier.fetch_access(l1, 0)
        assert hier.fetch_access(l1, 0) == 0

    def test_average_latency_tracked(self):
        l1, _l2, hier = self._setup()
        hier.data_access(l1, 0, False)
        hier.data_access(l1, 0, False)
        assert hier.stats.accesses == 2
        assert hier.stats.total_cycles == (2 + 40 + 120) + 2


def _last_line_fetch(hier, l1i, addr):
    """A fetch as the decoded fetch sites make it: a repeat of the L1I's
    last line only counts a hit; anything else takes ``fetch_access``."""
    if addr >> l1i.line_shift == l1i.last_line:
        l1i.stats.hits += 1
        return 0
    return hier.fetch_access(l1i, addr)


def _lru_order(cache):
    """Every set's (line, dirty) pairs, LRU first."""
    return [list(ways.items()) for ways in cache._sets]


class TestLastLineFetch:
    def _setup(self):
        # L1I: 2 sets x 2 ways of 64 B lines; L2: 4 sets x 4 ways
        l1i = Cache(CacheConfig(size_bytes=256, ways=2, line_bytes=64),
                    name="l1i")
        l2 = Cache(CacheConfig(size_bytes=1024, ways=4, line_bytes=64),
                   name="l2")
        hier = MemoryHierarchy(l2, l2_latency=40, dram_latency=120)
        return l1i, l2, hier

    def test_access_sets_last_line(self):
        l1i, _l2, _hier = self._setup()
        assert l1i.last_line == -1
        l1i.access(0x0C8, False)
        assert l1i.last_line == 0x0C8 >> 6
        l1i.access(0x100, True)
        assert l1i.last_line == 0x100 >> 6

    def test_same_line_repeat_counts_a_hit_only(self):
        l1i, l2, hier = self._setup()
        assert _last_line_fetch(hier, l1i, 0x40) == 40 + 120
        order = _lru_order(l1i)
        assert _last_line_fetch(hier, l1i, 0x44) == 0
        assert _last_line_fetch(hier, l1i, 0x7C) == 0
        assert (l1i.stats.hits, l1i.stats.misses) == (2, 1)
        assert _lru_order(l1i) == order
        assert (l2.stats.hits, l2.stats.misses) == (0, 1)

    def test_fetch_returns_to_an_evicted_line(self):
        l1i, l2, hier = self._setup()
        _last_line_fetch(hier, l1i, 0x000)      # line 0 -> set 0
        _last_line_fetch(hier, l1i, 0x080)      # line 2 -> set 0
        _last_line_fetch(hier, l1i, 0x100)      # line 4, evicts line 0
        assert not l1i.contains(0x000)
        assert l1i.last_line == 4
        # back to line 0: the full path, an L1I miss the L2 serves
        assert _last_line_fetch(hier, l1i, 0x004) == 40
        assert (l1i.stats.hits, l1i.stats.misses,
                l1i.stats.evictions) == (0, 4, 2)
        assert (l2.stats.hits, l2.stats.misses) == (1, 3)
        assert l1i.last_line == 0
        assert _last_line_fetch(hier, l1i, 0x008) == 0
        assert l1i.stats.hits == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_stream_matches_plain_access(self, seed):
        """A seeded stream of fetches (same-line runs, jumps into
        conflicting sets) interleaved with data reads and writes
        through an L1D that shares the L2: the last-line check changes
        no counter and no set's LRU order at any level."""

        def run(fetch):
            rng = random.Random(seed)
            l1i, l2, hier = self._setup()
            l1d = Cache(CacheConfig(size_bytes=256, ways=2, line_bytes=64),
                        name="l1d")
            pc = 0
            extra = 0
            for _ in range(4_000):
                roll = rng.random()
                if roll < 0.15:
                    pc = rng.randrange(0, 0x800, 4)   # conflicts, evictions
                elif roll < 0.25:
                    hier.data_access(l1d, rng.randrange(0, 0x800, 8),
                                     rng.random() < 0.4)
                    continue
                else:
                    pc += 4                           # same-line runs
                extra += fetch(hier, l1i, pc)
            return (extra, l1i.stats, l1d.stats, l2.stats, hier.stats,
                    _lru_order(l1i), _lru_order(l1d), _lru_order(l2))

        fast = run(_last_line_fetch)
        plain = run(lambda hier, l1i, pc: hier.fetch_access(l1i, pc))
        assert fast == plain
        l1i_stats = fast[1]
        assert l1i_stats.hits > l1i_stats.misses > 0
        assert l1i_stats.evictions > 0 and fast[3].evictions > 0


class TestPorts:
    def test_direct_port(self):
        mem = MainMemory()
        port = DirectPort(mem, latency=3)
        assert port.write(0x10, 9) == 3
        assert port.read(0x10) == (9, 3)

    def test_cached_port_returns_data_and_latency(self):
        mem = MainMemory()
        mem.write_word(0x20, 5)
        l1 = Cache(CacheConfig(size_bytes=256, ways=2, line_bytes=64,
                               latency_cycles=2))
        l2 = Cache(CacheConfig(size_bytes=1024, ways=4, line_bytes=64,
                               latency_cycles=40))
        hier = MemoryHierarchy(l2, l2_latency=40, dram_latency=120)
        port = CachedPort(mem, hier, l1)
        value, cycles = port.read(0x20)
        assert value == 5 and cycles == 162
        value, cycles = port.read(0x20)
        assert cycles == 2
