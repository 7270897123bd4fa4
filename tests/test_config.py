"""Configuration (Table II) tests."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    CoreConfig,
    FlexStepConfig,
    SoCConfig,
    describe_table2,
    table2_config,
)
from repro.errors import ConfigurationError


class TestTable2Defaults:
    def test_core(self):
        cfg = table2_config()
        assert cfg.core.clock_hz == 1_600_000_000
        assert cfg.core.pipeline_stages == 5
        assert cfg.core.phys_registers == 64
        bp = cfg.core.branch_predictor
        assert (bp.bht_entries, bp.btb_entries, bp.ras_entries) \
            == (512, 28, 6)

    def test_memory_hierarchy(self):
        mem = table2_config().memory
        assert mem.l1i.size_bytes == 16 * 1024 and mem.l1i.ways == 4
        assert mem.l1d.latency_cycles == 2
        assert mem.l2.size_bytes == 512 * 1024
        assert mem.l2.ways == 8 and mem.l2.mshrs == 8
        assert mem.l2.latency_cycles == 40

    def test_flexstep_storage_budget(self):
        flex = table2_config().flexstep
        assert flex.storage_bytes_per_core == 1614
        assert flex.segment_limit == 5000

    def test_describe_contains_table_rows(self):
        text = describe_table2()
        for token in ("1.6GHz", "5-stage", "512-entry BHT",
                      "16 KB", "512 KB", "8 MSHRs"):
            assert token in text


class TestValidation:
    def test_cache_geometry(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=100, ways=3)

    def test_core_clock(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(clock_hz=0)

    def test_flexstep_limits(self):
        with pytest.raises(ConfigurationError):
            FlexStepConfig(segment_limit=0)
        with pytest.raises(ConfigurationError):
            FlexStepConfig(fifo_entries=0)
        with pytest.raises(ConfigurationError):
            FlexStepConfig(max_checkers_per_main=0)

    def test_soc_needs_cores(self):
        with pytest.raises(ConfigurationError):
            SoCConfig(num_cores=0)


class TestDerivedValues:
    def test_cycles_to_us(self):
        core = CoreConfig()
        assert core.cycles_to_us(1600) == pytest.approx(1.0)

    def test_with_flexstep_override(self):
        cfg = table2_config().with_flexstep(segment_limit=100)
        assert cfg.flexstep.segment_limit == 100
        assert cfg.flexstep.fifo_entries \
            == table2_config().flexstep.fifo_entries

    def test_frozen(self):
        cfg = table2_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_cores = 8

    def test_total_buffer_entries(self):
        flex = FlexStepConfig(fifo_entries=64, dma_spill_entries=100)
        assert flex.total_buffer_entries == 164

    def test_cache_sets(self):
        assert CacheConfig(size_bytes=16 * 1024, ways=4,
                           line_bytes=64).sets == 64
