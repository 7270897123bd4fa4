"""Configuration (Table II) tests."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    CoreConfig,
    FlexStepConfig,
    SoCConfig,
    describe_table2,
    soc_config_from_dict,
    soc_config_to_dict,
    table2_config,
)
from repro.errors import ConfigurationError
from repro.scenarios.catalog import CATALOG


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


def _cosim_configs():
    """The default SoC and the SoC of every catalog co-sim scenario,
    built as the scenario runner and its units build them."""
    yield "default", SoCConfig()
    for scenario in CATALOG.values():
        if scenario.kind == "latency":
            topo = scenario.topology
            flex = {"dma_spill_entries": topo.dma_spill_entries}
            if topo.fifo_entries:
                flex["fifo_entries"] = topo.fifo_entries
            yield scenario.name, SoCConfig(
                num_cores=topo.num_cores).with_flexstep(**flex)
        elif scenario.kind != "sched":
            # slowdown / modes: a pinned core count, else one core for
            # the vanilla run and checkers + 1 for dual / triple
            for cores in ((scenario.cores,) if scenario.cores
                          else (1, 2, 3)):
                yield scenario.name, SoCConfig(num_cores=cores)


class TestSpecDict:
    def test_round_trip_is_identity(self):
        names = set()
        for name, config in _cosim_configs():
            names.add(name)
            assert soc_config_from_dict(soc_config_to_dict(config)) \
                == config, name
        assert len(names) > 5

    def test_no_execution_tier_in_spec(self):
        # Engine tier and co-sim scheduler are bit-identical choices;
        # a key for either would make cache digests depend on them.
        for name, config in _cosim_configs():
            data = soc_config_to_dict(config)
            assert "soc_sched" not in data, name
            assert "engine" not in data["core"], name
        assert "engine" not in {
            f.name for f in dataclasses.fields(CoreConfig)}
        assert "soc_sched" not in {
            f.name for f in dataclasses.fields(SoCConfig)}
