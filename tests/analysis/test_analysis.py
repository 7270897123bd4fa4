"""Tests for the figure experiments (run as scenarios) and the analytic
models."""

import pytest

from repro.analysis import (
    PowerAreaModel,
    format_fig4,
    format_fig6,
    format_fig8,
    format_table3,
    measure_flexstep,
    measure_vanilla_cycles,
    scalability_sweep,
)
from repro.analysis.power import is_nearly_linear
from repro.analysis.reporting import format_fig7, format_fig7_density, \
    format_table2
from repro.analysis.slowdown import (
    ModeRow,
    SlowdownRow,
    geomean_mode_row,
    geomean_row,
)
from repro.scenarios import Scenario, Topology, run_scenario
from repro.scenarios.report import _latency_results
from repro.workloads import GeneratorOptions, build_program, get_profile


SMALL = 12_000  # instructions per measurement in these tests


def _slowdown_rows(*workloads):
    result = run_scenario(Scenario(
        name="slowdown", kind="slowdown", workloads=workloads,
        target_instructions=SMALL))
    return [SlowdownRow(**row) for row in result.payload["rows"]]


def _mode_rows(*workloads):
    result = run_scenario(Scenario(
        name="modes", kind="modes", workloads=workloads,
        target_instructions=SMALL))
    return [ModeRow(**row) for row in result.payload["rows"]]


def _latency(workload, target_instructions, **topology):
    result = run_scenario(Scenario(
        name="latency", kind="latency", workloads=(workload,),
        target_instructions=target_instructions,
        topology=Topology(**topology)))
    return _latency_results(result.payload)[0]


class TestSlowdown:
    def test_flexstep_band(self):
        prog = build_program(get_profile("swaptions"),
                             GeneratorOptions(target_instructions=SMALL))
        base = measure_vanilla_cycles(prog)
        flex, soc = measure_flexstep(prog)
        assert 1.0 <= flex / base < 1.05
        assert soc.all_results()

    def test_triple_mode_slower_than_dual(self):
        rows = _mode_rows("swaptions", "blackscholes")
        for row in rows:
            assert row.triple >= row.dual >= 1.0
        geo = geomean_mode_row(rows)
        assert geo.workload == "geomean"
        assert geo.triple >= geo.dual

    def test_suite_rows(self):
        rows = _slowdown_rows("hmmer", "bodytrack")
        by_name = {r.workload: r for r in rows}
        assert by_name["bodytrack"].nzdc is None      # fails to compile
        assert by_name["hmmer"].nzdc > 1.3
        assert all(r.lockstep == 1.0 for r in rows)
        assert all(1.0 <= r.flexstep < 1.06 for r in rows)
        geo = geomean_row(rows)
        assert geo.nzdc > 1.0

    def test_scheme_ordering_matches_fig4(self):
        """LockStep ≤ FlexStep ≪ Nzdc for every compilable workload."""
        rows = _slowdown_rows("streamcluster")
        row = rows[0]
        assert row.lockstep <= row.flexstep < row.nzdc


class TestLatency:
    @pytest.fixture(scope="class")
    def result(self):
        return _latency("x264", 40_000)

    def test_everything_detected(self, result):
        assert result.injected >= 3
        assert result.detection_rate == 1.0

    def test_latency_scale_microseconds(self, result):
        """Paper Fig. 7: latencies in the tens of µs, under ~120 µs."""
        assert result.latencies_us
        assert 1.0 <= result.mean_us <= 60.0
        assert result.max_us <= 120.0

    def test_histogram_covers_samples(self, result):
        hist = result.histogram()
        assert hist.total == len(result.latencies_us)

    def test_dedicated_checker_is_faster(self):
        """Ablation: no service pause + tiny spill → sub-µs latency."""
        tight = _latency("x264", 30_000, service_pause_cycles=0,
                         dma_spill_entries=0)
        assert tight.latencies_us
        assert tight.mean_us < 2.0


class TestPowerArea:
    def test_table3_reproduced(self):
        point = PowerAreaModel().table3()
        assert point.vanilla_area_mm2 == pytest.approx(2.71, abs=0.01)
        assert point.flexstep_area_mm2 == pytest.approx(2.77, abs=0.01)
        assert point.vanilla_power_w == pytest.approx(0.485, abs=0.005)
        assert point.flexstep_power_w == pytest.approx(0.499, abs=0.005)
        # paper: 2.21% area, 2.89% power overhead
        assert 100 * point.area_overhead == pytest.approx(2.21, abs=0.15)
        assert 100 * point.power_overhead == pytest.approx(2.89, abs=0.15)

    def test_storage_budget_1614_bytes(self):
        assert PowerAreaModel().storage_bytes_per_core == 1614

    def test_fig8_sweep_monotone(self):
        points = scalability_sweep()
        assert [p.cores for p in points] == [2, 4, 8, 16, 32]
        for a, b in zip(points, points[1:]):
            assert b.vanilla_area_mm2 > a.vanilla_area_mm2
            assert b.flexstep_power_w > a.flexstep_power_w
            assert b.flexstep_area_mm2 > b.vanilla_area_mm2

    def test_near_linear_scaling(self):
        points = scalability_sweep()
        assert is_nearly_linear(points, attr="flexstep_area_mm2")
        assert is_nearly_linear(points, attr="flexstep_power_w")

    def test_fig8_anchor_points(self):
        """Fig. 8 axis anchors: ~2.0 mm²/0.3 W at 2 cores, ~12 mm²/
        ~3.3 W at 32 cores (vanilla)."""
        points = {p.cores: p for p in scalability_sweep()}
        assert points[2].vanilla_area_mm2 == pytest.approx(2.0, abs=0.1)
        assert points[2].vanilla_power_w == pytest.approx(0.30, abs=0.02)
        assert 11.0 <= points[32].vanilla_area_mm2 <= 13.5
        assert 2.9 <= points[32].vanilla_power_w <= 3.4

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            PowerAreaModel().point(0)


class TestReporting:
    def test_fig4_format(self):
        rows = _slowdown_rows("hmmer")
        text = format_fig4(rows, "Fig. 4(b)")
        assert "hmmer" in text and "FlexStep" in text

    def test_fig4_handles_missing_nzdc(self):
        rows = _slowdown_rows("ferret")
        assert "n/a" in format_fig4(rows, "x")

    def test_fig6_format(self):
        rows = _mode_rows("swaptions")
        text = format_fig6(rows)
        assert "dual-core" in text and "swaptions" in text

    def test_fig7_formats(self):
        res = _latency("swaptions", 25_000)
        summary = format_fig7([res])
        assert "swaptions" in summary
        density = format_fig7_density(res)
        assert "#" in density

    def test_fig8_and_table3_format(self):
        points = scalability_sweep()
        assert "32" in format_fig8(points)
        text = format_table3(PowerAreaModel().table3())
        assert "2.21%" in text and "2.8" in text

    def test_table2_format(self):
        text = format_table2()
        assert "1.6GHz" in text
        assert "512 KB" in text
        assert "16 KB" in text
