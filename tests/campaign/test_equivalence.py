"""Workers=1 vs workers=N equivalence over real figure campaigns.

The tentpole guarantee: fanning a sweep across a multiprocessing pool
(or replaying it from the on-disk cache) changes wall-clock only —
never a single bit of the results.
"""

import pytest

from repro.campaign import run_campaign, run_grouped_campaign
from repro.scenarios import Scenario, SchedGrid, run_scenario
from repro.scenarios.report import _latency_results
from repro.sched import FIG5_CONFIGS
from repro.sched.experiments import _fig5_batch_specs, _fig5_batch_unit
from repro.workloads import PARSEC

#: Shrunken Fig. 5 grid: small task sets keep one unit ~1 ms.
GRID = SchedGrid(m=4, n=24, alpha=0.25, beta=0.125,
                 utilizations=(0.45, 0.65, 0.85), sets_per_point=8)
FIG5 = Scenario(name="fig5-small", kind="sched", seed=424242, sched=GRID)
SCHEMES = ("lockstep", "hmr", "flexstep")


def _curve(workers, cache=None):
    return run_scenario(FIG5, workers=workers, cache=cache).payload


class TestFig5Equivalence:
    def test_workers_1_vs_4_bit_identical(self):
        assert _curve(1) == _curve(4)

    def test_cache_hit_runs_zero_units(self, tmp_path):
        first = _curve(2, cache=tmp_path)
        # every unit digest is now on disk: a second sweep is pure replay
        specs = _fig5_batch_specs(
            m=GRID.m, n=GRID.n, alpha=GRID.alpha, beta=GRID.beta,
            utilizations=GRID.utilizations,
            sets_per_point=GRID.sets_per_point, seed=FIG5.seed,
            schemes=GRID.schemes)
        replay = run_campaign(_fig5_batch_unit, specs, seed=FIG5.seed,
                              cache=tmp_path)
        assert replay.stats.computed == 0
        assert replay.stats.cached == len(specs)
        assert _curve(1, cache=tmp_path) == first

    def test_batch_size_never_moves_results(self):
        """Task-set identity derives from per-set spawn seeds, so the
        unit batching is pure execution shape."""
        for x in GRID.utilizations:
            whole = {"m": GRID.m, "n": GRID.n, "alpha": GRID.alpha,
                     "beta": GRID.beta, "x": x, "set_start": 0,
                     "set_count": 8, "seed": FIG5.seed,
                     "schemes": list(SCHEMES)}
            chopped = []
            for start, count in ((0, 3), (3, 3), (6, 2)):
                chopped += _fig5_batch_unit(
                    {**whole, "set_start": start, "set_count": count}, 0)
            assert _fig5_batch_unit(whole, 0) == chopped

    def test_campaign_grid_matches_per_config_curves(self):
        """One grouped campaign over two configs == a separate campaign
        per config: flattening must not re-key seeds."""
        groups = {
            key: _fig5_batch_specs(
                **FIG5_CONFIGS[key], utilizations=(0.55,),
                sets_per_point=6, seed=77, schemes=SCHEMES)
            for key in ("a", "f")
        }
        grouped, _stats = run_grouped_campaign(
            _fig5_batch_unit, groups, seed=77, workers=2, cache=None)
        for key, specs in groups.items():
            alone = run_campaign(_fig5_batch_unit, specs, seed=77,
                                 cache=None)
            assert grouped[key] == alone.results


class TestFig7Equivalence:
    @pytest.fixture(scope="class")
    def suites(self):
        scenario = Scenario(
            name="fig7-small", kind="latency",
            workloads=tuple(p.name for p in PARSEC[:2]),
            target_instructions=20_000, repeats=2)
        serial = run_scenario(scenario, workers=1, cache=None)
        parallel = run_scenario(scenario, workers=4, cache=None)
        return serial.payload["workloads"], parallel.payload["workloads"]

    def test_same_curves(self, suites):
        serial, parallel = suites
        assert all(w["injected"] > 0 for w in serial)
        assert serial == parallel

    def test_same_latency_histogram(self, suites):
        serial, parallel = suites
        for a, b in zip(_latency_results({"workloads": serial}),
                        _latency_results({"workloads": parallel})):
            assert a.histogram().counts == b.histogram().counts

    def test_cached_replay_identical(self, tmp_path):
        scenario = Scenario(name="fig7-replay", kind="latency",
                            workloads=(PARSEC[0].name,),
                            target_instructions=20_000)
        fresh = run_scenario(scenario, workers=1, cache=tmp_path)
        replay = run_scenario(scenario, workers=1, cache=tmp_path)
        assert replay.stats.computed == 0
        assert fresh.payload["workloads"] == replay.payload["workloads"]
