"""Fig. 5 experiment driver tests, including the paper's ordering
claims as statistical properties."""

import random

import pytest

from repro.scenarios import Scenario, SchedGrid, run_scenario
from repro.scenarios.report import _sched_points
from repro.sched import FIG5_CONFIGS, task_set_seed
from repro.sched.experiments import (
    SCHEMES,
    _fig5_batch_unit,
    render_curves,
    weighted_schedulability,
)
from repro.sched.uunifast import generate_task_set, seeded_rng


def _curve(seed, cache="auto", **grid):
    scenario = Scenario(name="fig5", kind="sched", seed=seed,
                        sched=SchedGrid(**grid))
    return _sched_points(run_scenario(scenario, cache=cache).payload)


@pytest.fixture(scope="module")
def curve_a():
    return _curve(99, **FIG5_CONFIGS["a"],
                  utilizations=(0.35, 0.45, 0.55, 0.65, 0.75, 0.85),
                  sets_per_point=30)


class TestCurveDriver:
    def test_configs_match_paper(self):
        assert set(FIG5_CONFIGS) == set("abcdef")
        assert FIG5_CONFIGS["e"]["m"] == 16
        assert FIG5_CONFIGS["f"]["n"] == 80
        assert FIG5_CONFIGS["d"]["beta"] == 0.0

    def test_ratios_are_probabilities(self, curve_a):
        for p in curve_a:
            for ratio in p.ratios.values():
                assert 0.0 <= ratio <= 1.0

    def test_x_axis_preserved(self, curve_a):
        assert [p.utilization for p in curve_a] \
            == [0.35, 0.45, 0.55, 0.65, 0.75, 0.85]

    def test_monotone_decline(self, curve_a):
        """Acceptance can only fall (statistically) as load grows."""
        for scheme in ("lockstep", "hmr", "flexstep"):
            ratios = [p.ratios[scheme] for p in curve_a]
            # allow small sampling noise
            for lo, hi in zip(ratios[1:], ratios):
                assert lo <= hi + 0.15

    def test_paper_ordering_flexstep_dominates(self, curve_a):
        """Fig. 5's headline: FlexStep ≥ HMR ≥ LockStep (weighted)."""
        flex = weighted_schedulability(curve_a, "flexstep")
        hmr = weighted_schedulability(curve_a, "hmr")
        lock = weighted_schedulability(curve_a, "lockstep")
        assert flex >= hmr >= lock
        assert flex > lock  # strictly better overall

    def test_lockstep_sharp_drop(self, curve_a):
        """LockStep's statically reserved checkers halve capacity: it
        collapses around x = 0.5 while FlexStep is still near 100%."""
        at = {p.utilization: p for p in curve_a}
        assert at[0.55].ratios["lockstep"] <= 0.2
        assert at[0.55].ratios["flexstep"] >= 0.8

    def test_everyone_accepts_light_load(self, curve_a):
        for scheme in ("lockstep", "hmr", "flexstep"):
            assert curve_a[0].ratios[scheme] >= 0.9

    def test_render_contains_all_schemes(self, curve_a):
        text = render_curves(curve_a)
        for token in ("lockstep", "hmr", "flexstep", "0.35"):
            assert token in text


class TestSpawnKeyDeterminism:
    """Satellite: one spawn-key seeding scheme shared by the serial
    path, the campaign layer and any external reproduction."""

    SPEC = {"m": 4, "n": 16, "alpha": 0.25, "beta": 0.0, "x": 0.6,
            "set_start": 3, "set_count": 1, "seed": 314,
            "schemes": ["lockstep", "flexstep"]}

    def test_task_set_reproducible_from_spawn_key(self):
        """The exact task set a campaign unit judges can be rebuilt from
        ``task_set_seed`` alone — no campaign machinery required."""
        [verdicts] = _fig5_batch_unit(self.SPEC, rng_seed=0)
        s = self.SPEC
        rebuilt = generate_task_set(
            s["n"], s["x"] * s["m"], alpha=s["alpha"], beta=s["beta"],
            rng=random.Random(task_set_seed(
                s["seed"], s["m"], s["n"], s["alpha"], s["beta"],
                s["x"], s["set_start"])))
        assert verdicts == {
            scheme: SCHEMES[scheme](rebuilt, s["m"]).success
            for scheme in s["schemes"]}

    def test_scheme_subset_judges_identical_task_sets(self):
        """Task-set identity derives from generation parameters only:
        judging with fewer schemes must not change the sets."""
        [all_schemes] = _fig5_batch_unit(self.SPEC, rng_seed=0)
        [subset] = _fig5_batch_unit(
            {**self.SPEC, "schemes": ["flexstep"]}, rng_seed=0)
        assert subset["flexstep"] == all_schemes["flexstep"]

    def test_seeded_rng_matches_fresh_random(self):
        stream = seeded_rng(98765)
        fresh = random.Random(98765)
        assert [stream.random() for _ in range(20)] \
            == [fresh.random() for _ in range(20)]

    def test_curve_is_deterministic_across_calls(self):
        kwargs = dict(m=4, n=16, alpha=0.25, beta=0.0,
                      utilizations=(0.5, 0.7), sets_per_point=10,
                      seed=17, cache=None)
        a = _curve(**kwargs)
        b = _curve(**kwargs)
        assert [(p.utilization, p.ratios) for p in a] \
            == [(p.utilization, p.ratios) for p in b]

    def test_sets_independent_of_point_count(self):
        """Set i at utilisation x is the same task set whether the sweep
        has 1 point or 13 — spawn keys, not shared RNG streams."""
        wide = _curve(
            m=4, n=16, alpha=0.25, beta=0.0,
            utilizations=(0.5, 0.6, 0.7), sets_per_point=8, seed=21,
            cache=None)
        narrow = _curve(
            m=4, n=16, alpha=0.25, beta=0.0, utilizations=(0.6,),
            sets_per_point=8, seed=21, cache=None)
        wide_at = {p.utilization: p.ratios for p in wide}
        assert wide_at[0.6] == narrow[0].ratios


class TestTripleCheckPressure:
    def test_beta_degrades_everyone(self):
        """Fig. 5(b) vs 5(d): adding triple-check tasks increases
        demand and lowers acceptance at the same utilisation."""
        common = dict(m=8, n=64, sets_per_point=25, seed=5,
                      utilizations=(0.55, 0.65))
        with_v3 = _curve(alpha=0.125, beta=0.125, **common)
        without = _curve(alpha=0.25, beta=0.0, **common)
        for scheme in ("flexstep", "hmr"):
            total_with = sum(p.ratios[scheme] for p in with_v3)
            total_without = sum(p.ratios[scheme] for p in without)
            assert total_with <= total_without + 0.1

    def test_fewer_verification_tasks_help_flexstep(self):
        """Fig. 5(a) vs 5(c): FlexStep's acceptance at a fixed x grows
        when fewer tasks need verification."""
        common = dict(m=8, n=64, sets_per_point=25, seed=6,
                      utilizations=(0.65,))
        few = _curve(alpha=0.0625, beta=0.0625, **common)
        many = _curve(alpha=0.25, beta=0.25, **common)
        assert few[0].ratios["flexstep"] >= many[0].ratios["flexstep"]
