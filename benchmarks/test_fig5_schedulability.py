"""Fig. 5 — percentage of schedulable task sets for LockStep, HMR and
FlexStep across the paper's six (m, n, α, β) configurations.

Shape assertions:

* FlexStep dominates HMR dominates LockStep (utilisation-weighted).
* LockStep collapses sharply near x = 0.5 (statically halved fabric);
  FlexStep and HMR decline gradually.
* More triple-check tasks (c vs b) degrade every scheme.
* FlexStep's margin grows when fewer tasks need verification (a vs c).
"""

import pytest

from repro.scenarios import Scenario, SchedGrid, run_scenario
from repro.scenarios.report import _sched_points
from repro.sched import FIG5_CONFIGS
from repro.sched.experiments import render_curves, \
    weighted_schedulability

UTILS = (0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)


def run_config(key, sets_per_point):
    grid = SchedGrid(**FIG5_CONFIGS[key], utilizations=UTILS,
                     sets_per_point=sets_per_point)
    result = run_scenario(Scenario(name=f"fig5-{key}", kind="sched",
                                   seed=2025, sched=grid))
    return _sched_points(result.payload)


@pytest.mark.parametrize("key", list("abcdef"))
def test_fig5_config(key, benchmark, bench_sets_per_point):
    points = benchmark.pedantic(
        lambda: run_config(key, bench_sets_per_point),
        rounds=1, iterations=1)
    cfg = FIG5_CONFIGS[key]
    print(f"\nFig. 5({key}): m={cfg['m']}, n={cfg['n']}, "
          f"alpha={cfg['alpha']:.4f}, beta={cfg['beta']:.4f}")
    print(render_curves(points))
    flex = weighted_schedulability(points, "flexstep")
    hmr = weighted_schedulability(points, "hmr")
    lock = weighted_schedulability(points, "lockstep")
    assert flex + 1e-9 >= hmr >= lock - 0.02, (flex, hmr, lock)
    assert flex > lock


def test_lockstep_sharp_drop(benchmark, bench_sets_per_point):
    points = {p.utilization: p
              for p in benchmark.pedantic(
                  lambda: run_config("a", bench_sets_per_point),
                  rounds=1, iterations=1)}
    assert points[0.45].ratios["lockstep"] >= 0.8
    assert points[0.55].ratios["lockstep"] <= 0.2     # cliff at ~0.5
    assert points[0.55].ratios["flexstep"] >= 0.9     # still near 100%


def test_triple_checks_increase_pressure(benchmark,
                                         bench_sets_per_point):
    """Fig. 5(b) vs (d): β = 12.5 % vs β = 0 at matched α+β demand."""
    b, d = benchmark.pedantic(
        lambda: (run_config("b", bench_sets_per_point),
                 run_config("d", bench_sets_per_point)),
        rounds=1, iterations=1)
    flex_b = weighted_schedulability(b, "flexstep")
    flex_d = weighted_schedulability(d, "flexstep")
    assert flex_b <= flex_d + 0.05


def test_fewer_verification_tasks_widen_margin(benchmark,
                                               bench_sets_per_point):
    a, c = benchmark.pedantic(
        lambda: (run_config("a", bench_sets_per_point),
                 run_config("c", bench_sets_per_point)),
        rounds=1, iterations=1)
    assert weighted_schedulability(a, "flexstep") \
        > weighted_schedulability(c, "flexstep")
