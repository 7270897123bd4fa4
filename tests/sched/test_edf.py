"""Demand-bound-function / QPA exact EDF test coverage."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError
from repro.sched.edf import (
    DemandTask,
    demand_tasks_for_core,
    qpa_judge_partition,
    qpa_schedulable,
    total_dbf,
)
from repro.sched import generate_task_set, partition_flexstep, \
    simulate_partition


class TestDbf:
    def test_zero_before_first_deadline(self):
        t = DemandTask(wcet=2, deadline=5, period=10)
        assert t.dbf(4.9) == 0.0

    def test_steps_at_deadlines(self):
        t = DemandTask(wcet=2, deadline=5, period=10)
        assert t.dbf(5) == 2
        assert t.dbf(14.9) == 2
        assert t.dbf(15) == 4

    def test_implicit_deadline_counts_periods(self):
        t = DemandTask(wcet=1, deadline=10, period=10)
        assert t.dbf(100) == 10

    def test_total_dbf_additive(self):
        a = DemandTask(wcet=1, deadline=4, period=4)
        b = DemandTask(wcet=2, deadline=8, period=8)
        assert total_dbf([a, b], 8) == 2 * 1 + 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(AnalysisError):
            DemandTask(wcet=0, deadline=1, period=1)
        with pytest.raises(AnalysisError):
            DemandTask(wcet=3, deadline=2, period=5)


class TestDbfFloatBoundary:
    """``t`` landing exactly on a deadline multiple must count the job.

    ``(t - D) / T`` can fall one ulp short of an integer for decimal
    parameters (``(0.3 - 0.1) / 0.1 == 1.9999999999999998``), silently
    dropping a whole job from the demand bound.  The job count is
    epsilon-robust so the scalar and the vectorized backends — which
    reach the same mathematical ``t`` through different float paths
    (sequential addition vs. cumulative sums) — can never disagree on
    demand at a step point.
    """

    def test_decimal_boundary_counts_the_job(self):
        t = DemandTask(wcet=0.05, deadline=0.1, period=0.1)
        # deadlines intended at 0.1, 0.2, 0.3: three jobs due by t=0.3
        assert t.dbf(0.3) == pytest.approx(0.15)

    def test_boundary_agrees_with_sequential_enumeration(self):
        """Demand at the literal ``0.3`` equals demand at the same
        deadline reached by the enumeration path's repeated addition
        (``0.1 + 0.1 + 0.1 == 0.30000000000000004``)."""
        t = DemandTask(wcet=0.05, deadline=0.1, period=0.1)
        enumerated = 0.1 + 0.1 + 0.1
        assert t.dbf(0.3) == t.dbf(enumerated)

    def test_integer_grid_matches_exact_arithmetic(self):
        """Tasks on a 0.1 grid: job counts at every grid point must
        match the exact integer-arithmetic oracle."""
        rng = random.Random(20250726)
        for _ in range(200):
            d_ticks = rng.randint(1, 30)
            t_ticks = rng.randint(d_ticks, 40)
            task = DemandTask(wcet=0.01, deadline=d_ticks * 0.1,
                              period=t_ticks * 0.1)
            for at_ticks in range(0, 200, 7):
                expected = 0 if at_ticks < d_ticks else \
                    (at_ticks - d_ticks) // t_ticks + 1
                assert task.dbf(at_ticks * 0.1) \
                    == pytest.approx(expected * 0.01), \
                    (d_ticks, t_ticks, at_ticks)

    def test_epsilon_does_not_overcount_interior_points(self):
        t = DemandTask(wcet=2.0, deadline=5.0, period=10.0)
        assert t.dbf(14.9) == 2.0
        assert t.dbf(14.999999) == 2.0
        assert t.dbf(15.0) == 4.0


class TestQpa:
    def test_empty_schedulable(self):
        assert qpa_schedulable([])

    def test_full_utilization_implicit_deadlines(self):
        tasks = [DemandTask(wcet=5, deadline=10, period=10),
                 DemandTask(wcet=5, deadline=10, period=10)]
        assert qpa_schedulable(tasks)

    def test_over_utilization_rejected(self):
        tasks = [DemandTask(wcet=6, deadline=10, period=10),
                 DemandTask(wcet=5, deadline=10, period=10)]
        assert not qpa_schedulable(tasks)

    def test_constrained_deadlines_catch_density_false_negative(self):
        """U < 1 but constrained deadlines overload a short window."""
        tasks = [DemandTask(wcet=4, deadline=5, period=100),
                 DemandTask(wcet=2, deadline=5, period=100)]
        assert not qpa_schedulable(tasks)   # 6 units due within 5

    def test_exact_beats_density(self):
        """A set the density test rejects but QPA accepts."""
        tasks = [DemandTask(wcet=4, deadline=5, period=20),
                 DemandTask(wcet=4, deadline=9, period=20)]
        density = sum(t.wcet / min(t.deadline, t.period) for t in tasks)
        assert density > 1.0
        assert qpa_schedulable(tasks)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_qpa_consistent_with_simulation(self, seed):
        """QPA acceptance of a FlexStep strict partition implies a
        miss-free schedule simulation (synchronous releases)."""
        ts = generate_task_set(8, 1.6, alpha=0.25, beta=0.0,
                               period_range=(8.0, 64.0),
                               rng=random.Random(seed))
        res = partition_flexstep(ts, 4, mode="strict")
        if not res.success:
            return
        try:
            assert qpa_judge_partition(res)  # density ⊆ QPA
        except AnalysisError:
            return  # pathological busy-period bound: skip this draw
        outcome = simulate_partition(res, ts, horizon=150.0,
                                     release_checks="virtual")
        assert outcome.schedulable

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_density_test_is_subset_of_qpa(self, seed):
        """Any core the density test accepts, QPA accepts too."""
        rng = random.Random(seed)
        tasks = []
        load = 0.0
        while True:
            period = rng.uniform(5, 100)
            deadline = rng.uniform(period / 2, period)
            wcet = rng.uniform(0.05, 0.4) * deadline
            density = wcet / deadline
            if load + density > 0.85:
                break
            load += density
            tasks.append(DemandTask(wcet=wcet, deadline=deadline,
                                    period=period))
            if len(tasks) >= 8:
                break
        if tasks:
            assert qpa_schedulable(tasks)


def _deadlines_reference(tasks, limit, max_points=200_000):
    """The seed repo's set-based step-point enumeration, kept verbatim
    as the behavioural reference for the optimised implementation."""
    points = set()
    for task in tasks:
        d = task.deadline
        while d <= limit + 1e-12:
            points.add(d)
            if len(points) > max_points:
                raise AnalysisError("too many points")
            d += task.period
    return sorted(points)


def _random_demand_tasks(seed):
    rng = random.Random(seed)
    tasks = []
    for _ in range(rng.randint(2, 10)):
        period = rng.uniform(4.0, 60.0)
        deadline = rng.uniform(period * 0.4, period)
        wcet = rng.uniform(0.05, 0.5) * deadline
        tasks.append(DemandTask(wcet=wcet, deadline=deadline,
                                period=period))
    return tasks


class TestDeadlinePointEnumeration:
    """The optimised ``_deadlines_up_to`` (sort once + single dedupe
    pass instead of per-insert set hashing) must emit exactly the seed
    repo's points, so QPA verdicts cannot move."""

    def test_points_match_reference_on_corpus(self):
        from repro.sched.edf import _deadlines_up_to
        for seed in range(60):
            tasks = _random_demand_tasks(seed)
            limit = max(t.deadline for t in tasks) * 7.5
            assert _deadlines_up_to(tasks, limit) \
                == _deadlines_reference(tasks, limit), seed

    def test_duplicate_deadlines_collapse(self):
        from repro.sched.edf import _deadlines_up_to
        tasks = [DemandTask(wcet=1, deadline=5, period=10),
                 DemandTask(wcet=2, deadline=5, period=10),
                 DemandTask(wcet=1, deadline=5, period=5)]
        points = _deadlines_up_to(tasks, 30.0)
        assert points == sorted(set(points))
        assert points == _deadlines_reference(tasks, 30.0)

    def test_verdicts_unchanged_on_fixed_corpus(self, monkeypatch):
        """QPA accept/reject over a fixed seed corpus: identical with
        the optimised and the seed enumeration wired in."""
        import repro.sched.edf as edf_mod
        verdicts = []
        for seed in range(40):
            tasks = _random_demand_tasks(seed)
            try:
                verdicts.append(qpa_schedulable(tasks))
            except AnalysisError:
                verdicts.append(None)
        # the corpus must exercise both outcomes to mean anything
        assert True in verdicts and False in verdicts
        monkeypatch.setattr(
            edf_mod, "_deadlines_up_to",
            lambda tasks, limit, max_points=200_000:
            _deadlines_reference(tasks, limit, max_points))
        for seed, expected in zip(range(40), verdicts):
            tasks = _random_demand_tasks(seed)
            try:
                again = qpa_schedulable(tasks)
            except AnalysisError:
                again = None
            assert again == expected, seed

    def test_pathological_enumeration_still_raises(self):
        from repro.sched.edf import _deadlines_up_to
        tasks = [DemandTask(wcet=0.1, deadline=1.0, period=1.0)]
        with pytest.raises(AnalysisError):
            _deadlines_up_to(tasks, 1e9, max_points=1000)

    def test_duplicate_heavy_sets_count_distinct_points(self):
        """Ten aligned tasks emit 10× raw points but few distinct ones:
        the cap must bound *distinct* points (seed semantics), so this
        succeeds even though raw appends exceed max_points."""
        from repro.sched.edf import _deadlines_up_to
        tasks = [DemandTask(wcet=0.05, deadline=1.0, period=1.0)
                 for _ in range(10)]
        points = _deadlines_up_to(tasks, 3000.0, max_points=5000)
        assert points == _deadlines_reference(tasks, 3000.0,
                                              max_points=5000)
        assert len(points) == 3000


class TestPartitionBridge:
    def test_flexstep_virtual_windows_used(self):
        ts = generate_task_set(10, 1.0, alpha=0.3, beta=0.0,
                               rng=random.Random(1))
        res = partition_flexstep(ts, 4, mode="strict")
        for core in range(4):
            demands = demand_tasks_for_core(res, core)
            placed = res.core_assignments(core)
            assert len(demands) == len(placed)
            for demand, assign in zip(demands, placed):
                if assign.task.is_verification:
                    assert demand.deadline < assign.task.deadline
