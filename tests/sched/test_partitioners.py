"""Tests for the three partitioning schemes (Al. 3, LockStep, HMR)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitioningError
from repro.sched import (
    RTTask,
    TaskClass,
    TaskSet,
    generate_task_set,
    partition_flexstep,
    partition_hmr,
    partition_lockstep,
)
from repro.sched.result import Role


def t(c, p, cls=TaskClass.TN, tid=0):
    return RTTask(task_id=tid, wcet=c, period=p, cls=cls)


def cores_of(res, task_id):
    """Where each computation of ``task_id`` landed."""
    return {a.role: a.core for a in res.assignments
            if a.task.task_id == task_id}


def small_mixed_set():
    return TaskSet([
        t(2, 10, TaskClass.TV2, 0),
        t(1, 10, TaskClass.TV3, 1),
        t(3, 10, TaskClass.TN, 2),
        t(1, 20, TaskClass.TN, 3),
    ])


class TestFlexStepPartition:
    def test_accepts_light_set(self):
        res = partition_flexstep(small_mixed_set(), 8)
        assert res.success
        assert res.validate_disjoint_copies()

    def test_copies_on_distinct_cores(self):
        res = partition_flexstep(small_mixed_set(), 8)
        v3 = cores_of(res, 1)
        assert len({v3[Role.ORIGINAL], v3[Role.CHECK],
                    v3[Role.CHECK2]}) == 3

    def test_loads_consistent_with_assignments(self):
        res = partition_flexstep(small_mixed_set(), 4)
        for k in range(4):
            expected = sum(a.load for a in res.core_assignments(k))
            assert res.loads[k] == pytest.approx(expected)

    def test_too_few_cores_for_v3(self):
        res = partition_flexstep(small_mixed_set(), 2)
        assert not res.success
        assert "3 distinct cores" in res.reason

    def test_overload_rejected(self):
        heavy = TaskSet([t(9, 10, TaskClass.TV2, i) for i in range(4)])
        res = partition_flexstep(heavy, 4, mode="strict")
        assert not res.success

    def test_strict_mode_uses_virtual_deadlines(self):
        ts = TaskSet([t(3, 10, TaskClass.TV2, 0)])
        res = partition_flexstep(ts, 2, mode="strict")
        # δo = 3/5 = 0.6 on one core, δv = 0.6 on the other
        assert sorted(round(x, 6) for x in res.loads) == [0.6, 0.6]

    def test_relaxed_mode_uses_utilization(self):
        ts = TaskSet([t(3, 10, TaskClass.TV2, 0)])
        res = partition_flexstep(ts, 2, mode="relaxed")
        assert sorted(round(x, 6) for x in res.loads) == [0.3, 0.3]

    def test_auto_falls_back(self):
        # strict fails (density 1.6 per copy) but relaxed fits
        ts = TaskSet([t(8, 10, TaskClass.TV2, 0)])
        strict = partition_flexstep(ts, 2, mode="strict")
        auto = partition_flexstep(ts, 2, mode="auto")
        assert not strict.success
        assert auto.success
        assert auto.meta.get("fallback") is True

    def test_bad_mode_rejected(self):
        with pytest.raises(PartitioningError):
            partition_flexstep(small_mixed_set(), 4, mode="bogus")

    def test_zero_cores_rejected(self):
        with pytest.raises(PartitioningError):
            partition_flexstep(small_mixed_set(), 0)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_success_implies_no_core_over_one(self, seed):
        ts = generate_task_set(40, 3.0, alpha=0.2, beta=0.1,
                               rng=random.Random(seed))
        res = partition_flexstep(ts, 8)
        if res.success:
            assert all(load <= 1.0 + 1e-9 for load in res.loads)
            assert res.validate_disjoint_copies()

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_every_task_placed_on_success(self, seed):
        ts = generate_task_set(30, 2.0, alpha=0.2, beta=0.2,
                               rng=random.Random(seed))
        res = partition_flexstep(ts, 8)
        if res.success:
            for task in ts:
                roles = cores_of(res, task.task_id)
                assert len(roles) == 1 + task.cls.copies


class TestLockStepPartition:
    def test_fabric_reserves_checkers(self):
        ts = TaskSet([t(1, 10, TaskClass.TV2, 0),
                      t(1, 10, TaskClass.TN, 1)])
        res = partition_lockstep(ts, 8)
        assert res.success
        # at most half the fabric is schedulable capacity
        assert res.meta["mains"] <= 4

    def test_v3_gets_tcls_group(self):
        ts = TaskSet([t(1, 10, TaskClass.TV3, 0)])
        res = partition_lockstep(ts, 8)
        assert res.success
        groups = dict(res.meta["groups"])
        v3_core = cores_of(res, 0)[Role.ORIGINAL]
        assert groups[v3_core] == 2        # two checkers

    def test_capacity_half_for_tn_only(self):
        # all-TN workload on a lockstep fabric: capacity m/2
        ts = TaskSet([t(4, 10, TaskClass.TN, i) for i in range(8)])
        assert not partition_lockstep(ts, 4).success   # 3.2 > 2 mains
        assert partition_lockstep(ts, 8).success       # 3.2 <= 4 mains

    def test_insufficient_cores_for_group(self):
        ts = TaskSet([t(1, 10, TaskClass.TV3, 0)])
        res = partition_lockstep(ts, 2)
        assert not res.success

    def test_group_reuse_until_full(self):
        ts = TaskSet([t(3, 10, TaskClass.TV2, i) for i in range(3)])
        res = partition_lockstep(ts, 8)
        assert res.success
        # 3 * 0.3 fits one DCLS group
        v2_mains = {cores_of(res, i)[Role.ORIGINAL] for i in range(3)}
        assert len(v2_mains) == 1

    def test_empty_set_trivially_schedulable(self):
        assert partition_lockstep(TaskSet([]), 2).success

    def test_zero_cores_rejected(self):
        with pytest.raises(PartitioningError):
            partition_lockstep(TaskSet([]), 0)


class TestHmrPartition:
    def test_verification_couples_cores(self):
        ts = TaskSet([t(2, 10, TaskClass.TV2, 0)])
        res = partition_hmr(ts, 4)
        assert res.success
        cores = cores_of(res, 0)
        assert cores[Role.ORIGINAL] != cores[Role.CHECK]
        # utilisation lands on both coupled cores
        assert sum(1 for load in res.loads if load > 0) == 2

    def test_v3_couples_three_cores(self):
        ts = TaskSet([t(1, 10, TaskClass.TV3, 0)])
        res = partition_hmr(ts, 4)
        assert len(cores_of(res, 0)) == 3

    def test_tn_prefers_clean_cores(self):
        ts = TaskSet([t(2, 10, TaskClass.TV2, 0),
                      t(1, 10, TaskClass.TN, 1)])
        res = partition_hmr(ts, 4)
        verif_cores = set(cores_of(res, 0).values())
        assert cores_of(res, 1)[Role.ORIGINAL] not in verif_cores

    def test_blocking_fails_short_deadline_tn(self):
        # long non-preemptable verification + short-deadline TN sharing
        # every core: blocked beyond capacity
        ts = TaskSet([
            t(30, 100, TaskClass.TV2, 0),
            t(30, 100, TaskClass.TV2, 1),
            t(1, 4, TaskClass.TN, 2),
        ])
        res = partition_hmr(ts, 2)
        assert not res.success
        assert "blocking" in res.reason

    def test_same_set_fits_flexstep(self):
        """The blocking scenario above is fine under FlexStep, whose
        verification is preemptable (the paper's central claim)."""
        ts = TaskSet([
            t(30, 100, TaskClass.TV2, 0),
            t(30, 100, TaskClass.TV2, 1),
            t(1, 4, TaskClass.TN, 2),
        ])
        assert partition_flexstep(ts, 2).success

    def test_too_few_cores(self):
        ts = TaskSet([t(1, 10, TaskClass.TV3, 0)])
        assert not partition_hmr(ts, 2).success

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_success_bounds_loads(self, seed):
        ts = generate_task_set(40, 3.0, alpha=0.2, beta=0.1,
                               rng=random.Random(seed))
        res = partition_hmr(ts, 8)
        if res.success:
            assert all(load <= 1.0 + 1e-9 for load in res.loads)
