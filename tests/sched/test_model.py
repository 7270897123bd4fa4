"""Task-model tests: virtual deadlines, densities, class semantics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import TaskModelError
from repro.sched import (
    OPT_V2_FACTOR,
    OPT_V3_FACTOR,
    RTTask,
    TaskClass,
    TaskSet,
)


def task(c, t, cls=TaskClass.TN, tid=0):
    return RTTask(task_id=tid, wcet=c, period=t, cls=cls)


def total_density(t):
    """δo + copies · δv — FlexStep's worst-case provisioning."""
    return t.density_original + t.cls.copies * t.density_check


class TestRTTask:
    def test_implicit_deadline(self):
        assert task(1, 10).deadline == 10

    def test_utilization(self):
        assert task(2, 10).utilization == pytest.approx(0.2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TaskModelError):
            task(0, 10)
        with pytest.raises(TaskModelError):
            task(1, 0)
        with pytest.raises(TaskModelError):
            task(11, 10)   # C > D

    def test_copies_per_class(self):
        assert TaskClass.TN.copies == 0
        assert TaskClass.TV2.copies == 1
        assert TaskClass.TV3.copies == 2

    def test_with_class(self):
        t = task(1, 10).with_class(TaskClass.TV2)
        assert t.cls is TaskClass.TV2
        assert t.is_verification


class TestVirtualDeadlines:
    def test_v2_half(self):
        t = task(1, 10, TaskClass.TV2)
        assert t.virtual_deadline == pytest.approx(5.0)

    def test_v3_sqrt2_minus_1(self):
        t = task(1, 10, TaskClass.TV3)
        assert t.virtual_deadline == pytest.approx(
            (math.sqrt(2) - 1) * 10)

    def test_tn_keeps_full_deadline(self):
        assert task(1, 10).virtual_deadline == 10

    def test_v2_densities(self):
        t = task(1, 10, TaskClass.TV2)
        assert t.density_original == pytest.approx(0.2)   # C/(D/2)
        assert t.density_check == pytest.approx(0.2)
        assert total_density(t) == pytest.approx(0.4)     # 4u

    def test_v3_densities(self):
        t = task(1, 10, TaskClass.TV3)
        u = 0.1
        assert total_density(t) == pytest.approx(
            u * (3 + 2 * math.sqrt(2)), rel=1e-9)         # 5.828u

    def test_tn_density_is_utilization(self):
        t = task(3, 10)
        assert t.density_original == t.utilization
        assert t.density_check == 0.0
        assert total_density(t) == t.utilization

    @given(st.floats(0.01, 0.99), st.floats(1.0, 1000.0))
    def test_paper_factors_are_optimal_v2(self, frac, period):
        """D/2 minimises C/D' + C/(D−D') over D' (paper Sec. V)."""
        t = task(frac * period, period, TaskClass.TV2)
        optimal = total_density(t)

        def density(dp):
            return t.wcet / dp + t.wcet / (period - dp)

        for factor in (0.3, 0.4, 0.6, 0.7):
            assert optimal <= density(factor * period) + 1e-9

    @given(st.floats(0.01, 0.99), st.floats(1.0, 1000.0))
    def test_paper_factors_are_optimal_v3(self, frac, period):
        t = task(frac * period, period, TaskClass.TV3)
        optimal = total_density(t)

        def density(dp):
            return t.wcet / dp + 2 * t.wcet / (period - dp)

        for factor in (0.3, 0.35, 0.45, 0.5, 0.6):
            assert optimal <= density(factor * period) + 1e-9

    def test_closed_form_factor(self):
        """x* = 1 / (1 + √copies) minimises 1/x + copies/(1−x)."""
        assert 1 / (1 + math.sqrt(1)) == pytest.approx(OPT_V2_FACTOR)
        assert 1 / (1 + math.sqrt(2)) == pytest.approx(OPT_V3_FACTOR)


class TestTaskSet:
    def _set(self):
        return TaskSet([
            task(1, 10, TaskClass.TN, 0),
            task(1, 10, TaskClass.TV2, 1),
            task(1, 10, TaskClass.TV3, 2),
        ])

    def test_aggregate_utilization(self):
        assert self._set().utilization == pytest.approx(0.3)

    def test_class_queries(self):
        ts = self._set()
        assert [t.task_id for t in ts.by_class(TaskClass.TN)] == [0]
        assert [t.task_id for t in ts.by_class(TaskClass.TV3)] == [2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TaskModelError):
            TaskSet([task(1, 10, tid=0), task(1, 10, tid=0)])

    def test_indexing_and_len(self):
        ts = self._set()
        assert len(ts) == 3
        assert ts[1].cls is TaskClass.TV2
