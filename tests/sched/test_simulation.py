"""EDF schedule simulator tests, including cross-validation against the
analytic schedulability tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched import (
    EdfSimulator,
    RTTask,
    TaskClass,
    TaskSet,
    generate_task_set,
    partition_flexstep,
    partition_hmr,
    partition_lockstep,
    simulate_partition,
)
from repro.sched.result import Role
from repro.sim import TraceRecorder


def t(c, p, cls=TaskClass.TN, tid=0):
    return RTTask(task_id=tid, wcet=c, period=p, cls=cls)


class TestEdfSimulatorBasics:
    def test_single_job_runs_to_completion(self):
        sim = EdfSimulator(1)
        job = sim.submit(sim.make_job(t(2, 10), Role.ORIGINAL, (0,),
                                      release=0.0, deadline=10.0))
        outcome = sim.run(20.0)
        assert outcome.schedulable
        assert job.finish_time == pytest.approx(2.0)

    def test_edf_preference(self):
        sim = EdfSimulator(1)
        late = sim.submit(sim.make_job(t(5, 100, tid=0), Role.ORIGINAL,
                                       (0,), 0.0, 100.0))
        tight = sim.submit(sim.make_job(t(2, 10, tid=1), Role.ORIGINAL,
                                        (0,), 0.0, 10.0))
        sim.run(50.0)
        assert tight.finish_time < late.finish_time

    def test_preemption_by_earlier_deadline(self):
        sim = EdfSimulator(1)
        long = sim.submit(sim.make_job(t(10, 100, tid=0), Role.ORIGINAL,
                                       (0,), 0.0, 100.0))
        short = sim.submit(sim.make_job(t(1, 5, tid=1), Role.ORIGINAL,
                                        (0,), 2.0, 7.0))
        sim.run(50.0)
        assert short.finish_time == pytest.approx(3.0)
        assert long.finish_time == pytest.approx(11.0)

    def test_non_preemptable_job_blocks(self):
        sim = EdfSimulator(1)
        hog = sim.submit(sim.make_job(t(10, 100, tid=0), Role.ORIGINAL,
                                      (0,), 0.0, 100.0,
                                      preemptable=False))
        short = sim.submit(sim.make_job(t(1, 5, tid=1), Role.ORIGINAL,
                                        (0,), 2.0, 7.0))
        outcome = sim.run(50.0)
        assert short.finish_time == pytest.approx(11.0)
        assert short.missed
        assert outcome.deadline_misses == 1

    def test_gang_job_occupies_both_cores(self):
        sim = EdfSimulator(2)
        gang = sim.submit(sim.make_job(t(4, 20, tid=0), Role.ORIGINAL,
                                       (0, 1), 0.0, 20.0,
                                       preemptable=False))
        solo = sim.submit(sim.make_job(t(1, 6, tid=1), Role.ORIGINAL,
                                       (1,), 1.0, 7.0))
        sim.run(30.0)
        assert gang.finish_time == pytest.approx(4.0)
        assert solo.finish_time == pytest.approx(5.0)

    def test_deadline_miss_detected_for_unfinished(self):
        sim = EdfSimulator(1)
        sim.submit(sim.make_job(t(8, 10, tid=0), Role.ORIGINAL, (0,),
                                0.0, 10.0))
        sim.submit(sim.make_job(t(8, 10, tid=1), Role.ORIGINAL, (0,),
                                0.0, 10.0))
        outcome = sim.run(12.0)
        assert outcome.deadline_misses >= 1

    def test_chained_checks_release_at_completion(self):
        sim = EdfSimulator(2)
        task = t(3, 20, TaskClass.TV2, 0)
        original = sim.make_job(task, Role.ORIGINAL, (0,), 0.0, 10.0)
        check = sim.make_job(task, Role.CHECK, (1,), 0.0, 20.0)
        sim.submit(original)
        sim.chain_checks(original, [check])
        sim.run(40.0)
        assert check.finish_time == pytest.approx(6.0)
        assert check.release == pytest.approx(3.0)

    def test_trace_records_runs(self):
        trace = TraceRecorder()
        sim = EdfSimulator(1, trace=trace)
        sim.submit(sim.make_job(t(2, 10), Role.ORIGINAL, (0,), 0.0,
                                10.0))
        sim.run(20.0)
        assert len(trace.filter(kind="release")) == 1
        assert len(trace.filter(kind="finish")) == 1


class TestSimulatePartition:
    def _light_set(self):
        return TaskSet([
            t(1, 10, TaskClass.TV2, 0),
            t(2, 20, TaskClass.TN, 1),
            t(1, 8, TaskClass.TN, 2),
        ])

    @pytest.mark.parametrize("scheme,partition", [
        ("flexstep", partition_flexstep),
        ("lockstep", partition_lockstep),
        ("hmr", partition_hmr),
    ])
    def test_accepted_light_set_simulates_clean(self, scheme, partition):
        ts = self._light_set()
        res = partition(ts, 4)
        assert res.success
        outcome = simulate_partition(res, ts, horizon=100.0)
        assert outcome.schedulable, outcome.missed_jobs

    def test_flexstep_virtual_release_mode(self):
        ts = self._light_set()
        res = partition_flexstep(ts, 4, mode="strict")
        outcome = simulate_partition(res, ts, horizon=100.0,
                                     release_checks="virtual")
        assert outcome.schedulable

    def test_bad_release_mode_rejected(self):
        ts = self._light_set()
        res = partition_flexstep(ts, 4)
        with pytest.raises(ValueError):
            simulate_partition(res, ts, release_checks="whenever")

    def test_jobs_released_periodically(self):
        ts = TaskSet([t(1, 10, TaskClass.TN, 0)])
        res = partition_flexstep(ts, 1)
        outcome = simulate_partition(res, ts, horizon=95.0)
        assert outcome.jobs_released == 10

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 5_000))
    def test_strict_flexstep_acceptance_simulates_clean(self, seed):
        """Soundness spot-check: strict Algorithm 3 acceptance implies
        no deadline misses in the schedule simulation (checks released
        at the virtual deadline, the analysed worst case)."""
        ts = generate_task_set(12, 2.0, alpha=0.25, beta=0.0,
                               period_range=(8.0, 64.0),
                               rng=random.Random(seed))
        res = partition_flexstep(ts, 4, mode="strict")
        if not res.success:
            return
        outcome = simulate_partition(res, ts, horizon=200.0,
                                     release_checks="virtual")
        assert outcome.schedulable, outcome.missed_jobs

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 5_000))
    def test_lockstep_acceptance_simulates_clean(self, seed):
        ts = generate_task_set(10, 1.5, alpha=0.2, beta=0.0,
                               period_range=(8.0, 64.0),
                               rng=random.Random(seed))
        res = partition_lockstep(ts, 6)
        if not res.success:
            return
        outcome = simulate_partition(res, ts, horizon=200.0)
        assert outcome.schedulable, outcome.missed_jobs
