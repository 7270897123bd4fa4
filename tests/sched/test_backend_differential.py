"""Property-based differential suite: numpy backend vs scalar oracle.

The testing convention of the multi-backend engine: the pure-Python
scalar path is the **oracle**, and every other backend must reproduce
its accept/reject verdicts exactly — boolean equality on every input,
never tolerance.  QPA itself is differentially pinned against the
brute-force processor-demand scan (``dbf(t) <= t`` at *every* step
point), the criterion the QPA fixed-point iteration is defined
against.

numpy-dependent cases skip cleanly when the optional extra is absent
(the CI matrix runs the suite both ways).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, TaskModelError
from repro.sched import (
    RTTask,
    TaskClass,
    TaskSet,
    TaskSetBatch,
    generate_task_set,
    get_backend,
    partition_flexstep,
    partition_hmr,
    partition_lockstep,
)
from repro.sched.backend import numpy_available
from repro.sched.edf import (
    DemandTask,
    dbf_scan_schedulable,
    qpa_schedulable,
)
from repro.sched.uunifast import uunifast
from repro.sched.experiments import FIG5_CONFIGS, task_set_seed
from repro.scenarios import Scenario, SchedGrid, run_scenario

#: Concrete backend names usable on this host.
BACKENDS = ("python", "numpy") if numpy_available() else ("python",)

needs_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="numpy optional extra not installed")

SCHEMES = ("lockstep", "hmr", "flexstep")


def _fig5_seeds(m, n, alpha, beta, x, count, seed=2025):
    return [task_set_seed(seed, m, n, alpha, beta, x, j)
            for j in range(count)]


def _random_demand_tasks(seed, max_tasks=12):
    rng = random.Random(seed)
    tasks = []
    for _ in range(rng.randint(1, max_tasks)):
        period = rng.uniform(4.0, 80.0)
        deadline = rng.uniform(period * 0.35, period)
        wcet = rng.uniform(0.04, 0.55) * deadline
        tasks.append(DemandTask(wcet=wcet, deadline=deadline,
                                period=period))
    return tasks


def _decimal_demand_tasks(seed, max_tasks=8):
    """Boundary-heavy corpus: every parameter on a 0.1 / 0.01 grid, so
    step points constantly land exactly on deadline multiples."""
    rng = random.Random(seed)
    tasks = []
    for _ in range(rng.randint(1, max_tasks)):
        period_ticks = rng.randint(2, 40)
        deadline_ticks = rng.randint(max(1, int(period_ticks * 0.4)),
                                     period_ticks)
        wcet_ticks = rng.randint(1, max(1, deadline_ticks * 6))
        tasks.append(DemandTask(wcet=wcet_ticks * 0.01,
                                deadline=deadline_ticks * 0.1,
                                period=period_ticks * 0.1))
    return tasks


@needs_numpy
class TestGenerationIdentity:
    """Same spawn seeds, bit-identical task sets in both backends."""

    @pytest.mark.parametrize("n,x,alpha,beta", [
        (16, 0.5, 0.25, 0.0),
        (40, 0.75, 0.125, 0.125),
        (160, 0.95, 0.25, 0.25),
    ])
    def test_parameters_bit_identical(self, n, x, alpha, beta):
        kw = dict(n=n, total_utilization=x * 8, alpha=alpha, beta=beta)
        seeds = _fig5_seeds(8, n, alpha, beta, x, 20)
        ref = get_backend("python").generate_batch(seeds=seeds, **kw)
        vec = get_backend("numpy").generate_batch(seeds=seeds, **kw)
        for a, b in zip(ref.as_task_sets(), vec.as_task_sets()):
            for ta, tb in zip(a, b):
                # float equality must be exact, so compare hex forms
                assert ta.wcet.hex() == tb.wcet.hex()
                assert ta.period.hex() == tb.period.hex()
                assert ta.cls is tb.cls

    def test_rejection_path_bit_identical(self):
        """Tight per-task caps make UUniFast retry: those rows' later
        draws shift, and the batch path must replay them exactly."""
        kw = dict(n=6, total_utilization=2.0, alpha=0.25, beta=0.25,
                  max_task_utilization=0.55)
        seeds = list(range(300, 340))
        retried = [max(uunifast(6, 2.0, random.Random(s))) > 0.55
                   for s in seeds]
        assert any(retried) and not all(retried)
        ref = get_backend("python").generate_batch(seeds=seeds, **kw)
        vec = get_backend("numpy").generate_batch(seeds=seeds, **kw)
        for a, b in zip(ref.as_task_sets(), vec.as_task_sets()):
            for ta, tb in zip(a, b):
                assert ta.wcet.hex() == tb.wcet.hex()
                assert ta.period.hex() == tb.period.hex()
                assert ta.cls is tb.cls

    def test_array_roundtrip_is_exact(self):
        sets = [generate_task_set(12, 2.0, alpha=0.25, beta=0.25,
                                  rng=random.Random(s))
                for s in range(5)]
        batch = TaskSetBatch.from_task_sets(sets)
        batch.as_arrays()
        rebuilt = TaskSetBatch.from_arrays(*batch.as_arrays())
        for a, b in zip(sets, rebuilt.as_task_sets()):
            for ta, tb in zip(a, b):
                assert ta.wcet.hex() == tb.wcet.hex()
                assert ta.period.hex() == tb.period.hex()
                assert ta.cls is tb.cls


@needs_numpy
class TestVerdictEquivalence:
    """Hundreds of seeded random task sets: identical verdicts."""

    def test_fig5_grid_corpus(self):
        """All six Fig. 5 shapes × three utilisation pressures; both
        accept and reject outcomes must be exercised, and so must
        FlexStep's relaxed fallback (strict Algorithm 3 rejects, the
        ``auto`` retry accepts)."""
        outcomes = set()
        fallbacks = 0
        py, vec = get_backend("python"), get_backend("numpy")
        for cfg in FIG5_CONFIGS.values():
            for x in (0.45, 0.65, 0.9):
                kw = dict(n=cfg["n"], total_utilization=x * cfg["m"],
                          alpha=cfg["alpha"], beta=cfg["beta"])
                seeds = _fig5_seeds(cfg["m"], cfg["n"], cfg["alpha"],
                                    cfg["beta"], x, 12)
                ref = py.generate_batch(seeds=seeds, **kw)
                expected = py.judge_batch(ref, cfg["m"], SCHEMES)
                actual = vec.judge_batch(
                    vec.generate_batch(seeds=seeds, **kw),
                    cfg["m"], SCHEMES)
                assert expected == actual
                for verdict in expected:
                    outcomes.update(verdict.values())
                fallbacks += sum(
                    verdict["flexstep"] and not partition_flexstep(
                        ts, cfg["m"], mode="strict").success
                    for ts, verdict in zip(ref.as_task_sets(), expected))
        assert outcomes == {True, False}
        assert fallbacks > 0

    def test_heterogeneous_class_counts(self):
        """Batches mixing different (n_v3, n_v2) signatures exercise
        the kernels' row grouping."""
        rng = random.Random(1234)
        sets = []
        for i in range(40):
            alpha = rng.choice([0.0, 0.125, 0.25, 0.5])
            beta = rng.choice([0.0, 0.125, 0.25])
            sets.append(generate_task_set(
                24, rng.uniform(1.0, 3.8), alpha=alpha, beta=beta,
                rng=random.Random(5000 + i)))
        batch = TaskSetBatch.from_task_sets(sets)
        expected = get_backend("python").judge_batch(batch, 4, SCHEMES)
        actual = get_backend("numpy").judge_batch(batch, 4, SCHEMES)
        assert expected == actual

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_tight_core_counts(self, m):
        """m at or below the per-scheme core floors (copies need
        distinct cores) must fail identically."""
        sets = [generate_task_set(12, 0.4 * m, alpha=0.25, beta=0.25,
                                  rng=random.Random(s))
                for s in range(10)]
        batch = TaskSetBatch.from_task_sets(sets)
        expected = get_backend("python").judge_batch(batch, m, SCHEMES)
        actual = get_backend("numpy").judge_batch(batch, m, SCHEMES)
        assert expected == actual

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_property_random_shapes(self, seed, m):
        rng = random.Random(seed)
        alpha = rng.choice([0.0, 0.1, 0.25, 0.4])
        beta = rng.choice([0.0, 0.1, 0.25])
        u = rng.uniform(0.3, 0.98) * m
        # n tasks capped at utilisation 1.0 can only sum to u if n > u,
        # and UUniFast's skew makes max<=1 draws vanishingly rare until
        # the per-task average drops below ~0.5 — keep n >= 2u + 2 so
        # the rejection loop succeeds for every (seed, m) draw
        n = rng.randint(max(4, int(2 * u) + 2), 40)
        sets = [generate_task_set(n, u, alpha=alpha, beta=beta,
                                  rng=random.Random(seed + k))
                for k in range(4)]
        batch = TaskSetBatch.from_task_sets(sets)
        assert get_backend("python").judge_batch(batch, m, SCHEMES) \
            == get_backend("numpy").judge_batch(batch, m, SCHEMES)


@pytest.mark.parametrize("backend", BACKENDS)
def test_class_counts_over_n_rejected(backend):
    """α=β=0.5 of n=3 rounds to 2 + 2 verification tasks: a model
    error, not ``rng.sample``'s bare ``ValueError``."""
    with pytest.raises(TaskModelError, match="more than the 3"):
        get_backend(backend).generate_batch(
            n=3, total_utilization=1.0, alpha=0.5, beta=0.5,
            seeds=[1, 2])


def _task_set(spec):
    """A task set from ``(utilisation, period, class)`` triples."""
    return TaskSet(RTTask(task_id=i, wcet=u * period, period=period,
                          cls=cls)
                   for i, (u, period, cls) in enumerate(spec))


def _tied_task_set(seed, n=8):
    """Periods and utilisations on a coarse grid, so T_N deadlines tie
    with verification deadlines on shared cores, and utilisations tie
    in the partitioners' sorts."""
    rng = random.Random(seed)
    n_v3, n_v2 = rng.randint(0, 2), rng.randint(0, 3)
    classes = [TaskClass.TV3] * n_v3 + [TaskClass.TV2] * n_v2 \
        + [TaskClass.TN] * (n - n_v3 - n_v2)
    rng.shuffle(classes)
    return _task_set(
        (rng.choice((0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
         rng.choice((10.0, 20.0, 25.0, 50.0, 100.0)), cls)
        for cls in classes)


@needs_numpy
class TestTieHeavyCorpus:
    """Deadline ties and width-3 HMR groups hosting T_V2 tasks."""

    T_N, T_V2, T_V3 = TaskClass.TN, TaskClass.TV2, TaskClass.TV3

    def test_strict_deadline_tie_does_not_block(self):
        # one triple holds every core at 0.5; the T_N task joins core
        # 0 at 0.8, and only a strictly longer deadline blocks it
        tied = _task_set([(0.5, 50.0, self.T_V3), (0.3, 50.0, self.T_N)])
        shorter = _task_set([(0.5, 50.0, self.T_V3),
                             (0.3, 40.0, self.T_N)])
        batch = TaskSetBatch.from_task_sets([tied, shorter])
        assert [partition_hmr(ts, 3).success for ts in (tied, shorter)] \
            == [True, False]
        assert get_backend("numpy").judge_batch(batch, 3, ["hmr"]) \
            == [{"hmr": True}, {"hmr": False}]
        assert get_backend("numpy").judge_batch(batch, 3, SCHEMES) \
            == get_backend("python").judge_batch(batch, 3, SCHEMES)

    def test_tv2_in_a_triple_blocks_only_its_two_cores(self):
        # the T_V2 task joins the triple on cores 0-1; the T_N task
        # lands on core 2, where only the short-deadline T_V3 copy runs
        ts = _task_set([(0.1, 20.0, self.T_V3), (0.3, 100.0, self.T_V2),
                        (0.35, 50.0, self.T_N)])
        assert partition_hmr(ts, 3).success
        assert get_backend("numpy").judge_batch(
            TaskSetBatch.from_task_sets([ts]), 3, ["hmr"]) == [{"hmr": True}]

    @pytest.mark.parametrize("m,n", [(3, 8), (4, 8), (4, 12)])
    def test_random_tied_corpus(self, m, n):
        sets = [_tied_task_set(seed, n) for seed in range(300)]
        batch = TaskSetBatch.from_task_sets(sets)
        expected = get_backend("python").judge_batch(batch, m, SCHEMES)
        assert get_backend("numpy").judge_batch(batch, m, SCHEMES) \
            == expected
        for scheme in SCHEMES:
            assert {v[scheme] for v in expected} == {True, False}, scheme


@needs_numpy
class TestPartitionBatchApis:
    """Each scheme judged alone through ``judge_batch`` matches its
    scalar partitioner one-to-one, in every backend."""

    @pytest.fixture(scope="class")
    def batch(self):
        return TaskSetBatch.from_task_sets(
            generate_task_set(20, 2.6, alpha=0.25, beta=0.125,
                              rng=random.Random(s))
            for s in range(30))

    @staticmethod
    def _judged(backend, batch, m, scheme):
        return [v[scheme] for v in
                get_backend(backend).judge_batch(batch, m, [scheme])]

    @pytest.mark.parametrize("mode", ["auto"])
    def test_flexstep_modes(self, batch, mode):
        expected = [partition_flexstep(ts, 4, mode=mode).success
                    for ts in batch.as_task_sets()]
        for backend in BACKENDS:
            assert self._judged(backend, batch, 4, "flexstep") == expected

    def test_lockstep(self, batch):
        expected = [partition_lockstep(ts, 8).success
                    for ts in batch.as_task_sets()]
        for backend in BACKENDS:
            assert self._judged(backend, batch, 8, "lockstep") == expected

    def test_hmr(self, batch):
        expected = [partition_hmr(ts, 8).success
                    for ts in batch.as_task_sets()]
        for backend in BACKENDS:
            assert self._judged(backend, batch, 8, "hmr") == expected


class TestQpaAgreesWithDemandScan:
    """QPA vs the brute-force scan of ``total_dbf`` over all deadline
    points — the oracle the QPA paper defines the iteration against."""

    def test_random_corpus(self):
        outcomes = set()
        for seed in range(400):
            tasks = _random_demand_tasks(seed)
            try:
                fast = qpa_schedulable(tasks)
            except AnalysisError:
                continue
            assert fast == dbf_scan_schedulable(tasks), seed
            outcomes.add(fast)
        assert outcomes == {True, False}

    def test_decimal_boundary_corpus(self):
        for seed in range(300):
            tasks = _decimal_demand_tasks(seed)
            try:
                fast = qpa_schedulable(tasks)
            except AnalysisError:
                continue
            assert fast == dbf_scan_schedulable(tasks), seed

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000))
    def test_property_qpa_equals_scan(self, seed):
        tasks = _random_demand_tasks(seed, max_tasks=8)
        try:
            fast = qpa_schedulable(tasks)
        except AnalysisError:
            return
        assert fast == dbf_scan_schedulable(tasks)


@needs_numpy
class TestFig5TableEquality:
    """Acceptance criterion: for every Fig. 5 configuration the two
    backends produce **identical** acceptance-ratio tables."""

    def test_all_configs_exact(self):
        for key, cfg in FIG5_CONFIGS.items():
            scenario = Scenario(name=f"fig5-{key}", kind="sched",
                                seed=2025,
                                sched=SchedGrid(**cfg, sets_per_point=6))
            ref = run_scenario(scenario, backend="python", workers=1,
                               cache=None)
            vec = run_scenario(scenario, backend="numpy", workers=1,
                               cache=None)
            assert ref.payload == vec.payload, key
