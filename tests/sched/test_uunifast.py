"""UUnifast generator tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TaskModelError
from repro.sched import TaskClass, generate_task_set, uunifast


class TestUUnifast:
    @given(st.integers(1, 100), st.floats(0.1, 16.0),
           st.integers(0, 2 ** 32 - 1))
    def test_sums_to_target(self, n, total, seed):
        utils = uunifast(n, total, random.Random(seed))
        assert len(utils) == n
        assert sum(utils) == pytest.approx(total, rel=1e-9)

    @given(st.integers(1, 50), st.integers(0, 2 ** 32 - 1))
    def test_all_positive(self, n, seed):
        utils = uunifast(n, 2.0, random.Random(seed))
        assert all(u >= 0 for u in utils)

    def test_bad_args_rejected(self):
        with pytest.raises(TaskModelError):
            uunifast(0, 1.0, random.Random())
        with pytest.raises(TaskModelError):
            uunifast(5, 0.0, random.Random())

    def test_deterministic_given_seed(self):
        a = uunifast(10, 3.0, random.Random(42))
        b = uunifast(10, 3.0, random.Random(42))
        assert a == b


class TestGenerateTaskSet:
    def test_counts_and_utilization(self):
        ts = generate_task_set(160, 4.0, alpha=0.0625, beta=0.0625,
                               rng=random.Random(1))
        assert len(ts) == 160
        assert ts.utilization == pytest.approx(4.0, rel=1e-6)
        assert len(ts.by_class(TaskClass.TV2)) == 10
        assert len(ts.by_class(TaskClass.TV3)) == 10

    def test_periods_within_range(self):
        ts = generate_task_set(50, 2.0, period_range=(10.0, 100.0),
                               rng=random.Random(2))
        for t in ts:
            assert 10.0 <= t.period <= 100.0

    def test_max_task_utilization_respected(self):
        ts = generate_task_set(20, 2.0, rng=random.Random(3),
                               max_task_utilization=0.5)
        assert all(t.utilization <= 0.5 + 1e-9 for t in ts)

    def test_implicit_deadlines_valid(self):
        ts = generate_task_set(80, 6.0, alpha=0.25, beta=0.25,
                               rng=random.Random(4))
        for t in ts:
            assert 0 < t.wcet <= t.period

    def test_bad_fractions_rejected(self):
        with pytest.raises(TaskModelError):
            generate_task_set(10, 1.0, alpha=0.7, beta=0.7)
        with pytest.raises(TaskModelError):
            generate_task_set(10, 1.0, alpha=-0.1)

    def test_class_counts_over_n_rejected_before_any_draw(self):
        # α=β=0.5 of 3 tasks rounds to 2 + 2 verification tasks
        rng = random.Random(6)
        state = rng.getstate()
        with pytest.raises(TaskModelError, match="more than the 3"):
            generate_task_set(3, 1.0, alpha=0.5, beta=0.5, rng=rng)
        assert rng.getstate() == state

    def test_bad_period_range_rejected(self):
        with pytest.raises(TaskModelError):
            generate_task_set(10, 1.0, period_range=(100.0, 10.0))

    def test_infeasible_constraint_rejected(self):
        with pytest.raises(TaskModelError):
            # 2 tasks summing to 1.9 with max 0.6 each is impossible
            generate_task_set(2, 1.9, max_task_utilization=0.6,
                              rng=random.Random(5))

    @settings(max_examples=20)
    @given(st.integers(0, 1000))
    def test_class_assignment_random_but_exact(self, seed):
        ts = generate_task_set(40, 2.0, alpha=0.25, beta=0.25,
                               rng=random.Random(seed))
        assert len(ts.by_class(TaskClass.TV2)) == 10
        assert len(ts.by_class(TaskClass.TV3)) == 10


class TestGuardedWorkerRng:
    """Regression: the worker generator used to be a bare module-global
    ``random.Random()`` — nondeterministic if reached before
    ``seeded_rng`` reseeded it, and shared across threads."""

    def test_unseeded_access_is_an_error(self):
        from repro.sched.uunifast import GuardedRandom
        rng = GuardedRandom()
        with pytest.raises(TaskModelError):
            rng.random()
        with pytest.raises(TaskModelError):
            rng.getrandbits(8)
        with pytest.raises(TaskModelError):
            uunifast(5, 1.0, rng)

    def test_seeded_rng_matches_reference_stream(self):
        from repro.sched.uunifast import seeded_rng
        rng = seeded_rng(12345)
        ref = random.Random(12345)
        assert [rng.random() for _ in range(10)] \
            == [ref.random() for _ in range(10)]

    def test_seeded_rng_reuses_one_generator_per_thread(self):
        from repro.sched.uunifast import seeded_rng
        assert seeded_rng(1) is seeded_rng(2)

    def test_threads_get_independent_generators(self):
        import threading

        from repro.sched.uunifast import seeded_rng

        rngs = {}

        def grab(key):
            rngs[key] = seeded_rng(7)

        grab("main")
        thread = threading.Thread(target=grab, args=("worker",))
        thread.start()
        thread.join()
        assert rngs["main"] is not rngs["worker"]
        # same seed -> same stream, despite distinct generators
        assert rngs["main"].random() == rngs["worker"].random()

    def test_guard_clears_after_seeding(self):
        from repro.sched.uunifast import GuardedRandom
        rng = GuardedRandom()
        rng.seed(99)
        assert rng.random() == random.Random(99).random()
