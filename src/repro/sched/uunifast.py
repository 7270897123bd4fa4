"""Task-set generation with UUnifast (Bini & Buttazzo, paper [47]).

UUnifast draws n per-task utilisations summing exactly to U, uniformly
over the valid simplex.  Periods are log-uniform over a configurable
range (the classic choice), WCETs follow, and reliability classes are
assigned to the requested fractions α (double-check) and β
(triple-check) of tasks, uniformly at random.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Optional

from ..errors import TaskModelError
from .model import RTTask, TaskClass, TaskSet


class GuardedRandom(random.Random):
    """A ``random.Random`` that refuses to produce variates until it
    has been explicitly seeded.

    The worker generator used to be a bare module-global
    ``random.Random()``: any call path that reached it before
    :func:`seeded_rng` reseeded it drew from OS-entropy state —
    silently nondeterministic.  Unseeded access is now an explicit
    error.  (``random()`` and ``getrandbits`` are the two primitives
    every derived method funnels through.)

    The guard costs nothing once seeded: ``seed()`` shadows the two
    guard wrappers with the parent's bound C implementations, so a
    campaign sweep's millions of variates never pay a Python-level
    check — only a generator that was never seeded still carries the
    raising wrappers.
    """

    def __init__(self) -> None:
        super().__init__()          # calls self.seed(None) — allowed
        self._seeded = False        # ...but constructed != seeded
        # Re-arm the guard: construction-time seeding installed the
        # fast-path shadows; drop them until an explicit seed().
        self.__dict__.pop("random", None)
        self.__dict__.pop("getrandbits", None)

    def seed(self, *args, **kwargs) -> None:
        super().seed(*args, **kwargs)
        self._seeded = True
        self.random = super().random            # type: ignore[method-assign]
        self.getrandbits = super().getrandbits  # type: ignore[method-assign]

    def _require_seeded(self) -> None:
        if not self._seeded:
            raise TaskModelError(
                "worker RNG used before seeded_rng() seeded it — "
                "task-set generation would be nondeterministic")

    def random(self) -> float:
        self._require_seeded()
        return super().random()

    def getrandbits(self, k: int) -> int:
        self._require_seeded()
        return super().getrandbits(k)


#: One generator per thread, reseeded per work unit: campaign sweeps
#: draw millions of variates, and reusing the Mersenne state avoids
#: re-allocating a ``random.Random`` (2.5 KiB of state) per task set.
#: Thread-local storage keeps the scheme safe if units ever run on a
#: thread pool instead of processes.
_WORKER_RNGS = threading.local()


def seeded_rng(seed: int) -> random.Random:
    """The thread-local generator, deterministically reseeded.

    ``seeded_rng(s)`` produces the same stream as ``random.Random(s)``;
    callers must treat the returned generator as owned until their next
    ``seeded_rng`` call on the same thread (campaign units are
    sequential per worker, so this holds by construction).
    """
    rng = getattr(_WORKER_RNGS, "rng", None)
    if rng is None:
        rng = GuardedRandom()
        _WORKER_RNGS.rng = rng
    rng.seed(seed)
    return rng


def uunifast(n: int, total_utilization: float,
             rng: random.Random) -> list[float]:
    """Draw ``n`` utilisations summing to ``total_utilization``."""
    if n <= 0:
        raise TaskModelError("n must be positive")
    if total_utilization <= 0:
        raise TaskModelError("total utilisation must be positive")
    utils = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utils.append(remaining - next_remaining)
        remaining = next_remaining
    utils.append(remaining)
    return utils


def class_counts(n: int, alpha: float, beta: float) -> tuple[int, int]:
    """The number of T_V2 and T_V3 tasks for fractions ``alpha`` and
    ``beta`` of ``n``, validated before any variate is drawn.

    Each count is rounded on its own, so two valid fractions can still
    ask for more tasks than the set has (n=3, α=β=0.5 rounds to 2+2).
    """
    if alpha < 0 or beta < 0 or alpha + beta > 1:
        raise TaskModelError(f"bad class fractions α={alpha}, β={beta}")
    n_v2, n_v3 = round(alpha * n), round(beta * n)
    if n_v2 + n_v3 > n:
        raise TaskModelError(
            f"α={alpha}, β={beta} round to {n_v2} T_V2 + {n_v3} T_V3 "
            f"tasks, more than the {n} in the set")
    return n_v2, n_v3


def generate_task_set(n: int, total_utilization: float, *,
                      alpha: float = 0.0, beta: float = 0.0,
                      period_range: tuple[float, float] = (10.0, 1000.0),
                      rng: Optional[random.Random] = None,
                      max_task_utilization: float = 1.0) -> TaskSet:
    """Generate one task set for the Fig. 5 experiments.

    ``alpha``/``beta`` are the fractions of tasks in T_V2/T_V3.  Draws
    are rejected and retried while any single task's utilisation exceeds
    ``max_task_utilization`` (UUnifast guarantees the sum, not the
    parts).
    """
    n_v2, n_v3 = class_counts(n, alpha, beta)
    rng = rng or random.Random()
    lo, hi = period_range
    if lo <= 0 or hi <= lo:
        raise TaskModelError(f"bad period range {period_range}")

    for _ in range(1000):
        utils = uunifast(n, total_utilization, rng)
        if max(utils) <= max_task_utilization:
            break
    else:
        raise TaskModelError(
            f"could not draw {n} utilisations summing to "
            f"{total_utilization} with max {max_task_utilization}")

    log_lo, log_hi = math.log(lo), math.log(hi)
    tasks = []
    for i, u in enumerate(utils):
        period = math.exp(rng.uniform(log_lo, log_hi))
        wcet = max(u * period, 1e-9)
        tasks.append(RTTask(task_id=i, wcet=wcet, period=period))

    chosen = rng.sample(range(n), n_v2 + n_v3)
    v2_ids = set(chosen[:n_v2])
    v3_ids = set(chosen[n_v2:])
    tasks = [
        t.with_class(TaskClass.TV2 if t.task_id in v2_ids
                     else TaskClass.TV3 if t.task_id in v3_ids
                     else TaskClass.TN)
        for t in tasks
    ]
    return TaskSet(tasks)
