"""Backend contract for batched schedulability evaluation.

A backend evaluates the Fig. 5 machinery — UUniFast task-set
generation and the three partitioning schemes' accept/reject tests —
over a whole *batch* of task sets at once.  Two implementations exist:

* ``python`` (:mod:`.python_backend`) — the original scalar code,
  looped.  It is the **oracle**: its verdicts define correctness.
* ``numpy`` (:mod:`.numpy_backend`) — vectorized arrays across the
  batch dimension.  It must produce *identical* verdicts (exact
  boolean equality, not tolerance) on every input; the differential
  suite in ``tests/sched/test_backend_differential.py`` enforces this.

The verdict-identity contract is what lets the campaign result cache
stay backend-agnostic: a cached verdict is valid no matter which
backend computed it.

Design note — where the RNG draws happen
----------------------------------------

Task-set *identity* is defined by the ``random.Random`` Mersenne
stream of each set's spawn seed (see
:func:`repro.sched.experiments.task_set_seed`).  Both backends
therefore draw every variate from that same scalar stream, and route
every transcendental transform (``u ** (1/(n-i))``, ``exp``) through
the identical libm call — only the *deterministic* arithmetic
(cumulative products, element-wise multiply/divide/compare, argmin
scans), whose IEEE-754 results are exactly rounded and therefore
bit-identical between CPython and numpy, is vectorized.  That is the
boundary that makes "same seeds, same task sets, same verdicts"
provable rather than probabilistic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from ...errors import TaskModelError
from ..model import RTTask, TaskClass, TaskSet

#: Integer class codes used by the array representation.
CLASS_CODES: dict[TaskClass, int] = {
    TaskClass.TN: 0, TaskClass.TV2: 1, TaskClass.TV3: 2,
}
CODE_CLASSES: dict[int, TaskClass] = {v: k for k, v in CLASS_CODES.items()}


class TaskSetBatch:
    """A batch of same-size task sets, in object or array form.

    Holds either a list of :class:`TaskSet` (python backend) or three
    ``(B, n)`` arrays — WCET, period, class code — (numpy backend), and
    converts lazily in both directions.  Conversions are exact: floats
    pass through unchanged, so a batch materialised from arrays judges
    bit-identically to one built from the original objects.
    """

    def __init__(self, *, task_sets=None, arrays=None):
        if (task_sets is None) == (arrays is None):
            raise TaskModelError(
                "TaskSetBatch needs exactly one of task_sets / arrays")
        self._task_sets = list(task_sets) if task_sets is not None else None
        self._arrays = arrays
        if self._task_sets is not None:
            sizes = {len(ts) for ts in self._task_sets}
            if len(sizes) > 1:
                raise TaskModelError(
                    f"batched task sets must share one size, got {sizes}")

    @classmethod
    def from_task_sets(cls, task_sets: Iterable[TaskSet]) -> "TaskSetBatch":
        return cls(task_sets=task_sets)

    @classmethod
    def from_arrays(cls, wcet, period, codes) -> "TaskSetBatch":
        """Build from ``(B, n)`` arrays of WCET, period and class code."""
        if not (wcet.shape == period.shape == codes.shape):
            raise TaskModelError(
                f"batch array shapes differ: {wcet.shape}, "
                f"{period.shape}, {codes.shape}")
        return cls(arrays=(wcet, period, codes))

    # ------------------------------------------------------------------

    @property
    def set_size(self) -> int:
        """Tasks per set (``n``)."""
        if self._task_sets is not None:
            return len(self._task_sets[0]) if self._task_sets else 0
        return int(self._arrays[0].shape[1])

    def as_task_sets(self) -> list[TaskSet]:
        """The batch as :class:`TaskSet` objects (materialised once)."""
        if self._task_sets is None:
            wcet, period, codes = self._arrays
            self._task_sets = [
                TaskSet(RTTask(task_id=i, wcet=float(wcet[b, i]),
                               period=float(period[b, i]),
                               cls=CODE_CLASSES[int(codes[b, i])])
                        for i in range(wcet.shape[1]))
                for b in range(wcet.shape[0])
            ]
        return self._task_sets

    def as_arrays(self):
        """The batch as ``(wcet, period, codes)`` float64/int8 arrays."""
        if self._arrays is None:
            import numpy as np
            sets = self._task_sets
            n = self.set_size
            wcet = np.empty((len(sets), n))
            period = np.empty((len(sets), n))
            codes = np.empty((len(sets), n), dtype=np.int8)
            for b, ts in enumerate(sets):
                for i, task in enumerate(ts):
                    wcet[b, i] = task.wcet
                    period[b, i] = task.period
                    codes[b, i] = CLASS_CODES[task.cls]
            self._arrays = (wcet, period, codes)
        return self._arrays


class SchedBackend(ABC):
    """One evaluation strategy for batched schedulability work."""

    #: Registry name ("python" / "numpy").
    name: str = ""

    @abstractmethod
    def generate_batch(self, *, n: int, total_utilization: float,
                       alpha: float, beta: float,
                       seeds: Sequence[int],
                       period_range: tuple[float, float] = (10.0, 1000.0),
                       max_task_utilization: float = 1.0,
                       ) -> TaskSetBatch:
        """UUniFast-generate one task set per seed (Fig. 5 methodology).

        Seed ``seeds[j]`` must yield exactly the task set
        ``generate_task_set(..., rng=random.Random(seeds[j]))`` would —
        parameter-for-parameter, bit-for-bit — in every backend.
        """

    @abstractmethod
    def judge_batch(self, batch: TaskSetBatch, num_cores: int,
                    schemes: Sequence[str]) -> list[dict[str, bool]]:
        """Accept/reject verdict of every scheme on every set."""

    # ------------------------------------------------------------------

    def judge_fig5(self, *, m: int, n: int, alpha: float, beta: float,
                   total_utilization: float, seeds: Sequence[int],
                   schemes: Sequence[str]) -> list[dict[str, bool]]:
        """One Fig. 5 work unit: generate a batch, judge every scheme."""
        batch = self.generate_batch(
            n=n, total_utilization=total_utilization, alpha=alpha,
            beta=beta, seeds=seeds)
        return self.judge_batch(batch, m, schemes)
