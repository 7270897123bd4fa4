"""The scalar (pure-Python) schedulability backend — the oracle.

Wraps the original per-set code paths unchanged: UUniFast generation
via :func:`repro.sched.uunifast.generate_task_set` and the three
partitioners' :class:`PartitionResult` success flags, looked up in
:data:`repro.sched.experiments.SCHEMES`.  Every other backend is judged
against this one.
"""

from __future__ import annotations

from ..experiments import SCHEMES
from ..uunifast import generate_task_set, seeded_rng
from .base import SchedBackend, TaskSetBatch


class PythonBackend(SchedBackend):
    """Loop the existing scalar machinery over the batch."""

    name = "python"

    def generate_batch(self, *, n, total_utilization, alpha, beta, seeds,
                       period_range=(10.0, 1000.0),
                       max_task_utilization=1.0) -> TaskSetBatch:
        return TaskSetBatch.from_task_sets(
            generate_task_set(
                n, total_utilization, alpha=alpha, beta=beta,
                period_range=period_range, rng=seeded_rng(seed),
                max_task_utilization=max_task_utilization)
            for seed in seeds)

    def judge_batch(self, batch, num_cores, schemes):
        return [
            {s: bool(SCHEMES[s](task_set, num_cores).success)
             for s in schemes}
            for task_set in batch.as_task_sets()
        ]
