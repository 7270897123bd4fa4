"""Scheduling theory and analysis (paper Sec. V and Fig. 5).

Implements the paper's formal model — sporadic implicit-deadline tasks
in classes ``T_N`` / ``T_V2`` / ``T_V3`` with virtual-deadline density
accounting for asynchronous verification — plus the three partitioning
schemes compared in the evaluation:

* :mod:`partition` — FlexStep's Algorithm 3 (partitioned EDF over
  densities with virtual deadlines).
* :mod:`lockstep` — a statically lockstepped fabric (DCLS/TCLS groups).
* :mod:`hmr` — Hybrid Modular Redundancy split-lock with synchronous,
  non-preemptable verification.

:mod:`simulation` provides a task-level preemptive EDF simulator used to
validate the analytical tests and to reconstruct the Fig. 1 schedules.
:mod:`edf` holds the exact one-processor EDF tests (QPA and the
processor-demand scan) that re-judge a partition.  Fig. 5 itself runs
through one call, :meth:`~.backend.SchedBackend.judge_fig5`: generate a
batch of task sets, then judge it under every scheme, on the scalar
oracle or the verdict-identical numpy backend (:mod:`backend`).
"""

from .model import (
    TaskClass,
    RTTask,
    TaskSet,
    OPT_V2_FACTOR,
    OPT_V3_FACTOR,
)
from .edf import (
    DemandTask,
    dbf_scan_schedulable,
    qpa_schedulable,
    qpa_judge_partition,
    total_dbf,
)
from .uunifast import uunifast, generate_task_set
from .partition import partition_flexstep
from .lockstep import partition_lockstep
from .hmr import partition_hmr
from .backend import (
    TaskSetBatch,
    backend_override,
    get_backend,
)
from .result import Assignment, PartitionResult, Role
from .simulation import EdfSimulator, SimJob, simulate_partition
from .experiments import (
    SchedulabilityPoint,
    task_set_seed,
    FIG5_CONFIGS,
)

__all__ = [
    "TaskClass",
    "RTTask",
    "TaskSet",
    "OPT_V2_FACTOR",
    "OPT_V3_FACTOR",
    "DemandTask",
    "dbf_scan_schedulable",
    "qpa_schedulable",
    "qpa_judge_partition",
    "total_dbf",
    "uunifast",
    "generate_task_set",
    "partition_flexstep",
    "partition_lockstep",
    "partition_hmr",
    "TaskSetBatch",
    "backend_override",
    "get_backend",
    "Assignment",
    "PartitionResult",
    "Role",
    "EdfSimulator",
    "SimJob",
    "simulate_partition",
    "SchedulabilityPoint",
    "task_set_seed",
    "FIG5_CONFIGS",
]
