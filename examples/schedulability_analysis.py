#!/usr/bin/env python3
"""Schedulability analysis with the paper's three schemes (Sec. V).

Generates a UUnifast task set with double- and triple-check tasks,
partitions it under LockStep / HMR / FlexStep (Algorithm 3), validates
the FlexStep partition with the EDF schedule simulator, and sweeps a
small Fig. 5-style curve.

Run:  python examples/schedulability_analysis.py
"""

import random

from repro.sched import (
    generate_task_set,
    partition_flexstep,
    partition_hmr,
    partition_lockstep,
    simulate_partition,
)
from repro.scenarios import Scenario, SchedGrid, run_scenario
from repro.scenarios.report import _sched_points
from repro.sched.experiments import render_curves

M_CORES = 8


def describe(result):
    if result.success:
        loads = ", ".join(f"{load:.2f}" for load in result.loads)
        return f"SCHEDULABLE   core loads: [{loads}]"
    return f"not schedulable: {result.reason}"


def main() -> None:
    rng = random.Random(42)
    task_set = generate_task_set(
        48, 0.55 * M_CORES, alpha=0.125, beta=0.0625, rng=rng)
    from repro.sched import TaskClass
    print(f"task set: n={len(task_set)}, "
          f"U={task_set.utilization:.2f} on m={M_CORES} cores, "
          f"double-check={len(task_set.by_class(TaskClass.TV2))}, "
          f"triple-check={len(task_set.by_class(TaskClass.TV3))}")

    for name, partition in (("LockStep", partition_lockstep),
                            ("HMR     ", partition_hmr),
                            ("FlexStep", partition_flexstep)):
        result = partition(task_set, M_CORES)
        print(f"  {name}: {describe(result)}")

    flex = partition_flexstep(task_set, M_CORES)
    if flex.success:
        outcome = simulate_partition(flex, task_set, horizon=2000.0)
        print(f"\nEDF simulation of the FlexStep partition: "
              f"{outcome.jobs_released} jobs released, "
              f"{outcome.deadline_misses} deadline misses")

    print("\nFig. 5-style sweep (m=8, n=48, alpha=12.5%, beta=6.25%):")
    grid = SchedGrid(m=M_CORES, n=48, alpha=0.125, beta=0.0625,
                     utilizations=(0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                     sets_per_point=40)
    result = run_scenario(Scenario(name="fig5-example", kind="sched",
                                   seed=7, sched=grid))
    print(render_curves(_sched_points(result.payload)))


if __name__ == "__main__":
    main()
