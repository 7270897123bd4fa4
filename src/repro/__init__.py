"""repro — a Python reproduction of FlexStep (DAC 2025).

FlexStep is a hardware/software co-design for *flexible* error
detection in multi-/many-core real-time systems: any core can be a main
core or a checker core, verification is asynchronous (buffered through
the DBC), selective (per task) and preemptable, and an OS-level
partitioned-EDF scheduler exploits that freedom.

Package map (EXPERIMENTS.md documents the experiment layers):

==================  ====================================================
``repro.isa``       small RISC ISA + assembler (Rocket stand-in)
``repro.core``      in-order core, caches, branch predictor, timing
``repro.flexstep``  RCPM / MAL / DBC units, checker engine, SoC, faults
``repro.kernel``    OS add-ons: Algorithm 1 context switch, checker
                    thread (Algorithm 2)
``repro.sched``     task model, Algorithm 3, LockStep/HMR baselines,
                    UUnifast, EDF simulator (Figs. 1 & 5)
``repro.workloads`` synthetic Parsec/SPECint profiles + Nzdc transform
``repro.analysis``  slowdown/latency work units and rows, power/area
``repro.scenarios`` the experiment front end: ``Scenario`` +
                    ``run_scenario`` over the campaign engine
==================  ====================================================
"""

from .config import (
    CacheConfig,
    CoreConfig,
    FlexStepConfig,
    MemoryConfig,
    SoCConfig,
    table2_config,
)
from .flexstep import FlexStepSoC, FaultInjector, FaultTarget
from .isa import assemble
from .kernel import FlexKernel, KernelTask
from .sched import (
    RTTask,
    TaskClass,
    TaskSet,
    generate_task_set,
    partition_flexstep,
    partition_hmr,
    partition_lockstep,
)
from .workloads import PARSEC, SPECINT, build_program, get_profile

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "FlexStepConfig",
    "MemoryConfig",
    "SoCConfig",
    "table2_config",
    "FlexStepSoC",
    "FaultInjector",
    "FaultTarget",
    "assemble",
    "FlexKernel",
    "KernelTask",
    "RTTask",
    "TaskClass",
    "TaskSet",
    "generate_task_set",
    "partition_flexstep",
    "partition_hmr",
    "partition_lockstep",
    "PARSEC",
    "SPECINT",
    "build_program",
    "get_profile",
    "__version__",
]
