"""FlexStep microarchitecture: the paper's primary contribution.

* :mod:`packets` — the data units streamed from main to checker cores
  (SCP, memory-access entries, progress hints, IC, ECP).
* :mod:`dbc` — Data Buffer FIFOs and the configurable System
  Interconnect (paper Sec. III-C).
* :mod:`rcpm` — Checkpoint Control + Architectural State Snapshot units
  attached to a main core (paper Sec. III-A), including the Memory
  Access Log packaging (Sec. III-B).
* :mod:`checker` — the checker-core replay engine implementing
  ``C.record/apply/jal/result`` semantics.
* :mod:`soc` — a co-simulated multi-core SoC with the Table I ISA
  control facade.
* :mod:`faults` — fault injection into forwarded data (Sec. VI-C).
"""

from .packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    Packet,
    ProgressPacket,
    ScpPacket,
    SegmentCloseReason,
)
from .dbc import Channel, SystemInterconnect
from .rcpm import MainCoreAdapter
from .checker import CheckerEngine, SegmentResult, CheckerState
from .soc import (
    CoreAttr,
    FlexStepControl,
    FlexStepSoC,
    resolve_soc_sched,
    soc_sched_override,
)
from .faults import FaultInjector, FaultRecord, FaultTarget, install_injector

__all__ = [
    "EcpPacket",
    "IcPacket",
    "MemPacket",
    "Packet",
    "ProgressPacket",
    "ScpPacket",
    "SegmentCloseReason",
    "Channel",
    "SystemInterconnect",
    "MainCoreAdapter",
    "CheckerEngine",
    "SegmentResult",
    "CheckerState",
    "CoreAttr",
    "FlexStepSoC",
    "FlexStepControl",
    "resolve_soc_sched",
    "soc_sched_override",
    "FaultInjector",
    "FaultRecord",
    "FaultTarget",
    "install_injector",
]
