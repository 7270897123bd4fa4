"""Structured trace recording.

Kernel-level simulations emit :class:`TraceEvent` records (task release,
start, preemption, completion, verification start/end, deadline miss...)
that tests assert on and the motivating-example script renders as an
ASCII schedule, reproducing the timelines of paper Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped occurrence in a simulation."""

    time: float
    kind: str
    subject: str = ""
    core: Optional[int] = None
    data: tuple = ()

    def __str__(self) -> str:
        core = f" core={self.core}" if self.core is not None else ""
        data = f" {self.data}" if self.data else ""
        return (f"[{self.time:10.3f}] {self.kind:<18} "
                f"{self.subject}{core}{data}")


class TraceRecorder:
    """Appends events; supports filtered queries used heavily in tests."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(self, time: float, kind: str, subject: str = "", *,
               core: Optional[int] = None, data: tuple = ()) -> None:
        if self.enabled:
            self.events.append(
                TraceEvent(time=time, kind=kind, subject=subject,
                           core=core, data=data))

    def filter(self, kind: Optional[str] = None,
               subject: Optional[str] = None,
               core: Optional[int] = None,
               predicate: Optional[Callable[[TraceEvent], bool]] = None,
               ) -> list[TraceEvent]:
        """Return events matching all provided criteria, in time order."""
        out = []
        for e in self.events:
            if kind is not None and e.kind != kind:
                continue
            if subject is not None and e.subject != subject:
                continue
            if core is not None and e.core != core:
                continue
            if predicate is not None and not predicate(e):
                continue
            out.append(e)
        return out

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # An empty recorder is still a recorder: never falsy, so
        # ``if self.trace:`` guards work as intended.
        return True

    def render(self) -> str:
        """Multi-line textual dump (debugging aid)."""
        return "\n".join(str(e) for e in self.events)


def render_gantt(recorder: TraceRecorder, *, num_cores: int,
                 horizon: float, slot: float = 1.0,
                 run_kind: str = "run",
                 width_label: int = 8) -> str:
    """Render per-core execution rows as ASCII (one char per ``slot``).

    Expects paired events: ``run`` events carrying ``data=(task, until)``
    meaning the core runs ``task`` from ``event.time`` to ``until``.  Used
    by the motivating example to visualise the Fig. 1 schedules.
    """
    slots = int(round(horizon / slot))
    rows = {k: ["."] * slots for k in range(num_cores)}
    for e in recorder.filter(kind=run_kind):
        if e.core is None or not e.data:
            continue
        label = (e.subject or "?")[-1]
        until = float(e.data[0])
        lo = int(round(e.time / slot))
        hi = int(round(until / slot))
        for idx in range(max(lo, 0), min(hi, slots)):
            rows[e.core][idx] = label
    lines = []
    for core in range(num_cores):
        prefix = f"core {core}".ljust(width_label)
        lines.append(prefix + "".join(rows[core]))
    return "\n".join(lines)
