"""A deterministic event queue for discrete-event simulation.

The SoC co-simulation's heap scheduler
(:class:`~repro.flexstep.soc.FlexStepSoC`) orders its per-core events
on :class:`EventQueue`.  Ties in time are broken by (priority, sequence
number), so two runs of the same scenario pop events in the same order.
The task-level EDF simulator (:mod:`repro.sched.simulation`) keeps its
own ``heapq`` loop.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Ordering is (time, priority, seq): lower priority value fires first
    at equal times; seq preserves insertion order for full determinism.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Owning queue while the event is buried in its heap; the queue
    #: clears it on pop so late cancels don't corrupt the live count.
    _queue: Optional["EventQueue"] = field(
        default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancel()


class EventQueue:
    """A priority queue of :class:`Event` with lazy cancellation.

    Internally the heap holds ``(time, priority, seq, event)`` tuples,
    so sift comparisons run on plain tuples at C speed instead of
    calling the dataclass ``__lt__`` — the SoC co-simulation's heap
    scheduler pushes and pops one event per arbitration round.

    ``len()``/``bool()`` are O(1): the queue keeps a live-event counter
    maintained at push/pop/cancel time.  Cancelled events stay buried
    in the heap until popped past, or until they outnumber live ones —
    then the heap is compacted in one pass.
    """

    #: Compact when cancelled events exceed this many *and* the live
    #: share of the heap drops below half.
    COMPACT_MIN_DEAD = 16

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0

    def push(self, time: float, callback: Callable[[], None], *,
             priority: int = 0, name: str = "") -> Event:
        seq = next(self._seq)
        event = Event(time=time, priority=priority, seq=seq,
                      callback=callback, name=name)
        event._queue = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            event._queue = None
            if not event.cancelled:
                self._live -= 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3]._queue = None
        return heap[0][0] if heap else None

    def peek_key(self) -> Optional[tuple[float, int]]:
        """``(time, priority)`` of the next live event, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3]._queue = None
        return heap[0][:2] if heap else None

    def _note_cancel(self) -> None:
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > self.COMPACT_MIN_DEAD and dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop buried cancelled events and re-heapify in one pass."""
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._queue = None
        self._heap = [entry for entry in self._heap
                      if not entry[3].cancelled]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
