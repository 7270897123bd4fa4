"""Data Buffering and Channelling (DBC) — paper Sec. III-C.

A :class:`Channel` models the combined buffering along one main→checker
path: the producing share of the main core's Data Buffer FIFO plus the
checker core's FIFO.  Capacity is counted in 16-byte entries; a push
that does not fit is refused, which the SoC turns into main-core stall
cycles (backpressure).

The :class:`SystemInterconnect` is the fully connected MUX–DEMUX
network: a global register maps each main core to the checker cores it
forwards to (one-to-one for DCLS-like dual mode, one-to-two for
TCLS-like triple mode, and so on up to ``max_checkers_per_main``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, Optional

from ..config import FlexStepConfig
from ..errors import ChannelError, ConfigurationError
from .packets import Packet


@dataclass
class ChannelStats:
    pushes: int = 0
    pops: int = 0
    entries_pushed: int = 0
    refusals: int = 0
    max_occupancy: int = 0


class Channel:
    """One main→checker stream with entry-granular capacity."""

    def __init__(self, main_id: int, checker_id: int, *,
                 capacity_entries: int, latency_cycles: int = 1):
        if capacity_entries <= 0:
            raise ConfigurationError("channel capacity must be positive")
        self.main_id = main_id
        self.checker_id = checker_id
        self.capacity = capacity_entries
        self.latency = latency_cycles
        self.occupancy = 0
        self.stats = ChannelStats()
        self._queue: Deque[Packet] = deque()
        #: Observers called on every successful push (fault injection).
        self._push_taps: list[Callable[[Packet], Packet]] = []

    def add_push_tap(self, tap: Callable[[Packet], Packet]) -> None:
        """Register a function applied to each pushed packet; it may
        return a (possibly corrupted) replacement packet."""
        self._push_taps.append(tap)

    def free_entries(self) -> int:
        return self.capacity - self.occupancy

    def can_push(self, packet: Packet) -> bool:
        return packet.entries <= self.free_entries()

    def takes_quietly(self, entries: int) -> bool:
        """Pure: can ``entries`` more entries be pushed now without a
        refusal and without raising ``max_occupancy``?

        Pops only lower the occupancy, so the answer stays True however
        many pops the checker makes before the pushes really happen.
        """
        return self.occupancy + entries <= min(self.capacity,
                                               self.stats.max_occupancy)

    def push(self, packet: Packet) -> bool:
        """Append ``packet`` if it fits; returns success.  A tap keeps
        the packet's ``entries`` (it flips payload bits only)."""
        entries = packet.entries
        stats = self.stats
        if entries > self.capacity - self.occupancy:
            stats.refusals += 1
            return False
        for tap in self._push_taps:
            packet = tap(packet)
        self._queue.append(packet)
        occupancy = self.occupancy = self.occupancy + entries
        stats.pushes += 1
        stats.entries_pushed += entries
        if occupancy > stats.max_occupancy:
            stats.max_occupancy = occupancy
        return True

    def head(self, now: Optional[int] = None) -> Optional[Packet]:
        """Peek the oldest packet; ``now`` (checker cycles) gates on the
        channel delivery latency when provided."""
        if not self._queue:
            return None
        packet = self._queue[0]
        if now is not None and now < packet.push_cycle + self.latency:
            return None
        return packet

    def next_visible(self, now: int) -> Optional[int]:
        """The first cycle ``>= now`` at which a buffered packet becomes
        visible to the checker, or None if every packet already is.

        Pushes happen in main-clock order, so visibility cycles never
        decrease along the queue; the scan walks from the head and
        stops at the first packet not visible before ``now`` (a waiting
        checker has at most a few visible packets ahead of it, while a
        main core running ahead may have queued many invisible ones).
        """
        latency = self.latency
        for packet in self._queue:
            cycle = packet.push_cycle + latency
            if cycle >= now:
                return cycle
        return None

    def pop(self, now: Optional[int] = None) -> Packet:
        packet = self.pop_visible(math.inf if now is None else now)
        if packet is None:
            raise ChannelError(
                f"pop from empty/not-yet-delivered channel "
                f"{self.main_id}->{self.checker_id}")
        return packet

    def pop_visible(self, now: float, cls: type = Packet,
                    ) -> Optional[Packet]:
        """Pop the head and return it if it is a ``cls`` visible at
        ``now``; otherwise pop nothing and return None.  One call per
        packet on the checker's hot paths (a logged access, a SKIP
        drain)."""
        queue = self._queue
        if queue:
            packet = queue[0]
            if now >= packet.push_cycle + self.latency \
                    and isinstance(packet, cls):
                queue.popleft()
                self.occupancy -= packet.entries
                self.stats.pops += 1
                return packet
        return None

    def __len__(self) -> int:
        return len(self._queue)

    def iter_packets(self) -> Iterable[Packet]:
        """Inspection without consumption (fault-injection targeting)."""
        return iter(self._queue)

class SystemInterconnect:
    """Global-register-controlled MUX/DEMUX network between core FIFOs.

    ``configure(main_id, checker_ids)`` is the hardware effect of
    ``G.Configure`` + ``M.associate``: it builds one :class:`Channel`
    per (main, checker) pair.  The main core's FIFO share is split
    across its channels, so one-to-two mode has less slack per channel
    than one-to-one — the source of the slightly higher triple-core
    slowdown (paper Fig. 6).
    """

    def __init__(self, num_cores: int, config: FlexStepConfig):
        self.num_cores = num_cores
        self.config = config
        self._channels: dict[tuple[int, int], Channel] = {}
        self._checkers_of: dict[int, tuple[int, ...]] = {}
        self._main_of: dict[int, int] = {}

    def configure(self, main_id: int, checker_ids: Iterable[int],
                  ) -> list[Channel]:
        """Establish channels from ``main_id`` to each checker."""
        ids = tuple(checker_ids)
        if not ids:
            raise ConfigurationError("at least one checker required")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate checker ids {ids}")
        if len(ids) > self.config.max_checkers_per_main:
            raise ConfigurationError(
                f"{len(ids)} checkers exceeds mode limit "
                f"{self.config.max_checkers_per_main}")
        for cid in (main_id, *ids):
            if not 0 <= cid < self.num_cores:
                raise ConfigurationError(f"core id {cid} out of range")
        if main_id in ids:
            raise ConfigurationError(
                f"core {main_id} cannot check itself")
        for cid in ids:
            bound = self._main_of.get(cid)
            if bound is not None and bound != main_id:
                raise ConfigurationError(
                    f"checker {cid} already serves main {bound}")
        if self._checkers_of.get(main_id) == ids:
            # Re-associating the same wiring is a no-op (the global
            # register already holds these ids); buffered data survives.
            return self.channels_of(main_id)
        self.release(main_id)
        main_share = self.config.total_buffer_entries // len(ids)
        capacity = self.config.fifo_entries + main_share
        channels = []
        for cid in ids:
            channel = Channel(main_id, cid, capacity_entries=capacity,
                              latency_cycles=self.config.
                              channel_latency_cycles)
            self._channels[(main_id, cid)] = channel
            self._main_of[cid] = main_id
            channels.append(channel)
        self._checkers_of[main_id] = ids
        return channels

    def release(self, main_id: int) -> None:
        """Tear down all of ``main_id``'s channels."""
        for cid in self._checkers_of.pop(main_id, ()):
            self._channels.pop((main_id, cid), None)
            self._main_of.pop(cid, None)

    def channels_of(self, main_id: int) -> list[Channel]:
        return [self._channels[(main_id, cid)]
                for cid in self._checkers_of.get(main_id, ())]

    def channel_to(self, checker_id: int) -> Optional[Channel]:
        main_id = self._main_of.get(checker_id)
        if main_id is None:
            return None
        return self._channels.get((main_id, checker_id))

    def checkers_of(self, main_id: int) -> tuple[int, ...]:
        return self._checkers_of.get(main_id, ())

    def main_of(self, checker_id: int) -> Optional[int]:
        return self._main_of.get(checker_id)
