"""Packets streamed over the DBC from a main core to its checker(s).

Per paper Fig. 3, a checking segment is transmitted as::

    SCP,  <memory entries in commit order>,  IC,  ECP

We add one packet type the paper leaves implicit: :class:`ProgressPacket`,
a committed-instruction-count heartbeat.  The hardware CPC units share
the main core's live instruction count through the checker's CPC (both
sit on the same die); in a message-passing simulation that sideband must
be made explicit, otherwise the checker could replay past an
asynchronously-cut segment boundary.  Progress packets are emitted at
most once per ``progress_interval`` user instructions and cost one FIFO
entry, so their bandwidth is negligible.

Each packet knows its ``entries`` cost — the number of FIFO slots it
occupies — which drives capacity accounting and backpressure.

The framing packets are frozen dataclasses.  :class:`MemPacket`, one per
committed memory access and so most of the stream, is a slotted record
built from positional arguments, as immutable as the others.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass, field, replace
from typing import Optional

from ..core.registers import ArchSnapshot
from ..isa.program import Program

#: Bytes per FIFO entry (64-bit address + 64-bit data), matching
#: FlexStepConfig.fifo_entry_bytes.
ENTRY_BYTES = 16


class SegmentCloseReason(enum.Enum):
    """Why the main core's CPC ended a checking segment (Sec. III-A)."""

    LIMIT = "limit"                # instruction count limit reached
    PRIV_SWITCH = "priv_switch"    # trap/ecall: entered kernel mode
    CHECK_DISABLED = "disabled"    # M.check.disable at a context switch


class Packet:
    """Base of every packet: segment id + cycle the main core pushed it,
    and the FIFO entries it occupies."""

    __slots__ = ()

    segment: int
    push_cycle: int
    entries = 1


@dataclass(frozen=True)
class ScpPacket(Packet):
    """Start Register Checkpoint: the state a replay begins from.

    ``program`` is the address space the segment runs in, as the
    checkpoint's address-space register names it; the checker loads it
    when it accepts the SCP.  It takes no FIFO entry and no part in
    equality.
    """

    segment: int
    push_cycle: int
    snapshot: ArchSnapshot = None  # type: ignore[assignment]
    program: Optional[Program] = field(default=None, compare=False,
                                       repr=False)

    @property
    def entries(self) -> int:
        return -(-self.snapshot.size_bytes // ENTRY_BYTES)


class MemPacket(Packet):
    """One Memory Access Log entry.

    ``count`` is the 1-based user-instruction index inside the segment
    of the instruction that produced this access; ``kind`` is ``"r"``
    or ``"w"``.  Multi-micro-op instructions (LR/SC/AMO) produce
    multiple packets with the same ``count`` (Sec. III-B).

    Equality, hash and repr are those of a frozen dataclass with these
    fields; assigning or deleting a field raises
    :class:`~dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("segment", "push_cycle", "count", "kind", "addr", "data")

    def __init__(self, segment: int, push_cycle: int, count: int = 0,
                 kind: str = "r", addr: int = 0, data: int = 0):
        # the slot descriptors' setters bypass the frozen __setattr__
        _set_segment(self, segment)
        _set_push_cycle(self, push_cycle)
        _set_count(self, count)
        _set_kind(self, kind)
        _set_addr(self, addr)
        _set_data(self, data)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return (self.segment, self.push_cycle, self.count, self.kind,
                self.addr, self.data)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(segment={self.segment!r}, "
                f"push_cycle={self.push_cycle!r}, count={self.count!r}, "
                f"kind={self.kind!r}, addr={self.addr!r}, "
                f"data={self.data!r})")


(_set_segment, _set_push_cycle, _set_count, _set_kind, _set_addr,
 _set_data) = (getattr(MemPacket, name).__set__
               for name in MemPacket.__slots__)


@dataclass(frozen=True)
class ProgressPacket(Packet):
    """Instruction-count heartbeat: 'the segment has reached count'."""

    segment: int
    push_cycle: int
    count: int = 0


@dataclass(frozen=True)
class IcPacket(Packet):
    """Final instruction count of the segment (Fig. 3 'IC')."""

    segment: int
    push_cycle: int
    count: int = 0
    reason: SegmentCloseReason = SegmentCloseReason.LIMIT


@dataclass(frozen=True)
class EcpPacket(Packet):
    """End Register Checkpoint: the state replay must land on."""

    segment: int
    push_cycle: int
    snapshot: ArchSnapshot = None  # type: ignore[assignment]

    @property
    def entries(self) -> int:
        return -(-self.snapshot.size_bytes // ENTRY_BYTES)


def flip_bits_in_packet(packet: Packet, word_index: int,
                        bits: "tuple[int, ...]") -> Packet:
    """Return a copy of ``packet`` with several bits flipped in one
    payload word — the multi-bit-burst fault primitive.  Flipping the
    same word twice with the same mask restores it, so callers pass
    distinct bit positions.
    """
    out = packet
    for bit in bits:
        out = flip_bit_in_packet(out, word_index, bit)
    return out


def flip_bit_in_packet(packet: Packet, word_index: int, bit: int) -> Packet:
    """Return a copy of ``packet`` with one bit flipped in one payload
    word — the fault-injection primitive (paper Sec. VI-C injects into
    "forwarded data from the main core").

    Word indexing: for SCP/ECP packets, the snapshot's
    :meth:`~repro.core.registers.ArchSnapshot.words` view; for memory
    packets, word 0 is the address and word 1 the data; for IC/progress
    packets, word 0 is the count.
    """
    mask = 1 << bit
    if isinstance(packet, (ScpPacket, EcpPacket)):
        words = list(packet.snapshot.words())
        words[word_index % len(words)] ^= mask
        snap = ArchSnapshot.from_words(tuple(words),
                                       num_csrs=len(packet.snapshot.csrs))
        return replace(packet, snapshot=snap)
    if isinstance(packet, MemPacket):
        addr, data = packet.addr, packet.data
        if word_index % 2 == 0:
            addr ^= mask
        else:
            data ^= mask
        return MemPacket(packet.segment, packet.push_cycle, packet.count,
                         packet.kind, addr, data)
    if isinstance(packet, IcPacket):
        return replace(packet, count=packet.count ^ mask)
    if isinstance(packet, ProgressPacket):
        return replace(packet, count=packet.count ^ mask)
    raise TypeError(f"cannot inject into {type(packet).__name__}")
