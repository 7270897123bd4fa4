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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..core.registers import ArchSnapshot

#: Bytes per FIFO entry (64-bit address + 64-bit data), matching
#: FlexStepConfig.fifo_entry_bytes.
ENTRY_BYTES = 16


class SegmentCloseReason(enum.Enum):
    """Why the main core's CPC ended a checking segment (Sec. III-A)."""

    LIMIT = "limit"                # instruction count limit reached
    PRIV_SWITCH = "priv_switch"    # trap/ecall: entered kernel mode
    CHECK_DISABLED = "disabled"    # M.check.disable at a context switch


@dataclass(frozen=True)
class Packet:
    """Base packet: segment id + cycle the main core pushed it."""

    segment: int
    push_cycle: int

    @property
    def entries(self) -> int:
        return 1


@dataclass(frozen=True)
class ScpPacket(Packet):
    """Start Register Checkpoint: the state a replay begins from."""

    snapshot: ArchSnapshot = None  # type: ignore[assignment]

    @property
    def entries(self) -> int:
        return -(-self.snapshot.size_bytes // ENTRY_BYTES)


@dataclass(frozen=True)
class MemPacket(Packet):
    """One Memory Access Log entry.

    ``count`` is the 1-based user-instruction index inside the segment
    of the instruction that produced this access; ``kind`` is ``"r"``
    or ``"w"``.  Multi-micro-op instructions (LR/SC/AMO) produce
    multiple packets with the same ``count`` (Sec. III-B).
    """

    count: int = 0
    kind: str = "r"
    addr: int = 0
    data: int = 0


@dataclass(frozen=True)
class ProgressPacket(Packet):
    """Instruction-count heartbeat: 'the segment has reached count'."""

    count: int = 0


@dataclass(frozen=True)
class IcPacket(Packet):
    """Final instruction count of the segment (Fig. 3 'IC')."""

    count: int = 0
    reason: SegmentCloseReason = SegmentCloseReason.LIMIT


@dataclass(frozen=True)
class EcpPacket(Packet):
    """End Register Checkpoint: the state replay must land on."""

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
        if word_index % 2 == 0:
            return replace(packet, addr=packet.addr ^ mask)
        return replace(packet, data=packet.data ^ mask)
    if isinstance(packet, IcPacket):
        return replace(packet, count=packet.count ^ mask)
    if isinstance(packet, ProgressPacket):
        return replace(packet, count=packet.count ^ mask)
    raise TypeError(f"cannot inject into {type(packet).__name__}")
