"""Register Checkpoint Management + Memory Access Log on the main core.

:class:`MainCoreAdapter` bundles the three per-core units the paper adds
to a core configured as *main*:

* **CPC** — counts committed user-mode instructions and cuts checking
  segments at the instruction-count limit or at a privilege switch
  (Sec. III-A).  Kernel-mode commits are never checked.
* **ASS** — captures SCP/ECP architectural snapshots and stages them
  for transmission.
* **MAL** — packages each committed memory operation (one entry for
  LD/ST, multiple for LR/SC/AMO) in commit order (Sec. III-B).

The adapter drives its :class:`~repro.core.core.Core` in one of two
ways.  The ``loop`` co-sim scheduler (and the kernel layer) steps the
core with ``Core.step`` and lets the adapter's commit hook see each
``CommitRecord``, after a ``before_step`` call that captures the SCP
*before* the first instruction of a segment executes.  The ``heap``
scheduler calls :meth:`MainCoreAdapter.run_window`, which commits
user-mode instructions by calling the decoded kernels itself and logs
them without building records; every other commit takes the hook path.
Both log through one CPC/MAL routine, :meth:`_log_user_commit`.
A packet goes straight into every channel when nothing is staged
before it and each channel has room; otherwise it waits in the
adapter's outbound queue, which flushes into the channels in order, and
a full channel stalls the core.  The window's shared-step test skips
:meth:`step_entries_bound` for a commit that can stage nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..config import FlexStepConfig
from ..core.core import CommitRecord, Core
from ..core.decode import K_HALT, K_SC, K_SYSTEM, MAL_ENTRIES_BY_KIND
from ..core.registers import CSR_INSTRET, Privilege
from ..isa.instructions import MASK64, OpKind
from .dbc import Channel
from .packets import (
    ENTRY_BYTES,
    EcpPacket,
    IcPacket,
    MemPacket,
    Packet,
    ProgressPacket,
    ScpPacket,
    SegmentCloseReason,
)

#: Default cycles the main core stalls to extract a snapshot through the
#: ASS's single register-file read port (34 words, one per cycle).
SNAPSHOT_CAPTURE_CYCLES = 34

#: Additional per-channel cycles to serialise a snapshot into each FIFO
#: (17 two-word entries per checker channel).
SNAPSHOT_TRANSFER_CYCLES = 17

#: Memory Access Log entries an instruction of each kind code can log
#: (a successful SC logs one).
_MAL_ENTRIES_BOUND = tuple(
    1 if code == K_SC else entries
    for code, entries in enumerate(MAL_ENTRIES_BY_KIND))

#: Emit a progress heartbeat at least every this many user instructions.
PROGRESS_INTERVAL = 64


@dataclass
class AdapterStats:
    segments_opened: int = 0
    segments_closed: int = 0
    close_reasons: dict = field(default_factory=dict)
    mem_packets: int = 0
    progress_packets: int = 0
    extraction_stall_cycles: int = 0
    backpressure_stall_cycles: int = 0


class MainCoreAdapter:
    """CPC + ASS + MAL for one core in *main* attribute."""

    def __init__(self, core: Core, config: FlexStepConfig):
        self.core = core
        self.config = config
        self.capture_cycles = SNAPSHOT_CAPTURE_CYCLES
        self.transfer_cycles = SNAPSHOT_TRANSFER_CYCLES
        self.progress_interval = PROGRESS_INTERVAL
        self.channels: list[Channel] = []
        self.enabled = False
        self.stats = AdapterStats()
        # CPC state
        self._segment_open = False
        self._segment_id = 0
        self._count = 0
        self._last_progress = 0
        # outbound staging (the main core's own FIFO contents)
        self._outbox: Deque[Packet] = deque()
        self._hooked = False
        #: FIFO entries of one SCP/ECP snapshot packet.
        self._snapshot_entries = -(-core.snapshot().size_bytes
                                   // ENTRY_BYTES)

    # ------------------------------------------------------------------
    # configuration (driven by the FlexStep ISA facade)
    # ------------------------------------------------------------------

    def associate(self, channels: list[Channel]) -> None:
        """``M.associate``: bind the checker channel(s)."""
        self.channels = list(channels)

    def enable(self) -> None:
        """``M.check.enable``: begin cutting segments at the next
        user-mode instruction."""
        if not self.channels:
            raise RuntimeError("enable() before associate()")
        if not self._hooked:
            self.core.add_commit_hook(self._on_commit)
            self._hooked = True
        self.enabled = True

    def disable(self) -> None:
        """``M.check.disable``: close any open segment and stop."""
        if self._segment_open:
            self._close_segment(self.core.snapshot(),
                                SegmentCloseReason.CHECK_DISABLED)
        self.enabled = False

    # ------------------------------------------------------------------
    # SoC-loop interface
    # ------------------------------------------------------------------

    @property
    def blocked(self) -> bool:
        """True when staged packets exceed what the channels accepted —
        the core must stall (backpressure) until the checkers drain."""
        return bool(self._outbox)

    def before_step(self) -> None:
        """Called before the core executes its next instruction.

        Opens a new segment (capturing the SCP) when checking is
        enabled, no segment is open, and the core sits in user mode.
        The SCP-extraction stall is charged to the core directly.
        """
        if (not self.enabled or self._segment_open
                or self.core.halted
                or self.core.priv is not Privilege.USER):
            return
        self._segment_id += 1
        self._segment_open = True
        self._count = 0
        self._last_progress = 0
        self.stats.segments_opened += 1
        scp = ScpPacket(segment=self._segment_id,
                        push_cycle=self.core.stats.cycles,
                        snapshot=self.core.snapshot(),
                        program=self.core.program)
        self._stage(scp)
        self._charge_extraction()

    def step_entries_bound(self, kind: int) -> int:
        """Pure: an upper bound on the FIFO entries the core's next
        SoC-loop step (``before_step`` plus one instruction of kind code
        ``kind``) can stage.

        Exact for the SCP, the memory entries and the progress
        heartbeat; a segment close (IC + ECP) is counted whenever the
        step may end the segment: at the instruction-count limit, or on
        an ecall/mret/halt or a kernel-mode commit.
        """
        core = self.core
        if not self.enabled or core.halted:
            return 0
        snapshot = self._snapshot_entries
        if self._segment_open:
            entries, count, last = 0, self._count, self._last_progress
        elif core.priv is Privilege.USER:
            entries, count, last = snapshot, 0, 0
        else:
            return 0  # a kernel-mode commit outside a segment
        if (kind == K_SYSTEM or kind == K_HALT
                or core.priv is not Privilege.USER):
            return entries + 1 + snapshot
        count += 1
        mem = _MAL_ENTRIES_BOUND[kind]
        if mem:
            entries += mem
        elif count - last >= self.progress_interval:
            entries += 1
        if count >= self.config.segment_limit:
            entries += 1 + snapshot
        return entries

    def try_flush(self) -> None:
        """Move staged packets into every channel (broadcast).

        A packet leaves the outbox only when *all* channels accepted it
        (one-to-two mode must keep checkers consistent), so a single
        full channel backpressures the main core.
        """
        while self._outbox:
            packet = self._outbox[0]
            if not all(ch.can_push(packet) for ch in self.channels):
                return
            for ch in self.channels:
                ch.push(packet)
            self._outbox.popleft()

    def run_window(self, free: Optional[int], budget: int,
                   max_cycles: Optional[int], shared_memory: bool) -> int:
        """One heap co-sim round of the main core (see
        ``FlexStepSoC._run_heap``); returns the instructions committed.

        Runs up to ``budget`` instructions: every step that touches no
        shared state, and shared steps only while the clock is below
        ``free`` (the core is the co-sim minimum; None = always).  A
        shared step may miss the L1I or the L1D, access memory another
        core can write (``shared_memory``), halt, or stage entries that
        a channel could refuse or that would raise its
        ``max_occupancy``.  The first step is always taken; later ones
        must start below ``max_cycles``, and none follows a
        backpressured push.

        A user-mode commit (the common case; ``before_step`` first
        opens a segment if none is open) runs the decoded kernel
        directly, with no ``CommitRecord``.  A fetch of the L1I's last
        line only counts a hit (see ``Cache.last_line``).  The commit
        logs through :meth:`_log_user_commit` when it has MAL entries or
        reaches the heartbeat or the segment limit; otherwise the CPC
        count is all that changes.  A memory-free commit that starts a
        block of the decode's table (see
        :meth:`DecodedProgram.block_table`) commits the whole block in
        one call when the round is unbounded (no ``max_cycles``), the
        block fits in ``budget``, the outbox is empty after
        ``before_step`` (a refused SCP ends the round after one step),
        and its last member stays below the heartbeat and the segment
        limit: every member then passes the shared-step test with a
        last-line fetch and no staged entry, so the CPC count grows by
        the block's length.  Every other step -- a kernel-mode
        commit, an ecall/mret, a halt, the ``interp`` engine, or a core
        carrying another commit hook -- takes ``before_step`` plus
        ``Core.step`` and this adapter's commit hook, exactly as the
        ``loop`` scheduler does.
        """
        core = self.core
        if core.halted:
            return 0
        stats = core.stats
        decoded = core.decoded()
        base = decoded.base
        size = decoded.limit
        kernels = decoded.kernels
        kinds = decoded.kinds
        mem_operands = decoded.mem_operands
        regs = core.regs._regs
        csrd = core.csrs._csrs
        # every SoC core has an L1I on the shared hierarchy
        hierarchy = core.hierarchy
        l1i = core.l1i
        line_shift = l1i.line_shift
        l1i_stats = l1i.stats
        l1d = getattr(core.port, "l1d", None)
        outbox = self._outbox
        channels = self.channels
        enabled = self.enabled
        progress_interval = self.progress_interval
        segment_limit = self.config.segment_limit
        user = Privilege.USER
        fused = (enabled and core._use_kernels
                 and core._hooks == [self._on_commit])
        fast = fused and core.priv is user
        blocks = decoded.block_table(line_shift)
        block_at = decoded.block_at
        unbounded = max_cycles is None
        done = 0
        while done < budget:
            if enabled and outbox:
                break  # the next round stalls, if this core is minimum
            pc = core.pc
            off = pc - base
            if 0 <= off < size and not off & 3:
                idx = off >> 2
                kind = kinds[idx]
                operands = mem_operands[idx]
            else:
                kind = -1  # the fetch faults: let Core.step raise it
            if done:
                clock = stats.cycles
                if max_cycles is not None and clock >= max_cycles:
                    break
                if free is not None and clock >= free:
                    # shared-step test (pure): yield before the step
                    if kind < 0 or kind == K_HALT:
                        break
                    if pc >> line_shift != l1i.last_line \
                            and not l1i.contains(pc):
                        break
                    if operands is not None and (
                            shared_memory or l1d is None
                            or not l1d.contains(
                                (regs[operands[0]] + operands[1])
                                & MASK64)):
                        break
                    count = self._count + 1
                    if (fast and operands is None and kind != K_SYSTEM
                            and self._segment_open
                            and count - self._last_progress
                            < progress_interval
                            and count < segment_limit):
                        entries = 0  # a CPC-only commit stages nothing
                    else:
                        entries = self.step_entries_bound(kind)
                    if entries:
                        quiet = True
                        for ch in channels:
                            if not ch.takes_quietly(entries):
                                quiet = False
                                break
                        if not quiet:
                            break
            if fast and kind >= 0 and kind != K_SYSTEM and kind != K_HALT:
                if not self._segment_open:
                    self.before_step()
                kernel = kernels[idx]
                take = 1
                if operands is not None:
                    core._mem_scratch = ()
                elif unbounded and not outbox:
                    block = blocks[idx]
                    if block is None:
                        block = block_at(idx, line_shift)
                    if block and done + block[1] <= budget:
                        # The whole block commits CPC-only when its last
                        # member stays below the heartbeat and the
                        # segment limit: every member then passes the
                        # shared-step test and stages nothing.
                        count = self._count + block[1]
                        if (count - self._last_progress < progress_interval
                                and count < segment_limit):
                            kernel, take, _ = block
                if pc >> line_shift == l1i.last_line:
                    l1i_stats.hits += take
                    extra = 0
                else:
                    extra = hierarchy.fetch_access(l1i, pc)
                    l1i_stats.hits += take - 1
                cycles = kernel(core) + extra
                stats.instructions += take
                stats.user_instructions += take
                stats.cycles += cycles
                csrd[CSR_INSTRET] += take
                done += take
                if operands is None:
                    # CPC only, unless the commit reaches the heartbeat
                    # or the segment limit
                    count = self._count + take
                    if (count - self._last_progress < progress_interval
                            and count < segment_limit):
                        self._count = count
                        continue
                    self._log_user_commit(())
                else:
                    self._log_user_commit(core._mem_scratch)
                continue
            if enabled:
                self.before_step()
            core.step()
            self.try_flush()
            done += 1
            if core.halted:
                break
            fast = fused and core.priv is user
        return done

    # ------------------------------------------------------------------
    # CPC / MAL behaviour at commit
    # ------------------------------------------------------------------

    def _on_commit(self, record: CommitRecord) -> None:
        if not self.enabled:
            return
        if (record.priv is not Privilege.USER or record.trap
                or record.inst.info.kind is OpKind.HALT):
            # Kernel-mode commit, the user->kernel transition itself
            # (ecall), or a halt: never part of a segment.
            # A checker core cannot replay any of these.
            if self._segment_open:
                ecp = self.core.snapshot()
                if record.trap or record.inst.info.kind is OpKind.HALT:
                    # The architectural point the user thread stopped at
                    # is the trapped/halted pc, not where the core went.
                    ecp = type(ecp)(npc=record.pc, regs=ecp.regs,
                                    csrs=ecp.csrs)
                self._close_segment(ecp, SegmentCloseReason.PRIV_SWITCH)
            return
        if not self._segment_open:
            # User-mode commit without an open segment can only happen if
            # enable() raced a step; before_step() opens on the next one.
            return
        self._log_user_commit(record.mem_ops)

    def _log_user_commit(self, mem_ops) -> None:
        """CPC + MAL for one committed user-mode instruction of the open
        segment, whose Memory Access Log entries are ``mem_ops``: stage
        one ``MemPacket`` per entry (or a progress heartbeat after
        ``progress_interval`` memory-free commits) and close the segment
        at the instruction-count limit.  The commit hook and the fused
        window (:meth:`run_window`) both log through here; the window
        bumps ``_count`` itself for a memory-free commit that reaches
        neither threshold."""
        count = self._count = self._count + 1
        if mem_ops:
            cycles = self.core.stats.cycles
            segment = self._segment_id
            stage = self._stage
            for entry in mem_ops:
                stage(MemPacket(segment, cycles, count, entry.kind,
                                entry.addr, entry.data))
            self.stats.mem_packets += len(mem_ops)
            self._last_progress = count
        elif count - self._last_progress >= self.progress_interval:
            self._stage(ProgressPacket(segment=self._segment_id,
                                       push_cycle=self.core.stats.cycles,
                                       count=count))
            self._last_progress = count
            self.stats.progress_packets += 1
        if count >= self.config.segment_limit:
            self._close_segment(self.core.snapshot(),
                                SegmentCloseReason.LIMIT)

    def _close_segment(self, ecp_snapshot, reason: SegmentCloseReason,
                       ) -> None:
        cycles = self.core.stats.cycles
        self._stage(IcPacket(segment=self._segment_id, push_cycle=cycles,
                             count=self._count, reason=reason))
        self._stage(EcpPacket(segment=self._segment_id, push_cycle=cycles,
                              snapshot=ecp_snapshot))
        self._segment_open = False
        self.stats.segments_closed += 1
        self.stats.close_reasons[reason] = (
            self.stats.close_reasons.get(reason, 0) + 1)
        # ECP extraction stalls the core just like SCP capture.
        self._charge_extraction()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _stage(self, packet: Packet) -> None:
        """Send ``packet`` to every channel.  With nothing staged before
        it and room in every channel, it is pushed straight in;
        otherwise it joins the outbox and :meth:`try_flush` runs.  Both
        make the same pushes in the same order."""
        outbox = self._outbox
        if not outbox:
            entries = packet.entries
            channels = self.channels
            for ch in channels:
                if ch.capacity - ch.occupancy < entries:
                    break
            else:
                for ch in channels:
                    ch.push(packet)
                return
        outbox.append(packet)
        self.try_flush()

    def _extraction_cost(self) -> int:
        return (self.capture_cycles
                + self.transfer_cycles * max(1, len(self.channels)))

    def _charge_extraction(self) -> None:
        cost = self._extraction_cost()
        self.core.stats.cycles += cost
        self.core.stats.stall_cycles += cost
        self.stats.extraction_stall_cycles += cost
