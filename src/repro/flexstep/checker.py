"""Checker-core replay engine (paper Secs. II, III and Algorithm 2).

A core configured as *checker* re-executes checking segments received
over its inbound channel:

1. ``C.record`` — save the checker's own context into its ASS.
2. Wait for an SCP, ``C.apply`` it and ``C.jal`` to its ``npc``.
3. Replay user instructions.  Loads take their data from the Memory
   Access Log stream instead of memory (the checker "halts memory
   access"); every logged address and store value is verified against
   what the replay computes.
4. When the replayed instruction count reaches the segment's IC, compare
   the architectural state against the ECP and report via ``C.result``.

The engine is driven in small steps by the SoC co-simulation so checker
cycles interleave realistically with main-core cycles; backpressure and
detection latency emerge from that interleaving.

:meth:`CheckerEngine.step` replays one instruction at a time
(``peek_kind_code`` + ``exec_one``); the ``loop`` co-sim scheduler
drives replay through it alone.  The ``heap`` scheduler's
:meth:`CheckerEngine.run_ahead` also replays the common case -- an
instruction the stream already covers that is not a system op, a halt,
an SC or an AMO -- in one loop over the decoded kernels
(:meth:`CheckerEngine._replay_run`), drains a failed segment's visible
packets in one loop (:meth:`CheckerEngine._skip_run`) and leaves every
other action to ``step``; the ``loop`` scheduler's per-packet
``_step_skip`` is the drain's oracle.  A logged access pops its entry
in one channel call (:meth:`Channel.pop_visible`).  Main cores may run
under any ``REPRO_CORE_ENGINE`` tier (``interp``/``decoded``) and
produce bit-identical commit streams, MAL entries and checkpoints; the
differential suite replays injected faults under every tier to prove
detection results are engine-invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.core import Core
from ..core.decode import (
    K_AMO,
    K_HALT,
    K_SC,
    K_SYSTEM,
    MAL_ENTRIES_BY_KIND,
)
from ..core.registers import CSR_INSTRET, ArchSnapshot, Privilege
from ..errors import VerificationMismatch
from ..isa.program import Program
from .dbc import Channel
from .packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    Packet,
    ProgressPacket,
    ScpPacket,
    SegmentCloseReason,
)

#: Kind codes :meth:`CheckerEngine._replay_run` leaves to
#: :meth:`CheckerEngine._step_replay`: system ops and halts (a segment
#: never contains one), SC (it logs an entry only when its reservation
#: holds) and AMO (two entries).
_STEP_ONLY_KINDS = frozenset((K_SYSTEM, K_HALT, K_SC, K_AMO))

#: Cycles to apply an SCP / compare an ECP through the ASS ports.
APPLY_CYCLES = 10
COMPARE_CYCLES = 10


class ReplayMismatch(VerificationMismatch):
    """A divergence discovered during replay (memory entry or stream)."""


class CheckerState(enum.Enum):
    IDLE = "idle"            # checking disabled (C.check_state idle)
    WAIT_SCP = "wait_scp"    # busy, waiting for a segment to start
    REPLAY = "replay"        # re-executing a segment
    SKIP = "skip"            # draining a failed segment's leftovers


@dataclass
class SegmentResult:
    """``C.result`` payload for one checked segment."""

    segment: int
    ok: bool
    count: int
    detail: str = ""
    detect_cycle: int = 0
    close_reason: Optional[SegmentCloseReason] = None


@dataclass
class CheckerStats:
    segments_checked: int = 0
    segments_failed: int = 0
    replayed_instructions: int = 0
    idle_cycles: int = 0
    verified_entries: int = 0


class ReplayPort:
    """Memory port that feeds loads from, and verifies stores against,
    the Memory Access Log stream."""

    def __init__(self, engine: "CheckerEngine"):
        self.engine = engine

    def _next_entry(self) -> MemPacket:
        engine = self.engine
        now = engine.core.stats.cycles
        entry = engine.channel.pop_visible(now, MemPacket)
        if entry is None:
            packet = engine.channel.head(now)
            raise ReplayMismatch(
                "memory access with no matching log entry "
                f"(head={type(packet).__name__ if packet else 'empty'})")
        return entry

    def read(self, addr: int) -> tuple[int, int]:
        entry = self._next_entry()
        if entry.kind != "r" or entry.addr != addr:
            raise ReplayMismatch(
                f"read divergence: replay addr {addr:#x}, "
                f"log ({entry.kind!r}, {entry.addr:#x})")
        self.engine.stats.verified_entries += 1
        return entry.data, 1

    def write(self, addr: int, value: int) -> int:
        entry = self._next_entry()
        if entry.kind != "w" or entry.addr != addr or entry.data != value:
            raise ReplayMismatch(
                f"write divergence: replay ({addr:#x}, {value:#x}), "
                f"log ({entry.kind!r}, {entry.addr:#x}, {entry.data:#x})")
        self.engine.stats.verified_entries += 1
        return 1


class CheckerEngine:
    """State machine running on a checker-attributed core."""

    def __init__(self, core: Core, channel: Channel, *,
                 segment_service_pause: int = 0):
        self.core = core
        self.channel = channel
        self.port = ReplayPort(self)
        self.state = CheckerState.IDLE
        self.stats = CheckerStats()
        self.results: list[SegmentResult] = []
        self._saved_program = None
        #: Cycles the checker spends away from verification after each
        #: segment (asynchronous checking: the checker core may execute
        #: other tasks between segments, paper Sec. II).  Used by the
        #: detection-latency experiment; zero = dedicated checker.
        self.segment_service_pause = segment_service_pause
        self._saved_context: Optional[ArchSnapshot] = None
        self._saved_port = None
        # per-segment replay state
        self._segment = 0
        self._executed = 0
        self._safe_count = 0
        self._ic: Optional[int] = None
        self._ic_reason: Optional[SegmentCloseReason] = None
        #: Frozen replay state across a preemption of the checker thread
        #: (state, mid-replay architectural snapshot and program, or
        #: None for both).
        self._frozen: Optional[tuple[CheckerState, Optional[ArchSnapshot],
                                     Optional[Program]]] = None
        #: Lookahead fetch gate (:meth:`run_ahead`): from this clock on,
        #: a replay fetch that would miss the L1I is not taken and
        #: ``_fetch_yield`` is raised instead.
        self._fetch_gate: Optional[int] = None
        self._fetch_yield = False

    # ------------------------------------------------------------------
    # control (C.check_state / C.record)
    # ------------------------------------------------------------------

    def start_checking(self) -> None:
        """``C.check_state(busy)`` + ``C.record``: save the core's own
        context to the ASS, swap in the replay memory port, and resume
        any replay frozen by an earlier preemption."""
        if self.state is not CheckerState.IDLE:
            return
        self._saved_context = self.core.snapshot()
        self._saved_port = self.core.port
        self._saved_program = self.core.program
        self.core.port = self.port
        if self._frozen is not None:
            state, snap, program = self._frozen
            self._frozen = None
            if snap is not None:
                self.core.program = program
                self.core.restore(snap)
                self.core.halted = False
            self.state = state
        else:
            self.state = CheckerState.WAIT_SCP

    def stop_checking(self) -> None:
        """``C.check_state(idle)``: freeze any in-flight replay (its
        progress lives in the ASS) and restore the saved context so the
        core can run ordinary tasks.  Buffered segments keep
        accumulating in the DBC meanwhile — that is the asynchrony that
        lets verification be preempted (Fig. 1(c))."""
        if self.state is CheckerState.IDLE:
            return
        if self.state is CheckerState.REPLAY:
            self._frozen = (self.state, self.core.snapshot(),
                            self.core.program)
        elif self.state is CheckerState.SKIP:
            self._frozen = (self.state, None, None)
        else:
            self._frozen = None
        if self._saved_port is not None:
            self.core.port = self._saved_port
        self.core.program = self._saved_program
        if self._saved_context is not None:
            self.core.restore(self._saved_context)
        self.state = CheckerState.IDLE

    @property
    def busy(self) -> bool:
        return self.state is not CheckerState.IDLE

    @property
    def drained(self) -> bool:
        """True when no segment is in flight and the channel is empty."""
        return self.state in (CheckerState.IDLE, CheckerState.WAIT_SCP) \
            and len(self.channel) == 0

    # ------------------------------------------------------------------
    # main loop step
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the checker by one action; charges its own cycles."""
        if self.state is CheckerState.IDLE:
            self._idle(1)
            return
        if self.state is CheckerState.WAIT_SCP:
            self._step_wait_scp()
        elif self.state is CheckerState.REPLAY:
            self._step_replay()
        elif self.state is CheckerState.SKIP:
            self._step_skip()

    def advance(self, horizon: Optional[int], max_actions: int) -> None:
        """Run a batch of checker actions between co-sim sync points.

        Takes at least one action (the co-simulation's progress
        guarantee) and at most ``max_actions``, going on while the
        checker's local clock stays below ``horizon`` — the point where
        another core would become the event-ordering minimum — and
        there is conceivably work left.  Every idle cycle is one
        action: this is the ``loop`` oracle's batch.
        """
        core_stats = self.core.stats
        done = 0
        while True:
            self.step()
            done += 1
            if done >= max_actions:
                break
            if self.state is CheckerState.IDLE or self.drained:
                break
            if horizon is not None and core_stats.cycles >= horizon:
                break

    def run_ahead(self, limit: Optional[int], free: Optional[int], *,
                  until_drained: bool) -> None:
        """The heap co-sim's lookahead batch (see ``FlexStepSoC``).

        Takes at least one action, then every action that starts below
        ``limit``: the main core's clock, since every packet the main
        will still push has ``push_cycle`` at or past it (None once the
        main pushes no more).  The checker shares nothing else with
        other cores but the L2, so the only other bound is its own L1I
        miss: at a clock ``>= free`` (where the checker stops being the
        co-sim minimum; None = never) the batch ends *before* a fetch
        that would miss, and the fetch runs when the checker is next
        the minimum.  ``until_drained`` ends the batch once the checker
        has drained (its main is done).

        Besides :meth:`step`, the batch replays covered instructions in
        :meth:`_replay_run` and drains a failed segment (SKIP) in
        :meth:`_skip_run`; both stop where a step would end the batch,
        so the batch takes the actions ``step`` would, one loop each.

        A pure wait (a step that only idled) would repeat unchanged
        until the next buffered packet becomes visible
        (:meth:`Channel.next_visible`) or the main pushes, so the clock
        jumps straight to the earlier of that cycle and ``limit`` and
        the skipped cycles are charged as idle.  If neither exists (the
        main is done and nothing buffered can end the wait), the batch
        ends where it is.
        """
        stats = self.stats
        core_stats = self.core.stats
        self._fetch_gate = free
        try:
            while True:
                if self.state is CheckerState.REPLAY and self._ic is None \
                        and self._replay_run(limit):
                    if limit is not None and core_stats.cycles >= limit:
                        return
                if self.state is not CheckerState.SKIP \
                        or not self._skip_run(limit):
                    idle = stats.idle_cycles
                    self.step()
                    if self._fetch_yield:
                        self._fetch_yield = False
                        return
                    if stats.idle_cycles != idle:
                        wake = self.channel.next_visible(core_stats.cycles)
                        if wake is None \
                                or (limit is not None and wake > limit):
                            wake = limit
                        if wake is None:
                            return
                        self.idle_until(wake)
                if self.state is CheckerState.IDLE:
                    return
                if until_drained and self.drained:
                    return
                if limit is not None and core_stats.cycles >= limit:
                    return
        finally:
            self._fetch_gate = None

    def _replay_run(self, limit: Optional[int]) -> bool:
        """Replay the stream's common case in one loop; returns whether
        it took any action.

        Replays each instruction whose count the stream already covers
        (``<= _safe_count``), as long as it is not a system op, a halt,
        an SC or an AMO, and, if it accesses memory, its one log entry
        is the visible head.  It stops before any other instruction:
        before the first one at or past ``limit`` (the first is always
        taken), before a gated L1I miss (see :meth:`run_ahead`), and on
        the ``interp`` engine or a commit hook, where ``exec_one`` would
        fall back to ``Core.step``.  :meth:`step` then takes whatever
        comes next, so the outcome is that of stepping each instruction.
        A replay that diverges from the log fails the segment exactly as
        :meth:`_step_replay` does.

        Where a block of the decode's table (see
        :meth:`DecodedProgram.block_table`) starts at a memory-free
        instruction, the loop commits the whole block in one call after
        the first member's fetch and gate test, if the stream covers
        every member and the last member (``lead`` cycles later) starts
        below ``limit`` and, unless the head is a ``MemPacket``, below
        the cycle the head becomes visible.  Each member would have
        been replayed here: none accesses memory or can raise, and each
        later fetch is a hit of the first member's line.

        The head is the only packet that matters, and it changes only
        by becoming visible or by this loop's own pops: no other core
        acts during the caller's round.  A visible ``MemPacket`` head
        raises ``_safe_count``, as every :meth:`_step_replay` of that
        head does; any other visible head ends the loop.
        """
        core = self.core
        if not core._use_kernels or core._hooks:
            return False
        decoded = core.decoded()
        base = decoded.base
        size = decoded.limit
        kernels = decoded.kernels
        kinds = decoded.kinds
        stats = core.stats
        csrd = core.csrs._csrs
        user = core.priv is Privilege.USER
        gate = self._fetch_gate
        hierarchy = core.hierarchy
        l1i = core.l1i
        line_shift = l1i.line_shift
        l1i_stats = l1i.stats
        channel = self.channel
        latency = channel.latency
        head = channel.head()
        visible = None if head is None else head.push_cycle + latency
        blocks = decoded.block_table(line_shift)
        block_at = decoded.block_at
        safe = self._safe_count
        executed = self._executed
        done = 0
        failure = None
        core._record_mem = False
        try:
            while True:
                now = stats.cycles
                if done and limit is not None and now >= limit:
                    break
                ready = visible is not None and now >= visible
                if ready:
                    if not isinstance(head, MemPacket):
                        break
                    if head.count > safe:
                        safe = head.count
                if executed >= safe:
                    break
                pc = core.pc
                off = pc - base
                if off < 0 or off >= size or off & 3:
                    break
                idx = off >> 2
                kind = kinds[idx]
                if kind in _STEP_ONLY_KINDS:
                    break
                memory = MAL_ENTRIES_BY_KIND[kind]
                if memory and not ready:
                    break
                if pc >> line_shift == l1i.last_line:
                    hit = 1
                    extra = 0
                elif gate is not None and now >= gate \
                        and not l1i.contains(pc):
                    break
                else:
                    hit = 0
                    extra = hierarchy.fetch_access(l1i, pc)
                kernel = kernels[idx]
                take = 1
                if not memory:
                    block = blocks[idx]
                    if block is None:
                        block = block_at(idx, line_shift)
                    if block and executed + block[1] <= safe:
                        # Every member is covered; the last one starts
                        # lead cycles after this one, and must start
                        # where a step would still take it.
                        last = now + extra + block[2]
                        if (limit is None or last < limit) and (
                                visible is None or last < visible
                                or isinstance(head, MemPacket)):
                            kernel, take, _ = block
                l1i_stats.hits += hit + take - 1
                try:
                    cycles = kernel(core) + extra
                except VerificationMismatch as exc:
                    failure = exc
                    break
                stats.instructions += take
                if user:
                    stats.user_instructions += take
                stats.cycles += cycles
                csrd[CSR_INSTRET] += take
                executed += take
                done += take
                if memory:
                    head = channel.head()
                    visible = None if head is None \
                        else head.push_cycle + latency
        finally:
            core._record_mem = True
            self._safe_count = safe
            self._executed = executed
            self.stats.replayed_instructions += done
        if failure is not None:
            self._fail(self._segment, str(failure))
            self.state = CheckerState.SKIP
            return True
        return done > 0

    def _skip_run(self, limit: Optional[int]) -> bool:
        """Drain a failed segment's visible packets (the SKIP state) in
        one loop; returns whether it popped any.

        Each packet costs 1 cycle, as in :meth:`_step_skip`.  The loop
        ends after the ECP (the checker is back in WAIT_SCP), before a
        head that is not yet visible (the step that idles there is left
        to :meth:`step`) and before the first packet at or past
        ``limit`` (the first is always taken).  While in SKIP the
        checker is never ``drained``, so ``until_drained`` can end the
        batch only after the ECP, where :meth:`run_ahead` tests it.
        """
        core_stats = self.core.stats
        pop = self.channel.pop_visible
        packet = pop(core_stats.cycles)
        if packet is None:
            return False
        while True:
            core_stats.cycles += 1
            if isinstance(packet, EcpPacket):
                self.state = CheckerState.WAIT_SCP
                return True
            if limit is not None and core_stats.cycles >= limit:
                return True
            packet = pop(core_stats.cycles)
            if packet is None:
                return True

    def idle_until(self, cycle: int) -> None:
        """Charge the cycles up to ``cycle`` as idle (a skipped wait)."""
        behind = cycle - self.core.stats.cycles
        if behind > 0:
            self._idle(behind)

    # -- WAIT_SCP -------------------------------------------------------

    def _step_wait_scp(self) -> None:
        packet = self.channel.head(self.core.stats.cycles)
        if packet is None:
            self._idle(1)
            return
        if not isinstance(packet, ScpPacket):
            # Protocol corruption (e.g. a fault flipped stream framing):
            # drop the stray packet and report the segment as failed.
            self.channel.pop(self.core.stats.cycles)
            self._fail(packet.segment, f"expected SCP, got "
                       f"{type(packet).__name__}")
            self.state = CheckerState.SKIP
            return
        self.channel.pop(self.core.stats.cycles)
        self._segment = packet.segment
        self._executed = 0
        self._safe_count = 0
        self._ic = None
        self._ic_reason = None
        # C.apply + C.jal, in the address space the segment runs in
        self.core.program = packet.program
        self.core.restore(packet.snapshot)
        self.core.halted = False
        self._charge(APPLY_CYCLES)
        self.state = CheckerState.REPLAY

    # -- REPLAY -----------------------------------------------------------

    def _step_replay(self) -> None:
        now = self.core.stats.cycles
        packet = self.channel.head(now)

        # Consume stream metadata at the head.
        if isinstance(packet, ProgressPacket):
            self.channel.pop(now)
            self._safe_count = max(self._safe_count, packet.count)
            self._charge(1)
            return
        if isinstance(packet, IcPacket) and self._ic is None:
            self.channel.pop(now)
            self._ic = packet.count
            self._ic_reason = packet.reason
            self._charge(1)
            return
        if isinstance(packet, MemPacket):
            self._safe_count = max(self._safe_count, packet.count)

        # Segment complete: verify the ECP.
        if self._ic is not None and self._executed >= self._ic:
            if self._executed > self._ic:
                # A corrupted (smaller) IC: we already replayed past it.
                self._fail(self._segment,
                           f"IC {self._ic} below replayed count "
                           f"{self._executed}")
                self.state = CheckerState.SKIP
                return
            self._step_verify_ecp(packet)
            return

        # Replay one more instruction if it is safe to do so.
        next_count = self._executed + 1
        if self._ic is None and next_count > self._safe_count:
            if isinstance(packet, MemPacket) \
                    and packet.count <= self._executed:
                # A correct replay pops instruction N's log entries
                # while executing N, so this entry was skipped (a
                # corrupted SCP sent replay down another path).  It
                # blocks the IC behind it, so waiting would never end.
                self._fail(self._segment, f"MAL entry for instruction "
                           f"{packet.count} not consumed")
                self.state = CheckerState.SKIP
                return
            self._idle(1)
            return
        try:
            # Decoded-dispatch metadata peek: no Instruction fetch, no
            # info registry lookup on the replay hot path.
            kind_code = self.core.peek_kind_code()
        except Exception:
            self._fail(self._segment,
                       f"replay pc {self.core.pc:#x} escaped the program")
            self.state = CheckerState.SKIP
            return
        if kind_code == K_SYSTEM or kind_code == K_HALT:
            # A correct segment never contains a privilege switch; report
            # the divergence (corrupted IC or SCP drove us here).
            op = self.core.program.fetch(self.core.pc).op
            self._fail(self._segment,
                       f"replay reached {op} at {self.core.pc:#x}")
            self.state = CheckerState.SKIP
            return
        needed = MAL_ENTRIES_BY_KIND[kind_code]
        if needed and not self._entries_ready(needed):
            self._idle(1)
            return
        gate = self._fetch_gate
        l1i = self.core.l1i
        pc = self.core.pc
        if gate is not None and self.core.stats.cycles >= gate \
                and pc >> l1i.line_shift != l1i.last_line \
                and not l1i.contains(pc):
            # the fetch would reach the shared L2: leave it to a round
            # in which this checker is the co-sim minimum (nothing has
            # changed yet but the idempotent ``_safe_count`` update)
            self._fetch_yield = True
            return
        try:
            # Record-free fast path: replay needs only the architectural
            # effects and cycle charge, not a CommitRecord.
            self.core.exec_one()
        except VerificationMismatch as exc:
            self._fail(self._segment, str(exc))
            self.state = CheckerState.SKIP
            return
        self._executed += 1
        self.stats.replayed_instructions += 1

    def _step_verify_ecp(self, packet: Optional[Packet]) -> None:
        now = self.core.stats.cycles
        if packet is None:
            self._idle(1)
            return
        if not isinstance(packet, EcpPacket):
            self.channel.pop(now)
            self._fail(self._segment,
                       f"expected ECP, got {type(packet).__name__}")
            self.state = CheckerState.SKIP
            return
        self.channel.pop(now)
        self._charge(COMPARE_CYCLES)
        mine = self.core.snapshot()
        diffs = mine.diff(packet.snapshot)
        if diffs:
            self._fail(self._segment, "ECP mismatch: " + "; ".join(diffs),
                       count=self._executed)
        else:
            self.results.append(SegmentResult(
                segment=self._segment, ok=True, count=self._executed,
                detect_cycle=self.core.stats.cycles,
                close_reason=self._ic_reason))
            self.stats.segments_checked += 1
        self.state = CheckerState.WAIT_SCP
        if self.segment_service_pause:
            self._charge(self.segment_service_pause)

    # -- SKIP -------------------------------------------------------------

    def _step_skip(self) -> None:
        """Drain the remainder of a failed segment up to its ECP."""
        now = self.core.stats.cycles
        packet = self.channel.head(now)
        if packet is None:
            self._idle(1)
            return
        self.channel.pop(now)
        self._charge(1)
        if isinstance(packet, EcpPacket):
            self.state = CheckerState.WAIT_SCP

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _entries_ready(self, needed: int) -> bool:
        now = self.core.stats.cycles
        ready = 0
        for packet in self.channel.iter_packets():
            if now < packet.push_cycle + self.channel.latency:
                break
            if isinstance(packet, MemPacket):
                ready += 1
                if ready >= needed:
                    return True
                continue
            # Non-mem packet at/near head while entries are owed: replay
            # will surface the divergence via the port; let it run.
            return True
        return False

    def _fail(self, segment: int, detail: str, count: int | None = None,
              ) -> None:
        self.results.append(SegmentResult(
            segment=segment, ok=False,
            count=self._executed if count is None else count,
            detail=detail, detect_cycle=self.core.stats.cycles,
            close_reason=self._ic_reason))
        self.stats.segments_failed += 1

    def _idle(self, cycles: int) -> None:
        self.core.stats.cycles += cycles
        self.stats.idle_cycles += cycles

    def _charge(self, cycles: int) -> None:
        self.core.stats.cycles += cycles
