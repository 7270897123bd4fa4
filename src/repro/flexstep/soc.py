"""FlexStep SoC: homogeneous cores + DBC interconnect + ISA facade.

:class:`FlexStepSoC` builds the Table II platform (n cores, private
L1s, shared L2) and co-simulates main cores, checker cores and plain
compute cores by always advancing the core with the smallest local
cycle count — a conservative event ordering that keeps per-core clocks
comparable, so backpressure and detection latency are measured on one
timeline.

Two interchangeable, bit-identical schedulers drive that arbitration:

* ``loop`` — the oracle: every round rebuilds the candidate set and
  min-scans it (O(cores) per round).
* ``heap`` — the default: candidates live in a
  :class:`~repro.sim.engine.EventQueue` keyed by ``(local clock,
  rank)``, halted cores and drained checkers leave the heap instead of
  being rescanned, and cores synchronise only on *shared* events — the
  conservative lookahead of Chandy & Misra.  A main couples to its
  checkers only through the DBC, and to other cores only through the
  shared L2 and memory, so a core runs past the heap minimum until its
  next step could touch one of those (an L1 miss, a data access when
  several cores write memory, a push that could be refused or set a
  new ``max_occupancy``, a halt), yields *before* changing anything,
  and takes that step only as the minimum.  A checker acts at any
  cycle below its main's clock, where nothing new can become visible,
  and yields only before its own L1I miss.  Within such a round both
  ends of the DBC run fused windows over the decoded kernels: the main
  commits user-mode instructions without ``CommitRecord``s, and the
  checker replays covered instructions without a ``step`` each.
  Skipped idle and stall cycles are charged in bulk, so every simulated
  counter matches the oracle's (see :meth:`FlexStepSoC._run_heap`).

Selection mirrors the sched-backend convention: an explicit argument
(``FlexStepSoC.run(sched=...)`` / ``python -m repro run
--soc-sched``) beats the ``REPRO_SOC_SCHED``
environment variable, which beats ``auto`` (= ``heap``).  Because the
schedulers are proven bit-identical (``tests/flexstep/test_soc_sched``
and CI's scheduler-identity smoke, which diffs the catalog tables of
both), the choice is an execution knob, never part of experiment
identity: campaign spawn seeds and result-cache digests exclude it.
The same contract holds for the per-core execution engine tier
(``REPRO_CORE_ENGINE=interp|decoded``, see :mod:`repro.core.core`):
main cores, checkers and compute cores commit identical streams under
either tier — the differential suite proves it — so engine selection
is likewise excluded from spawn seeds and cache digests.

:class:`FlexStepControl` is the software-visible face of the custom ISA
(paper Table I).  The OS layer (:mod:`repro.kernel`) calls it from the
context switch exactly as Algorithm 1 does, between bounded
:meth:`FlexStepSoC.run` calls: the kernel moves simulated time only
through this module's schedulers.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..config import SoCConfig
from ..core.cache import Cache, MemoryHierarchy
from ..core.core import Core
from ..core.memory import CachedPort, MainMemory
from ..core.registers import CSR_MTVEC
from ..errors import ConfigurationError, ExecutionLimitExceeded
from ..isa.program import Program
from ..runtime import knobs
from ..sim.engine import Event, EventQueue
from .checker import CheckerEngine, SegmentResult
from .dbc import SystemInterconnect
from .rcpm import MainCoreAdapter


def resolve_soc_sched(name: Optional[str] = None) -> str:
    """Resolve a scheduler: argument > ``REPRO_SOC_SCHED`` > auto."""
    return knobs.value("soc_sched", arg=name)


@contextmanager
def soc_sched_override(name: Optional[str]) -> Iterator[None]:
    """Temporarily pin ``REPRO_SOC_SCHED`` (no-op for ``None``).

    Works through the environment so campaign worker *processes* —
    forked or spawned inside the context — inherit the selection,
    mirroring :func:`repro.sched.backend.backend_override`.
    """
    with knobs.env_override("soc_sched", name):
        yield


def _noop() -> None:
    """Placeholder callback for heap-scheduler candidate events."""


class CoreAttr(enum.Enum):
    """Runtime core attribute (paper Sec. II: main / checker / compute)."""

    COMPUTE = "compute"
    MAIN = "main"
    CHECKER = "checker"


class FlexStepControl:
    """The Table I custom-ISA control interface.

    ==================  =============================================
    Instruction         Method
    ==================  =============================================
    ``G.IDs.contain``   :meth:`attr_of`
    ``G.Configure``     :meth:`configure`
    ``M.associate``     :meth:`associate`
    ``M.check``         :meth:`check_enable` / :meth:`check_disable`
    ``C.check_state``   :meth:`check_state`
    ``C.record``        performed inside ``check_state(busy)``
    ``C.apply/C.jal``   internal to the checker engine's replay loop
    ``C.result``        :meth:`result`
    ==================  =============================================
    """

    def __init__(self, soc: "FlexStepSoC"):
        self._soc = soc

    # -- global instructions -------------------------------------------

    def attr_of(self, core_id: int) -> CoreAttr:
        return self._soc.attrs[core_id]

    def configure(self, main_ids: Iterable[int],
                  checker_ids: Iterable[int]) -> None:
        """``G.Configure``: write main/checker IDs to the global register.

        Cores in neither set become plain compute cores.
        """
        mains = set(main_ids)
        checkers = set(checker_ids)
        overlap = mains & checkers
        if overlap:
            raise ConfigurationError(
                f"cores {sorted(overlap)} listed as both main and checker")
        for cid in mains | checkers:
            if not 0 <= cid < self._soc.config.num_cores:
                raise ConfigurationError(f"core id {cid} out of range")
        for cid in range(self._soc.config.num_cores):
            if cid in mains:
                self._soc.attrs[cid] = CoreAttr.MAIN
            elif cid in checkers:
                self._soc.attrs[cid] = CoreAttr.CHECKER
            else:
                self._soc.attrs[cid] = CoreAttr.COMPUTE

    # -- main-core instructions ------------------------------------------

    def associate(self, main_id: int, checker_ids: Sequence[int]) -> None:
        """``M.associate``: allocate checker core(s) to a main core."""
        if self._soc.attrs[main_id] is not CoreAttr.MAIN:
            raise ConfigurationError(f"core {main_id} is not a main core")
        for cid in checker_ids:
            if self._soc.attrs[cid] is not CoreAttr.CHECKER:
                raise ConfigurationError(f"core {cid} is not a checker core")
        channels = self._soc.interconnect.configure(main_id, checker_ids)
        self._soc.adapter_of(main_id).associate(channels)
        for cid in checker_ids:
            self._soc.bind_engine(cid)

    def check_enable(self, main_id: int) -> None:
        """``M.check(enable)``."""
        self._soc.adapter_of(main_id).enable()

    def check_disable(self, main_id: int) -> None:
        """``M.check(disable)``."""
        self._soc.adapter_of(main_id).disable()

    # -- checker-core instructions ----------------------------------------

    def check_state(self, checker_id: int, busy: bool) -> None:
        """``C.check_state``: busy starts checking (includes ``C.record``);
        idle stops it and restores the saved context."""
        engine = self._soc.engine_of(checker_id)
        if busy:
            engine.start_checking()
        else:
            engine.stop_checking()

    def result(self, checker_id: int) -> list[SegmentResult]:
        """``C.result``: comparison results accumulated so far."""
        return self._soc.engine_of(checker_id).results


@dataclass
class SoCRunStats:
    """Outcome of one co-simulated run."""

    main_cycles: dict
    total_instructions: int
    segments_checked: int
    segments_failed: int
    #: Arbitration rounds: heap pops, or ``advance`` calls of the
    #: ``loop`` oracle.  Host-side work, not a simulated counter: the
    #: two schedulers differ here by design.
    rounds: int = 0


class FlexStepSoC:
    """Co-simulated homogeneous SoC with FlexStep units on every core."""

    def __init__(self, config: SoCConfig | None = None):
        self.config = config or SoCConfig()
        mem_cfg = self.config.memory
        self.memory = MainMemory(mem_cfg.dram_size_bytes)
        self.l2 = Cache(mem_cfg.l2, name="l2")
        self.hierarchy = MemoryHierarchy(
            self.l2, l2_latency=mem_cfg.l2.latency_cycles,
            dram_latency=mem_cfg.dram_latency_cycles)
        self.cores: list[Core] = []
        self._l1is: list[Cache] = []
        for cid in range(self.config.num_cores):
            l1d = Cache(mem_cfg.l1d, name=f"l1d{cid}")
            l1i = Cache(mem_cfg.l1i, name=f"l1i{cid}")
            port = CachedPort(self.memory, self.hierarchy, l1d)
            core = Core(cid, self.config.core, port,
                        l1i=l1i, hierarchy=self.hierarchy)
            self.cores.append(core)
            self._l1is.append(l1i)
        self.interconnect = SystemInterconnect(
            self.config.num_cores, self.config.flexstep)
        self.attrs: list[CoreAttr] = (
            [CoreAttr.COMPUTE] * self.config.num_cores)
        self._adapters: dict[int, MainCoreAdapter] = {}
        self._engines: dict[int, CheckerEngine] = {}
        self.control = FlexStepControl(self)

    # ------------------------------------------------------------------
    # unit accessors
    # ------------------------------------------------------------------

    def adapter_of(self, main_id: int) -> MainCoreAdapter:
        if main_id not in self._adapters:
            self._adapters[main_id] = MainCoreAdapter(
                self.cores[main_id], self.config.flexstep)
        return self._adapters[main_id]

    def bind_engine(self, checker_id: int) -> CheckerEngine:
        """(Re)bind a checker engine to its inbound channel."""
        channel = self.interconnect.channel_to(checker_id)
        if channel is None:
            raise ConfigurationError(
                f"checker {checker_id} has no inbound channel")
        engine = self._engines.get(checker_id)
        if engine is None or engine.channel is not channel:
            engine = CheckerEngine(self.cores[checker_id], channel)
            self._engines[checker_id] = engine
        return engine

    def engine_of(self, checker_id: int) -> CheckerEngine:
        engine = self._engines.get(checker_id)
        if engine is None:
            raise ConfigurationError(
                f"checker {checker_id} has no engine; associate first")
        return engine

    # ------------------------------------------------------------------
    # convenient setup helpers
    # ------------------------------------------------------------------

    def load_program(self, core_id: int, program: Program) -> None:
        """Load ``program`` (text + data segment) onto a core.

        If the program defines a ``_trap_handler`` label, mtvec is
        pointed at it (firmware-style pre-configuration), so generated
        workloads can take ecalls immediately.
        """
        self.memory.load_segment(program.data.words)
        core = self.cores[core_id]
        core.load_program(program)
        handler = program.labels.get("_trap_handler")
        if handler is not None:
            core.csrs.raw_write(CSR_MTVEC, handler)

    def setup_verification(self, main_id: int,
                           checker_ids: Sequence[int]) -> None:
        """Arm ``main_id`` for dual/triple-core verification by
        ``checker_ids``: ``G.Configure``, ``M.associate``,
        ``M.check(enable)``, then ``C.check_state(busy)`` per checker.

        ``G.Configure`` writes the whole attribute register, so it
        writes the groups armed before plus this one: one call per
        group arms a multi-group die.
        """
        mains = {main_id}
        checkers = set(checker_ids)
        for cid, attr in enumerate(self.attrs):
            if attr is CoreAttr.MAIN:
                mains.add(cid)
            elif attr is CoreAttr.CHECKER:
                checkers.add(cid)
        self.control.configure(mains, checkers)
        self.control.associate(main_id, checker_ids)
        self.control.check_enable(main_id)
        for cid in checker_ids:
            self.control.check_state(cid, busy=True)

    # ------------------------------------------------------------------
    # co-simulation
    # ------------------------------------------------------------------

    #: Max instructions/actions one core commits per arbitration round
    #: (the heap scheduler bounds only main/compute rounds with it).
    #: Within a ``loop`` round the chosen core only runs while it
    #: remains the min-clock candidate (the ``horizon`` bound), so event
    #: ordering is the same as the seed's one-instruction arbitration —
    #: the batch just amortises the candidate scan over whole runs.
    COSIM_BATCH = 256

    def run(self, *, max_instructions: int = 50_000_000,
            max_cycles: Optional[int] = None,
            sched: Optional[str] = None) -> SoCRunStats:
        """Run until every main/compute core halts and all checkers
        drain.  Per-core local clocks advance in min-time order; the
        ``sched`` argument (then ``REPRO_SOC_SCHED``) picks the
        arbitration scheduler — the ``loop`` oracle or the
        bit-identical ``heap`` default."""
        if resolve_soc_sched(sched) == "heap":
            rounds = self._run_heap(max_instructions, max_cycles)
        else:
            rounds = self._run_loop(max_instructions, max_cycles)
        return SoCRunStats(
            main_cycles={cid: self.cores[cid].stats.cycles
                         for cid in range(self.config.num_cores)},
            total_instructions=sum(c.stats.instructions
                                   for c in self.cores),
            segments_checked=sum(e.stats.segments_checked
                                 for e in self._engines.values()),
            segments_failed=sum(e.stats.segments_failed
                                for e in self._engines.values()),
            rounds=rounds,
        )

    def _run_loop(self, max_instructions: int,
                  max_cycles: Optional[int]) -> int:
        """The round-scan oracle: one :meth:`advance` call per round.
        Returns the number of rounds."""
        executed = 0
        rounds = 0
        active_mains = self._initial_active_mains()
        while True:
            rounds += 1
            progressed, stop = self.advance(
                min(self.COSIM_BATCH, max_instructions - executed + 1),
                active_mains, max_cycles=max_cycles)
            executed += progressed
            if executed > max_instructions:
                raise ExecutionLimitExceeded(
                    f"SoC exceeded {max_instructions} instructions")
            if stop:
                break
        return rounds

    def _initial_active_mains(self) -> set[int]:
        """Main/compute cores with a program, less those a rerun finds
        halted and :meth:`retire_main` lets go.  A checker core whose
        checker thread is switched out (engine bound, not busy) computes
        like a compute core while it holds a program."""
        engines = self._engines
        return {cid for cid, attr in enumerate(self.attrs)
                if (attr is not CoreAttr.CHECKER
                    or cid in engines and not engines[cid].busy)
                and self.cores[cid].program is not None
                and (not self.cores[cid].halted or self.retire_main(cid))}

    def advance(self, n: int, active_mains: set, *,
                max_cycles: Optional[int] = None) -> tuple[int, bool]:
        """One batched co-simulation round: arbitrate, then advance the
        min-clock core by up to ``n`` instructions (or checker actions).

        The chosen core runs only while its local clock stays below the
        next-smallest candidate clock (the conservative horizon), so
        cross-core event ordering matches single-instruction
        arbitration.  Returns ``(progressed, stop)``: the committed
        main/compute instructions, and whether co-simulation is over —
        everything halted and drained, or every candidate passed
        ``max_cycles``.  ``progressed`` is reported even on a stopping
        round so the caller's instruction watchdog sees every commit.

        ``active_mains`` carries the not-yet-finished main/compute set
        across rounds.

        Candidate order is canonical — main/compute cores ascending,
        then checkers in engine-binding order — so clock ties resolve
        identically here and in the heap scheduler (``min`` keeps the
        first minimum it meets).
        """
        runnable = sorted(active_mains)
        checker_pending = []
        for cid, engine in self._engines.items():
            if not engine.busy:
                continue
            if engine.drained \
                    and self.interconnect.main_of(cid) not in active_mains:
                continue
            checker_pending.append(cid)
        if not runnable and not checker_pending:
            return 0, True
        candidates = runnable + checker_pending
        cid = min(candidates, key=lambda c: self.cores[c].stats.cycles)
        if max_cycles is not None \
                and self.cores[cid].stats.cycles >= max_cycles:
            return 0, True  # no step starts at or past the bound
        if len(candidates) == 1:
            horizon = None
        else:
            horizon = min(self.cores[c].stats.cycles
                          for c in candidates if c != cid)
        if max_cycles is not None:
            horizon = max_cycles if horizon is None \
                else min(horizon, max_cycles)
        if cid in self._engines and cid in checker_pending:
            self._engines[cid].advance(horizon, self.COSIM_BATCH)
            progressed = 0
        else:
            progressed = self._advance_main(cid, horizon, n)
        stop = max_cycles is not None and all(
            self.cores[c].stats.cycles >= max_cycles
            for c in candidates)
        # post-halt teardown ends the main's round; a stopping round
        # leaves it to the next run
        if not stop and cid in active_mains and self.cores[cid].halted \
                and not self.retire_main(cid):
            active_mains.discard(cid)
        return progressed, stop

    # -- heap scheduler -------------------------------------------------

    def _run_heap(self, max_instructions: int,
                  max_cycles: Optional[int]) -> int:
        """Event-driven arbitration with shared-state lookahead.

        Every candidate owns at most one heap event keyed ``(local
        clock, rank)`` with rank = core id for main/compute cores and
        ``num_cores + binding index`` for checkers — exactly the
        oracle's canonical candidate order.  The oracle's outcome is
        that of taking every step (one instruction, stall or checker
        action) in ``(start clock, rank)`` order.  A pop is one round:
        the popped core is that minimum, and it stays the minimum until
        its clock reaches ``free`` — the heap's next key, plus one if
        the popped rank is the smaller.  Steps that touch nothing
        another core can see commute with every other core's steps, so
        a core runs them past ``free``; a step that touches shared
        state is taken only below ``free``, and otherwise the core
        yields *before* it and is re-pushed at its clock (the
        conservative lookahead of Chandy & Misra).

        * **Main cores** (``MainCoreAdapter.run_window``) yield before
          an L1I miss (``Cache.contains``), an L1D miss (the decoded
          ``regs[rs1] + imm``), any data access when more than one
          core can write memory, a halt, and a step whose pushes could
          find a channel full or raise its ``max_occupancy``
          (``MainCoreAdapter.step_entries_bound`` against
          ``Channel.takes_quietly``; the host occupancy is never below
          the oracle's, because the checker has not yet popped what
          the oracle would pop first).  The window commits user-mode
          instructions without ``CommitRecord``s.  A backpressured
          main is the minimum whenever it stalls, so it charges every
          stall cycle up to ``free`` in one round.  A compute core (no
          FlexStep units) runs only while it is the minimum.
        * **Checkers** (``CheckerEngine.run_ahead``) act at any cycle
          below their main's clock: every packet the main will still
          push has ``push_cycle`` at or past it, so nothing can become
          visible sooner, and every pop they make precedes the main's
          next step in the oracle too, so the main's push checks see
          the oracle's occupancy once it is the minimum.  They ignore
          every other core — sibling checkers included — except at
          their own L1I miss, where replay fetches into the shared L2.
          A pure wait jumps to the next packet visibility or the main's
          clock and is charged as idle.  (The latency slack past the
          main's clock is not used: a checker pop at the main's own
          clock would precede that main step here but follow it in the
          oracle.)

        Bounded runs (``max_cycles``) keep the bound as a hard horizon:
        no step starts at or past it, so a core the lookahead carried to
        the bound stops there, as in the oracle.

        A halted main is retired (:meth:`retire_main`) at the end of
        each of its rounds, as in the oracle.  While its outbox is not
        empty it is a backpressured main: it stays a candidate, and each
        time it is the minimum it retries the flush and stalls.  A stale
        event (its owner left the candidate set) pops as a
        side-effect-free no-op; it can only lower another core's
        ``free``, which costs a round, never a reordering.

        Returns the number of rounds (heap pops).
        """
        cores = self.cores
        engines = self._engines
        interconnect = self.interconnect
        num_cores = self.config.num_cores
        batch = self.COSIM_BATCH
        queue = EventQueue()
        events: dict[int, Event] = {}
        active = self._initial_active_mains()
        # checkers never write memory (their loads come from the log)
        shared_memory = len(active) > 1
        checker_of_rank: dict[int, int] = {}

        def _push(cid: int, rank: int) -> None:
            events[cid] = queue.push(cores[cid].stats.cycles, _noop,
                                     priority=rank)

        def _drop_event(cid: int) -> None:
            event = events.pop(cid, None)
            if event is not None:
                event.cancel()

        executed = 0
        rounds = 0
        for index, (cid, engine) in enumerate(engines.items()):
            if engine.busy:
                rank = num_cores + index
                checker_of_rank[rank] = cid
                _push(cid, rank)
        for cid in sorted(active):
            _push(cid, cid)

        queue_pop = queue.pop
        peek_key = queue.peek_key
        peek_time = queue.peek_time
        events_pop = events.pop
        run_main = self._run_main_ahead
        while True:
            event = queue_pop()
            if event is None:
                break
            if max_cycles is not None and event.time >= max_cycles:
                break  # no step starts at or past the bound
            rounds += 1
            rank = event.priority
            key = peek_key()
            free = None if key is None \
                else key[0] + 1 if rank < key[1] else key[0]
            if rank < num_cores:
                cid = rank
                events_pop(cid, None)
                if cid not in active:
                    continue
                core = cores[cid]
                budget = min(batch, max_instructions - executed + 1)
                executed += run_main(cid, free, budget, max_cycles,
                                     shared_memory)
                if executed > max_instructions:
                    raise ExecutionLimitExceeded(
                        f"SoC exceeded {max_instructions} instructions")
                if max_cycles is not None \
                        and core.stats.cycles >= max_cycles:
                    next_time = peek_time()
                    if next_time is None or next_time >= max_cycles:
                        # the oracle stops before the post-halt teardown
                        break
                if not core.halted or self.retire_main(cid):
                    _push(cid, cid)
                    continue
                # the main is done: its drained checkers have nothing
                # left to wait for and leave the heap too
                active.discard(cid)
                for chk in interconnect.checkers_of(cid):
                    engine = engines.get(chk)
                    if engine is not None and engine.busy \
                            and engine.drained:
                        _drop_event(chk)
            else:
                cid = checker_of_rank[rank]
                events_pop(cid, None)
                engine = engines[cid]
                if not engine.busy:
                    continue
                main_id = interconnect.main_of(cid)
                main_done = main_id not in active
                if engine.drained and main_done:
                    continue
                limit = cores[main_id].stats.cycles \
                    if main_id in active else None
                if max_cycles is not None:
                    limit = max_cycles if limit is None \
                        else min(limit, max_cycles)
                engine.run_ahead(limit, free, until_drained=main_done)
                if max_cycles is not None \
                        and engine.core.stats.cycles >= max_cycles:
                    next_time = peek_time()
                    if next_time is None or next_time >= max_cycles:
                        break
                if not (engine.drained and main_done):
                    _push(cid, rank)
        return rounds

    def _run_main_ahead(self, cid: int, free: Optional[int], budget: int,
                        max_cycles: Optional[int],
                        shared_memory: bool) -> int:
        """One heap-scheduler round of a main/compute core.

        Runs up to ``budget`` instructions: every step that touches no
        shared state, and shared steps only while the clock is below
        ``free`` (the core is the co-sim minimum; None = always).  The
        round's first step is always taken — the core was popped as the
        minimum.  Later steps must start below ``max_cycles``.  Returns
        the instructions committed; see :meth:`_run_heap` for the rule.
        """
        core = self.cores[cid]
        adapter = self._adapters.get(cid)
        stats = core.stats
        if adapter is None and not core._hooks and free is None \
                and max_cycles is None:
            # Sole candidate, no FlexStep units attached: the core
            # cannot interact with anything mid-round, so run it
            # through Core.advance without commit records; it commits
            # each block of the decode's table, bounded by an L1I
            # fetch line, in one call.
            return core.advance(budget)
        if adapter is not None and adapter.blocked:
            adapter.try_flush()
            if adapter.blocked:
                # Backpressure: only a checker pop can unblock the main,
                # and no checker acts while the main is the minimum, so
                # it stalls through every cycle it stays the minimum.
                stop = stats.cycles + 1 if free is None else free
                if max_cycles is not None:
                    stop = min(stop, max_cycles)
                stall = max(stop - stats.cycles, 1)
                stats.cycles += stall
                stats.stall_cycles += stall
                adapter.stats.backpressure_stall_cycles += stall
                return 0
            if core.halted:
                return 0
        if adapter is not None:
            return adapter.run_window(free, budget, max_cycles,
                                      shared_memory)
        # A compute core has no lookahead: it runs only while it is the
        # co-sim minimum, where every step is safe.
        done = 0
        while done < budget and not core.halted:
            if done:
                clock = stats.cycles
                if (max_cycles is not None and clock >= max_cycles
                        or free is not None and clock >= free):
                    break
            # exec_one falls back to step() itself when hooks exist
            core.exec_one()
            done += 1
        return done

    def retire_main(self, main_id: int) -> bool:
        """Post-halt teardown of a main core: ``M.check(disable)`` on the
        first call, then a flush attempt while its outbox is blocked.

        The one place the halted-main rule lives.  Both schedulers call
        it at the end of the main's own turn and, on a rerun, from
        :meth:`_initial_active_mains`; :class:`~repro.kernel.FlexKernel`
        calls it when it retires a finished task.  Returns True while
        the outbox is still backpressured: the main then stays a
        candidate and stalls like any backpressured main, until a
        checker pop lets it drain."""
        adapter = self._adapters.get(main_id)
        if adapter is None:
            return False
        if adapter.enabled:
            adapter.disable()
        if adapter.blocked:
            adapter.try_flush()
        return adapter.blocked

    def _advance_main(self, cid: int, horizon: Optional[int],
                      budget: int) -> int:
        """Run a main/compute core for up to ``budget`` instructions.

        Stops at the cycle ``horizon`` (where another candidate becomes
        the arbitration minimum), at a halt, or at backpressure — a
        blocked DBC charges one stall cycle only when nothing committed
        this round, exactly like the seed's per-instruction arbitration,
        and always yields so the checkers can drain.
        """
        core = self.cores[cid]
        adapter = self._adapters.get(cid)
        if adapter is None and not core._hooks and horizon is None:
            # Sole candidate, no FlexStep units attached: the core
            # cannot interact with anything mid-round, so run it
            # through Core.advance without commit records; it commits
            # each block of the decode's table, bounded by an L1I
            # fetch line, in one call.
            return core.advance(budget)
        done = 0
        while done < budget:
            if adapter is not None:
                if adapter.blocked:
                    adapter.try_flush()
                    if adapter.blocked:
                        if done == 0:
                            core.stats.cycles += 1
                            core.stats.stall_cycles += 1
                            adapter.stats.backpressure_stall_cycles += 1
                        break
                adapter.before_step()
            if core.halted:
                break
            if adapter is None:
                # exec_one falls back to step() itself when hooks exist
                core.exec_one()
            else:
                core.step()
                adapter.try_flush()
            done += 1
            if horizon is not None and core.stats.cycles >= horizon:
                break
        return done

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def all_results(self) -> list[SegmentResult]:
        out: list[SegmentResult] = []
        for engine in self._engines.values():
            out.extend(engine.results)
        return out

    def cycles_us(self, cycles: int) -> float:
        return self.config.core.cycles_to_us(cycles)
