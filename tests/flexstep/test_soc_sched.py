"""Differential suite: the heap co-sim scheduler vs the loop oracle.

Every test runs the same workload/topology twice — once under
``sched="loop"`` (the seed's round-scan arbitration, kept as the
oracle) and once under ``sched="heap"`` (the event-queue scheduler) —
and asserts the complete observable outcome is bit-identical:
``SoCRunStats``, every core's final cycle count, each checker's
ordered ``SegmentResult`` stream (including detect cycles and close
reasons), checker counters, and fault-injection records.  Every run
must also pass the co-sim contracts in :func:`check_cosim_contracts`,
which catch a checker woken at the wrong cycle even where both
schedulers would agree on it.
"""

import os
import random
import signal
from contextlib import contextmanager

import pytest

from repro.analysis.latency import _fig7_specs
from repro.config import SoCConfig
from repro.core.core import Core
from repro.errors import ConfigurationError, ExecutionLimitExceeded
from repro.flexstep.die import build_verified_die
from repro.flexstep.fingerprint import soc_fingerprint
from repro.flexstep.checker import CheckerEngine, CheckerState
from repro.flexstep.faults import FaultTarget, install_injector
from repro.flexstep.packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    ProgressPacket,
    ScpPacket,
)
from repro.flexstep.soc import (
    FlexStepSoC,
    resolve_soc_sched,
    soc_sched_override,
)
from repro.runtime import knobs
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import _latency_options
from repro.workloads.generator import GeneratorOptions, cached_program
from repro.workloads.profiles import get_profile

from ..conftest import (
    make_ecall_program,
    make_sum_program,
    make_verified_soc,
    point_die,
)

SCHEDS = ("loop", "heap")
ENV_SOC_SCHED = knobs.get("soc_sched").env


def check_cosim_contracts(soc, *, clean, bounded=False):
    """Model invariants every finished co-sim run must satisfy.

    ``clean`` marks an unbounded run without fault injection, where
    every committed segment must have been replayed and verified.
    An unbounded run (not ``bounded``) must also end live: no main's
    outbox is still backpressured, and every busy checker has drained.
    """
    if not bounded:
        for main_id, adapter in soc._adapters.items():
            assert not adapter.blocked, main_id
        for cid, engine in soc._engines.items():
            assert not engine.busy or engine.drained, cid
    for key, channel in soc.interconnect._channels.items():
        stats = channel.stats
        assert stats.pushes == stats.pops + len(channel), key
        assert stats.max_occupancy <= channel.capacity, key
    for cid, engine in soc._engines.items():
        assert engine.stats.idle_cycles <= engine.core.stats.cycles, cid
        detects = [r.detect_cycle for r in engine.results]
        assert all(cycle >= 0 for cycle in detects), cid
        assert detects == sorted(detects), cid
        if clean:
            assert engine.stats.segments_failed == 0, cid
            assert engine.stats.replayed_instructions == sum(
                r.count for r in engine.results if r.ok), cid


def run_fingerprint(build, sched, **run_kwargs):
    """Build a fresh SoC via ``build()``, run it under ``sched`` and
    check the co-sim contracts."""
    soc, injectors = build()
    stats = soc.run(sched=sched, **run_kwargs)
    bounded = run_kwargs.get("max_cycles") is not None
    check_cosim_contracts(soc, clean=not injectors and not bounded,
                          bounded=bounded)
    return soc_fingerprint(soc, stats, injectors)


def assert_schedulers_identical(build, **run_kwargs):
    prints = {
        sched: run_fingerprint(build, sched, **run_kwargs)
        for sched in SCHEDS
    }
    assert prints["loop"] == prints["heap"]
    return prints["loop"]


def grid_point(pairs, checkers, workload="dedup", faults=True, target=3_000):
    return {
        "name": f"{pairs}x{checkers}",
        "workload": workload,
        "pairs": pairs,
        "checkers": checkers,
        "faults": faults,
        "target_instructions": target,
    }


#: A segment limit short enough that LIMIT closes and privilege
#: switches land in the middle of the heap's fused main windows.
SHORT_SEGMENTS = {"segment_limit": 7}


class TestCleanRuns:
    @pytest.mark.parametrize(
        "checkers,flex",
        [(1, {}), (2, {}), (1, SHORT_SEGMENTS), (2, SHORT_SEGMENTS)],
        ids=["1", "2", "1-limit7", "2-limit7"],
    )
    def test_sum_loop_identical(self, checkers, flex):
        def build():
            soc = make_verified_soc(
                make_sum_program(n=2_000), checkers=checkers, **flex
            )
            return soc, ()

        fingerprint = assert_schedulers_identical(build)
        assert fingerprint[3] == 0  # no failed segments

    def test_ecalls_identical(self):
        for flex in ({}, SHORT_SEGMENTS):

            def build():
                program = make_ecall_program(n=25)
                return make_verified_soc(program, **flex), ()

            assert_schedulers_identical(build)

    def test_compute_core_beside_verified_pair_identical(self):
        """A compute core (no FlexStep units) shares the L2 and memory
        with a verified pair; the heap runs it only while it is the
        minimum."""

        def build():
            soc = FlexStepSoC(SoCConfig(num_cores=3))
            program = make_sum_program(n=500)
            soc.load_program(0, program)
            soc.load_program(2, make_sum_program(n=700, value=3))
            soc.setup_verification(0, [1])
            return soc, ()

        fingerprint = assert_schedulers_identical(build)
        assert fingerprint[3] == 0  # no failed segments

    def test_vanilla_single_core_identical(self):
        def build():
            soc = FlexStepSoC(SoCConfig(num_cores=1))
            soc.load_program(0, make_sum_program(n=2_000))
            return soc, ()

        assert_schedulers_identical(build)


class TestEventDrivenWaits:
    """The heap scheduler jumps a waiting checker over its idle cycles
    instead of stepping them one at a time, with the oracle's exact
    outcome."""

    @pytest.mark.parametrize("checkers", [1, 2])
    def test_waits_are_not_stepped_per_idle_cycle(self, checkers,
                                                  monkeypatch):
        """The oracle takes one ``step()`` per idle cycle; the heap
        jumps instead, so it needs well under one wait step
        per idle cycle (a step replays at most one instruction, so
        the replay steps themselves cannot shrink)."""
        waits = {}
        original = CheckerEngine.step

        def counting_step(engine):
            idle = engine.stats.idle_cycles
            original(engine)
            if engine.stats.idle_cycles != idle:
                cid = engine.core.core_id
                waits[cid] = waits.get(cid, 0) + 1

        def build():
            soc = make_verified_soc(make_sum_program(n=2_000),
                                    checkers=checkers)
            return soc, ()

        monkeypatch.setattr(CheckerEngine, "step", counting_step)
        runs = {}
        for sched in SCHEDS:
            waits.clear()
            soc, _ = build()
            stats = soc.run(sched=sched)
            check_cosim_contracts(soc, clean=True)
            runs[sched] = (soc_fingerprint(soc, stats), dict(waits))
        assert runs["heap"][0] == runs["loop"][0]
        for cid in range(1, checkers + 1):
            idle_cycles = soc.engine_of(cid).stats.idle_cycles
            assert runs["loop"][1][cid] == idle_cycles
            assert 0 < 2 * runs["heap"][1][cid] < idle_cycles


class TestSharedStateLookahead:
    """Heap cores synchronise only on shared events, so a round covers
    many instructions instead of about one."""

    @staticmethod
    def count_rounds(monkeypatch):
        """Per-core heap rounds, counted at each core's round entry."""
        rounds = {}
        run_ahead = CheckerEngine.run_ahead
        run_main = FlexStepSoC._run_main_ahead

        def counting_run_ahead(engine, *args, **kwargs):
            cid = engine.core.core_id
            rounds[cid] = rounds.get(cid, 0) + 1
            return run_ahead(engine, *args, **kwargs)

        def counting_run_main(soc, cid, *args):
            rounds[cid] = rounds.get(cid, 0) + 1
            return run_main(soc, cid, *args)

        monkeypatch.setattr(CheckerEngine, "run_ahead", counting_run_ahead)
        monkeypatch.setattr(FlexStepSoC, "_run_main_ahead",
                            counting_run_main)
        return rounds

    def test_dual_mode_rounds_under_a_quarter_of_instructions(self):
        soc = make_verified_soc(make_sum_program(n=2_000))
        stats = soc.run(sched="heap")
        main_instructions = soc.cores[0].stats.instructions
        assert main_instructions > 10_000
        assert 0 < 4 * stats.rounds < main_instructions

    def test_triple_mode_checker_rounds_follow_their_main(self,
                                                          monkeypatch):
        """A checker needs a round only after its main moved or before
        its own L1I miss — never for its sibling's progress."""
        rounds = self.count_rounds(monkeypatch)
        soc = make_verified_soc(make_sum_program(n=2_000), checkers=2)
        stats = soc.run(sched="heap")
        assert sum(rounds.values()) <= stats.rounds
        for cid in (1, 2):
            misses = soc.cores[cid].l1i.stats.misses
            assert 0 < rounds[cid] <= rounds[0] + misses

    def test_fused_windows_engage(self, monkeypatch):
        """Both ends of the DBC stream run as fused windows: the main
        commits user-mode instructions without ``Core.step`` (only its
        halt takes it), and the checker replays most instructions
        without a ``CheckerEngine.step`` each.  A silent fallback to the
        per-instruction path would pass every identity test."""
        calls = {"main": 0, "checker": 0}
        core_step = Core.step
        checker_step = CheckerEngine.step

        def counting_core_step(core):
            if core.core_id == 0:
                calls["main"] += 1
            return core_step(core)

        def counting_checker_step(engine):
            calls["checker"] += 1
            return checker_step(engine)

        monkeypatch.setattr(Core, "step", counting_core_step)
        monkeypatch.setattr(CheckerEngine, "step", counting_checker_step)
        soc = make_verified_soc(make_sum_program(n=2_000))
        soc.run(sched="heap")
        assert soc.cores[0].halted
        assert calls["main"] <= 1
        replayed = soc.engine_of(1).stats.replayed_instructions
        assert replayed == soc.cores[0].stats.user_instructions - 1
        assert 0 < 2 * calls["checker"] < replayed

        # On a faulted die the checker drains each failed segment's
        # leftovers (SKIP): the loop oracle takes one step per packet,
        # the heap's ``run_ahead`` drains what is buffered in one loop.
        # The checker pauses after each verified segment, so it lags
        # its main and finds the leftovers buffered.
        skip = {"steps": 0, "pops": 0}
        step_skip = CheckerEngine._step_skip

        def counting_step_skip(engine):
            skip["steps"] += 1
            pops = engine.channel.stats.pops
            step_skip(engine)
            skip["pops"] += engine.channel.stats.pops - pops

        monkeypatch.setattr(CheckerEngine, "_step_skip", counting_step_skip)
        skipped = {}
        for sched in SCHEDS:
            skip.update(steps=0, pops=0)
            soc = make_verified_soc(make_sum_program(n=2_000),
                                    segment_limit=300)
            soc.engine_of(1).segment_service_pause = 2_000
            install_injector(soc, 0, target=FaultTarget.MAL_ADDR,
                             segment_interval=3, rng=random.Random(5))
            soc.run(sched=sched)
            assert soc.engine_of(1).stats.segments_failed > 0
            skipped[sched] = dict(skip)
        # the oracle pops each SKIP packet in a step of its own
        assert skipped["loop"]["pops"] > 100
        assert 4 * skipped["heap"]["steps"] < skipped["loop"]["pops"]

    def test_rounds_left_out_of_the_fingerprint(self):
        prints, rounds = {}, {}
        for sched in SCHEDS:
            soc = make_verified_soc(make_sum_program(n=500))
            stats = soc.run(sched=sched)
            prints[sched] = soc_fingerprint(soc, stats)
            rounds[sched] = stats.rounds
        assert prints["loop"] == prints["heap"]
        assert rounds["heap"] < rounds["loop"]


#: The sweep's dies, as ``(pairs, checkers, workload, faults)``.  The
#: last four are the SoC grid shapes not covered by the dedup sweep
#: (clean dual and triple, faulted 12- and 32-core dies).
TOPOLOGY_GRID = [
    pytest.param(2, 1, "dedup", True, id="2-1"),
    pytest.param(4, 1, "dedup", True, id="4-1"),
    pytest.param(16, 1, "dedup", True, id="16-1"),
    pytest.param(2, 2, "dedup", True, id="2-2"),
    pytest.param(4, 2, "dedup", True, id="4-2"),
    pytest.param(1, 1, "dedup", False, id="1-1-dedup-clean"),
    pytest.param(1, 2, "x264", False, id="1-2-x264-clean"),
    pytest.param(4, 2, "blackscholes", True, id="4-2-blackscholes"),
    pytest.param(16, 1, "mcf", True, id="16-1-mcf"),
]


#: The catalog's other fault models, as ``(scenario, workload, target
#: instructions)``: each die is the scenario's own first unit, at the
#: smallest target where it injects at least one fault.
CATALOG_FAULT_GRID = [
    pytest.param("main-side-faults", "gobmk", 5_000, id="main-side"),
    pytest.param("sparse-faults", "swaptions", 8_000, id="sparse"),
    pytest.param("burst-faults", "dedup", 2_000, id="burst"),
    pytest.param("checker-starvation", "x264", 2_000, id="starvation"),
]


def catalog_point(name, workload, target):
    """``(program, spec)``: the Fig. 7 unit spec the catalog scenario
    ``name`` compiles for its first repeat of ``workload``, scaled to
    ``target`` instructions."""
    scenario = get_scenario(name).replace(target_instructions=target)
    options = _latency_options(scenario, scenario.seed)
    options["repeats"] = 1
    profile = get_profile(workload)
    (spec,) = _fig7_specs(profile, **options)
    program = cached_program(
        profile, GeneratorOptions(target_instructions=target))
    return program, spec


class TestTopologySweep:
    """Fault-injected multi-pair dies from 4 to 32 cores, plus clean
    single-pair dual and triple dies (the Fig. 4 and Fig. 6 shapes),
    plus one die per other fault model of the catalog.

    ``(4, 2)`` matters beyond scale: its main ids {0, 3, 6, 9} are the
    pattern where a hash-ordered candidate scan would diverge from the
    canonical sorted order both schedulers define.
    """

    @pytest.mark.parametrize("name,workload,target", CATALOG_FAULT_GRID)
    def test_catalog_fault_model_identical(self, name, workload, target):
        program, spec = catalog_point(name, workload, target)
        fingerprint = assert_schedulers_identical(
            lambda: build_verified_die(program, spec)
        )
        records = [row for row in fingerprint[5]
                   if row[0] != "armed_unfired"]
        assert records, f"{name} injected no fault at {target}"

    def test_catalog_grid_covers_the_fault_models(self):
        """Each catalog point carries its scenario's own fault model:
        main-side mirroring onto two checkers, per-segment arming
        draws, 4-bit bursts and a starved checker."""
        specs = {param.values[0]: catalog_point(*param.values)[1]
                 for param in CATALOG_FAULT_GRID}
        main_side = specs["main-side-faults"]
        assert (main_side["side"], main_side["checkers"]) == ("main", 2)
        assert specs["sparse-faults"]["segment_rate"] == 0.2
        assert specs["burst-faults"]["burst_bits"] == 4
        starved = specs["checker-starvation"]
        assert starved["service_pause_cycles"] == 120_000
        assert starved["dma_spill_entries"] == 512

    @pytest.mark.parametrize("pairs,checkers,workload,faults",
                             TOPOLOGY_GRID)
    def test_fault_injection_identical(self, pairs, checkers, workload,
                                       faults):
        point = grid_point(pairs, checkers, workload=workload,
                           faults=faults)
        fingerprint = assert_schedulers_identical(
            lambda: point_die(point)
        )
        # one injector per pair on a faulted die, and their records match
        injectors = [row for row in fingerprint[5]
                     if row[0] == "armed_unfired"]
        assert len(injectors) == (pairs if faults else 0)
        # a faulted die really injects: at least one FaultRecord
        records = len(fingerprint[5]) - len(injectors)
        assert (records > 0) == faults

    def test_bench_grid_points_are_well_formed(self):
        """The sweep keeps the SoC grid's reach: distinct ids, clean
        and faulted dies, and a 32-core die."""
        ids = [param.id for param in TOPOLOGY_GRID]
        assert len(ids) == len(set(ids))
        points = [param.values for param in TOPOLOGY_GRID]
        assert {faults for *_, faults in points} == {True, False}
        assert any(
            pairs * (1 + checkers) == 32 for pairs, checkers, *_ in points
        )


class TestBoundedRuns:
    @pytest.mark.parametrize("max_cycles", [3_000, 40_000])
    def test_max_cycles_identical(self, max_cycles):
        point = grid_point(2, 1, target=8_000)
        assert_schedulers_identical(
            lambda: point_die(point), max_cycles=max_cycles
        )

    @pytest.mark.parametrize("offset", [-103, -60, -52, -1, 0, 1, 60])
    def test_bound_across_backpressured_halt(self, offset, monkeypatch):
        """The main halts while its outbox is backpressured, and the
        bound sweeps across that halt.

        In :func:`stuck_halt_soc` with room for two entries beside a
        snapshot, the halt's IC and ECP stay stuck behind the SCP the
        main staged just before.  The halted main stays a candidate
        that stalls until its outbox drains, which both schedulers
        must count in their stop rule."""
        halted_at, _ = halt_and_drain_clocks(monkeypatch)
        # the halt step starts 103 cycles before the main's clock at
        # its retirement: 51 for the SCP capture of a new segment, one
        # for the halt and 51 for the ECP extraction
        assert_schedulers_identical(lambda: stuck_halt_soc(extra=2),
                                    max_cycles=halted_at + offset)

    @pytest.mark.parametrize("offset", [-300, -1, 0, 1])
    def test_bound_across_outbox_drain(self, offset, monkeypatch):
        """The bound sweeps across the cycle where the halted main's
        stuck outbox drains: it stops the main mid-stall, on its last
        stall cycle, and once it has left."""
        _, drained_at = halt_and_drain_clocks(monkeypatch)
        assert_schedulers_identical(lambda: stuck_halt_soc(extra=2),
                                    max_cycles=drained_at + offset)

    @pytest.mark.parametrize("segment_limit", [5, 40])
    def test_bound_after_the_last_other_core_halts(self, segment_limit):
        """A main whose checker thread is switched out runs ahead to the
        bound while a compute core is still below it; the compute core
        then halts short of the bound.  The main must stop at the
        bound, as in the oracle, where it reached the bound only after
        the compute core had halted; the heap used to take one more
        step there."""

        def build():
            soc = FlexStepSoC(SoCConfig(num_cores=3).with_flexstep(
                dma_spill_entries=16384, segment_limit=segment_limit))
            soc.load_program(0, make_sum_program(n=300))
            soc.setup_verification(0, [1])
            soc.engine_of(1).stop_checking()
            soc.load_program(2, make_sum_program(n=50, value=3))
            return soc, ()

        probe, _ = build()
        probe.run(sched="heap")
        halted_at = probe.cores[2].stats.cycles
        for offset in range(56):
            assert_schedulers_identical(build,
                                        max_cycles=halted_at + offset)

    def test_instruction_limit_stops_the_main_where_the_oracle_does(self):
        """``max_instructions`` counts main commits, so when the run
        exceeds it the main has committed as many instructions, at the
        same clock and pc, under both schedulers (their checkers may
        lag it differently there).  The limits fall inside the heap's
        first fused windows and across its later rounds, where a
        window's block must not run past the round's budget."""
        for limit in [*range(5, 300, 7), *range(300, 2_800, 181)]:
            seen = {}
            for sched in SCHEDS:
                soc, _ = point_die(grid_point(1, 1, faults=False))
                with pytest.raises(ExecutionLimitExceeded):
                    soc.run(sched=sched, max_instructions=limit)
                main = soc.cores[0]
                seen[sched] = (main.stats.instructions, main.stats.cycles,
                               main.pc, main.l1i.stats.hits)
            assert seen["loop"] == seen["heap"], limit
            assert seen["heap"][0] == limit + 1, limit

    def test_rerun_after_completion_identical(self):
        """A second run() seeds already-halted cores: both schedulers
        must retire them through the same first-round sweep."""

        def build():
            soc = make_verified_soc(make_sum_program(n=400))
            soc.run()  # leaves every core halted and drained
            soc.cores[0].load_program(make_sum_program(n=300, value=3))
            return soc, ()

        assert_schedulers_identical(build)


class TestDetectionIdentity:
    def test_corrupted_stream_detected_identically(self):
        def build():
            soc = make_verified_soc(make_sum_program(n=1_500))
            injector = install_injector(
                soc,
                0,
                side="checker",
                target=FaultTarget.ANY,
                segment_interval=1,
                rng=random.Random(99),
            )
            return soc, [injector]

        fingerprint = assert_schedulers_identical(build)
        assert fingerprint[3] > 0  # some segments failed, identically


def stuck_halt_soc(extra=1, checkers=1, pause=1_000):
    """A SoC whose main halts with its outbox backpressured.

    Each channel holds a snapshot plus ``extra`` entries, segments are
    7 instructions long and each checker pauses ``pause`` cycles after
    each one, so the halt's IC and ECP stay stuck behind the SCP the
    main staged just before."""
    probe = make_verified_soc(make_sum_program(n=5))
    scp = ScpPacket(segment=0, push_cycle=0,
                    snapshot=probe.cores[0].snapshot())
    soc = make_verified_soc(make_sum_program(n=5), checkers=checkers,
                            fifo_entries=scp.entries + extra,
                            segment_limit=7)
    for cid in range(1, checkers + 1):
        soc.engine_of(cid).segment_service_pause = pause
    return soc, ()


def retire_verdicts(monkeypatch):
    """Record ``(main clock, still blocked)`` at every
    :meth:`FlexStepSoC.retire_main` call from here on."""
    verdicts = []
    retire_main = FlexStepSoC.retire_main

    def recording_retire_main(soc, main_id):
        blocked = retire_main(soc, main_id)
        verdicts.append((soc.cores[main_id].stats.cycles, blocked))
        return blocked

    monkeypatch.setattr(FlexStepSoC, "retire_main", recording_retire_main)
    return verdicts


def halt_and_drain_clocks(monkeypatch):
    """The main's clock when it halts in ``stuck_halt_soc(extra=2)``,
    and when its stuck outbox drains, from an unbounded heap run."""
    with monkeypatch.context() as patch:
        verdicts = retire_verdicts(patch)
        soc, _ = stuck_halt_soc(extra=2)
        soc.run(sched="heap")
    (halted_at, stuck), (drained_at, still_stuck) = verdicts[0], verdicts[-1]
    assert stuck and not still_stuck
    assert drained_at > halted_at  # the halted main really stalls
    return halted_at, drained_at


def tight_drain_pair(segment_limit=40):
    """A faulted dual-mode pair with a short FIFO, short segments and a
    checker that pauses after each one, so the main keeps running into
    backpressure and the checker drains failed segments close behind
    it: SKIP drains end at the main's clock and at packets pushed too
    recently to be visible."""
    soc = make_verified_soc(make_sum_program(n=400), fifo_entries=12,
                            segment_limit=segment_limit)
    soc.engine_of(1).segment_service_pause = 150
    injector = install_injector(soc, 0, target=FaultTarget.MAL_ADDR,
                                segment_interval=1, rng=random.Random(3))
    return soc, [injector]


class TestSkipDrain:
    def test_drains_stop_where_steps_would(self, monkeypatch):
        """``run_ahead``'s SKIP drain must stop at ``limit`` and before
        a head that is not yet visible, exactly where the oracle's
        per-packet steps would change course."""
        stops = {"limit": 0, "invisible": 0}
        skip_run = CheckerEngine._skip_run

        def classifying_skip_run(engine, limit):
            took = skip_run(engine, limit)
            if took and engine.state is CheckerState.SKIP:
                now = engine.core.stats.cycles
                if limit is not None and now >= limit:
                    stops["limit"] += 1
                elif len(engine.channel) and engine.channel.head(now) \
                        is None:
                    stops["invisible"] += 1
            return took

        monkeypatch.setattr(CheckerEngine, "_skip_run", classifying_skip_run)
        fingerprint = assert_schedulers_identical(tight_drain_pair)
        assert fingerprint[3] > 0  # failed segments, identically
        assert stops["limit"] > 0 and stops["invisible"] > 0

    def test_drain_past_the_main_clock_would_unblock_it_early(self):
        """A checker channel pre-filled with a segment that has no SCP
        (a framing error) and a long SKIP tail, all visible from cycle
        1001, leaves no room for the main's first SCP.  The blocked
        main retries its flush each cycle while the checker pops one
        packet per cycle; a drain that ran
        past the main's clock would let the heap's main flush early."""

        def build():
            soc = make_verified_soc(make_sum_program(n=50),
                                    fifo_entries=40)
            channel = soc.engine_of(1).channel
            start = soc.cores[0].snapshot()
            tail = [ProgressPacket(segment=90, push_cycle=1_000, count=i)
                    for i in range(51)]
            for packet in (*tail,
                           EcpPacket(segment=90, push_cycle=1_000,
                                     snapshot=start)):
                assert channel.push(packet)
            assert channel.free_entries() < 17  # the SCP must wait
            return soc, ()

        prints = {}
        for sched in SCHEDS:
            soc, _ = build()
            stats = soc.run(sched=sched)
            check_cosim_contracts(soc, clean=False)
            prints[sched] = soc_fingerprint(soc, stats)
            assert soc.adapter_of(0).stats.backpressure_stall_cycles > 0
            first = soc.engine_of(1).results[0]
            assert (first.segment, first.ok) == (90, False)
        assert prints["loop"] == prints["heap"]


@contextmanager
def wall_clock_guard(seconds):
    """Fail instead of hanging when the body livelocks."""

    def expired(signum, frame):
        raise TimeoutError(f"co-sim still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestHaltedMainLiveness:
    """A main that halts with a backpressured outbox stays a candidate
    and stalls until every packet it staged reaches its checker, so an
    unbounded run ends with every closed segment checked.

    The halted main retries its flush only on its own turn, as a live
    backpressured main does.  In the triple-mode case, a ``loop`` that
    retried it at every round's scan would flush as soon as a checker
    pop made room, between the oracle's batches, and part from the
    heap."""

    @pytest.mark.parametrize(
        "build",
        [
            stuck_halt_soc,
            lambda: stuck_halt_soc(checkers=2, pause=0),
            lambda: tight_drain_pair(segment_limit=24),
        ],
        ids=["stuck-halt", "stuck-halt-triple", "tight-drain-24"],
    )
    def test_stuck_outbox_drains_after_halt(self, build, monkeypatch):
        verdicts = retire_verdicts(monkeypatch)
        prints = {}
        for sched in SCHEDS:
            verdicts.clear()
            soc, injectors = build()
            with wall_clock_guard(60):
                stats = soc.run(sched=sched)
            assert verdicts[0][1]  # the main halted backpressured
            assert soc.cores[0].halted and not soc.adapter_of(0).blocked
            closed = soc.adapter_of(0).stats.segments_closed
            for engine in soc._engines.values():
                checked = engine.stats.segments_checked
                assert checked + engine.stats.segments_failed == closed
            check_cosim_contracts(soc, clean=not injectors)
            prints[sched] = soc_fingerprint(soc, stats, injectors)
        assert prints["loop"] == prints["heap"]


def stale_entry_soc():
    """A dual-mode SoC whose checker channel starts with a hand-made
    segment 90: SCP, a ``MemPacket`` for instruction 1, IC, ECP.

    Instruction 1 at the SCP's pc is an ALU op (``li``), so replay
    executes it without consuming the entry logged for it — the state
    a corrupted SCP leaves behind."""
    soc = make_verified_soc(make_sum_program(n=200))
    start = soc.cores[0].snapshot()
    channel = soc.engine_of(1).channel
    for packet in (
        ScpPacket(segment=90, push_cycle=0, snapshot=start,
                  program=soc.cores[0].program),
        MemPacket(segment=90, push_cycle=0, count=1, kind="r",
                  addr=0x1000, data=7),
        IcPacket(segment=90, push_cycle=0, count=2),
        EcpPacket(segment=90, push_cycle=0, snapshot=start),
    ):
        assert channel.push(packet)
    return soc, ()


class TestUnconsumedMalEntry:
    """A replay that skips a Memory Access Log entry must fail its
    segment instead of waiting forever for the IC stuck behind it."""

    @pytest.mark.parametrize("sched", SCHEDS)
    def test_stale_entry_fails_segment(self, sched):
        soc, _ = stale_entry_soc()
        with wall_clock_guard(60):
            soc.run(sched=sched)
        engine = soc.engine_of(1)
        first = engine.results[0]
        assert (first.segment, first.ok) == (90, False)
        assert first.detail == "MAL entry for instruction 1 not consumed"
        # the stale segment is skipped through its ECP; every segment
        # the main core really committed still verifies
        rest = engine.results[1:]
        assert rest and all(r.ok for r in rest)
        assert len(rest) == soc.adapter_of(0).stats.segments_closed
        assert engine.drained

    def test_schedulers_agree(self):
        prints = {}
        for sched in SCHEDS:
            soc, _ = stale_entry_soc()
            with wall_clock_guard(60):
                stats = soc.run(sched=sched)
            check_cosim_contracts(soc, clean=False)
            prints[sched] = soc_fingerprint(soc, stats)
        assert prints["loop"] == prints["heap"]


class TestSchedulerSelection:
    def test_resolve_defaults_to_heap(self, monkeypatch):
        monkeypatch.delenv(ENV_SOC_SCHED, raising=False)
        assert resolve_soc_sched() == "heap"
        assert resolve_soc_sched("loop") == "loop"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(ENV_SOC_SCHED, "loop")
        assert resolve_soc_sched() == "loop"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_SOC_SCHED, "loop")
        assert resolve_soc_sched("heap") == "heap"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_soc_sched("bogus")

    def test_override_pins_and_restores_env(self):
        before = os.environ.get(ENV_SOC_SCHED)
        with soc_sched_override("loop"):
            assert os.environ[ENV_SOC_SCHED] == "loop"
        assert os.environ.get(ENV_SOC_SCHED) == before

    def test_override_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            with soc_sched_override("bogus"):
                pass

