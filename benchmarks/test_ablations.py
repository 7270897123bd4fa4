"""Ablations over FlexStep's design parameters (EXPERIMENTS.md,
"Figure benches").

Not figures from the paper — these probe the design choices it makes:

* segment length (default 5000): shorter segments mean more checkpoint
  extractions (slowdown up) but tighter detection latency;
* DBC FIFO depth: deeper buffering absorbs checker hiccups (fewer
  backpressure stalls) at the cost of checker lag;
* virtual deadlines: strict Algorithm 3 vs the paper's relaxed fallback
  vs the auto policy used in Fig. 5.
"""

from repro.analysis.slowdown import measure_flexstep, \
    measure_vanilla_cycles
from repro.config import SoCConfig
from repro.scenarios import Scenario, SchedGrid, run_scenario
from repro.scenarios.report import _sched_points
from repro.sched.experiments import weighted_schedulability
from repro.sched.partition import partition_flexstep
from repro.sched.uunifast import generate_task_set
from repro.workloads import GeneratorOptions, build_program, get_profile

import random


class TestSegmentLength:
    def test_slowdown_vs_latency_tradeoff(self, benchmark,
                                          bench_instructions):
        profile = get_profile("x264")
        program = build_program(profile, GeneratorOptions(
            target_instructions=2 * bench_instructions))
        base = measure_vanilla_cycles(program)

        def sweep():
            out = {}
            for limit in (500, 5000):
                cfg = SoCConfig(num_cores=2).with_flexstep(
                    segment_limit=limit)
                cycles, _ = measure_flexstep(program, config=cfg)
                out[limit] = cycles / base
            return out

        slowdowns = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print("\nAblation: segment limit -> slowdown", slowdowns)
        # short segments extract checkpoints 10x as often: more stalls
        assert slowdowns[500] > slowdowns[5000]
        assert slowdowns[5000] < 1.03

    def test_short_segments_tighten_detection_horizon(self, benchmark,
                                                      bench_instructions):
        """A state corruption can hide at most until the next ECP
        compare; shorter segments bound that horizon tighter.  Measured
        as the largest gap (checker cycles) between consecutive segment
        verdicts."""
        from repro.flexstep import FlexStepSoC

        profile = get_profile("x264")
        program = build_program(profile, GeneratorOptions(
            target_instructions=2 * bench_instructions))

        def max_verdict_gap(limit):
            cfg = SoCConfig(num_cores=2).with_flexstep(
                segment_limit=limit)
            soc = FlexStepSoC(cfg)
            soc.load_program(0, program)
            soc.setup_verification(0, [1])
            soc.run()
            cycles = sorted(r.detect_cycle for r in soc.all_results())
            assert len(cycles) >= 2
            return max(b - a for a, b in zip(cycles, cycles[1:]))

        gaps = benchmark.pedantic(
            lambda: {limit: max_verdict_gap(limit)
                     for limit in (500, 5000)},
            rounds=1, iterations=1)
        print("\nAblation: segment limit -> max verdict gap (cycles)",
              gaps)
        assert gaps[500] < gaps[5000]


class TestFifoDepth:
    def test_deeper_fifo_reduces_backpressure(self, benchmark,
                                              bench_instructions):
        profile = get_profile("streamcluster")   # memory-heavy
        program = build_program(profile, GeneratorOptions(
            target_instructions=bench_instructions))

        def stalls(entries):
            cfg = SoCConfig(num_cores=2).with_flexstep(
                fifo_entries=entries)
            _, soc = measure_flexstep(program, config=cfg)
            return soc.adapter_of(0).stats.backpressure_stall_cycles

        result = benchmark.pedantic(
            lambda: {e: stalls(e) for e in (24, 64, 512)},
            rounds=1, iterations=1)
        print("\nAblation: FIFO entries -> backpressure stalls", result)
        assert result[24] >= result[64] >= result[512]


class TestVirtualDeadlinePolicy:
    def test_strict_vs_relaxed_acceptance(self, benchmark,
                                          bench_sets_per_point):
        """The strict density test is sound but pessimistic; the paper's
        fallback recovers most of the loss — quantified here."""

        def acceptance(mode):
            accepted = 0
            rng = random.Random(11)
            for _ in range(bench_sets_per_point):
                ts = generate_task_set(64, 0.6 * 8, alpha=0.25,
                                       beta=0.0, rng=rng)
                if partition_flexstep(ts, 8, mode=mode).success:
                    accepted += 1
            return accepted / bench_sets_per_point

        rates = benchmark.pedantic(
            lambda: {m: acceptance(m) for m in
                     ("strict", "relaxed", "auto")},
            rounds=1, iterations=1)
        print("\nAblation: Al.3 mode -> acceptance @ x=0.6", rates)
        assert rates["strict"] <= rates["auto"]
        assert rates["auto"] == rates["relaxed"] \
            or rates["auto"] >= rates["relaxed"]
        assert rates["relaxed"] > 0.5

    def test_auto_policy_matches_fig5_usage(self, benchmark,
                                            bench_sets_per_point):
        grid = SchedGrid(m=8, n=64, alpha=0.25, beta=0.0,
                         utilizations=(0.55,),
                         sets_per_point=bench_sets_per_point,
                         schemes=("flexstep",))
        result = benchmark.pedantic(
            lambda: run_scenario(Scenario(name="vd-policy", kind="sched",
                                          seed=12, sched=grid)),
            rounds=1, iterations=1)
        points = _sched_points(result.payload)
        assert weighted_schedulability(points, "flexstep") > 0.5
