"""Fig. 7 — probability distribution of error-detection latency across
Parsec workloads under fault injection into the forwarded data.

Shape assertions (paper: most mass around ~20 µs; blackscholes reaches
2–3× the others, up to ~50 µs; ≥99.9 % of faults covered):

* every injected fault in verified fields is detected,
* typical latencies sit in the tens of microseconds,
* blackscholes has the heaviest tail of the suite.
"""

from repro.analysis.reporting import format_fig7, format_fig7_density
from repro.scenarios import Scenario, run_scenario
from repro.scenarios.report import _latency_results


def test_fig7_latency_distribution(benchmark, bench_instructions):
    scenario = Scenario(name="fig7-latency", kind="latency",
                        workloads=("parsec",),
                        target_instructions=4 * bench_instructions)
    result = benchmark.pedantic(lambda: run_scenario(scenario),
                                rounds=1, iterations=1)
    results = _latency_results(result.payload)
    print("\n" + format_fig7(results))
    by_name = {r.workload: r for r in results}
    print()
    print(format_fig7_density(by_name["blackscholes"]))

    for res in results:
        assert res.injected > 0, res.workload
        assert res.detection_rate == 1.0, res.workload      # ≥ 99.9 %
        assert res.max_us <= 120.0, res.workload            # Fig. 7 axis
    # typical workloads concentrate in the tens of µs
    typical = [r.mean_us for r in results
               if r.workload not in ("blackscholes", "swaptions")]
    assert all(3.0 <= m <= 45.0 for m in typical), typical
    # blackscholes shows the heaviest tail (2-3x the typical mean)
    bs = by_name["blackscholes"]
    assert bs.max_us >= 1.5 * max(typical)
    assert bs.max_us <= 80.0
