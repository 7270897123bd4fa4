#!/usr/bin/env python3
"""Error-detection latency campaign (paper Fig. 7, scaled down).

Injects bit flips into the forwarded verification data of three Parsec
workloads and plots each latency distribution as ASCII density, showing
the paper's shape: mass in the tens of microseconds with blackscholes
carrying the heaviest tail.

Run:  python examples/fault_injection_campaign.py
"""

from repro.analysis.reporting import format_fig7, format_fig7_density
from repro.scenarios import Scenario, run_scenario
from repro.scenarios.report import _latency_results


def main() -> None:
    scenario = Scenario(name="fig7-example", kind="latency",
                        workloads=("dedup", "x264", "blackscholes"),
                        target_instructions=80_000)
    results = _latency_results(run_scenario(scenario).payload)

    print(format_fig7(results))
    for result in results:
        print()
        print(format_fig7_density(result, bins=20, hi=60.0))

    # every injected fault in verified fields must have been caught
    assert all(r.detection_rate == 1.0 for r in results)


if __name__ == "__main__":
    main()
