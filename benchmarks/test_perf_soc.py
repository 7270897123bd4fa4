"""SoC scheduler check on a Fig. 4/7-shaped slice at bench scale.

Runs a clean single-pair dual die and a fault-injected 8-core die under
both co-sim schedulers and asserts the runs are bit-identical (the
``loop`` scheduler is the oracle).  The tier-1 sweep over more shapes
at smaller targets is ``tests/flexstep/test_soc_sched.py``;
end-to-end performance is measured by ``e2ebench/``.
"""

import pytest

from repro.flexstep.fingerprint import build_point_soc, soc_fingerprint

POINTS = (
    {"name": "fig4-dual", "workload": "dedup", "pairs": 1, "checkers": 1,
     "faults": False, "target_instructions": 20_000},
    {"name": "fig7-8core", "workload": "dedup", "pairs": 4, "checkers": 1,
     "faults": True, "target_instructions": 5_000},
)


def _fingerprint(point, sched):
    soc, injectors = build_point_soc(point)
    stats = soc.run(sched=sched)
    return soc_fingerprint(soc, stats, injectors)


@pytest.fixture(scope="module")
def fingerprints():
    return {point["name"]: {sched: _fingerprint(point, sched)
                            for sched in ("loop", "heap")}
            for point in POINTS}


def test_schedulers_bit_identical(fingerprints):
    for name, prints in fingerprints.items():
        assert prints["heap"] == prints["loop"], (
            f"{name}: heap scheduler diverged from the loop oracle")


def test_grid_covers_multi_pair_dies():
    cores = [p["pairs"] * (1 + p["checkers"]) for p in POINTS]
    assert max(cores) >= 8, "slice lost its 8+-core point"
