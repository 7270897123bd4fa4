"""SoC scheduler check on the catalog's die at bench scale.

Builds a clean single-pair dual die and a fault-injected 8-core die
with :func:`repro.flexstep.die.build_verified_die`, the builder the
scenario catalog's latency and slowdown units run, and asserts both
co-sim schedulers run them bit-identically (the ``loop`` scheduler is
the oracle).  The tier-1 sweep over more shapes at smaller targets is
``tests/flexstep/test_soc_sched.py``; end-to-end performance is
measured by ``e2ebench/``.
"""

import pytest

from repro.flexstep.die import build_verified_die
from repro.flexstep.fingerprint import soc_fingerprint
from repro.workloads.generator import GeneratorOptions, cached_program
from repro.workloads.profiles import get_profile

#: Fig. 7 unit-spec fields of every point: spill and service pause.
DIE = {"dma_spill_entries": 2_048, "service_pause_cycles": 20_000}
#: A faulted point arms every segment, injector seeds 11 + 7919 * pair.
FAULTS = {"target": "any", "segment_interval": 1, "fault_seed": 11}

POINTS = (
    {"name": "fig4-dual", "workload": "dedup", "target_instructions": 20_000,
     "spec": {**DIE, "pairs": 1, "checkers": 1}},
    {"name": "fig7-8core", "workload": "dedup", "target_instructions": 5_000,
     "spec": {**DIE, **FAULTS, "pairs": 4, "checkers": 1}},
)


def _fingerprint(point, sched):
    program = cached_program(
        get_profile(point["workload"]),
        GeneratorOptions(target_instructions=point["target_instructions"]))
    soc, injectors = build_verified_die(program, point["spec"])
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
    cores = [p["spec"]["pairs"] * (1 + p["spec"]["checkers"])
             for p in POINTS]
    assert max(cores) >= 8, "slice lost its 8+-core point"
