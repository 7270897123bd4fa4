"""Benchmark-suite configuration.

Every bench regenerates one of the paper's tables or figures and prints
it (run with ``pytest benchmarks/ --benchmark-only -s`` to see the
artefacts).  Sizes are scaled down from the paper's FPGA runs so the
whole suite finishes in minutes; the *shape* assertions encode what the
reproduction is expected to preserve (see EXPERIMENTS.md).
"""

import pytest

from repro.runtime import knobs

#: Instructions per workload measurement (paper: full benchmark runs).
BENCH_INSTRUCTIONS = knobs.value("bench_instructions")

#: Task sets per utilisation point in Fig. 5 (paper: hundreds).
BENCH_SETS_PER_POINT = knobs.value("bench_sets")


@pytest.fixture(scope="session", autouse=True)
def _session_cache_dir(tmp_path_factory):
    """Campaign results cache under a temporary root, not the repo's
    ``.repro_cache``: every source edit rotates the digests, so a cache
    kept across runs only grows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def bench_instructions():
    return BENCH_INSTRUCTIONS


@pytest.fixture(scope="session")
def bench_sets_per_point():
    return BENCH_SETS_PER_POINT
