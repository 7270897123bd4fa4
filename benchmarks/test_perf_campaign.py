"""Campaign-engine check on a scaled-down Fig. 5 sweep.

Runs the sweep serial (``workers=1``), parallel (``REPRO_WORKERS``,
default one per CPU) and as a cached replay, and asserts every path
yields bit-identical curves and that a fully cached replay costs a
small fraction of the serial sweep.  End-to-end performance is measured
by ``e2ebench/`` (see ``e2ebench/README.md``).
"""

import time

import pytest

from repro.campaign.engine import default_workers
from repro.scenarios import Scenario, SchedGrid, run_scenario
from repro.sched import FIG5_CONFIGS


def _curves(sets, workers, cache=None):
    start = time.perf_counter()
    payloads = [
        run_scenario(Scenario(
            name=f"fig5-{key}", kind="sched", seed=2025,
            sched=SchedGrid(**FIG5_CONFIGS[key], sets_per_point=sets)),
            workers=workers, cache=cache).payload
        for key in ("a", "f")
    ]
    return time.perf_counter() - start, payloads


@pytest.fixture(scope="module")
def sweeps(bench_sets_per_point, tmp_path_factory):
    cache = tmp_path_factory.mktemp("campaign-cache")
    workers = default_workers()
    serial = _curves(bench_sets_per_point, 1)
    parallel = _curves(bench_sets_per_point, workers)
    _curves(bench_sets_per_point, workers, cache)
    replay = _curves(bench_sets_per_point, workers, cache)
    return {"serial": serial, "parallel": parallel, "replay": replay}


def test_parallel_and_replay_bit_identical(sweeps):
    serial = sweeps["serial"][1]
    assert sweeps["parallel"][1] == serial, (
        "workers=N produced different curves than workers=1")
    assert sweeps["replay"][1] == serial, (
        "cached replay produced different curves than the fresh sweep")


def test_cached_replay_is_fast(sweeps):
    """A fully cached sweep must cost a small fraction of computing it."""
    assert sweeps["replay"][0] < sweeps["serial"][0] * 0.5
