"""Golden-file determinism regression for Fig. 5 task-set identity.

Pins, for a frozen seed table:

* ``task_set_seed`` — the SHA-256 spawn-key derivation every campaign
  unit uses, and
* ``generate_task_set`` — every WCET/period (as exact ``float.hex``
  strings) and class assignment of the generated sets,

so that any backend change, RNG refactor or seeding drift that would
silently re-identify the Fig. 5 task-set population fails tier-1
instead of shifting published curves.  When an *intentional*
re-identification lands (a new RNG scheme, say), regenerate with::

    PYTHONPATH=src python tests/sched/test_determinism_golden.py

and account for the diff in the PR.
"""

import json
import random
from pathlib import Path

import pytest

from repro.sched import generate_task_set, get_backend
from repro.sched.backend import numpy_available
from repro.sched.experiments import task_set_seed

GOLDEN_PATH = Path(__file__).parent / "goldens" / "task_set_identity.json"

#: Frozen spawn-key table: (seed, m, n, alpha, beta, x, index).
SEED_TABLE = [
    (2025, 8, 160, 0.0625, 0.0625, 0.35, 0),
    (2025, 8, 160, 0.25, 0.25, 0.95, 99),
    (2025, 16, 160, 0.125, 0.125, 0.65, 42),
    (2025, 8, 80, 0.25, 0.25, 0.5, 7),
    (424242, 4, 24, 0.25, 0.125, 0.85, 3),
    (7, 8, 160, 0.125, 0.125, 0.75, 11),
]

#: Frozen generation table: (rng seed, n, total U, alpha, beta).
GENERATION_TABLE = [
    (1, 8, 1.6, 0.25, 0.0),
    (99, 12, 2.4, 0.25, 0.25),
    (31415, 16, 3.0, 0.125, 0.125),
    (271828, 10, 0.9, 0.0, 0.0),
    (20250726, 20, 5.0, 0.25, 0.25),
]


def _task_set_fingerprint(rng_seed, n, u, alpha, beta):
    ts = generate_task_set(n, u, alpha=alpha, beta=beta,
                           rng=random.Random(rng_seed))
    return [[t.wcet.hex(), t.period.hex(), t.cls.value] for t in ts]


def build_current() -> dict:
    return {
        "spawn_seeds": [
            {"args": list(args), "value": task_set_seed(*args)}
            for args in SEED_TABLE
        ],
        "task_sets": [
            {"rng_seed": rng_seed, "n": n, "total_utilization": u,
             "alpha": alpha, "beta": beta,
             "tasks": _task_set_fingerprint(rng_seed, n, u, alpha, beta)}
            for rng_seed, n, u, alpha, beta in GENERATION_TABLE
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestSpawnSeedGolden:
    def test_spawn_seed_values_pinned(self, golden):
        for entry in golden["spawn_seeds"]:
            assert task_set_seed(*entry["args"]) == entry["value"], \
                entry["args"]

    def test_table_covers_frozen_tuples(self, golden):
        assert [tuple(e["args"]) for e in golden["spawn_seeds"]] \
            == SEED_TABLE


class TestGenerationGolden:
    def test_generated_sets_bit_identical(self, golden):
        for entry in golden["task_sets"]:
            current = _task_set_fingerprint(
                entry["rng_seed"], entry["n"],
                entry["total_utilization"], entry["alpha"],
                entry["beta"])
            assert current == entry["tasks"], entry["rng_seed"]

    @pytest.mark.skipif(not numpy_available(),
                        reason="numpy optional extra not installed")
    def test_numpy_generation_matches_golden(self, golden):
        """The vectorized generator reproduces the pinned sets too —
        the golden is backend-independent."""
        backend = get_backend("numpy")
        for entry in golden["task_sets"]:
            batch = backend.generate_batch(
                n=entry["n"],
                total_utilization=entry["total_utilization"],
                alpha=entry["alpha"], beta=entry["beta"],
                seeds=[entry["rng_seed"]])
            (ts,) = batch.as_task_sets()
            current = [[t.wcet.hex(), t.period.hex(), t.cls.value]
                       for t in ts]
            assert current == entry["tasks"], entry["rng_seed"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(build_current(), indent=1) + "\n")
    print(f"regenerated {GOLDEN_PATH}")
