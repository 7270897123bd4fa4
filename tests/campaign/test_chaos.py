"""Chaos differential gate: campaigns under injected faults must be
bit-identical to a clean ``workers=1`` oracle.

Every test arms a storm (kills / exceptions / hangs that
:func:`_units.storm_unit` draws deterministically per unit+attempt
from the plan file in its storm dir) and/or the
:class:`chaos.CacheCorruptor`, runs the same grid, and asserts the
surviving results equal the oracle exactly — the strongest statement
the supervisor can make: faults cost wall-clock, never correctness.
A storm kill exits whatever process runs the unit, so every stormy
campaign runs worker processes (``workers=2`` or a ``unit_timeout``).
"""

import time

import pytest

from repro.campaign import CampaignError, ResultCache, run_campaign
from repro.campaign.supervisor import _KILL_GRACE_S
from repro.runtime import events
from repro.sched.experiments import _fig5_batch_specs, _fig5_batch_unit

from . import _units
from .chaos import (
    CacheCorruptor,
    arm_storm,
    disarm_storm,
    planned_faults,
    storm_specs,
)

SEED = 7
KILLS = {"kill-before", "kill-after"}


@pytest.fixture()
def storm(tmp_path):
    """A storm dir, its grid of eight :func:`_units.rng_unit` units and
    the clean serial oracle (no plan file yet: every unit runs clean,
    in this process)."""
    root = tmp_path / "storm"
    root.mkdir()
    specs = storm_specs(root, [{"n": 4}] * 8)
    run = run_campaign(_units.storm_unit, specs, seed=SEED, workers=1,
                       cache=None)
    assert run.stats.computed == len(specs)
    return root, specs, run.results


class TestChaosDifferential:
    def test_injected_exceptions_retry_to_oracle(self, storm):
        root, specs, oracle = storm
        plan = arm_storm(root, seed=1, exc=0.8, attempts=2)
        faults = planned_faults(plan)
        assert set(faults) == {"raise"}
        run = run_campaign(_units.storm_unit, specs, seed=SEED, workers=2,
                           cache=None, max_retries=4, retry_backoff=0.0)
        assert run.results == oracle
        assert run.failures == []
        assert run.stats.retried == len(faults) > 0

    def test_worker_kills_respawn_to_oracle(self, storm):
        """Kills before the unit body and after it (the result message
        is lost with the worker) both recompute to the oracle."""
        root, specs, oracle = storm
        plan = arm_storm(root, seed=2, kill=0.6, attempts=1)
        faults = planned_faults(plan)
        assert set(faults) == KILLS
        run = run_campaign(_units.storm_unit, specs, seed=SEED, workers=2,
                           cache=None, max_retries=3, retry_backoff=0.0)
        assert run.results == oracle
        assert run.failures == []
        assert run.stats.worker_respawns == len(faults) >= 1

    def test_hangs_time_out_and_retry_to_oracle(self, storm):
        root, specs, oracle = storm
        plan = arm_storm(root, seed=3, hang=0.5, hang_s=30.0, attempts=1)
        assert set(planned_faults(plan)) == {"hang"}
        run = run_campaign(_units.storm_unit, specs, seed=SEED, workers=2,
                           cache=None, unit_timeout=0.5, max_retries=2,
                           retry_backoff=0.0)
        assert run.results == oracle
        assert run.failures == []
        assert run.stats.timeouts >= 1

    def test_timed_out_workers_respawn_without_the_kill_grace(self,
                                                              storm):
        """A timed-out worker dies on ``terminate()``: it does not keep
        ``run_campaign``'s SIGTERM handler, under which it ran on until
        the supervisor's ``kill()`` a whole ``_KILL_GRACE_S`` later,
        with the supervisor loop stalled meanwhile."""
        root, specs, oracle = storm
        plan = arm_storm(root, seed=3, hang=0.5, hang_s=30.0, attempts=1)
        hangs = planned_faults(plan).count("hang")
        stamps = []

        def on_event(record):
            if record["event"] in ("worker.death", "worker.respawn"):
                stamps.append((record["event"], time.monotonic()))

        token = events.subscribe(on_event)
        try:
            run = run_campaign(_units.storm_unit, specs, seed=SEED,
                               workers=2, cache=None, unit_timeout=0.5,
                               max_retries=2, retry_backoff=0.0)
        finally:
            events.unsubscribe(token)
        assert run.results == oracle
        assert run.stats.timeouts == hangs >= 1
        # each death is followed by its own respawn
        assert [event for event, _ in stamps] \
            == ["worker.death", "worker.respawn"] * hangs
        gaps = [respawn - death for (_, death), (_, respawn)
                in zip(stamps[::2], stamps[1::2])]
        assert max(gaps) < _KILL_GRACE_S / 2, gaps

    def test_combined_storm_with_live_cache_corruption(self, storm,
                                                       tmp_path):
        """The full storm: kills + exceptions + hangs while a background
        thread corrupts the cache the campaign is writing — then a
        storm-free replay from the battered cache must *still* match
        the oracle (corrupt entries quarantined and recomputed, never
        served)."""
        root, specs, oracle = storm
        cache_dir = tmp_path / "cache"
        plan = arm_storm(root, seed=4, kill=0.2, exc=0.2, hang=0.1,
                         hang_s=30.0, attempts=2)
        faults = set(planned_faults(plan))
        assert {"raise", "hang"} <= faults and faults & KILLS
        corruptor = CacheCorruptor(cache_dir, seed=4)
        corruptor.start()
        try:
            stormy = run_campaign(
                _units.storm_unit, specs, seed=SEED, workers=2,
                cache=cache_dir, unit_timeout=2.0, max_retries=5,
                retry_backoff=0.0)
        finally:
            corruptor.stop()
        assert stormy.results == oracle
        assert stormy.failures == []

        disarm_storm(root)
        replay = run_campaign(_units.storm_unit, specs, seed=SEED,
                              workers=1, cache=cache_dir)
        assert replay.results == oracle
        assert replay.stats.cached + replay.stats.computed == len(specs)
        if corruptor.corrupted:
            # damaged entries were recomputed, and their corpses kept
            assert replay.stats.computed > 0
            cache = ResultCache(cache_dir)
            assert len(list(cache.quarantine_dir.iterdir())) > 0
        # after the replay the cache is fully healed
        healed = run_campaign(_units.storm_unit, specs, seed=SEED,
                              workers=1, cache=cache_dir)
        assert healed.results == oracle
        assert healed.stats.computed == 0

    def test_every_attempt_poisoned_quarantines(self, storm):
        """Unbounded injection (every attempt fails) exhausts the retry
        budget: units quarantine with a full attempt log instead of
        looping forever."""
        root, specs, _ = storm
        arm_storm(root, seed=5, exc=1.0, attempts=99)
        run = run_campaign(_units.storm_unit, specs[:3], seed=SEED,
                           workers=2, cache=None, max_retries=1,
                           retry_backoff=0.0)
        assert run.results == [None, None, None]
        assert run.stats.quarantined == 3
        for failure in run.failures:
            assert failure.attempts == 2   # max_retries + 1
            assert failure.error_type == "StormError"
            assert len(failure.attempt_log) == 2

        with pytest.raises(CampaignError) as excinfo:
            run_campaign(_units.storm_unit, specs[:3], seed=SEED,
                         workers=2, cache=None, max_retries=1,
                         retry_backoff=0.0, strict=True)
        assert "3 unit(s) quarantined" in str(excinfo.value)


class TestCatalogUnitUnderStorm:
    def test_fig5_batches_survive_the_storm(self, tmp_path):
        """The real Fig. 5 batch unit under kills, exceptions and a
        timed-out hang reproduces its clean serial run, which in turn
        is the unwrapped unit's own campaign (it ignores its seed)."""
        root = tmp_path / "storm"
        root.mkdir()
        fig5 = _fig5_batch_specs(
            m=4, n=24, alpha=0.25, beta=0.125,
            utilizations=(0.35, 0.45, 0.55, 0.65, 0.75, 0.85),
            sets_per_point=4, seed=424242,
            schemes=("lockstep", "hmr", "flexstep"))
        specs = storm_specs(
            root, fig5, inner="repro.sched.experiments:_fig5_batch_unit")
        clean = run_campaign(_units.storm_unit, specs, seed=SEED,
                             workers=1, cache=None)
        plain = run_campaign(_fig5_batch_unit, fig5, seed=SEED,
                             workers=1, cache=None)
        assert clean.results == plain.results

        plan = arm_storm(root, seed=9, kill=0.3, exc=0.3, hang=0.15,
                         hang_s=60.0, attempts=2)
        faults = planned_faults(plan, units=len(specs))
        assert {"raise", "hang"} | KILLS <= set(faults)
        stormy = run_campaign(_units.storm_unit, specs, seed=SEED,
                              workers=2, cache=None, unit_timeout=2.0,
                              max_retries=4, retry_backoff=0.0)
        assert stormy.results == clean.results
        assert stormy.failures == []
        assert stormy.stats.timeouts >= 1
        assert stormy.stats.worker_respawns >= 1
