"""Supervisor behaviour tests: retries, timeouts, dead workers,
chunking and graceful shutdown with resume from the cache.

The chaos differential gate (``test_chaos.py``) proves survival under
seeded fault storms; these tests pin the individual mechanisms with
deterministic, marker-file-driven faults.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignInterrupted, run_campaign
from repro.campaign.engine import code_token

from . import _units

REPO_ROOT = Path(__file__).resolve().parents[2]


def _cached_units(cache_dir: Path) -> int:
    return len(list(cache_dir.glob("??/*.json")))


def _specs(work_dir, n=5, draws=4):
    return [{"n": draws, "i": i, "dir": str(work_dir)} for i in range(n)]


class TestRetryIdentity:
    def test_retried_run_bit_identical_to_clean_run(self, tmp_path):
        """The same spawn seed is used on every attempt, so a campaign
        that needed retries equals one that never failed at all."""
        specs = _specs(tmp_path)
        retried = run_campaign(_units.flaky_once_unit, specs, seed=9,
                               workers=2, cache=None, max_retries=1,
                               retry_backoff=0.0)
        assert retried.stats.retried == len(specs)
        assert retried.failures == []
        # markers now exist: this run succeeds on every first attempt
        clean = run_campaign(_units.flaky_once_unit, specs, seed=9,
                             workers=2, cache=None)
        assert retried.results == clean.results

    def test_serial_path_retries_too(self, tmp_path):
        specs = _specs(tmp_path, n=3)
        run = run_campaign(_units.flaky_once_unit, specs, seed=9,
                           workers=1, cache=None, max_retries=2,
                           retry_backoff=0.0)
        assert run.failures == []
        assert run.stats.retried == 3


class TestDeadWorkers:
    def test_killed_worker_respawns_and_unit_retries(self, tmp_path):
        specs = _specs(tmp_path, n=4)
        run = run_campaign(_units.kill_once_unit, specs, seed=9,
                           workers=2, cache=None, max_retries=1,
                           retry_backoff=0.0)
        assert run.failures == []
        assert run.stats.worker_respawns >= 1
        clean = run_campaign(_units.kill_once_unit, specs, seed=9,
                             workers=2, cache=None)
        assert run.results == clean.results


class TestTimeouts:
    def test_hung_unit_times_out_and_retries(self, tmp_path):
        specs = _specs(tmp_path, n=3)
        run = run_campaign(_units.hang_once_unit, specs, seed=9,
                           workers=2, cache=None, unit_timeout=0.5,
                           max_retries=1, retry_backoff=0.0)
        assert run.failures == []
        assert run.stats.timeouts >= 1
        clean = run_campaign(_units.hang_once_unit, specs, seed=9,
                             workers=2, cache=None)
        assert run.results == clean.results

    def test_workers_1_with_timeout_uses_a_process(self, tmp_path):
        """Preemption needs a worker process even at workers=1: a hung
        unit must still be killable."""
        specs = _specs(tmp_path, n=2)
        run = run_campaign(_units.hang_once_unit, specs, seed=9,
                           workers=1, cache=None, unit_timeout=0.5,
                           max_retries=1, retry_backoff=0.0)
        assert run.failures == []
        assert run.stats.timeouts >= 1


class TestChunking:
    """At 24 pending units and 2 workers the derived chunk size is
    ``24 // (2 * 4) == 3``."""

    def test_fault_knobs_force_per_unit_dispatch(self):
        specs = [{"n": 2, "i": i} for i in range(24)]
        run = run_campaign(_units.rng_unit, specs, workers=2, cache=None)
        assert run.stats.chunk_size == 3
        run = run_campaign(_units.rng_unit, specs, workers=2, cache=None,
                           unit_timeout=30.0)
        assert run.stats.chunk_size == 1
        run = run_campaign(_units.rng_unit, specs, workers=2, cache=None,
                           max_retries=2)
        assert run.stats.chunk_size == 1

    def test_chunked_dispatch_matches_serial(self):
        specs = [{"n": 3, "i": i} for i in range(24)]
        serial = run_campaign(_units.rng_unit, specs, seed=4, workers=1,
                              cache=None)
        chunked = run_campaign(_units.rng_unit, specs, seed=4, workers=2,
                               cache=None)
        assert chunked.stats.chunk_size == 3
        assert serial.stats.chunk_size == 1   # in-process: no IPC
        assert chunked.results == serial.results


class TestInlineWorker:
    def test_inline_and_process_paths_agree(self, tmp_path):
        """``workers=1`` runs in this process; a unit timeout forces
        one worker process.  Retries and quarantine must come out the
        same either way."""
        specs = _specs(tmp_path, n=4) + [
            {"i": 4, "fail_at": 4}, {"i": 5, "fail_at": -1}]

        def run(**kwargs):
            for marker in tmp_path.glob("flaky-*"):
                marker.unlink()
            return run_campaign(_units.flaky_or_failing_unit, specs,
                                seed=9, workers=1, cache=None,
                                max_retries=1, retry_backoff=0.0,
                                **kwargs)

        inline = run()
        process = run(unit_timeout=30.0)
        assert inline.results == process.results
        assert inline.results[5] == 5 and inline.results[4] is None
        assert (inline.stats.retried, inline.stats.quarantined) == (5, 1)
        assert (process.stats.retried, process.stats.quarantined) == (5, 1)

        def summary(failure):
            return (failure.index, failure.error_type, failure.message,
                    failure.attempts, failure.attempt_log)

        assert [summary(f) for f in inline.failures] == \
            [summary(f) for f in process.failures]
        assert summary(inline.failures[0])[:4] == \
            (4, "RuntimeError", "unit 4 exploded", 2)

    def test_units_run_through_the_patchable_module_attribute(
            self, tmp_path, monkeypatch):
        """Tracing wraps ``repro.campaign.supervisor.run_attempt``; the
        in-process worker must call it once per pending unit."""
        from repro.campaign import supervisor
        calls = []
        original = supervisor.run_attempt

        def counting(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(supervisor, "run_attempt", counting)
        specs = [{"n": 2, "i": i} for i in range(8)]
        cache_dir = tmp_path / "cache"
        run_campaign(_units.rng_unit, specs[:3], workers=1,
                     cache=cache_dir)
        assert len(calls) == 3
        calls.clear()
        run = run_campaign(_units.rng_unit, specs, workers=1,
                           cache=cache_dir)
        assert run.stats.cached == 3
        assert len(calls) == run.stats.computed == 5


    def test_in_process_supervisor_rejects_process_only_knobs(self):
        """Timeouts need a process to preempt."""
        from repro.campaign.supervisor import run_supervised
        units = [(0, "tests.campaign._units:rng_unit", {"n": 1}, 1, None)]
        with pytest.raises(ValueError, match="worker processes"):
            run_supervised(units, workers=1, ctx=None,
                           record=lambda index, payload: None,
                           unit_timeout=1.0)


class TestGracefulShutdown:
    def test_sigint_serial_resumes_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        specs = [{"n": 3, "i": i, "s": 0.1} for i in range(12)]
        timer = threading.Timer(
            0.35, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(CampaignInterrupted) as excinfo:
                run_campaign(_units.slow_unit, specs, seed=2, workers=1,
                             cache=cache_dir)
        finally:
            timer.cancel()

        run = excinfo.value.run
        assert run.stats.interrupted is True
        n_done = _cached_units(cache_dir)
        assert 0 < n_done < len(specs)
        assert run.stats.computed == n_done
        # the cache is the only resume state: nothing else is written
        assert sorted(p.name for p in cache_dir.iterdir()
                      if len(p.name) != 2) == []

        # resume: completed units replay from cache, zero recompute
        resumed = run_campaign(_units.slow_unit, specs, seed=2,
                               workers=1, cache=cache_dir)
        assert resumed.stats.cached == n_done
        assert resumed.stats.computed == len(specs) - n_done
        oracle = run_campaign(_units.slow_unit, specs, seed=2, workers=1,
                              cache=None)
        assert resumed.results == oracle.results

    def test_inline_worker_starts_no_unit_after_sigint(self, tmp_path):
        """The SIGINT lands while unit 5 runs: unit 5 completes, and
        the in-process worker starts none of the 18 after it, chunked
        or in the shutdown grace window."""
        specs = [{"n": 3, "i": i, "s": 0.05, "interrupt_at": 5}
                 for i in range(24)]
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(_units.self_interrupting_unit, specs, seed=2,
                         workers=1, cache=tmp_path / "cache")
        run = excinfo.value.run
        assert run.stats.computed == 6
        assert all(result is not None for result in run.results[:6])
        assert run.results[6:] == [None] * 18
        assert _cached_units(tmp_path / "cache") == 6

    def test_sigterm_parallel_campaign_resumes_identically(self,
                                                           tmp_path):
        """Kill a workers=2 campaign from outside with SIGTERM, then
        resume it in this process: the final run must be bit-identical
        to an uninterrupted oracle with zero recompute of completed
        units."""
        cache_dir = tmp_path / "cache"
        specs = [{"n": 3, "i": i, "s": 0.3} for i in range(10)]
        script = (
            "import json, sys\n"
            "from repro.campaign import CampaignInterrupted, "
            "run_campaign\n"
            "from repro.campaign.engine import code_token\n"
            "from tests.campaign import _units\n"
            "specs = json.loads(sys.argv[1])\n"
            "try:\n"
            "    run_campaign(_units.slow_unit, specs, seed=2, "
            "workers=2, cache=sys.argv[2])\n"
            "except CampaignInterrupted as exc:\n"
            "    print(exc.run.stats.computed, code_token())\n"
            "    sys.exit(42)\n"
        )
        import json
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{REPO_ROOT}:{REPO_ROOT / 'src'}"
        child = subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(specs),
             str(cache_dir)],
            env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if len(list(cache_dir.glob("??/*.json"))) >= 2:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("child campaign made no progress")
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=60.0)
        finally:
            if child.poll() is None:   # pragma: no cover
                child.kill()
                child.communicate()
        assert child.returncode == 42, out
        computed, child_token = out.split()

        # Cache digests fold in code_token(), which hashes (path, size,
        # mtime) of every src/repro source once per process.  A source
        # edit while the test suite runs gives the child another token,
        # and the resume below then finds none of its entries.
        assert child_token == code_token(), (
            "the SIGTERM'd child hashed another source tree than this "
            "process: a file under src/repro changed during the test "
            "run, so the resume cannot find the child's cache entries")

        # every unit the drained child reports computed is in the cache
        n_done = _cached_units(cache_dir)
        assert n_done >= 2
        assert int(computed) == n_done

        resumed = run_campaign(_units.slow_unit, specs, seed=2,
                               workers=2, cache=cache_dir)
        assert resumed.stats.cached == n_done
        assert resumed.stats.computed == len(specs) - n_done
        oracle = run_campaign(_units.slow_unit, specs, seed=2, workers=1,
                              cache=None)
        assert resumed.results == oracle.results


class TestWorkerPool:
    """A caller-owned pool keeps workers warm across campaigns — the
    resident-daemon path — without changing results or teardown."""

    def _pool(self):
        import multiprocessing

        from repro.campaign import WorkerPool
        from repro.campaign.engine import _start_method
        return WorkerPool(multiprocessing.get_context(_start_method()))

    def test_workers_are_reused_across_campaigns(self):
        specs = [{"i": i} for i in range(6)]
        pool = self._pool()
        try:
            first = run_campaign(_units.pid_unit, specs, seed=1,
                                 workers=2, cache=None, pool=pool)
            assert len(pool._idle) == 2   # released warm
            second = run_campaign(_units.pid_unit, specs, seed=1,
                                  workers=2, cache=None, pool=pool)
        finally:
            pool.close()
        first_pids = {r["pid"] for r in first.results}
        second_pids = {r["pid"] for r in second.results}
        assert len(first_pids) == 2
        # the second campaign ran entirely on the warm workers of the
        # first — zero process respawn
        assert second_pids <= first_pids
        assert second.stats.worker_respawns == 0

    def test_pool_runs_are_bit_identical_to_pooled_free_runs(self):
        specs = [{"n": 4, "i": i} for i in range(8)]
        oracle = run_campaign(_units.rng_unit, specs, seed=9, workers=1,
                              cache=None)
        pool = self._pool()
        try:
            pooled = run_campaign(_units.rng_unit, specs, seed=9,
                                  workers=2, cache=None, pool=pool)
        finally:
            pool.close()
        assert pooled.results == oracle.results

    def test_closed_pool_rejects_new_leases(self):
        pool = self._pool()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.lease(1)

    def test_close_shuts_idle_workers_down(self):
        specs = [{"i": i} for i in range(4)]
        pool = self._pool()
        run_campaign(_units.pid_unit, specs, seed=1, workers=2,
                     cache=None, pool=pool)
        idle = list(pool._idle)
        assert len(idle) == 2
        pids = [w.process.pid for w in idle]
        pool.close()   # joins and reaps every idle worker
        assert pool._idle == []

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 10.0
        while any(alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(alive(p) for p in pids)

    def test_external_shutdown_event_drains_without_signals(self,
                                                            tmp_path):
        """A non-main-thread caller (the serve daemon's job runners)
        hands in its own shutdown event; setting it mid-run drains and
        raises CampaignInterrupted without any signal machinery."""
        cache_dir = tmp_path / "cache"
        specs = [{"n": 3, "i": i, "s": 0.2, "dir": str(tmp_path)}
                 for i in range(10)]
        stop = threading.Event()
        outcome = {}

        def body():
            try:
                run_campaign(_units.slow_unit, specs, seed=5, workers=2,
                             cache=cache_dir, shutdown_event=stop)
                outcome["state"] = "completed"
            except CampaignInterrupted:
                outcome["state"] = "interrupted"

        worker = threading.Thread(target=body)
        worker.start()
        deadline = time.monotonic() + 60.0
        while (not list(cache_dir.glob("??/*.json"))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        stop.set()
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        assert outcome["state"] == "interrupted"
        # finishing the campaign recomputes only what the drain left
        # missing from the cache and matches the oracle
        resumed = run_campaign(_units.slow_unit, specs, seed=5,
                               workers=2, cache=cache_dir)
        oracle = run_campaign(_units.slow_unit, specs, seed=5, workers=1,
                              cache=None)
        assert resumed.results == oracle.results
        assert resumed.stats.cached >= 1
