"""End-to-end daemon tests over the real pipe transport.

These spawn ``python -m repro serve --pipe`` as a subprocess and speak
the JSON-lines protocol over its stdin/stdout, proving the properties
the command-table tests cannot: byte-identical results versus a
one-shot in-process run, zero recompute on resubmission (via
``cache.hit`` records in the JSON event log), and SIGTERM
drain-to-manifest with a restarted daemon resuming the interrupted
job without redoing finished units.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import ResultCache
from repro.scenarios import get_scenario
from repro.scenarios.runner import run_scenario
from repro.service import SERVICE_MANIFEST_KEY

REPO_ROOT = Path(__file__).resolve().parents[2]
SCENARIO = "fig5-sched"
UNITS = 13          # fig5-sched grid points (independent of sets)


def result_identity(doc: dict) -> str:
    """The byte-identity subset: everything except runtime stats."""
    return json.dumps({"scenario": doc["scenario"], "seed": doc["seed"],
                       "payload": doc["payload"]}, sort_keys=True)


def cache_entries(cache_dir: Path) -> list[Path]:
    return sorted(cache_dir.glob("??/*.json"))


class PipeDaemon:
    """A ``repro serve --pipe`` subprocess plus a request helper."""

    def __init__(self, tmp_path: Path, cache_dir: Path,
                 log_path: Path | None = None, workers: int | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{REPO_ROOT}:{REPO_ROOT / 'src'}"
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["REPRO_REPORT_DIR"] = str(tmp_path / "reports")
        if workers is not None:
            env["REPRO_WORKERS"] = str(workers)
        if log_path is not None:
            env["REPRO_LOG_JSON"] = str(log_path)
        else:
            env.pop("REPRO_LOG_JSON", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--pipe"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT, env=env)
        self._next_id = 0

    def request(self, cmd: str, **fields) -> dict:
        self._next_id += 1
        line = json.dumps({"id": self._next_id, "cmd": cmd, **fields})
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        assert reply, "daemon closed stdout mid-conversation"
        response = json.loads(reply)
        assert response.get("id") == self._next_id
        return response

    def wait(self, timeout: float = 60.0) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        finally:
            for stream in (self.proc.stdin, self.proc.stdout,
                           self.proc.stderr):
                if stream is not None:
                    stream.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


@pytest.fixture
def daemon_factory(tmp_path):
    spawned: list[PipeDaemon] = []

    def build(cache_dir: Path, log_path: Path | None = None,
              workers: int | None = None) -> PipeDaemon:
        daemon = PipeDaemon(tmp_path, cache_dir, log_path, workers)
        spawned.append(daemon)
        return daemon

    yield build
    for daemon in spawned:
        daemon.kill()


class TestPipeEndToEnd:
    def test_two_worker_pool_completes_whatever_the_cpu_count(
            self, tmp_path, daemon_factory):
        """The pipe daemon's main thread blocks reading stdin while a
        runner thread starts pool workers; with ``workers=2`` forced on
        any host, those workers must come up (not hang on a lock
        inherited from the reader) and the daemon must exit cleanly."""
        daemon = daemon_factory(tmp_path / "cache", workers=2)
        submitted = daemon.request("submit", scenario=SCENARIO, sets=2)
        assert submitted["ok"] is True
        done = daemon.request("result", job=submitted["job"], timeout=60)
        assert done["state"] == "done"
        stats = done["result"]["stats"]
        assert stats["workers"] == 2
        assert stats["computed"] == UNITS
        assert daemon.request("shutdown")["ok"] is True
        assert daemon.wait() == 0

    def test_replay_is_byte_identical_and_recomputes_nothing(
            self, tmp_path, daemon_factory):
        log_path = tmp_path / "events.jsonl"
        daemon = daemon_factory(tmp_path / "cache", log_path)
        assert daemon.request("ping")["ok"] is True

        first = daemon.request("submit", scenario=SCENARIO, sets=2)
        assert first["ok"] is True
        cold = daemon.request("result", job=first["job"], timeout=60)
        assert cold["state"] == "done"
        assert cold["result"]["stats"]["computed"] == UNITS
        assert cold["result"]["stats"]["cached"] == 0

        # the resubmission is a fresh job that must be satisfied
        # entirely from the on-disk cache
        second = daemon.request("submit", scenario=SCENARIO, sets=2)
        assert second["job"] != first["job"]
        warm = daemon.request("result", job=second["job"], timeout=60)
        assert warm["state"] == "done"
        assert warm["result"]["stats"]["computed"] == 0
        assert warm["result"]["stats"]["cached"] == UNITS
        assert result_identity(warm["result"]) == result_identity(
            cold["result"])

        assert daemon.request("shutdown")["ok"] is True
        assert daemon.wait() == 0

        # the daemon's answer matches a plain in-process run bit-for-bit
        oracle = run_scenario(get_scenario(SCENARIO).scaled(sets=2),
                              cache=tmp_path / "oracle-cache", workers=1)
        assert result_identity(cold["result"]) == result_identity(
            oracle.to_dict())

        # the JSON event log proves zero recompute: every unit the cold
        # run missed is hit — not re-missed — by the warm run
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        misses = [r["digest"] for r in records
                  if r["event"] == "cache.miss"]
        hits = [r["digest"] for r in records if r["event"] == "cache.hit"]
        assert len(set(misses)) == UNITS
        assert len(hits) == UNITS
        assert set(hits) == set(misses)

    def test_sigterm_drains_to_manifest_and_restart_resumes(
            self, tmp_path, daemon_factory):
        cache_dir = tmp_path / "cache"
        daemon = daemon_factory(cache_dir)
        # sets=600 stretches each of the 13 units to ~0.4 s so the
        # SIGTERM reliably lands mid-campaign
        submitted = daemon.request("submit", scenario=SCENARIO, sets=600)
        assert submitted["ok"] is True

        deadline = time.monotonic() + 60
        while not cache_entries(cache_dir):
            assert time.monotonic() < deadline, "no unit finished in time"
            time.sleep(0.02)
        daemon.proc.send_signal(signal.SIGTERM)
        assert daemon.wait() == 0

        done_units = len(cache_entries(cache_dir))
        assert 0 < done_units < UNITS, \
            f"wanted a partial campaign, got {done_units}/{UNITS} units"
        manifest = ResultCache(cache_dir).get_manifest(SERVICE_MANIFEST_KEY)
        assert manifest is not None
        assert len(manifest["jobs"]) == 1
        assert manifest["jobs"][0]["scenario"]["name"] == SCENARIO

        restarted = daemon_factory(cache_dir)
        listed = restarted.request("status")["jobs"]
        assert len(listed) == 1, "restart did not resume the drained job"
        resumed = restarted.request("result", job=listed[0]["job"],
                                    timeout=120)
        assert resumed["state"] == "done"
        stats = resumed["result"]["stats"]
        # zero recompute across the restart: every unit finished before
        # the SIGTERM is replayed from cache, only the rest is computed
        assert stats["cached"] == done_units
        assert stats["computed"] == UNITS - done_units
        assert restarted.request("shutdown")["ok"] is True
        assert restarted.wait() == 0

        # the consumed manifest is gone and the answer matches an
        # uninterrupted one-shot run bit-for-bit
        assert ResultCache(cache_dir).get_manifest(
            SERVICE_MANIFEST_KEY) is None
        oracle = run_scenario(get_scenario(SCENARIO).scaled(sets=600),
                              cache=tmp_path / "oracle-cache", workers=1)
        assert result_identity(resumed["result"]) == result_identity(
            oracle.to_dict())


def process_gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie awaiting reaping by
    whatever adopted it counts as exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to inspect worker processes")
class TestParentDeath:
    def test_workers_exit_when_the_daemon_is_killed(
            self, tmp_path, daemon_factory):
        """SIGKILL gives the daemon no chance to stop its pool; the
        idle workers must notice on their own and exit."""
        log_path = tmp_path / "events.jsonl"
        daemon = daemon_factory(tmp_path / "cache", log_path, workers=2)
        submitted = daemon.request("submit", scenario=SCENARIO, sets=2)
        done = daemon.request("result", job=submitted["job"], timeout=60)
        assert done["state"] == "done"
        assert done["result"]["stats"]["workers"] == 2
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        pids = {r["worker_pid"] for r in records
                if r["event"] == "worker.spawn"}
        assert len(pids) == 2
        assert not any(process_gone(pid) for pid in pids)

        daemon.proc.kill()
        assert daemon.wait() == -signal.SIGKILL
        deadline = time.monotonic() + 5.0
        while not all(process_gone(pid) for pid in pids):
            assert time.monotonic() < deadline, \
                f"workers outlived the daemon: {sorted(pids)}"
            time.sleep(0.05)
