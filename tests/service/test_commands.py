"""In-process tests of the service command table and job machinery.

These drive :class:`ReproService.handle` directly with an injected
stub runner — no sockets, no subprocesses — so they pin the protocol
semantics (FIFO order, cancellation, TTL expiry, error shapes,
drain-and-resume) fast and deterministically.  The end-to-end daemon
behaviour over a real transport lives in ``test_pipe.py`` and
``test_socket.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.campaign import CampaignInterrupted, ResultCache
from repro.service import ReproService, jobs
from repro.service.jobs import (
    CANCELLED,
    DONE,
    INTERRUPTED,
    QUEUED,
    RUNNING,
)

SCENARIO = "fig5-sched"


def wait_for(predicate, timeout: float = 20.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class StubRunner:
    """A controllable job executor.

    With ``block=True`` every job parks until :attr:`release` is set —
    or until its drain event fires, in which case it raises
    :class:`CampaignInterrupted` exactly like a drained campaign.
    """

    def __init__(self, *, block: bool = False):
        self.block = block
        self.release = threading.Event()
        self.calls: list = []

    def __call__(self, job):
        self.calls.append((job.scenario.name, job.seed))
        while self.block and not self.release.is_set():
            if job.shutdown.is_set():
                raise CampaignInterrupted("drained")
            time.sleep(0.01)
        return {"scenario": job.scenario.to_dict(), "seed": job.seed,
                "payload": {"kind": "stub"}, "stats": {"computed": 1}}


@pytest.fixture
def service_factory(tmp_path):
    """Build services that are always stopped at test exit."""
    started = []

    def build(runner, **kwargs):
        kwargs.setdefault("cache", tmp_path / "cache")
        kwargs.setdefault("save_reports", False)
        service = ReproService(runner=runner, **kwargs)
        service.start()
        started.append(service)
        return service

    yield build
    for service in started:
        service.stop()


class TestProtocolShapes:
    def test_unknown_command_is_an_error_response(self, service_factory):
        service = service_factory(StubRunner())
        response = service.handle({"id": 7, "cmd": "frobnicate"})
        assert response["ok"] is False
        assert "unknown command" in response["error"]
        assert response["id"] == 7

    def test_non_object_request_is_rejected(self, service_factory):
        service = service_factory(StubRunner())
        response = service.handle(["not", "a", "dict"])
        assert response["ok"] is False

    def test_submit_without_scenario_is_an_error(self, service_factory):
        service = service_factory(StubRunner())
        response = service.handle({"cmd": "submit"})
        assert response["ok"] is False
        assert "scenario" in response["error"]

    def test_submit_unknown_scenario_is_an_error(self, service_factory):
        service = service_factory(StubRunner())
        response = service.handle(
            {"cmd": "submit", "scenario": "no-such-scenario"})
        assert response["ok"] is False

    def test_ping_and_knobs(self, service_factory):
        service = service_factory(StubRunner())
        assert service.handle({"cmd": "ping"})["ok"] is True
        response = service.handle({"cmd": "knobs"})
        assert response["ok"] is True
        envs = {entry["env"] for entry in response["knobs"]}
        assert "REPRO_SERVE_SOCKET" in envs

    def test_result_for_unknown_job_is_an_error(self, service_factory):
        service = service_factory(StubRunner())
        response = service.handle({"cmd": "result", "job": "j999"})
        assert response["ok"] is False
        assert "unknown job" in response["error"]


class TestLifecycle:
    def test_submit_runs_to_done_with_result_payload(self,
                                                     service_factory):
        runner = StubRunner()
        service = service_factory(runner)
        submitted = service.handle(
            {"cmd": "submit", "scenario": SCENARIO, "sets": 2})
        assert submitted["ok"] is True and submitted["state"] == QUEUED
        response = service.handle(
            {"cmd": "result", "job": submitted["job"], "timeout": 20})
        assert response["ok"] is True
        assert response["state"] == DONE
        assert response["result"]["payload"] == {"kind": "stub"}
        assert runner.calls == [(SCENARIO, 2025)]   # catalog seed

    def test_job_events_stream_with_cursor(self, service_factory):
        service = service_factory(StubRunner())
        job = service.handle(
            {"cmd": "submit", "scenario": SCENARIO})["job"]
        service.handle({"cmd": "result", "job": job, "timeout": 20})
        response = service.handle({"cmd": "events", "job": job})
        names = [r["event"] for r in response["events"]]
        assert names[0] == "job.submit"
        assert "job.start" in names and "job.end" in names
        # the cursor resumes exactly where the previous read stopped
        tail = service.handle({"cmd": "events", "job": job,
                               "since": response["next"]})
        assert tail["events"] == []
        assert tail["next"] == response["next"]

    def test_status_lists_every_job(self, service_factory):
        service = service_factory(StubRunner())
        first = service.handle(
            {"cmd": "submit", "scenario": SCENARIO})["job"]
        second = service.handle(
            {"cmd": "submit", "scenario": SCENARIO, "seed": 99})["job"]
        listed = service.handle({"cmd": "status"})["jobs"]
        assert {entry["job"] for entry in listed} == {first, second}
        single = service.handle({"cmd": "status", "job": first})
        assert single["job"]["job"] == first


class TestDedup:
    def test_finished_jobs_do_not_dedup(self, service_factory):
        """A resubmission after completion must be a fresh job — it
        replays from the on-disk cache (provably, via cache.hit
        events), which an in-memory short-circuit would hide."""
        runner = StubRunner()
        service = service_factory(runner)
        first = service.handle({"cmd": "submit", "scenario": SCENARIO})
        service.handle({"cmd": "result", "job": first["job"],
                        "timeout": 20})
        again = service.handle({"cmd": "submit", "scenario": SCENARIO})
        assert again["job"] != first["job"]
        service.handle({"cmd": "result", "job": again["job"],
                        "timeout": 20})
        assert runner.calls == [(SCENARIO, 2025)] * 2


class TestQueueOrder:
    def test_jobs_run_in_submission_order(self, service_factory):
        runner = StubRunner(block=True)
        service = service_factory(runner)
        # occupy the one runner, then queue behind it; a duplicate of
        # queued work is a job of its own
        blocker = service.handle(
            {"cmd": "submit", "scenario": SCENARIO, "seed": 1})
        assert wait_for(lambda: len(runner.calls) == 1)
        queued = [service.handle(
            {"cmd": "submit", "scenario": SCENARIO, "seed": seed})
            for seed in (3, 2, 3)]
        assert len({job["job"] for job in queued}) == 3
        runner.block = False
        runner.release.set()
        for job in (blocker, *queued):
            response = service.handle(
                {"cmd": "result", "job": job["job"], "timeout": 20})
            assert response["state"] == DONE
        assert [seed for _, seed in runner.calls] == [1, 3, 2, 3]


class TestCancel:
    def test_cancel_queued_job_is_immediate(self, service_factory):
        runner = StubRunner(block=True)
        service = service_factory(runner)
        service.handle({"cmd": "submit", "scenario": SCENARIO,
                        "seed": 1})
        assert wait_for(lambda: len(runner.calls) == 1)
        queued = service.handle(
            {"cmd": "submit", "scenario": SCENARIO, "seed": 2})
        response = service.handle({"cmd": "cancel",
                                   "job": queued["job"]})
        assert response["state"] == CANCELLED
        runner.release.set()
        result = service.handle(
            {"cmd": "result", "job": queued["job"], "timeout": 20})
        assert result["state"] == CANCELLED
        # the cancelled job never executed
        assert (SCENARIO, 2) not in runner.calls

    def test_cancel_running_job_drains_it(self, service_factory):
        runner = StubRunner(block=True)
        service = service_factory(runner)
        job = service.handle({"cmd": "submit",
                              "scenario": SCENARIO})["job"]
        assert wait_for(lambda: len(runner.calls) == 1)
        assert service.handle({"cmd": "status",
                               "job": job})["job"]["state"] == RUNNING
        service.handle({"cmd": "cancel", "job": job})
        response = service.handle({"cmd": "result", "job": job,
                                   "timeout": 20})
        assert response["state"] == CANCELLED


class TestTtl:
    def test_finished_jobs_expire_after_ttl(self, service_factory,
                                            monkeypatch):
        monkeypatch.setattr(jobs, "JOB_TTL_S", 0.05)
        service = service_factory(StubRunner())
        job = service.handle({"cmd": "submit",
                              "scenario": SCENARIO})["job"]
        service.handle({"cmd": "result", "job": job, "timeout": 20})
        time.sleep(0.1)
        service.table.prune()
        response = service.handle({"cmd": "status", "job": job})
        assert response["ok"] is False
        assert "unknown job" in response["error"]


class TestShutdownAndResume:
    def test_drain_persists_pending_jobs_and_restart_resumes(
            self, tmp_path):
        cache_dir = tmp_path / "cache"
        runner = StubRunner(block=True)
        service = ReproService(runner=runner, cache=cache_dir,
                               save_reports=False)
        service.start()
        running = service.handle({"cmd": "submit", "scenario": SCENARIO,
                                  "seed": 1})["job"]
        assert wait_for(lambda: len(runner.calls) == 1)
        queued = service.handle({"cmd": "submit", "scenario": SCENARIO,
                                 "seed": 2})["job"]
        response = service.handle({"cmd": "shutdown"})
        assert response["ok"] is True and response["pending"] == 2
        pending = service.stop()
        assert pending == 2
        for job_id in (running, queued):
            assert service.table.get(job_id).state == INTERRUPTED
        manifest = ResultCache(cache_dir).get_manifest("service-jobs")
        assert manifest is not None and len(manifest["jobs"]) == 2

        # a fresh daemon on the same cache picks both jobs up and the
        # manifest is consumed exactly once
        second_runner = StubRunner()
        restarted = ReproService(runner=second_runner, cache=cache_dir,
                                 save_reports=False)
        assert restarted.start() == 2
        try:
            assert wait_for(
                lambda: sorted(seed for _, seed in second_runner.calls)
                == [1, 2])
            assert wait_for(
                lambda: all(job.state == DONE
                            for job in restarted.table.jobs()))
            assert ResultCache(cache_dir).get_manifest(
                "service-jobs") is None
        finally:
            restarted.stop()
        # a clean stop with nothing pending leaves no manifest behind
        assert ResultCache(cache_dir).get_manifest(
            "service-jobs") is None

    def test_submit_after_shutdown_is_rejected(self, tmp_path):
        service = ReproService(runner=StubRunner(),
                               cache=tmp_path / "cache",
                               save_reports=False)
        service.start()
        service.handle({"cmd": "shutdown"})
        response = service.handle({"cmd": "submit",
                                   "scenario": SCENARIO})
        assert response["ok"] is False
        assert "shutting down" in response["error"]
        service.stop()
