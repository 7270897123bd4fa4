"""The resident campaign service — ``python -m repro serve``.

One daemon process for one user owns a warm
:class:`~repro.campaign.WorkerPool`, a FIFO
:class:`~repro.service.jobs.JobTable` drained by one runner thread,
and the shared on-disk result cache, and accepts **JSON-lines
requests** over a unix-domain socket
(``REPRO_SERVE_SOCKET``) or, for tests and CI, over stdin/stdout
(``--pipe``).  Each request is one JSON object per line::

    {"id": 1, "cmd": "submit", "scenario": "fig5-sched", "sets": 2}

and each response echoes the ``id`` with ``"ok"`` plus command-specific
fields.  The command table:

========== ==========================================================
command     semantics
========== ==========================================================
submit      enqueue a catalog scenario run (``scenario`` name;
            optional ``seed`` and the quick-scaling
            ``instructions``/``repeats``/``sets``) behind every job
            already queued
status      one job's lifecycle record, or all jobs
result      block until a job finishes; returns the full scenario
            result document (and the saved report path)
events      a job's structured event records since a cursor
cancel      cancel a queued job immediately, or drain a running one
knobs       the runtime knob registry (``python -m repro knobs``
            over the wire)
ping        liveness probe
shutdown    graceful drain-and-manifest stop
========== ==========================================================

Durability: SIGINT/SIGTERM (or ``shutdown``) stop intake, set every
live job's drain event so in-flight campaigns stop at the next unit
boundary, then persist the still pending jobs as a **service
manifest** under the cache root.  A restarted daemon resubmits them
automatically — and because every completed unit is already in the
content-addressed cache, the resumed jobs replay to the oracle result
with zero recompute.

A second daemon will not take over a socket a live one listens on:
``serve_socket`` probes the path first and only replaces a stale
socket nobody accepts on.

The daemon is threaded (a transport reader plus the runner thread), so
its worker pool never forks: processes come from a ``forkserver``
context (``spawn`` where forkserver is unavailable) unless
``REPRO_MP_START`` pins a start method.  A child forked from a
threaded parent can inherit a lock another thread held — the stdin
buffer lock of the pipe transport's reader — and hang on it forever.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

from ..campaign import CampaignInterrupted, WorkerPool, resolve_cache
from ..campaign.engine import _start_method
from ..errors import ReproError
from ..runtime import events, knobs
from ..scenarios import get_scenario, run_scenario
from ..scenarios.spec import Scenario
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    FINISHED_STATES,
    INTERRUPTED,
    Job,
    JobTable,
)

#: Manifest key of the pending-jobs document under ``<cache>/manifests/``.
SERVICE_MANIFEST_KEY = "service-jobs"


class ServiceError(ReproError):
    """The daemon could not start (bad socket path, ...)."""


def pool_context():
    """The multiprocessing context of the daemon's worker pool: the
    ``REPRO_MP_START`` method when set, else a fork-free one (see the
    module docstring)."""
    if knobs.value("mp_start"):
        return multiprocessing.get_context(_start_method())
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn")


class ReproService:
    """The resident scenario/campaign job service.

    ``runner`` is the job executor — injectable for tests; the default
    runs :func:`repro.scenarios.runner.run_scenario` on the shared
    warm pool with ``workers`` campaign workers.  One runner thread
    executes the queued jobs one at a time, in submission order.
    """

    def __init__(self, *, workers: Optional[int] = None,
                 cache: Any = "auto",
                 save_reports: bool = True,
                 report_dir: Optional[str] = None,
                 runner: Optional[Callable[[Job], Any]] = None):
        self.workers = workers
        self.cache = resolve_cache(cache)
        self.save_reports = save_reports
        self.report_dir = report_dir
        self.table = JobTable()
        self.pool: Optional[WorkerPool] = None
        self._runner = runner or self._default_runner
        self._stop = threading.Event()
        self._stop_reason: Optional[str] = None
        self._runner_thread: Optional[threading.Thread] = None
        self._subscription: Optional[int] = None
        self._local = threading.local()
        self._started = False
        self._stopped = False
        self._commands: dict[str, Callable[[dict], dict]] = {
            "submit": self._cmd_submit,
            "status": self._cmd_status,
            "result": self._cmd_result,
            "events": self._cmd_events,
            "cancel": self._cmd_cancel,
            "knobs": self._cmd_knobs,
            "ping": self._cmd_ping,
            "shutdown": self._cmd_shutdown,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> int:
        """Arm the service: event routing, warm pool, runner thread.

        Returns how many jobs were resumed from a previous daemon's
        service manifest.
        """
        if self._started:
            return 0
        self._started = True
        self._subscription = events.subscribe(self._route_event)
        self.pool = WorkerPool(pool_context())
        resumed = self._resume_persisted()
        self._runner_thread = threading.Thread(
            target=self._runner_loop, name="repro-serve-runner",
            daemon=True)
        self._runner_thread.start()
        return resumed

    def request_shutdown(self, reason: str) -> None:
        """Begin a graceful stop; transports notice within ~0.2 s."""
        if self._stop_reason is None:
            self._stop_reason = reason
        self._stop.set()

    def stop(self, reason: Optional[str] = None) -> int:
        """Drain, persist pending jobs, release the pool.

        Returns the number of jobs written to the service manifest —
        a restarted daemon picks exactly those up.
        """
        if self._stopped:
            return 0
        self._stopped = True
        self.request_shutdown(reason or "shutdown")
        for job in self.table.unfinished():
            job.shutdown.set()
        if self._runner_thread is not None:
            self._runner_thread.join(
                timeout=knobs.value("shutdown_grace") + 10.0)
        pending = self._persist_pending()
        events.emit("serve.stop", reason=self._stop_reason,
                    jobs=pending)
        if self._subscription is not None:
            events.unsubscribe(self._subscription)
            self._subscription = None
        if self.pool is not None:
            self.pool.close()
        return pending

    # -- durability ---------------------------------------------------------

    def _persist_pending(self) -> int:
        """Write still-unfinished jobs to the service manifest."""
        pending = [job for job in self.table.jobs()
                   if job.state not in (DONE, FAILED, CANCELLED)]
        for job in pending:
            self.table.interrupt(job)
        if self.cache is None:
            return len(pending)
        if pending:
            self.cache.put_manifest(SERVICE_MANIFEST_KEY, {
                "v": 1,
                "jobs": [{"scenario": job.scenario.to_dict(),
                          "seed": job.seed}
                         for job in pending],
                "written_at_unix": round(time.time(), 3),
            })
        else:
            self.cache.clear_manifest(SERVICE_MANIFEST_KEY)
        return len(pending)

    def _resume_persisted(self) -> int:
        """Resubmit jobs a previous daemon left behind."""
        if self.cache is None:
            return 0
        doc = self.cache.get_manifest(SERVICE_MANIFEST_KEY)
        if not doc:
            return 0
        self.cache.clear_manifest(SERVICE_MANIFEST_KEY)
        resumed = 0
        for entry in doc.get("jobs", []):
            try:
                scenario = Scenario.from_dict(entry["scenario"])
                job = self.table.submit(scenario, int(entry["seed"]))
            except Exception:
                continue    # a corrupt entry must not block the rest
            events.emit("job.submit", job=job.id, scenario=scenario.name)
            resumed += 1
        return resumed

    # -- job execution ------------------------------------------------------

    def _default_runner(self, job: Job):
        return run_scenario(
            job.scenario, seed=job.seed, workers=self.workers,
            cache=self.cache, pool=self.pool,
            shutdown_event=job.shutdown)

    def _runner_loop(self) -> None:
        while not self._stop.is_set():
            job = self.table.next_job(timeout=0.2)
            if job is None:
                self.table.prune()
                continue
            if self._stop.is_set():
                self.table.interrupt(job)
                break
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        self._local.job_id = job.id
        events.emit("job.start", job=job.id, scenario=job.scenario.name)
        started = time.perf_counter()
        state, doc, saved, error = DONE, None, None, None
        try:
            result = self._runner(job)
            doc = (result.to_dict()
                   if hasattr(result, "to_dict") else result)
            if self.save_reports and hasattr(result, "save"):
                saved = str(result.save(self.report_dir))
        except CampaignInterrupted:
            # daemon drain vs. client cancel: the only two setters of
            # job.shutdown
            state = INTERRUPTED if self._stop.is_set() else CANCELLED
        except Exception as exc:
            # one poisoned job must never take the daemon down
            state = FAILED
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self._local.job_id = None
        self.table.finish(job, state, result=doc, saved=saved,
                          error=error)
        events.emit("job.end", job=job.id, scenario=job.scenario.name,
                    state=state,
                    seconds=round(time.perf_counter() - started, 6))

    def _route_event(self, record: dict) -> None:
        """Event-bus subscriber: mirror records into per-job buffers.

        ``job.*`` records carry their job id; everything else (the
        campaign/cache/scenario stream) is attributed to whatever job
        the emitting thread is running — the runner thread sets the
        thread-local around :meth:`_run_job`.
        """
        job_id = record.get("job") \
            or getattr(self._local, "job_id", None)
        if not job_id:
            return
        job = self.table.get(job_id)
        if job is not None:
            job.add_event(record)

    # -- the command table --------------------------------------------------

    def handle(self, request: Any) -> dict:
        """Dispatch one decoded request object; never raises."""
        if not isinstance(request, dict):
            return {"ok": False,
                    "error": "request must be a JSON object"}
        req_id = request.get("id")
        handler = self._commands.get(request.get("cmd"))
        if handler is None:
            response = {
                "ok": False,
                "error": (f"unknown command {request.get('cmd')!r}; "
                          f"expected one of "
                          f"{', '.join(sorted(self._commands))}")}
        else:
            try:
                response = handler(request)
            except Exception as exc:
                response = {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
        if req_id is not None:
            response["id"] = req_id
        return response

    def _cmd_submit(self, request: dict) -> dict:
        if self._stop.is_set():
            return {"ok": False, "error": "service is shutting down"}
        name = request.get("scenario")
        if not name:
            raise ServiceError("submit needs 'scenario' (a catalog name)")
        scenario = get_scenario(name).scaled(
            instructions=request.get("instructions"),
            repeats=request.get("repeats"),
            sets=request.get("sets"))
        seed = int(request.get("seed", scenario.seed))
        job = self.table.submit(scenario, seed)
        events.emit("job.submit", job=job.id, scenario=scenario.name)
        return {"ok": True, "job": job.id, "state": job.state}

    def _require_job(self, request: dict) -> Job:
        job_id = request.get("job")
        if not job_id:
            raise ServiceError("missing 'job' id")
        job = self.table.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r} (expired or "
                               "never submitted)")
        return job

    def _cmd_status(self, request: dict) -> dict:
        if request.get("job"):
            return {"ok": True, "job": self._require_job(request).describe()}
        return {"ok": True,
                "jobs": [job.describe() for job in self.table.jobs()]}

    def _cmd_result(self, request: dict) -> dict:
        job = self._require_job(request)
        if request.get("wait", True) and job.state not in FINISHED_STATES:
            timeout = request.get("timeout")
            finished = self.table.wait(
                job, None if timeout is None else float(timeout),
                stop=self._stop)
            if not finished:
                reason = ("service is shutting down"
                          if self._stop.is_set() else
                          f"timed out waiting for {job.id}")
                return {"ok": False, "job": job.id,
                        "state": job.state, "error": reason}
        response = {"ok": True, "job": job.id, "state": job.state}
        if job.result is not None:
            response["result"] = job.result
        if job.saved is not None:
            response["saved"] = job.saved
        if job.error is not None:
            response["error"] = job.error
        return response

    def _cmd_events(self, request: dict) -> dict:
        job = self._require_job(request)
        since = int(request.get("since", 0))
        start = max(0, since - job.events_dropped)
        return {"ok": True, "job": job.id,
                "events": list(job.events[start:]),
                "next": job.events_dropped + len(job.events)}

    def _cmd_cancel(self, request: dict) -> dict:
        job = self._require_job(request)
        self.table.cancel(job.id)
        events.emit("job.cancel", job=job.id, state=job.state)
        return {"ok": True, "job": job.id, "state": job.state}

    def _cmd_knobs(self, request: dict) -> dict:
        return {"ok": True, "knobs": knobs.describe()}

    def _cmd_ping(self, request: dict) -> dict:
        return {"ok": True, "pid": os.getpid(),
                "jobs": len(self.table.jobs())}

    def _cmd_shutdown(self, request: dict) -> dict:
        pending = len(self.table.unfinished())
        self.request_shutdown("client")
        return {"ok": True, "pending": pending}

    def _answer(self, line: str) -> Optional[str]:
        """One JSON-lines request in, its response line out (``None``
        for a blank line) — the part both transports share."""
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response = {"ok": False, "error": f"malformed request: {exc}"}
        else:
            response = self.handle(request)
        return json.dumps(response, sort_keys=True) + "\n"

    # -- transports ---------------------------------------------------------

    def _install_signals(self) -> None:
        def _handler(signum, frame):
            self.request_shutdown(f"signal-{signum}")
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    signal.signal(sig, _handler)
                except (ValueError, OSError):  # pragma: no cover
                    continue

    def serve_pipe(self, stdin=None, stdout=None) -> int:
        """JSON-lines over stdin/stdout — the test and CI transport.

        A dedicated reader thread feeds a queue so the main loop can
        poll the shutdown flag (a blocking ``readline`` would sit out
        a SIGTERM until the next request arrived).
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        self.start()
        self._install_signals()
        events.emit("serve.start", mode="pipe")
        lines: queue.Queue = queue.Queue()

        def _reader() -> None:
            try:
                for line in stdin:
                    lines.put(line)
            except ValueError:      # stdin closed under us
                pass
            lines.put(None)

        threading.Thread(target=_reader, daemon=True,
                         name="repro-serve-stdin").start()
        reason = None
        while not self._stop.is_set():
            try:
                line = lines.get(timeout=0.2)
            except queue.Empty:
                continue
            if line is None:
                reason = "eof"
                break
            reply = self._answer(line)
            if reply is None:
                continue
            try:
                stdout.write(reply)
                stdout.flush()
            except (ValueError, OSError):
                reason = "client-gone"
                break
        self.stop(reason or self._stop_reason or "shutdown")
        return 0

    def serve_socket(self, path=None) -> int:
        """JSON-lines over a unix-domain socket, one thread per client.

        Raises :class:`ServiceError` when another daemon already
        accepts connections on the path; a stale socket left by a
        daemon that died is replaced.
        """
        sock_path = Path(path if path is not None
                         else knobs.value("serve_socket"))
        sock_path.parent.mkdir(parents=True, exist_ok=True)
        if sock_path.is_socket():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(str(sock_path))
            except OSError:
                pass    # stale: the daemon that bound it is gone
            else:
                raise ServiceError(
                    f"a service daemon is already listening on "
                    f"{sock_path}")
            finally:
                probe.close()
            try:
                sock_path.unlink()
            except OSError:
                pass    # bind below reports what is wrong with the path
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            server.bind(str(sock_path))
        except OSError as exc:
            server.close()
            raise ServiceError(
                f"cannot bind service socket {sock_path}: {exc}") from None
        server.listen(16)
        server.settimeout(0.2)
        self.start()
        self._install_signals()
        events.emit("serve.start", mode="socket")
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:     # pragma: no cover
                    break
                threading.Thread(target=self._serve_connection,
                                 args=(conn,), daemon=True).start()
        finally:
            server.close()
            try:
                sock_path.unlink()
            except OSError:
                pass
            self.stop(self._stop_reason or "shutdown")
        return 0

    def _serve_connection(self, conn: socket.socket) -> None:
        # separate reader and writer: a write through a text-mode "rw"
        # file drops the requests its reader had already buffered
        try:
            with conn, conn.makefile("r", encoding="utf-8") as reader, \
                    conn.makefile("w", encoding="utf-8") as writer:
                for line in reader:
                    reply = self._answer(line)
                    if reply is not None:
                        writer.write(reply)
                        writer.flush()
        except (OSError, ValueError):   # client went away mid-reply
            pass
