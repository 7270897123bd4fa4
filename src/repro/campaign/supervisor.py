"""Fault-tolerant supervised executor for campaign work units.

Every campaign's pending units run through one *supervisor* that owns
a set of single-purpose workers and survives everything a worker can
do to it:

* **per-unit wall-clock timeouts** — a hung unit is killed (its worker
  with it) and the unit is retried or quarantined;
* **dead-worker detection** — a worker that exits mid-unit (crash,
  ``os._exit``, OOM kill) is detected by liveness polling, the unit it
  held is charged one attempt, any queued-but-unstarted units of its
  batch are requeued untouched, and a fresh worker is respawned;
* **bounded deterministic retries** — a failed unit is redispatched
  with the *same* spawn seed after an exponential (but deterministic,
  never random) backoff, so a successful retry is bit-identical to a
  never-failed run;
* **quarantine** — a unit that fails ``max_retries + 1`` attempts
  becomes a structured :class:`UnitFailure` (exception type, message,
  traceback, per-attempt log) and the campaign keeps going;
* **graceful shutdown** — when the engine's signal handler sets the
  shutdown event, dispatch stops, in-flight units get a grace period
  to drain, and everything else is reported as outstanding (a re-run
  resumes it from the cache).

The workers are processes (``_Worker``, leased from a
:class:`WorkerPool`) or, when no multiprocessing context is given, one
in-process ``_InlineWorker``: a pool of one with the same retry,
quarantine and shutdown handling, but nothing to preempt or kill, so
no timeouts.

Results are reported per unit (never per batch), so a worker death
can only ever lose the unit it was actually running — and because
unit payloads are pure functions of ``(spec, rng_seed)``, a lost
result message is indistinguishable from a failure and is safely
recomputed.
"""

from __future__ import annotations

import heapq
import importlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback as traceback_mod
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..runtime import events

#: Supervisor loop tick while waiting for worker progress.
_POLL_S = 0.01
#: terminate() -> kill() escalation window for an unresponsive worker.
_KILL_GRACE_S = 1.0


# ---------------------------------------------------------------------------
# unit execution (shared by process and in-process workers)
# ---------------------------------------------------------------------------

_RESOLVED: dict[str, Callable] = {}


def resolve_unit_fn(fn_ref: str) -> Callable:
    """Import a unit function from its ``module:qualname`` reference."""
    fn = _RESOLVED.get(fn_ref)
    if fn is None:
        module, _, qualname = fn_ref.partition(":")
        fn = getattr(importlib.import_module(module), qualname)
        _RESOLVED[fn_ref] = fn
    return fn


def normalize_payload(payload: Any) -> Any:
    """JSON round-trip so fresh and cached results are indistinguishable."""
    return json.loads(json.dumps(payload))


def run_attempt(fn_ref: str, spec: Any, rng_seed: int) -> Any:
    """Execute one attempt of one unit."""
    return normalize_payload(resolve_unit_fn(fn_ref)(spec, rng_seed))


# ---------------------------------------------------------------------------
# failure records and reports
# ---------------------------------------------------------------------------


@dataclass
class UnitFailure:
    """One quarantined work unit, with its full attempt history."""

    index: int
    spec: Any
    rng_seed: int
    digest: Optional[str]
    attempts: int
    error_type: str
    message: str
    traceback: Optional[str] = None
    attempt_log: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "spec": self.spec,
            "rng_seed": self.rng_seed,
            "digest": self.digest,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempt_log": list(self.attempt_log),
        }


@dataclass
class SupervisorReport:
    """What happened to the pending units of one campaign."""

    failures: list = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    interrupted: bool = False
    #: Indexes neither completed nor quarantined (graceful shutdown).
    outstanding: list = field(default_factory=list)
    #: Units per dispatched batch (derived, see :func:`run_supervised`).
    chunk_size: int = 1


class _Unit:
    """Supervisor-side bookkeeping for one pending work unit."""

    __slots__ = ("index", "fn_ref", "spec", "rng_seed", "digest",
                 "attempt", "log")

    def __init__(self, index: int, fn_ref: str, spec: Any, rng_seed: int,
                 digest: Optional[str]):
        self.index = index
        self.fn_ref = fn_ref
        self.spec = spec
        self.rng_seed = rng_seed
        self.digest = digest
        self.attempt = 0
        self.log: list = []

    def as_task(self) -> tuple:
        return (self.index, self.attempt, self.fn_ref, self.spec,
                self.rng_seed)

    def failure(self, error_type: str, message: str,
                tb: Optional[str]) -> UnitFailure:
        return UnitFailure(
            index=self.index, spec=self.spec, rng_seed=self.rng_seed,
            digest=self.digest, attempts=self.attempt + 1,
            error_type=error_type, message=message, traceback=tb,
            attempt_log=list(self.log))


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


#: Seconds an idle worker waits between checks that its parent lives.
PARENT_POLL_S = 0.5


def _worker_main(task_q, result_q) -> None:
    """Worker loop: take a batch, report one result message per unit.

    SIGINT is ignored so a terminal ctrl-C reaches only the supervisor,
    which then drains or cancels us deliberately.  SIGTERM gets its
    default action back: a forked worker inherits ``run_campaign``'s
    shutdown handler, under which ``terminate()`` would only set a
    copy of the supervisor's shutdown flag.  The worker also
    exits when the process that started it dies (its sentinel becomes
    readable, or the worker is reparented), checked between units and
    every ``PARENT_POLL_S`` while idle: a SIGKILLed supervisor or
    daemon leaves no orphans waiting forever for the next batch.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # imported here, not at module level: the in-process worker never
    # needs it
    from multiprocessing.connection import wait as wait_ready

    parent = multiprocessing.parent_process()
    sentinels = [] if parent is None else [parent.sentinel]
    ppid = os.getppid()

    def orphaned() -> bool:
        # A forked sibling may hold our sentinel pipe open, so the
        # reparenting check backs the sentinel up.
        return os.getppid() != ppid or bool(wait_ready(sentinels, 0))

    while True:
        wait_ready([task_q._reader, *sentinels], PARENT_POLL_S)
        if orphaned():
            return
        if not wait_ready([task_q._reader], 0):
            continue
        batch = task_q.get()
        if batch is None:
            return
        for index, attempt, fn_ref, spec, rng_seed in batch:
            if orphaned():
                return
            try:
                payload = run_attempt(fn_ref, spec, rng_seed)
            except BaseException as exc:
                result_q.put(("err", index, attempt,
                              type(exc).__name__, str(exc),
                              traceback_mod.format_exc()))
            else:
                result_q.put(("ok", index, attempt, payload))


class _Worker:
    """One supervised worker process plus its private queues.

    Queues are per-worker so a worker that dies mid-write can corrupt
    only its own result stream — the supervisor then discards the
    stream with the worker instead of losing the whole campaign.
    """

    def __init__(self, ctx):
        self.task_q = ctx.SimpleQueue()
        self.result_q = ctx.SimpleQueue()
        self.process = ctx.Process(
            target=_worker_main, args=(self.task_q, self.result_q),
            daemon=True)
        self.process.start()
        events.emit("worker.spawn", worker=self.process.pid,
                    worker_pid=self.process.pid)
        #: Dispatched-but-unreported units, in dispatch order.
        self.batch: deque[_Unit] = deque()
        self.last_progress = time.monotonic()

    def dispatch(self, units: Sequence[_Unit]) -> None:
        self.batch.extend(units)
        self.last_progress = time.monotonic()
        for unit in units:
            events.emit("unit.start", digest=unit.digest,
                        index=unit.index, attempt=unit.attempt,
                        worker=self.process.pid)
        self.task_q.put([unit.as_task() for unit in units])

    def next_message(self) -> Optional[tuple]:
        """The next queued result message, or ``None`` when none is."""
        return None if self.result_q.empty() else self.result_q.get()

    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def shutdown(self, kill: bool = False) -> None:
        """Stop the worker and release its queues."""
        try:
            if self.process.is_alive():
                if kill:
                    self.process.terminate()
                    self.process.join(_KILL_GRACE_S)
                    if self.process.is_alive():  # pragma: no cover
                        self.process.kill()
                else:
                    self.task_q.put(None)
                self.process.join(_KILL_GRACE_S)
                if self.process.is_alive():  # pragma: no cover
                    self.process.kill()
                    self.process.join(_KILL_GRACE_S)
        finally:
            self.task_q.close()
            self.result_q.close()
            try:
                self.process.close()
            except ValueError:  # pragma: no cover - still running
                pass


class _InlineWorker:
    """The in-process worker: the supervisor's pool of one.

    It has the surface the supervisor uses on a live :class:`_Worker`
    (it never dies, so it is never failed or shut down).  Reading
    the next result message runs the unit at the head of the batch in
    this process, so the supervisor times each unit on its own and the
    ``unit.start``/``unit.end`` events alternate unit by unit.  Only
    ``Exception`` is turned into an ``"err"`` message:
    ``KeyboardInterrupt`` and ``SystemExit`` propagate to the caller.
    ``run_attempt`` is looked up in this module at call time, so a
    wrapper patched onto ``repro.campaign.supervisor.run_attempt``
    sees every in-process attempt.  Once ``stop`` is set it starts no
    further unit: it drops its batch, whose units the supervisor then
    reports as outstanding, so at most the unit running when shutdown
    was requested completes after it.
    """

    def __init__(self, stop: Optional[threading.Event]):
        self.batch: deque[_Unit] = deque()
        self.last_progress = time.monotonic()
        self.pid = os.getpid()
        self.stop = stop

    def dispatch(self, units: Sequence[_Unit]) -> None:
        self.batch.extend(units)
        self.last_progress = time.monotonic()

    def next_message(self) -> Optional[tuple]:
        if self.stop is not None and self.stop.is_set():
            self.batch.clear()
        if not self.batch:
            return None
        unit = self.batch[0]
        events.emit("unit.start", digest=unit.digest, index=unit.index,
                    attempt=unit.attempt, worker=self.pid)
        try:
            payload = run_attempt(unit.fn_ref, unit.spec, unit.rng_seed)
        except Exception as exc:
            return ("err", unit.index, unit.attempt, type(exc).__name__,
                    str(exc), traceback_mod.format_exc())
        return ("ok", unit.index, unit.attempt, payload)

    def alive(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# the reusable worker pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """A persistent set of supervised worker processes.

    A ``WorkerPool`` outlives individual campaigns, as the daemon's
    one runner thread needs from job to job: :func:`run_supervised`
    (and ``run_campaign(pool=...)`` above it) *leases* workers from
    the pool and releases them back when the campaign completes, so
    the next campaign reuses warm processes (imports done, unit
    functions resolved).  Workers are spawned lazily on first lease,
    never up-front, so an unused pool costs nothing.

    Only clean workers are reused: a worker holding an undelivered
    batch (interrupted campaign) or one whose process died is killed
    on release and never returned to the idle set.  The idle set is
    locked because ``ReproService.stop`` closes the pool from another
    thread while the runner may be leasing or releasing.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self._idle: list[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False

    def lease(self, n: int) -> "list[_Worker]":
        """``n`` live workers: warm ones first, fresh spawns after."""
        leased: list[_Worker] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            while self._idle and len(leased) < n:
                worker = self._idle.pop()
                if worker.alive() and not worker.batch:
                    leased.append(worker)
                else:  # died while idle: reap, lease a fresh one below
                    worker.shutdown(kill=True)
        while len(leased) < n:
            leased.append(self.spawn())
        return leased

    def spawn(self) -> _Worker:
        """One fresh worker (also the mid-campaign respawn path)."""
        return _Worker(self.ctx)

    def release(self, workers: Sequence[_Worker], *,
                kill: bool = False) -> None:
        """Return leased workers; dirty or dead ones are discarded."""
        for worker in workers:
            reusable = (not kill and not worker.batch
                        and worker.alive())
            if reusable:
                with self._lock:
                    if not self._closed:
                        self._idle.append(worker)
                        continue
            worker.shutdown(kill=kill)

    def close(self) -> None:
        """Shut down every idle worker; subsequent leases fail."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.shutdown()


# ---------------------------------------------------------------------------
# the supervisor loops
# ---------------------------------------------------------------------------


class _Supervisor:
    def __init__(self, units: Sequence[_Unit], *, workers: int, ctx,
                 record: Callable[[int, Any], None], max_retries: int,
                 retry_backoff: float, unit_timeout: Optional[float],
                 shutdown_grace: float,
                 shutdown_event: Optional[threading.Event],
                 pool: Optional[WorkerPool] = None):
        if ctx is None and units and unit_timeout is not None:
            raise ValueError(
                "unit_timeout needs worker processes; "
                "ctx=None runs units in this process")
        self.units = list(units)
        self.record = record
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.unit_timeout = unit_timeout
        # Timeouts and retries need per-unit dispatch: a chunk would
        # make one hung unit poison its whole chunk's granularity.
        # In-process there is no IPC to amortise.
        if ctx is None or unit_timeout is not None or max_retries > 0:
            self.chunk_size = 1
        else:
            self.chunk_size = max(1, len(self.units) // (workers * 4))
        self.shutdown_grace = shutdown_grace
        self.shutdown_event = shutdown_event
        self.queue: deque[_Unit] = deque(self.units)
        self.retry_heap: list[tuple[float, int, _Unit]] = []
        self._retry_seq = 0
        self.completed: set[int] = set()
        self.quarantined: set[int] = set()
        self.report = SupervisorReport(chunk_size=self.chunk_size)
        self._own_pool = pool is None
        if ctx is None:   # a pool of one, in this process
            self.pool = None
            self.workers = [_InlineWorker(shutdown_event)]
        else:
            self.pool = pool if pool is not None else WorkerPool(ctx)
            self.workers = self.pool.lease(workers)

    # -- result handling ----------------------------------------------------

    def _drain(self, worker: _Worker) -> bool:
        """Consume every queued result message of one worker."""
        progressed = False
        while True:
            try:
                message = worker.next_message()
            except Exception as exc:
                # A worker killed mid-write can leave a torn pickle in
                # its private pipe; poison the stream, not the campaign.
                self._fail_worker(worker, "CorruptResultStream",
                                  f"unreadable worker result: {exc!r}")
                return True
            if message is None:
                return progressed
            progressed = True
            kind = message[0]
            if not worker.batch:
                continue   # stale message for an already-handled unit
            unit = worker.batch.popleft()
            elapsed = time.monotonic() - worker.last_progress
            worker.last_progress = time.monotonic()
            if kind == "ok":
                _, index, _attempt, payload = message
                if index != unit.index:   # pragma: no cover - paranoia
                    continue
                self.record(index, payload)
                self.completed.add(index)
                events.emit("unit.end", digest=unit.digest, index=index,
                            worker=worker.pid,
                            seconds=round(elapsed, 6))
            else:
                _, _index, _attempt, etype, emsg, tb = message
                self._register_failure(unit, etype, emsg, tb)

    def _register_failure(self, unit: _Unit, error_type: str,
                          message: str, tb: Optional[str]) -> None:
        unit.log.append({"attempt": unit.attempt,
                         "error_type": error_type, "message": message})
        if unit.attempt >= self.max_retries:
            self.report.failures.append(
                unit.failure(error_type, message, tb))
            self.quarantined.add(unit.index)
            events.emit("unit.quarantine", digest=unit.digest,
                        index=unit.index, attempts=unit.attempt + 1,
                        error=error_type)
            return
        delay = self.retry_backoff * (2 ** unit.attempt)
        unit.attempt += 1
        self.report.retries += 1
        self._retry_seq += 1
        events.emit("unit.retry", digest=unit.digest, index=unit.index,
                    attempt=unit.attempt, max_retries=self.max_retries,
                    backoff_s=round(delay, 6), error=error_type)
        heapq.heappush(self.retry_heap,
                       (time.monotonic() + delay, self._retry_seq, unit))

    def _fail_worker(self, worker: _Worker, error_type: str,
                     message: str) -> None:
        """Charge the running unit, requeue the rest, respawn."""
        if worker.batch:
            victim = worker.batch.popleft()
            requeued = list(worker.batch)
            worker.batch.clear()
            self.queue.extendleft(reversed(requeued))
            self._register_failure(victim, error_type, message, None)
        self.report.worker_deaths += 1
        events.emit("worker.death", worker=worker.pid,
                    reason=f"{error_type}: {message}")
        worker.shutdown(kill=True)
        replacement = self.pool.spawn()
        self.workers[self.workers.index(worker)] = replacement
        events.emit("worker.respawn", worker=replacement.pid)

    # -- main loop ----------------------------------------------------------

    def _tick(self) -> bool:
        """One supervision pass; returns True when anything progressed."""
        progressed = False
        now = time.monotonic()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            # retries jump the queue so a flaky unit converges quickly
            self.queue.appendleft(heapq.heappop(self.retry_heap)[2])
        for worker in list(self.workers):
            progressed |= self._drain(worker)
        for worker in list(self.workers):
            if worker not in self.workers:
                continue   # already replaced this tick
            if not worker.alive():
                # late results first: death must not eat queued successes
                self._drain(worker)
                self._fail_worker(
                    worker, "WorkerDied",
                    f"worker exited with code {worker.exitcode} mid-unit")
                progressed = True
            elif (self.unit_timeout is not None and worker.batch
                  and now - worker.last_progress > self.unit_timeout):
                self.report.timeouts += 1
                victim = worker.batch[0]
                events.emit("unit.timeout", digest=victim.digest,
                            index=victim.index,
                            timeout_s=self.unit_timeout)
                victim_msg = (
                    f"unit exceeded REPRO_UNIT_TIMEOUT="
                    f"{self.unit_timeout}s wall-clock "
                    f"(attempt {victim.attempt})")
                self._fail_worker(worker, "UnitTimeout", victim_msg)
                progressed = True
        for worker in self.workers:
            if not worker.batch and self.queue:
                batch = [self.queue.popleft()
                         for _ in range(min(self.chunk_size,
                                            len(self.queue)))]
                worker.dispatch(batch)
                progressed = True
        return progressed

    def _shutdown_requested(self) -> bool:
        return (self.shutdown_event is not None
                and self.shutdown_event.is_set())

    def _drain_grace(self) -> None:
        """Give in-flight units a grace window; then stop dispatching."""
        deadline = time.monotonic() + self.shutdown_grace
        while (any(worker.batch for worker in self.workers)
               and time.monotonic() < deadline):
            progressed = False
            for worker in list(self.workers):
                progressed |= self._drain(worker)
                if (worker in self.workers
                        and not worker.alive()
                        and worker.batch):
                    # a death during drain: requeue, do not respawn
                    self.queue.extend(worker.batch)
                    worker.batch.clear()
            if not progressed:
                time.sleep(_POLL_S)

    def run(self) -> SupervisorReport:
        total = len(self.units)
        try:
            while len(self.completed) + len(self.quarantined) < total:
                if self._shutdown_requested():
                    self.report.interrupted = True
                    self._drain_grace()
                    break
                if not self._tick():
                    time.sleep(_POLL_S)
        finally:
            if self.pool is not None:
                self.pool.release(self.workers,
                                  kill=self.report.interrupted)
                if self._own_pool:
                    self.pool.close()
        self.report.outstanding = sorted(
            unit.index for unit in self.units
            if unit.index not in self.completed
            and unit.index not in self.quarantined)
        return self.report


def run_supervised(units: Sequence[tuple], *, workers: int, ctx,
                   record: Callable[[int, Any], None],
                   max_retries: int = 0, retry_backoff: float = 0.0,
                   unit_timeout: Optional[float] = None,
                   shutdown_grace: float = 5.0,
                   shutdown_event: Optional[threading.Event] = None,
                   pool: Optional[WorkerPool] = None,
                   ) -> SupervisorReport:
    """Supervise ``units`` (``(index, fn_ref, spec, rng_seed, digest)``
    tuples); ``record(index, payload)`` is invoked for every success,
    as results arrive.

    With a multiprocessing ``ctx`` the units run across ``workers``
    processes; a ``pool`` makes those processes outlive this call
    (leased on entry, released on exit) — the resident-service path —
    and without one they are spawned and torn down per call.
    ``ctx=None`` runs every unit in this process on one inline worker:
    ``workers`` and ``pool`` are then ignored, and ``unit_timeout``
    with units to run raises ``ValueError``, since there is no process
    to preempt.  The dispatch chunk size is derived
    (``report.chunk_size``): 1 in-process or when timeouts or retries
    are armed, else ``len(units) // (workers * 4)``, at least 1."""
    wrapped = [_Unit(*item) for item in units]
    supervisor = _Supervisor(
        wrapped, workers=workers, ctx=ctx, record=record,
        max_retries=max_retries, retry_backoff=retry_backoff,
        unit_timeout=unit_timeout, shutdown_grace=shutdown_grace,
        shutdown_event=shutdown_event, pool=pool)
    return supervisor.run()
