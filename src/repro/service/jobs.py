"""Job bookkeeping for the resident campaign service.

A **job** is one scenario run requested over the service protocol:
a :class:`~repro.scenarios.spec.Scenario` plus the seed it runs under,
and the lifecycle state machine

    QUEUED -> RUNNING -> DONE | FAILED
    QUEUED | RUNNING -> CANCELLED (client request)
    QUEUED | RUNNING -> INTERRUPTED (daemon drain on SIGINT/SIGTERM)

The :class:`JobTable` is the daemon's single source of truth: a FIFO
queue of runnable jobs (cancelled entries are skipped when they reach
the front) that the daemon's one runner thread drains in submission
order, and a sweep that forgets finished jobs :data:`JOB_TTL_S`
seconds after they finish.

A duplicate submission is simply a second job.  It runs again, and
every campaign unit the first one finished replays from the shared
on-disk :class:`~repro.campaign.cache.ResultCache` with zero
recompute — the event log proves it with ``cache.hit`` records.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..scenarios.spec import Scenario

#: Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

#: States a job can still leave.
ACTIVE_STATES = (QUEUED, RUNNING)
#: Terminal states (the TTL sweep only ever forgets these).
FINISHED_STATES = (DONE, FAILED, CANCELLED, INTERRUPTED)

#: Per-job event-buffer cap: old records fall off the front, the
#: ``events`` command reports the drop so a tailing client knows.
MAX_JOB_EVENTS = 1000

#: Seconds a finished job's record (result payload, buffered events)
#: stays queryable before the sweep forgets it.
JOB_TTL_S = 3600.0


@dataclass
class Job:
    """One submitted scenario run and everything observed about it."""

    id: str
    scenario: Scenario
    seed: int
    state: str = QUEUED
    result: Optional[dict] = None       # ScenarioResult.to_dict()
    saved: Optional[str] = None         # report path, when persisted
    error: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Structured event records routed to this job (bounded ring).
    events: list = field(default_factory=list)
    #: How many records fell off the front of ``events``.
    events_dropped: int = 0
    #: Drain trigger handed to the campaign engine: cancelling a
    #: RUNNING job or shutting the daemon down sets it.
    shutdown: threading.Event = field(default_factory=threading.Event)

    def describe(self) -> dict:
        """The JSON shape of ``status`` responses."""
        doc = {
            "job": self.id,
            "scenario": self.scenario.name,
            "seed": self.seed,
            "state": self.state,
            "submitted_at": round(self.submitted_at, 3),
        }
        if self.started_at is not None:
            doc["started_at"] = round(self.started_at, 3)
        if self.finished_at is not None:
            doc["finished_at"] = round(self.finished_at, 3)
        if self.error is not None:
            doc["error"] = self.error
        if self.saved is not None:
            doc["saved"] = self.saved
        return doc

    def add_event(self, record: dict) -> None:
        self.events.append(record)
        overflow = len(self.events) - MAX_JOB_EVENTS
        if overflow > 0:
            del self.events[:overflow]
            self.events_dropped += overflow


class JobTable:
    """Thread-safe job store + FIFO queue."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queue: deque[str] = deque()
        self._ids = itertools.count(1)

    # -- submission ---------------------------------------------------------

    def submit(self, scenario: Scenario, seed: int) -> Job:
        """Enqueue one scenario run behind every job already queued."""
        with self._cond:
            self._prune_locked()
            job = Job(id=f"j{next(self._ids)}", scenario=scenario,
                      seed=seed, submitted_at=time.time())
            self._jobs[job.id] = job
            self._queue.append(job.id)
            self._cond.notify_all()
            return job

    # -- the runner side ----------------------------------------------------

    def next_job(self, timeout: float) -> Optional[Job]:
        """Claim the oldest queued job, or ``None`` on timeout.

        Cancelled entries are skipped; the claimed job comes back
        already in RUNNING state.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                while self._queue:
                    job = self._jobs.get(self._queue.popleft())
                    if job is not None and job.state == QUEUED:
                        job.state = RUNNING
                        job.started_at = time.time()
                        return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def finish(self, job: Job, state: str, *,
               result: Optional[dict] = None, saved: Optional[str] = None,
               error: Optional[str] = None) -> None:
        """Move a job into a terminal state and wake every waiter."""
        with self._cond:
            job.state = state
            job.result = result
            job.saved = saved
            job.error = error
            job.finished_at = time.time()
            self._cond.notify_all()

    # -- client-facing queries ----------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every remembered job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel one job.

        QUEUED jobs flip to CANCELLED immediately (their queue entry is
        skipped when it reaches the front).  RUNNING jobs get their
        drain event set — the campaign engine finishes in-flight units
        and the runner marks the job CANCELLED.  Finished jobs are
        returned unchanged.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished_at = time.time()
                self._cond.notify_all()
            elif job.state == RUNNING:
                job.shutdown.set()
            return job

    def wait(self, job: Job, timeout: Optional[float] = None,
             poll: float = 0.2, stop: Optional[threading.Event] = None,
             ) -> bool:
        """Block until ``job`` reaches a terminal state.

        Returns ``False`` on timeout or when ``stop`` is set first
        (the daemon's shutdown must be able to unblock waiters).
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._cond:
            while job.state not in FINISHED_STATES:
                if stop is not None and stop.is_set():
                    return False
                remaining = poll
                if deadline is not None:
                    remaining = min(poll, deadline - time.monotonic())
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    # -- shutdown support ---------------------------------------------------

    def unfinished(self) -> list[Job]:
        """Every job that has not reached a terminal state."""
        with self._lock:
            return [j for j in self._jobs.values()
                    if j.state in ACTIVE_STATES]

    def interrupt(self, job: Job) -> None:
        """Mark one job INTERRUPTED (daemon drain path)."""
        with self._cond:
            if job.state in ACTIVE_STATES:
                job.state = INTERRUPTED
                job.finished_at = time.time()
                self._cond.notify_all()

    # -- TTL ----------------------------------------------------------------

    def prune(self) -> int:
        """Forget finished jobs older than the TTL; returns the count."""
        with self._lock:
            return self._prune_locked()

    def _prune_locked(self) -> int:
        cutoff = time.time() - JOB_TTL_S
        stale = [job_id for job_id, job in self._jobs.items()
                 if job.state in FINISHED_STATES
                 and (job.finished_at or 0.0) < cutoff]
        for job_id in stale:
            del self._jobs[job_id]
        return len(stale)
