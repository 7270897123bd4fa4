"""Process-safe structured event bus (``REPRO_LOG_JSON``).

The machine-readable telemetry channel the ROADMAP item-5 soak
tooling and the future ``repro serve`` status endpoint consume.
Campaign, cache, supervisor, scenario and service layers publish a
fixed vocabulary (:data:`EVENT_SCHEMA`) of JSON-lines events:
campaign/unit lifecycle, cache hit/miss/corruption/quarantine, worker
spawn/death/respawn, retry/timeout/backoff, and daemon jobs.  Unit
and cache events carry the unit's content digest, so a saved log
joins against the result cache — ``jq 'select(.digest=="...")'`` over
a nightly artifact finds exactly which cache entry a unit produced.

Design constraints, in order:

* **Identity-neutral.**  Emitting events must never perturb results:
  the bus touches no RNG, mutates no caller state, and the
  bit-identity suite runs a campaign under a worker-fault storm with
  the sink on and off and compares results byte-for-byte.
* **Free when off.**  The default sink is null; :func:`emit` returns
  after one cached attribute check, so per-unit cache probes cost
  nothing extra in the common case.
* **Safe across processes.**  Campaign workers are forked/spawned
  mid-campaign; the bus is resolved per ``(pid, sink)`` so every
  process appends with its own file handle.  Writes are single
  ``write()`` calls of one ``\\n``-terminated line (atomic for sane
  line lengths on POSIX), so concurrent writers interleave whole
  events, never fragments.

Besides the file sink, in-process consumers can :func:`subscribe` a
callback and receive every validated event record as a dict, in the
emitting thread — the fan-out the ``repro serve`` daemon uses to
stream per-job progress to clients without forcing a file sink on.
Subscriber exceptions are swallowed (same contract as a failing
sink): telemetry must never take the computation down.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Mapping, Optional, TextIO

from . import knobs

#: Event vocabulary: event name -> field names required beyond the
#: common envelope (``event``, ``ts``, ``pid``).  ``emit`` rejects an
#: unknown event name or a missing required field whenever a sink is
#: active, so the log's consumers can rely on the schema; extra
#: fields are allowed (they are how events grow).
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    # campaign lifecycle
    "campaign.start": ("units", "workers", "cached"),
    "campaign.end": ("computed", "cached", "quarantined", "seconds"),
    # per-unit lifecycle (digest joins against the result cache)
    "unit.start": ("digest", "worker"),
    "unit.end": ("digest", "worker", "seconds"),
    "unit.retry": ("digest", "attempt", "max_retries", "backoff_s",
                   "error"),
    "unit.timeout": ("digest", "timeout_s"),
    "unit.quarantine": ("digest", "attempts", "error"),
    # result cache
    "cache.hit": ("digest",),
    "cache.miss": ("digest",),
    "cache.corrupt": ("digest", "reason"),
    "cache.quarantine": ("digest",),
    # worker pool
    "worker.spawn": ("worker", "worker_pid"),
    "worker.death": ("worker", "reason"),
    "worker.respawn": ("worker",),
    # scenario runner
    "scenario.start": ("scenario", "kind"),
    "scenario.end": ("scenario", "kind", "seconds"),
    # service daemon (`repro serve`) job lifecycle
    "job.submit": ("job", "scenario"),
    "job.start": ("job", "scenario"),
    "job.end": ("job", "scenario", "state", "seconds"),
    "job.cancel": ("job", "state"),
    "serve.start": ("mode",),
    "serve.stop": ("reason", "jobs"),
}


def build_record(event: str, fields: Mapping[str, Any]) -> dict:
    """Validate one event against :data:`EVENT_SCHEMA` and wrap it in
    the common envelope.  Shared by the file sink and the subscriber
    fan-out so both see exactly the same schema discipline."""
    required = EVENT_SCHEMA.get(event)
    if required is None:
        raise ValueError(
            f"unknown event {event!r}; add it to EVENT_SCHEMA")
    missing = [f for f in required if f not in fields]
    if missing:
        raise ValueError(
            f"event {event!r} missing required field(s): "
            f"{', '.join(missing)}")
    return {"event": event, "ts": round(time.time(), 6),
            "pid": os.getpid(), **fields}


class EventBus:
    """One sink-bound publisher.  Use :func:`emit`, not this, to log."""

    def __init__(self, sink: Optional[TextIO], *,
                 close: bool = False) -> None:
        self._sink = sink
        self._close = close
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._sink is not None

    def emit(self, event: str, /, **fields: Any) -> None:
        if self._sink is None:
            return
        self.write_record(build_record(event, fields))

    def write_record(self, record: dict) -> None:
        """Append one already-validated record to the sink."""
        if self._sink is None:
            return
        line = json.dumps(record, sort_keys=True, default=str,
                          separators=(",", ":")) + "\n"
        with self._lock:
            try:
                self._sink.write(line)
                self._sink.flush()
            except (ValueError, OSError):
                # sink closed underneath us (interpreter teardown,
                # test capture swap), or the write itself failed (full
                # disk, closed pipe) — telemetry must never take the
                # computation down with it, so the sink is disabled
                # rather than letting the error reach the unit
                self._sink = None

    def close(self) -> None:
        if self._close and self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
        self._sink = None


_NULL_BUS = EventBus(None)
_lock = threading.Lock()
_cached: "tuple[int, str, EventBus] | None" = None


def _open_bus(spec: str) -> EventBus:
    if not spec:
        return _NULL_BUS
    if spec in ("stderr", "-"):
        return EventBus(sys.stderr)
    # line-buffered append: each process gets its own handle and
    # appends whole lines, so parallel workers interleave cleanly
    handle = io.open(spec, "a", encoding="utf-8", buffering=1)
    return EventBus(handle, close=True)


def get_bus() -> EventBus:
    """The current process's bus for the current ``REPRO_LOG_JSON``.

    Resolved per ``(pid, sink spec)``: a forked worker re-opens its
    own handle on first emit, and a test that flips the knob gets a
    fresh sink rather than a stale cached one.
    """
    global _cached
    spec = str(knobs.value("log_json"))
    pid = os.getpid()
    cached = _cached
    if cached is not None and cached[0] == pid and cached[1] == spec:
        return cached[2]
    with _lock:
        cached = _cached
        if cached is not None and cached[0] == pid and cached[1] == spec:
            return cached[2]
        if cached is not None and cached[0] == pid:
            cached[2].close()
        bus = _open_bus(spec)
        _cached = (pid, spec, bus)
        return bus


# ---------------------------------------------------------------------------
# in-process subscriber fan-out
# ---------------------------------------------------------------------------

_subscribers: dict[int, Callable[[dict], None]] = {}
_subscriber_tokens = itertools.count(1)
_subscriber_lock = threading.Lock()


def subscribe(callback: Callable[[dict], None]) -> int:
    """Register an in-process consumer of every emitted event record.

    The callback runs synchronously in the emitting thread with the
    validated record dict (the same object the file sink serialises);
    it must treat the record as read-only.  Returns a token for
    :func:`unsubscribe`.  Callback exceptions are swallowed — a broken
    consumer must never fail the computation that emitted the event.
    """
    with _subscriber_lock:
        token = next(_subscriber_tokens)
        _subscribers[token] = callback
    return token


def unsubscribe(token: int) -> None:
    """Remove one subscriber (unknown tokens are ignored)."""
    with _subscriber_lock:
        _subscribers.pop(token, None)


def emit(event: str, /, **fields: Any) -> None:
    """Publish one event to the sink and all subscribers.

    Free when nothing listens: one cached-bus attribute check plus an
    empty-dict truthiness test, no record construction.
    """
    bus = get_bus()
    if bus._sink is None and not _subscribers:
        return
    record = build_record(event, fields)
    bus.write_record(record)
    if _subscribers:
        with _subscriber_lock:
            callbacks = list(_subscribers.values())
        for callback in callbacks:
            try:
                callback(record)
            except Exception:
                pass
