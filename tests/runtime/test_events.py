"""The structured event bus: schema, sinks, and the two properties
that make telemetry trustworthy — every emitted line validates
against :data:`EVENT_SCHEMA`, and turning the sink on/off never
perturbs campaign results (identity neutrality).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import ResultCache, run_campaign
from repro.campaign.engine import canonical_json
from repro.runtime import events
from repro.runtime.events import EVENT_SCHEMA, EventBus, get_bus

from tests.campaign import _units
from tests.campaign.chaos import arm_storm, storm_specs

SPECS = [{"n": 4, "i": i} for i in range(8)]
SEED = 7


def storm_grid(tmp_path):
    """The storm dir under ``tmp_path`` and its eight-unit grid."""
    root = tmp_path / "storm"
    root.mkdir(exist_ok=True)
    return root, storm_specs(root, [{"n": 4}] * 8)


def read_events(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def assert_schema_valid(record: dict) -> None:
    assert record["event"] in EVENT_SCHEMA, record
    assert isinstance(record["ts"], float)
    assert isinstance(record["pid"], int)
    for field in EVENT_SCHEMA[record["event"]]:
        assert field in record, (
            f"{record['event']} missing {field}: {record}")


class TestBus:
    def test_null_bus_accepts_anything(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_JSON", raising=False)
        bus = get_bus()
        assert not bus.enabled
        bus.emit("not.an.event", junk=1)   # free when off, by design
        events.emit("also.not.an.event")

    def test_active_bus_rejects_unknown_events(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_LOG_JSON", str(tmp_path / "e.jsonl"))
        with pytest.raises(ValueError, match="unknown event"):
            events.emit("not.an.event")

    def test_active_bus_rejects_missing_fields(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_LOG_JSON", str(tmp_path / "e.jsonl"))
        with pytest.raises(ValueError, match="digest"):
            events.emit("cache.hit")

    def test_file_sink_appends_schema_valid_lines(self, tmp_path,
                                                  monkeypatch):
        sink = tmp_path / "e.jsonl"
        monkeypatch.setenv("REPRO_LOG_JSON", str(sink))
        events.emit("cache.hit", digest="abc123")
        events.emit("cache.corrupt", digest="abc123", reason="badsum")
        records = read_events(sink)
        assert [r["event"] for r in records] == ["cache.hit",
                                                 "cache.corrupt"]
        for record in records:
            assert_schema_valid(record)
            assert record["pid"] == os.getpid()

    def test_bus_is_recached_when_the_sink_knob_flips(self, tmp_path,
                                                      monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("REPRO_LOG_JSON", str(a))
        events.emit("cache.hit", digest="one")
        monkeypatch.setenv("REPRO_LOG_JSON", str(b))
        events.emit("cache.hit", digest="two")
        monkeypatch.delenv("REPRO_LOG_JSON")
        assert not get_bus().enabled
        assert [r["digest"] for r in read_events(a)] == ["one"]
        assert [r["digest"] for r in read_events(b)] == ["two"]

    def test_closed_sink_disables_quietly(self, tmp_path):
        handle = open(tmp_path / "closed.jsonl", "a")
        bus = EventBus(handle)
        handle.close()
        bus.emit("cache.hit", digest="x")   # must not raise
        assert not bus.enabled

    def test_oserror_sink_disables_quietly(self):
        """A sink whose ``write`` raises ``OSError`` (full disk, closed
        pipe) must disable the bus, not crash the emitting unit.
        Regression: only ``ValueError`` used to be swallowed."""

        class BrokenPipeSink:
            def write(self, line):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):   # pragma: no cover — write raises first
                raise BrokenPipeError(32, "Broken pipe")

        bus = EventBus(BrokenPipeSink())
        assert bus.enabled
        bus.emit("cache.hit", digest="x")   # must not raise
        assert not bus.enabled
        bus.emit("cache.hit", digest="y")   # disabled stays quiet


class TestSubscribers:
    """The in-process fan-out the serve daemon streams job events from."""

    @pytest.fixture(autouse=True)
    def _no_sink(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_JSON", raising=False)

    def test_subscriber_receives_records_with_the_sink_off(self):
        seen = []
        token = events.subscribe(seen.append)
        try:
            events.emit("cache.hit", digest="abc")
        finally:
            events.unsubscribe(token)
        [record] = seen
        assert_schema_valid(record)
        assert record["digest"] == "abc"

    def test_schema_validation_applies_to_subscribers(self):
        token = events.subscribe(lambda record: None)
        try:
            with pytest.raises(ValueError, match="unknown event"):
                events.emit("not.an.event")
            with pytest.raises(ValueError, match="digest"):
                events.emit("cache.hit")
        finally:
            events.unsubscribe(token)

    def test_unsubscribe_stops_delivery(self):
        seen = []
        token = events.subscribe(seen.append)
        events.emit("cache.hit", digest="one")
        events.unsubscribe(token)
        events.emit("cache.hit", digest="two")
        events.unsubscribe(token)   # unknown token: no-op
        assert [r["digest"] for r in seen] == ["one"]

    def test_broken_subscriber_is_swallowed_and_isolated(self):
        seen = []

        def broken(record):
            raise RuntimeError("consumer bug")

        t1 = events.subscribe(broken)
        t2 = events.subscribe(seen.append)
        try:
            events.emit("cache.hit", digest="abc")   # must not raise
        finally:
            events.unsubscribe(t1)
            events.unsubscribe(t2)
        assert [r["digest"] for r in seen] == ["abc"]


class TestCampaignEventLog:
    """A real campaign under an exception storm writes a joinable,
    schema-valid log."""

    @pytest.fixture()
    def log_and_run(self, tmp_path, monkeypatch):
        sink = tmp_path / "campaign.jsonl"
        monkeypatch.setenv("REPRO_LOG_JSON", str(sink))
        root, specs = storm_grid(tmp_path)
        arm_storm(root, seed=1, exc=0.8, attempts=2)
        cache = ResultCache(tmp_path / "cache")
        run = run_campaign(_units.storm_unit, specs, seed=SEED, workers=2,
                           cache=cache, max_retries=4,
                           retry_backoff=0.0)
        return sink, cache, run

    def test_every_line_validates_against_the_schema(self, log_and_run):
        sink, _, run = log_and_run
        records = read_events(sink)
        assert run.failures == []
        assert records, "campaign produced no events"
        for record in records:
            assert_schema_valid(record)

    def test_lifecycle_and_retry_events_present(self, log_and_run):
        sink, _, run = log_and_run
        names = [r["event"] for r in read_events(sink)]
        # cache probes precede campaign.start (its `cached` field is
        # the probe tally); dispatch strictly follows it
        assert names.index("campaign.start") < names.index("unit.start")
        assert names[-1] == "campaign.end"
        assert "unit.start" in names and "unit.end" in names
        assert "worker.spawn" in names
        assert run.stats.retried > 0
        assert "unit.retry" in names

    def test_unit_digests_join_against_the_cache(self, log_and_run):
        """The reason events carry digests: ``jq`` over the log finds
        the exact cache entry each unit produced."""
        sink, cache, _ = log_and_run
        records = read_events(sink)
        missed = {r["digest"] for r in records
                  if r["event"] == "cache.miss"}
        finished = {r["digest"] for r in records
                    if r["event"] == "unit.end"}
        assert finished == missed
        sentinel = object()
        for digest in finished:
            assert cache.get(digest, sentinel) is not sentinel

    def test_warm_replay_emits_hits_for_the_same_digests(
            self, log_and_run, tmp_path, monkeypatch):
        sink, cache, run = log_and_run
        cold = {r["digest"] for r in read_events(sink)
                if r["event"] == "cache.miss"}
        replay_sink = tmp_path / "replay.jsonl"
        monkeypatch.setenv("REPRO_LOG_JSON", str(replay_sink))
        _, specs = storm_grid(tmp_path)
        replay = run_campaign(_units.storm_unit, specs, seed=SEED,
                              workers=2, cache=cache, max_retries=4,
                              retry_backoff=0.0)
        assert replay.results == run.results
        assert replay.stats.cached == len(specs)
        records = read_events(replay_sink)
        hits = {r["digest"] for r in records if r["event"] == "cache.hit"}
        assert hits == cold
        assert not any(r["event"].startswith("unit.") for r in records)


class TestIdentityNeutrality:
    """Logging must be provably free: bit-identical results with the
    bus on and off, the same exception storm armed both times."""

    def test_chaos_campaign_bit_identical_with_bus_on_and_off(
            self, tmp_path, monkeypatch):
        root, specs = storm_grid(tmp_path)
        arm_storm(root, seed=3, exc=0.6, attempts=2)
        monkeypatch.delenv("REPRO_LOG_JSON", raising=False)
        silent = run_campaign(_units.storm_unit, specs, seed=SEED,
                              workers=2, cache=None, max_retries=4,
                              retry_backoff=0.0)
        assert silent.stats.retried > 0
        arm_storm(root, seed=3, exc=0.6, attempts=2)
        sink = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG_JSON", str(sink))
        logged = run_campaign(_units.storm_unit, specs, seed=SEED,
                              workers=2, cache=None, max_retries=4,
                              retry_backoff=0.0)
        assert logged.stats.retried == silent.stats.retried
        assert canonical_json(logged.results) \
            == canonical_json(silent.results)
        assert read_events(sink), "the logged run produced no events"

    def test_serial_path_is_neutral_too(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_JSON", raising=False)
        silent = run_campaign(_units.rng_unit, SPECS, seed=SEED,
                              workers=1, cache=None)
        monkeypatch.setenv("REPRO_LOG_JSON",
                           str(tmp_path / "serial.jsonl"))
        logged = run_campaign(_units.rng_unit, SPECS, seed=SEED,
                              workers=1, cache=None)
        assert canonical_json(logged.results) \
            == canonical_json(silent.results)
