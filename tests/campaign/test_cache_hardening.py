"""Cache hardening tests: checksum envelopes, quarantine-not-delete,
transient-error tolerance, fsck/gc maintenance and run manifests."""

import builtins
import json
import os
import time

import pytest

from repro.campaign import ResultCache
from repro.campaign.cache import (
    ENVELOPE_VERSION,
    payload_checksum,
)

DIGEST = "ab" * 32
OTHER = "cd" * 32


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestEnvelope:
    def test_entries_are_enveloped_on_disk(self, cache):
        cache.put(DIGEST, {"x": [1, 2.5]})
        raw = json.loads(cache.path_for(DIGEST).read_text())
        assert raw["v"] == ENVELOPE_VERSION
        assert raw["sha256"] == payload_checksum({"x": [1, 2.5]})
        assert raw["payload"] == {"x": [1, 2.5]}

    def test_entry_bytes_are_the_compact_envelope(self, cache):
        payload = [{"lockstep": True, "hmr": False, "flexstep": 0.5}]
        cache.put(DIGEST, payload)
        assert cache.path_for(DIGEST).read_bytes() == (
            '{"v":1,"sha256":"%s","payload":'
            '[{"lockstep":true,"hmr":false,"flexstep":0.5}]}'
            % payload_checksum(payload)).encode()

    def test_checksum_mismatch_quarantined(self, cache):
        cache.put(DIGEST, {"x": 1})
        path = cache.path_for(DIGEST)
        path.write_text(json.dumps({
            "v": ENVELOPE_VERSION, "sha256": "0" * 64,
            "payload": {"x": 1}}))
        assert cache.get(DIGEST) is None
        assert not path.exists()
        [corpse] = cache.quarantine_dir.iterdir()
        assert corpse.name.endswith(".badsum")

    def test_legacy_bare_payload_quarantined(self, cache):
        """Pre-envelope files (any valid JSON that is not an envelope)
        must be treated as corrupt, not served as a payload."""
        path = cache.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text('{"value": 42}')
        assert cache.get(DIGEST) is None
        [corpse] = cache.quarantine_dir.iterdir()
        assert corpse.name.endswith(".badsum")

    def test_truncated_file_quarantined_not_deleted(self, cache):
        path = cache.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text('{"v": 1, "sha2')
        assert cache.get(DIGEST) is None
        [corpse] = cache.quarantine_dir.iterdir()
        assert corpse.name.endswith(".undecodable")
        assert corpse.read_text() == '{"v": 1, "sha2'   # evidence kept

    def test_non_utf8_entry_quarantined_not_raised(self, cache):
        """Regression: a bit-flipped byte inside a multi-byte sequence
        used to escape as ``UnicodeDecodeError`` and crash the campaign
        instead of being treated as the on-disk corruption it is."""
        path = cache.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        garbage = b'\xff\xfe{"v":1,"payload"'
        path.write_bytes(garbage)
        assert cache.get(DIGEST, "MISS") == "MISS"
        assert not path.exists()
        [corpse] = cache.quarantine_dir.iterdir()
        assert corpse.name.endswith(".undecodable")
        assert corpse.read_bytes() == garbage          # evidence kept

    def test_fsck_handles_non_utf8_entries(self, cache):
        cache.put(DIGEST, {"x": 1})
        bad = cache.path_for(OTHER)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"\xff\xfe\xfd garbage")
        report = cache.fsck()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["quarantined"] == [bad.name]


class TestQuarantineEvents:
    def test_quarantine_event_digest_is_normalised(self, cache,
                                                   tmp_path,
                                                   monkeypatch):
        """Regression: quarantining ``<digest>.tmp.<pid>`` litter used
        to emit ``digest="<digest>.tmp"`` (``Path.stem`` strips one
        suffix only), so the event log no longer joined against the
        cache.  The digest is everything before the first dot."""
        from repro.runtime import events
        records = []
        token = events.subscribe(records.append)
        try:
            entry = cache.path_for(DIGEST)
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_text("{nope")
            cache.quarantine(entry, reason="undecodable")
            litter = entry.parent / f"{OTHER}.tmp.12345"
            litter.write_text("half-written")
            cache.quarantine(litter, reason="stale-tmp")
        finally:
            events.unsubscribe(token)
        digests = [r["digest"] for r in records
                   if r["event"] == "cache.quarantine"]
        assert digests == [DIGEST, OTHER]


class TestTransientErrors:
    def test_transient_oserror_leaves_entry_in_place(self, cache,
                                                     monkeypatch):
        """A read that fails with EACCES/EMFILE/... must be a miss that
        does NOT destroy or move the (possibly valid) entry."""
        cache.put(DIGEST, {"x": 7})
        path = cache.path_for(DIGEST)
        real_open = builtins.open

        def flaky_open(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "transient", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", flaky_open)
        assert cache.get(DIGEST, "MISS") == "MISS"
        monkeypatch.undo()
        # the file is still there, still valid, and now readable
        assert path.exists()
        assert not cache.quarantine_dir.exists()
        assert cache.get(DIGEST) == {"x": 7}


class TestPutHygiene:
    def test_failed_put_leaves_no_tmp_litter(self, cache):
        with pytest.raises(TypeError):
            cache.put(DIGEST, {"bad": {1, 2}})   # sets are not JSON
        shard = cache.path_for(DIGEST).parent
        assert list(shard.glob("*.tmp.*")) == []
        assert not cache.path_for(DIGEST).exists()

    def test_put_over_existing_entry_is_atomic_replace(self, cache):
        cache.put(DIGEST, {"x": 1})
        cache.put(DIGEST, {"x": 2})
        assert cache.get(DIGEST) == {"x": 2}
        assert len(cache) == 1


class TestFsck:
    def test_fsck_counts_and_quarantines(self, cache):
        cache.put(DIGEST, {"x": 1})
        cache.put(OTHER, {"y": 2})
        bad = cache.path_for("ef" * 32)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{nope")
        report = cache.fsck()
        assert report["checked"] == 3
        assert report["ok"] == 2
        assert report["quarantined"] == [bad.name]
        # quarantined entries are out of the shard tree now
        assert len(cache) == 2

    def test_fsck_idempotent(self, cache):
        cache.put(DIGEST, {"x": 1})
        first = cache.fsck()
        second = cache.fsck()
        assert first == second == {
            "checked": 1, "ok": 1, "skipped": 0, "quarantined": []}


class TestGc:
    def test_gc_sweeps_only_aged_tmp_files(self, cache):
        cache.put(DIGEST, {"x": 1})
        shard = cache.path_for(DIGEST).parent
        fresh = shard / f"{DIGEST}.tmp.99999"
        fresh.write_text("half-written")
        stale = shard / f"{OTHER}.tmp.99998"
        stale.write_text("leaked")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        report = cache.gc()
        assert report["tmp_removed"] == [stale.name]
        assert fresh.exists()            # may belong to a live writer
        assert cache.get(DIGEST) == {"x": 1}   # entries untouched

    def test_gc_sweeps_only_aged_quarantine(self, cache):
        path = cache.path_for(DIGEST)
        path.parent.mkdir(parents=True)
        path.write_text("{nope")
        cache.get(DIGEST)
        [corpse] = cache.quarantine_dir.iterdir()
        assert cache.gc()["quarantine_removed"] == []   # too young
        old = time.time() - 8 * 86400
        os.utime(corpse, (old, old))
        assert cache.gc()["quarantine_removed"] == [corpse.name]
        assert list(cache.quarantine_dir.iterdir()) == []


class TestManifests:
    def test_roundtrip_and_clear(self, cache):
        doc = {"total": 3, "completed": [DIGEST], "outstanding": []}
        path = cache.put_manifest("abcd1234", doc)
        assert path == cache.manifest_path("abcd1234")
        assert cache.get_manifest("abcd1234") == doc
        cache.clear_manifest("abcd1234")
        assert cache.get_manifest("abcd1234") is None
        cache.clear_manifest("abcd1234")   # idempotent

    def test_manifests_and_quarantine_excluded_from_len(self, cache):
        cache.put(DIGEST, {"x": 1})
        cache.put_manifest("abcd1234", {"total": 1})
        bad = cache.path_for(OTHER)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{nope")
        cache.get(OTHER)                   # -> quarantine
        assert len(cache) == 1
        assert [p.name for p in cache.entries()] == [f"{DIGEST}.json"]
