"""Content-addressed on-disk result cache for campaign units.

Each completed work unit is stored as one JSON file named by the
SHA-256 digest of its full identity — the unit function's qualified
name, that function's ``campaign_version`` tag (bumped whenever the
unit's semantics change), a fingerprint of the ``repro`` source tree
(:func:`repro.campaign.engine.code_token` — any source edit
invalidates automatically), the campaign seed and the unit spec.  A
digest therefore changes whenever the result could, and concurrent
campaigns (or concurrent workers of one campaign) can share a cache
root safely: writes are atomic renames, duplicate writes are idempotent
by construction.

Every entry is wrapped in a **checksum envelope**
(``{"v": 1, "sha256": <hex of canonical payload>, "payload": ...}``),
so a torn, truncated or bit-flipped file is detected on read — not
served as a silently-wrong result.  Corrupt entries are never deleted:
they move to ``<root>/quarantine/`` for post-mortem, and the digest
becomes a miss so the engine recomputes it.  Transient read errors
(``EMFILE``, ``EACCES``, ...) leave the entry untouched entirely —
the file may be perfectly valid.

Maintenance entry points (also ``python -m repro cache fsck|gc``):
:meth:`ResultCache.fsck` verifies every envelope and quarantines
failures; :meth:`ResultCache.gc` sweeps leaked ``*.tmp.<pid>`` writer
files (a crashed writer can strand one) and aged quarantine entries.

The cache root also hosts **manifests** under ``<root>/manifests/`` —
the service daemon persists its pending jobs there on shutdown (see
``repro.service.daemon``).  Manifests and quarantine live outside the
two-hex-character entry directories, so they never collide with
entries and are excluded from ``len(cache)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from ..runtime import events

#: Envelope schema version (bump if the wrapper format changes).
ENVELOPE_VERSION = 1

#: Default ages for ``gc``: a writer tmp file older than an hour is
#: leaked (writes take milliseconds); quarantined corpses keep a week
#: for post-mortem.
GC_TMP_MAX_AGE_S = 3600.0
GC_QUARANTINE_MAX_AGE_S = 7 * 86400.0

_BAD = object()   # sentinel: envelope invalid


def canonical_json(payload: Any) -> str:
    """Key-sorted, whitespace-free JSON — the hashing canonical form.

    ``repr``-based float formatting round-trips exactly, so two specs
    are digest-equal iff they are value-equal.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def unit_digest(fn_ref: str, version: str, seed: int, spec: Any) -> str:
    """The cache key of one work unit."""
    ident = canonical_json([fn_ref, version, seed, spec])
    return hashlib.sha256(ident.encode("utf-8")).hexdigest()


def payload_checksum(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of a payload."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def _open_envelope(data: Any) -> Any:
    """The payload inside a checksum envelope, or ``_BAD``."""
    if (not isinstance(data, dict)
            or data.get("v") != ENVELOPE_VERSION
            or "sha256" not in data or "payload" not in data):
        return _BAD
    payload = data["payload"]
    if payload_checksum(payload) != data["sha256"]:
        return _BAD
    return payload


class ResultCache:
    """A directory of ``<digest[:2]>/<digest>.json`` result files."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def manifest_dir(self) -> Path:
        return self.root / "manifests"

    # -- read/write ---------------------------------------------------------

    def get(self, digest: str, default: Any = None) -> Optional[Any]:
        """The cached payload, or ``default`` on a miss.

        Undecodable or checksum-failing files (a run killed mid-write
        on a filesystem without atomic rename, a corrupting disk) are
        moved to quarantine and count as misses, so a re-put can land.
        A *transient* read failure (``EMFILE``/``EACCES``/...) also
        counts as a miss but leaves the file exactly where it is — the
        entry may be perfectly valid.

        A unit may legitimately return ``None``, and ``null`` is a valid
        cache payload — callers that must tell the two apart pass a
        private sentinel as ``default`` (the engine does).
        """
        path = self.path_for(digest)
        try:
            with open(path, "rb") as fh:
                data = json.loads(fh.read().decode("utf-8"))
        except FileNotFoundError:
            events.emit("cache.miss", digest=digest)
            return default
        except (json.JSONDecodeError, UnicodeDecodeError):
            # invalid UTF-8 is just another shape of on-disk corruption
            # (a bit-flipped byte can land anywhere): quarantine, never
            # let UnicodeDecodeError escape and crash the campaign
            events.emit("cache.corrupt", digest=digest,
                        reason="undecodable")
            self.quarantine(path, reason="undecodable")
            return default
        except OSError:
            events.emit("cache.miss", digest=digest, transient=True)
            return default
        payload = _open_envelope(data)
        if payload is _BAD:
            events.emit("cache.corrupt", digest=digest, reason="badsum")
            self.quarantine(path, reason="badsum")
            return default
        events.emit("cache.hit", digest=digest)
        return payload

    def put(self, digest: str, payload: Any) -> None:
        """Persist one unit result (atomic within-directory rename).

        The temp file is unlinked on *any* failure — a crashed writer
        must not strand ``*.tmp.<pid>`` litter for ``gc`` to find.
        """
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        # ``json.dumps`` runs the C encoder; ``json.dump`` to a file
        # runs the pure-Python one, chunk by chunk
        data = json.dumps({"v": ENVELOPE_VERSION,
                           "sha256": payload_checksum(payload),
                           "payload": payload}, separators=(",", ":"))
        try:
            with open(tmp, "w") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- quarantine and maintenance -----------------------------------------

    def quarantine(self, path: Path, reason: str = "corrupt",
                   ) -> Optional[Path]:
        """Move a corrupt entry aside (never destroy evidence)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = (self.quarantine_dir
                / f"{path.name}.{os.getpid()}.{time.time_ns()}.{reason}")
        try:
            os.replace(path, dest)
        except OSError:
            return None   # lost a race with another reader: same outcome
        # the digest is everything before the first dot: ``stem`` would
        # leave the pid suffix on ``<digest>.tmp.<pid>`` litter paths
        # and the event log would no longer join against the cache
        events.emit("cache.quarantine",
                    digest=path.name.partition(".")[0],
                    reason=reason, dest=str(dest))
        return dest

    def entries(self) -> Iterator[Path]:
        """Every result-entry path, sorted (entry dirs are 2 hex chars,
        which keeps ``manifests/`` and ``quarantine/`` out)."""
        yield from sorted(self.root.glob("??/*.json"))

    def fsck(self) -> dict:
        """Verify the checksum envelope of every entry.

        Corrupt entries are quarantined; entries that cannot be read
        right now (transient ``OSError``) are skipped in place.
        Returns ``{"checked", "ok", "skipped", "quarantined": [...]}``.
        """
        checked = ok = skipped = 0
        quarantined: list[str] = []
        for path in self.entries():
            checked += 1
            try:
                with open(path, "rb") as fh:
                    data = json.loads(fh.read().decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.quarantine(path, reason="undecodable")
                quarantined.append(path.name)
                continue
            except OSError:
                skipped += 1
                continue
            if _open_envelope(data) is _BAD:
                self.quarantine(path, reason="badsum")
                quarantined.append(path.name)
                continue
            ok += 1
        return {"checked": checked, "ok": ok, "skipped": skipped,
                "quarantined": quarantined}

    def gc(self, *, tmp_max_age_s: float = GC_TMP_MAX_AGE_S,
           quarantine_max_age_s: float = GC_QUARANTINE_MAX_AGE_S,
           ) -> dict:
        """Sweep leaked writer temp files and aged quarantine entries.

        Age thresholds keep the sweep safe against live campaigns: a
        ``*.tmp.<pid>`` file younger than ``tmp_max_age_s`` may belong
        to an in-flight write and is left alone.
        """
        now = time.time()
        tmp_removed: list[str] = []
        quarantine_removed: list[str] = []
        # writer litter, everywhere the cache writes via tmp + rename
        for pattern in ("??/*.tmp.*", "manifests/*.tmp.*"):
            for path in sorted(self.root.glob(pattern)):
                if self._expired(path, now, tmp_max_age_s):
                    tmp_removed.append(path.name)
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                if self._expired(path, now, quarantine_max_age_s):
                    quarantine_removed.append(path.name)
        return {"tmp_removed": tmp_removed,
                "quarantine_removed": quarantine_removed}

    @staticmethod
    def _expired(path: Path, now: float, max_age_s: float) -> bool:
        try:
            if now - path.stat().st_mtime <= max_age_s:
                return False
            path.unlink()
        except OSError:
            return False
        return True

    # -- manifests ----------------------------------------------------------

    def manifest_path(self, key: str) -> Path:
        return self.manifest_dir / f"{key}.json"

    def put_manifest(self, key: str, doc: dict) -> Path:
        """Atomically persist one manifest document."""
        path = self.manifest_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get_manifest(self, key: str) -> Optional[dict]:
        try:
            with open(self.manifest_path(key)) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def clear_manifest(self, key: str) -> None:
        try:
            os.unlink(self.manifest_path(key))
        except OSError:
            pass

    # -- container protocol -------------------------------------------------

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
