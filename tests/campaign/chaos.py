"""Storm harness for the campaign supervisor (test-only helpers).

The paper's thesis is architectures that keep computing correctly
while cores fault; this harness applies the same discipline to our own
campaign engine.  :func:`arm_storm` writes a fault plan that
:func:`_units.storm_unit` reads inside the workers (worker kills
before or after the unit body, injected exceptions, hangs — all
deterministic functions of ``(storm seed, unit, attempt)``), and,
separately, :class:`CacheCorruptor` corrupts the on-disk result cache
*while a campaign is writing it*.  The tests in ``test_chaos.py`` then
assert the differential oracle every other knob in this repo answers
to: every surviving result must be bit-identical to a clean
``workers=1`` run of the same specs, which runs with no plan file.

A storm kill calls ``os._exit`` in whatever process runs the unit, so
a kill or hang storm needs worker processes: ``workers >= 2`` or a
``unit_timeout``.
"""

from __future__ import annotations

import json
import random
import threading
from pathlib import Path
from typing import Optional

from . import _units


def storm_specs(root: Path, inner_specs: list[dict],
                inner: Optional[str] = None) -> list[dict]:
    """Wrap ``inner_specs`` as :func:`_units.storm_unit` specs over the
    storm dir ``root``; ``inner`` is the wrapped unit's
    ``module:qualname`` (default :func:`_units.rng_unit`)."""
    wrap = {"dir": str(root)} if inner is None \
        else {"dir": str(root), "inner": inner}
    return [{**spec, **wrap, "i": i} for i, spec in enumerate(inner_specs)]


def arm_storm(root: Path, *, seed: int, kill: float = 0.0,
              exc: float = 0.0, hang: float = 0.0, hang_s: float = 60.0,
              attempts: int = 2) -> dict:
    """Write a fault plan into ``root`` and reset the attempt counters,
    so the next campaign over it storms from attempt 0."""
    for marker in root.glob("storm-*"):
        marker.unlink()
    plan = {"seed": seed, "kill": kill, "exc": exc, "hang": hang,
            "hang_s": hang_s, "attempts": attempts}
    (root / _units.STORM_PLAN).write_text(json.dumps(plan))
    return plan


def disarm_storm(root: Path) -> None:
    """Remove the plan: units over ``root`` run clean again."""
    (root / _units.STORM_PLAN).unlink()


def planned_faults(plan: dict, units: int = 8) -> list[str]:
    """The faults a campaign over ``units`` units meets under ``plan``
    when its retry budget outlasts them: attempt ``k + 1`` of a unit
    runs only when attempt ``k`` faulted."""
    faults = []
    for i in range(units):
        attempt = 0
        while (fault := _units.storm_draw(plan, i, attempt)) is not None:
            faults.append(fault)
            attempt += 1
    return faults


class CacheCorruptor(threading.Thread):
    """Background thread that batters a live cache directory.

    Every ``interval_s`` it picks one cache entry (seeded RNG — the
    damage pattern replays) and applies one of the three corruption
    shapes the cache must catch: truncation mid-JSON, a well-formed
    envelope whose checksum is wrong, or raw non-UTF-8 garbage (a
    bit-flipped byte lands anywhere, including inside a multi-byte
    sequence — the read path must quarantine, not raise
    ``UnicodeDecodeError``).  Paths it touched are recorded in
    ``corrupted``.
    """

    def __init__(self, root: Path | str, *, seed: int = 0,
                 interval_s: float = 0.02):
        super().__init__(daemon=True)
        self.root = Path(root)
        self.rng = random.Random(seed)
        self.interval_s = interval_s
        self.corrupted: list[str] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            entries = sorted(self.root.glob("??/*.json"))
            if entries:
                victim = self.rng.choice(entries)
                try:
                    shape = self.rng.randrange(3)
                    if shape == 0:
                        with open(victim, "r+") as fh:
                            fh.truncate(self.rng.randrange(1, 16))
                    elif shape == 1:
                        victim.write_text(
                            '{"v":1,"sha256":"' + "0" * 64
                            + '","payload":[1,2,3]}')
                    else:
                        # invalid UTF-8: 0xff/0xfe can never appear in
                        # a UTF-8 stream
                        victim.write_bytes(
                            b'\xff\xfe{"v":1,' + bytes(
                                self.rng.randrange(256)
                                for _ in range(8)))
                    self.corrupted.append(victim.name)
                except OSError:
                    pass   # lost a race with a reader/writer: fine
            self._stop_event.wait(self.interval_s)

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=10.0)
