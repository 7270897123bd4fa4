"""Module-level unit functions for campaign-engine tests.

Pool workers import unit functions by ``module:qualname`` reference, so
test units must live in an importable module rather than inside a test
function body.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import time
from pathlib import Path
from typing import Optional

from repro.campaign.supervisor import resolve_unit_fn


def echo_unit(spec: dict, rng_seed: int) -> dict:
    return {"value": spec["value"] * 2, "rng_seed": rng_seed}


def rng_unit(spec: dict, rng_seed: int) -> list[float]:
    rng = random.Random(rng_seed)
    return [rng.random() for _ in range(spec["n"])]


def tuple_unit(spec: dict, rng_seed: int) -> tuple:
    return (spec["value"], [1, (2, 3)])


def touching_unit(spec: dict, rng_seed: int) -> int:
    """Leaves one marker file per computation — proves cache hits skip
    the unit body entirely, not just return equal values."""
    marker = Path(spec["dir"]) / f"unit-{spec['i']}-{os.getpid()}"
    with open(marker, "a") as fh:
        fh.write("computed\n")
    return spec["i"] * 10


def none_unit(spec: dict, rng_seed: int) -> None:
    """A unit whose legitimate result is None (must still cache-hit)."""
    marker = Path(spec["dir"]) / f"none-{spec['i']}-{os.getpid()}"
    with open(marker, "a") as fh:
        fh.write("computed\n")
    return None


def pid_unit(spec: dict, rng_seed: int) -> dict:
    """Returns the worker pid — proves warm-pool reuse across campaigns."""
    return {"i": spec["i"], "pid": os.getpid()}


def failing_unit(spec: dict, rng_seed: int) -> int:
    if spec["i"] == spec["fail_at"]:
        raise RuntimeError(f"unit {spec['i']} exploded")
    return spec["i"]


def flaky_or_failing_unit(spec: dict, rng_seed: int):
    """One grid, two fault shapes: specs with ``fail_at`` run
    :func:`failing_unit`, the rest :func:`flaky_once_unit`."""
    if "fail_at" in spec:
        return failing_unit(spec, rng_seed)
    return flaky_once_unit(spec, rng_seed)


def slow_unit(spec: dict, rng_seed: int) -> list[float]:
    """Sleeps, then draws — the unit shape for interrupt/race tests."""
    time.sleep(spec.get("s", 0.0))
    rng = random.Random(rng_seed)
    return [rng.random() for _ in range(spec.get("n", 3))]


def self_interrupting_unit(spec: dict, rng_seed: int) -> list[float]:
    """A :func:`slow_unit` that first sends this process SIGINT when
    ``i == interrupt_at``: the interrupt lands mid-unit at a known
    unit instead of at a wall-clock time."""
    if spec["i"] == spec["interrupt_at"]:
        os.kill(os.getpid(), signal.SIGINT)
    return slow_unit(spec, rng_seed)


def flaky_once_unit(spec: dict, rng_seed: int) -> list[float]:
    """Fails until its marker file exists (first attempt plants it), so
    a retry — or a pre-planted marker — succeeds deterministically."""
    marker = Path(spec["dir"]) / f"flaky-{spec['i']}"
    if not marker.exists():
        marker.write_text("attempted\n")
        raise RuntimeError(f"unit {spec['i']} first-attempt failure")
    rng = random.Random(rng_seed)
    return [rng.random() for _ in range(spec["n"])]


def kill_once_unit(spec: dict, rng_seed: int) -> list[float]:
    """Hard-kills its worker process until the marker exists — the
    OOM-killer/segfault stand-in for dead-worker detection tests."""
    marker = Path(spec["dir"]) / f"kill-{spec['i']}"
    if not marker.exists():
        marker.write_text("attempted\n")
        os._exit(9)
    rng = random.Random(rng_seed)
    return [rng.random() for _ in range(spec["n"])]


def hang_once_unit(spec: dict, rng_seed: int) -> list[float]:
    """Hangs (far beyond any test timeout) until the marker exists —
    exercises per-unit wall-clock timeouts plus retry."""
    marker = Path(spec["dir"]) / f"hang-{spec['i']}"
    if not marker.exists():
        marker.write_text("attempted\n")
        time.sleep(120.0)
    rng = random.Random(rng_seed)
    return [rng.random() for _ in range(spec["n"])]


#: The storm's fault plan, a JSON file in the unit's ``dir``.  Without
#: it, :func:`storm_unit` runs its inner unit clean.
STORM_PLAN = "storm.json"
#: Exit code of a storm kill.
STORM_EXIT_CODE = 113


class StormError(RuntimeError):
    """The exception a storm injects."""


def storm_draw(plan: dict, i: int, attempt: int) -> Optional[str]:
    """The fault planned for one attempt of unit ``i``: ``None``,
    ``"kill-before"``, ``"kill-after"`` (the body ran, its result
    message is lost), ``"raise"`` or ``"hang"``.

    A SHA-256 of (storm seed, unit, attempt) decides, so the plan
    replays identically in every process.  ``kill``/``exc``/``hang``
    are per-attempt probabilities; attempts at or past
    ``plan["attempts"]`` run clean, so a finite retry budget converges.
    """
    if attempt >= plan["attempts"]:
        return None
    ident = f"{plan['seed']}:{i}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(ident).digest()
    roll = int.from_bytes(digest[:8], "big") / 2 ** 64
    if roll < plan["kill"]:
        return "kill-before" if digest[8] & 1 else "kill-after"
    if roll < plan["kill"] + plan["exc"]:
        return "raise"
    if roll < plan["kill"] + plan["exc"] + plan["hang"]:
        return "hang"
    return None


def storm_unit(spec: dict, rng_seed: int):
    """Runs the unit named by ``spec["inner"]`` (default
    :func:`rng_unit`) on the whole spec, under the fault plan in
    ``spec["dir"]`` when one is there.

    Each planned attempt leaves a marker file, so the unit counts its
    own attempts across worker processes; the supervisor never runs
    one unit in two workers at once.
    """
    root = Path(spec["dir"])
    fault = None
    plan_path = root / STORM_PLAN
    if plan_path.exists():
        plan = json.loads(plan_path.read_text())
        attempt = 0
        while (root / f"storm-{spec['i']}-{attempt}").exists():
            attempt += 1
        (root / f"storm-{spec['i']}-{attempt}").write_text("attempted\n")
        fault = storm_draw(plan, spec["i"], attempt)
        if fault == "kill-before":
            os._exit(STORM_EXIT_CODE)
        if fault == "raise":
            raise StormError(
                f"injected unit failure (unit {spec['i']}, "
                f"attempt {attempt})")
        if fault == "hang":
            time.sleep(plan["hang_s"])
    inner = resolve_unit_fn(spec.get("inner", f"{__name__}:rng_unit"))
    payload = inner(spec, rng_seed)
    if fault == "kill-after":
        os._exit(STORM_EXIT_CODE)
    return payload
