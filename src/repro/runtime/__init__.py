"""Unified runtime layer: knob registry + structured event bus.

Every ``REPRO_*`` runtime knob in this repository is declared exactly
once, in :mod:`repro.runtime.knobs` — name, environment variable,
type/parser, default, validator, CLI flag and help text.  Every knob
(worker counts, timeouts, retries, backend and scheduler selection,
figure-bench scale) is proven result-invariant and stays out of
campaign spawn seeds and result-cache digests.

One precedence rule applies everywhere: explicit argument > config
object > environment variable > declared default, with source
tracking (``repro knobs`` shows where every value came from) and typo
detection — an unknown value raises
:class:`~repro.errors.ConfigurationError` naming the knob and its
valid values, and an unknown ``REPRO_*`` environment name suggests
the closest registered knob.

:mod:`repro.runtime.events` is the structured JSON-lines event bus
(``REPRO_LOG_JSON``) that campaign, cache, supervisor, scenario and
service layers publish to: unit/campaign lifecycle, cache
hit/miss/corruption/quarantine, worker spawn/death/respawn,
retry/timeout/backoff and daemon jobs, each event carrying unit
digests so a log replay can be joined against the cache.  Logging is
identity-neutral: a campaign with the bus on is bit-identical to one
with the bus off.
"""

from . import events, knobs
from .events import EVENT_SCHEMA, EventBus, emit, get_bus
from .knobs import (
    REGISTRY,
    Knob,
    Resolution,
    check_env,
    env_override,
    parse_bool,
    resolve,
    value,
)

__all__ = [
    "EVENT_SCHEMA",
    "EventBus",
    "Knob",
    "REGISTRY",
    "Resolution",
    "check_env",
    "emit",
    "env_override",
    "events",
    "get_bus",
    "knobs",
    "parse_bool",
    "resolve",
    "value",
]
