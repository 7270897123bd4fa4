"""Declarative registry of every ``REPRO_*`` runtime knob.

Before this module, ~30 environment knobs were hand-parsed in a dozen
modules with subtly divergent semantics (four different boolean
grammars, three retry/timeout parsers, convention-only rules about
which knobs must stay out of spawn seeds).  Now each knob is declared
exactly once as a :class:`Knob` — name, env var, type/parser, default,
validator, CLI flag and help text — and every subsystem
resolves values through :func:`resolve`/:func:`value`:

* **One precedence rule.**  Explicit argument > environment variable >
  declared default.  ``auto`` (where a knob declares it skippable)
  defers to the next source, so ``Core(engine="auto")`` still honours
  ``REPRO_CORE_ENGINE``.
* **Source tracking.**  :func:`resolve` returns ``(value, source,
  raw)``; ``python -m repro knobs`` renders the whole registry with
  the provenance of every current value.
* **Typo detection.**  A malformed value raises
  :class:`~repro.errors.ConfigurationError` naming the knob, the
  offending value, its source and the valid values; an unrecognised
  ``REPRO_*`` environment name fails :func:`check_env` with a
  closest-match suggestion instead of being silently ignored.

Only this module may read ``os.environ`` for ``REPRO_*`` names; a
static-analysis guard test (``tests/runtime/test_env_guard.py``) keeps
the rest of ``src/`` honest forever.
"""

from __future__ import annotations

import difflib
import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional

from ..config import CORE_ENGINE_CHOICES, SOC_SCHED_CHOICES
from ..errors import ConfigurationError

#: Every runtime environment variable starts with this prefix.
ENV_PREFIX = "REPRO_"

#: Names accepted by the schedulability-backend knob (the concrete
#: registry in :mod:`repro.sched.backend` re-exports this tuple).
SCHED_BACKEND_CHOICES: tuple[str, ...] = ("auto", "python", "numpy")

#: The one boolean grammar (case-insensitive).  Anything else is a
#: typo and raises — ``REPRO_CAMPAIGN_STRICT=false`` must never be true.
TRUE_STRINGS = ("1", "true", "yes", "on")
FALSE_STRINGS = ("0", "false", "no", "off")


def _repo_root() -> Path:
    # three levels above this file: src/repro/runtime -> repo root
    return Path(__file__).resolve().parents[3]


def parse_bool(raw: Any, *, knob: str = "boolean knob",
               source: str = "value") -> bool:
    """The registry's single boolean parser.

    Replaces the four divergent grammars the tree grew (``not in ("",
    "0")`` treated ``"false"`` as *truthy*); anything outside the two
    canonical sets raises instead of silently defaulting.
    """
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in TRUE_STRINGS:
        return True
    if text in FALSE_STRINGS:
        return False
    raise ConfigurationError(
        f"{knob}: invalid boolean {raw!r} (from {source}); use one of "
        f"{'/'.join(TRUE_STRINGS)} or {'/'.join(FALSE_STRINGS)}")


class Resolution(NamedTuple):
    """One resolved knob value plus its provenance."""

    value: Any
    source: str          # "arg" | "env" | "default"
    raw: Any             # the pre-parse input (None for "default")


@dataclass(frozen=True)
class Knob:
    """One declared runtime knob.

    ``default`` may be a zero-argument callable for host-dependent
    defaults (``os.cpu_count``, repo-relative paths).  ``skip`` lists
    lowercase raw values that defer to the next precedence source
    (``"auto"`` for the tiered choice knobs).  ``examples`` are raw
    string values that parse to at least two distinct results — the
    parametrized precedence suite derives per-knob coverage from them,
    so a newly registered knob is tested for free.
    """

    name: str
    env: str
    type: str                      # bool|int|float|str|path|choice
    default: Any
    help: str
    choices: Optional[tuple] = None
    skip: tuple = ()
    validator: Optional[Callable[[Any], Optional[str]]] = None
    cli: Optional[str] = None
    examples: tuple = ()

    def default_value(self) -> Any:
        return self.default() if callable(self.default) else self.default

    def parse(self, raw: Any, source: str = "value") -> Any:
        """Parse + validate one raw value (string or already-typed)."""
        where = f"{self.env} ({source})"
        try:
            value = _PARSERS[self.type](self, raw, where)
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{where}: invalid {self.type} value {raw!r}: {exc}"
            ) from None
        if self.validator is not None:
            problem = self.validator(value)
            if problem:
                raise ConfigurationError(
                    f"{where}: {problem} (got {raw!r})")
        return value


def _parse_bool(knob: Knob, raw: Any, where: str) -> bool:
    return parse_bool(raw, knob=knob.env, source=where)


def _parse_int(knob: Knob, raw: Any, where: str) -> int:
    if isinstance(raw, bool):
        raise ValueError("expected an integer, not a boolean")
    return int(str(raw).strip()) if not isinstance(raw, int) else raw


def _parse_float(knob: Knob, raw: Any, where: str) -> float:
    if isinstance(raw, bool):
        raise ValueError("expected a number, not a boolean")
    if isinstance(raw, (int, float)):
        return float(raw)
    return float(str(raw).strip())


def _parse_str(knob: Knob, raw: Any, where: str) -> str:
    return str(raw).strip()


def _parse_path(knob: Knob, raw: Any, where: str) -> Path:
    return raw if isinstance(raw, Path) else Path(str(raw).strip())


def _parse_choice(knob: Knob, raw: Any, where: str) -> str:
    text = str(raw).strip().lower()
    assert knob.choices is not None
    if text not in knob.choices:
        raise ConfigurationError(
            f"{where}: unknown value {raw!r}; valid values: "
            f"{', '.join(knob.choices)}")
    return text


_PARSERS = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "str": _parse_str,
    "path": _parse_path,
    "choice": _parse_choice,
}


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

REGISTRY: dict[str, Knob] = {}
_BY_ENV: dict[str, Knob] = {}


def _register(knob: Knob) -> Knob:
    if knob.name in REGISTRY:
        raise ValueError(f"duplicate knob name {knob.name!r}")
    if knob.env in _BY_ENV:
        raise ValueError(f"duplicate knob env {knob.env!r}")
    if not knob.env.startswith(ENV_PREFIX):
        raise ValueError(f"{knob.env!r} must start with {ENV_PREFIX!r}")
    if knob.type not in _PARSERS:
        raise ValueError(f"{knob.name}: unknown type {knob.type!r}")
    if knob.type == "choice" and not knob.choices:
        raise ValueError(f"{knob.name}: choice knob needs choices")
    REGISTRY[knob.name] = knob
    _BY_ENV[knob.env] = knob
    return knob


def get(name: str) -> Knob:
    """The registered knob called ``name`` (raises with suggestions)."""
    knob = REGISTRY.get(name)
    if knob is None:
        near = difflib.get_close_matches(name, REGISTRY, n=3)
        hint = f"; did you mean {', '.join(near)}?" if near else ""
        raise ConfigurationError(f"unknown knob {name!r}{hint}")
    return knob


def _absent(raw: Any) -> bool:
    return raw is None or (isinstance(raw, str) and not raw.strip())


def resolve(name: str, arg: Any = None,
            environ: Optional[Mapping[str, str]] = None) -> Resolution:
    """Resolve one knob through the single precedence rule.

    ``arg`` is an explicit call-site argument, a raw string or an
    already-typed value.  ``None``/empty sources are absent; a source
    whose lowercase value is in ``knob.skip`` (e.g. ``"auto"``) defers
    to the next one.  The environment is consulted live (never cached),
    so monkeypatched tests and freshly spawned workers agree.
    """
    knob = get(name)
    env = environ if environ is not None else os.environ
    for source, raw in (("arg", arg), ("env", env.get(knob.env))):
        if _absent(raw):
            continue
        if knob.skip and str(raw).strip().lower() in knob.skip:
            continue
        return Resolution(knob.parse(raw, source), source, raw)
    return Resolution(knob.default_value(), "default", None)


def value(name: str, arg: Any = None,
          environ: Optional[Mapping[str, str]] = None) -> Any:
    """Shorthand for ``resolve(...).value``."""
    return resolve(name, arg, environ).value


def check_env(environ: Optional[Mapping[str, str]] = None) -> None:
    """Fail loudly on unrecognised ``REPRO_*`` environment names.

    A misspelled knob (``REPRO_WORKRES=8``) used to be silently
    ignored — the classic config-drift failure.  Raises
    :class:`~repro.errors.ConfigurationError` naming the stray
    variable and the closest registered knob.
    """
    env = environ if environ is not None else os.environ
    known = set(_BY_ENV)
    for key in sorted(env):
        if not key.startswith(ENV_PREFIX) or key in known:
            continue
        near = difflib.get_close_matches(key, known, n=1)
        hint = f"; did you mean {near[0]}?" if near else ""
        raise ConfigurationError(
            f"unknown environment knob {key!r}{hint} "
            f"(run `python -m repro knobs` for the full registry)")


@contextmanager
def env_override(name: str, raw: Optional[str]) -> Iterator[None]:
    """Pin one knob's environment variable for a dynamic extent.

    ``None`` is a no-op; a skip value (``"auto"``) also leaves the
    environment untouched, matching the historical override helpers.
    The value is validated eagerly so a typo fails at the call site,
    and exported via the environment so campaign worker processes —
    forked or spawned inside the extent — inherit the selection.
    """
    knob = get(name)
    if raw is None or (knob.skip
                       and str(raw).strip().lower() in knob.skip):
        yield
        return
    knob.parse(raw, "override")   # validate before fanning out
    previous = os.environ.get(knob.env)
    os.environ[knob.env] = str(raw)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(knob.env, None)
        else:
            os.environ[knob.env] = previous


def render_value(value: Any) -> str:
    """Human-readable form of a resolved value for the knobs table."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value) if value else "-"
    text = str(value)
    return text if text else "-"


def describe(environ: Optional[Mapping[str, str]] = None) -> list[dict]:
    """One JSON-able row per registered knob (``repro knobs``)."""
    rows = []
    for name in sorted(REGISTRY):
        knob = REGISTRY[name]
        resolution = resolve(name, environ=environ)
        rows.append({
            "name": name,
            "env": knob.env,
            "cli": knob.cli,
            "type": knob.type,
            "value": render_value(resolution.value),
            "source": resolution.source,
            "choices": list(knob.choices) if knob.choices else None,
            "help": knob.help,
        })
    return rows


def knob_table(environ: Optional[Mapping[str, str]] = None) -> str:
    """The ``repro knobs`` listing, one registry row per line."""
    rows = describe(environ)
    widths = {
        key: max(len(key), *(len(str(r[key] or "-")) for r in rows))
        for key in ("name", "value", "source", "env")
    }
    header = (f"{'name':<{widths['name']}}  "
              f"{'value':<{widths['value']}}  "
              f"{'source':<{widths['source']}}  "
              f"{'env':<{widths['env']}}  help")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['name']:<{widths['name']}}  "
            f"{row['value']:<{widths['value']}}  "
            f"{row['source']:<{widths['source']}}  "
            f"{row['env']:<{widths['env']}}  {row['help']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


def _at_least(minimum: int) -> Callable[[Any], Optional[str]]:
    def check(value: Any) -> Optional[str]:
        if value < minimum:
            return f"must be >= {minimum}"
        return None
    return check


def _positive(value: Any) -> Optional[str]:
    if value is not None and value <= 0:
        return "must be > 0"
    return None


def _start_method_name(value: Any) -> Optional[str]:
    methods = multiprocessing.get_all_start_methods()
    if value and value not in methods:
        return f"unknown start method; valid: {', '.join(methods)}"
    return None


# ---------------------------------------------------------------------------
# knob declarations — the single source of truth
# ---------------------------------------------------------------------------

# -- campaign execution ------------------------------------------------------

_register(Knob(
    name="workers", env="REPRO_WORKERS", type="int",
    default=lambda: os.cpu_count() or 1,
    validator=_at_least(1), cli="--workers",
    examples=("2", "3"),
    help="campaign worker processes (default: os.cpu_count())"))

_register(Knob(
    name="cache_dir", env="REPRO_CACHE_DIR", type="path",
    default=lambda: _repo_root() / ".repro_cache",
    cli="--cache-dir", examples=("/tmp/repro-cache-a", "/tmp/cache-b"),
    help="content-addressed result-cache root "
         "(default: <repo>/.repro_cache)"))

_register(Knob(
    name="mp_start", env="REPRO_MP_START", type="str",
    default="", validator=_start_method_name,
    examples=("fork", "spawn"),
    help="multiprocessing start method, one of "
         "multiprocessing.get_all_start_methods() (default: platform "
         "default; the service daemon defaults to forkserver)"))

_register(Knob(
    name="unit_timeout", env="REPRO_UNIT_TIMEOUT", type="float",
    default=None, validator=_positive,
    cli="--unit-timeout", examples=("1.5", "30"),
    help="per-unit wall-clock timeout in seconds; hung units are "
         "killed and retried (default: none)"))

_register(Knob(
    name="max_retries", env="REPRO_MAX_RETRIES", type="int",
    default=0, validator=_at_least(0),
    cli="--max-retries", examples=("1", "2"),
    help="attempts after the first unit failure before quarantine "
         "(default 0)"))

_register(Knob(
    name="retry_backoff", env="REPRO_RETRY_BACKOFF", type="float",
    default=0.05, examples=("0.1", "0.2"),
    help="base of the deterministic exponential backoff between unit "
         "attempts, seconds (default 0.05)"))

_register(Knob(
    name="campaign_strict", env="REPRO_CAMPAIGN_STRICT", type="bool",
    default=False, cli="--strict",
    examples=("1", "0"),
    help="raise CampaignError when any unit is quarantined instead of "
         "degrading gracefully (default off)"))

_register(Knob(
    name="shutdown_grace", env="REPRO_SHUTDOWN_GRACE", type="float",
    default=5.0, examples=("1.0", "2.0"),
    help="drain window for in-flight units on SIGINT/SIGTERM, seconds "
         "(default 5)"))

# -- backend / scheduler / engine selection ---------------------------------

_register(Knob(
    name="sched_backend", env="REPRO_SCHED_BACKEND", type="choice",
    choices=SCHED_BACKEND_CHOICES, skip=("auto",), default="auto",
    cli="--backend", examples=("python", "numpy"),
    help="schedulability backend (auto = numpy when installed, else "
         "python; verdicts are backend-invariant)"))

_register(Knob(
    name="soc_sched", env="REPRO_SOC_SCHED", type="choice",
    choices=SOC_SCHED_CHOICES, skip=("auto",), default="heap",
    cli="--soc-sched", examples=("loop", "heap"),
    help="co-simulation arbitration scheduler (auto = heap; 'loop' is "
         "the round-scan oracle; results are scheduler-invariant)"))

_register(Knob(
    name="core_engine", env="REPRO_CORE_ENGINE", type="choice",
    choices=CORE_ENGINE_CHOICES, skip=("auto",), default="decoded",
    cli="--engine", examples=("interp", "decoded"),
    help="core execution-engine tier (auto = decoded; results are "
         "engine-invariant)"))

# -- service daemon (`repro serve`) -----------------------------------------

_register(Knob(
    name="serve_socket", env="REPRO_SERVE_SOCKET", type="path",
    default=lambda: _repo_root() / ".repro_serve.sock",
    cli="--socket",
    examples=("/tmp/repro-a.sock", "/tmp/repro-b.sock"),
    help="unix-domain socket path the campaign service daemon listens "
         "on (default: <repo>/.repro_serve.sock)"))

# -- reporting / observability ----------------------------------------------

_register(Knob(
    name="report_dir", env="REPRO_REPORT_DIR", type="path",
    default=lambda: _repo_root() / ".repro_reports",
    cli="--report-dir", examples=("/tmp/repro-reports-a", "/tmp/rep-b"),
    help="scenario report directory (default: <repo>/.repro_reports)"))

_register(Knob(
    name="log_json", env="REPRO_LOG_JSON", type="str",
    default="", cli="--log-json",
    examples=("stderr", "/tmp/repro-events.jsonl"),
    help="structured event sink: empty = off, 'stderr'/'-' = stderr, "
         "anything else = JSON-lines file path (append)"))

# -- figure-bench scale -----------------------------------------------------

_register(Knob(
    name="bench_instructions", env="REPRO_BENCH_INSTRUCTIONS",
    type="int", default=25000,
    validator=_at_least(1), examples=("5000", "9000"),
    help="instructions per workload measurement in the figure benches "
         "under benchmarks/ (default 25000)"))

_register(Knob(
    name="bench_sets", env="REPRO_BENCH_SETS", type="int",
    default=25, validator=_at_least(1),
    examples=("8", "12"),
    help="task sets per utilisation point in the Fig. 5 figure "
         "benches (default 25)"))
