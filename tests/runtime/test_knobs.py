"""The declarative knob registry: precedence, parsing, digest neutrality.

The precedence suite is *derived from the registry*: every knob
declares ``examples`` (raw strings parsing to distinct values), and
the parametrization below walks all of them — registering a new knob
buys it arg > config > env > default coverage for free.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.runtime import knobs
from repro.runtime.knobs import parse_bool

ALL_KNOBS = sorted(knobs.REGISTRY)


# ---------------------------------------------------------------------------
# registry well-formedness
# ---------------------------------------------------------------------------


class TestRegistryShape:
    def test_registry_is_nonempty_and_indexed_both_ways(self):
        assert len(knobs.REGISTRY) >= 16
        for knob in knobs.REGISTRY.values():
            assert knobs._BY_ENV[knob.env] is knob

    @pytest.mark.parametrize("name", ALL_KNOBS)
    def test_every_knob_declares_two_distinct_examples(self, name):
        knob = knobs.REGISTRY[name]
        assert len(knob.examples) >= 2, (
            f"{name}: the derived precedence suite needs >= 2 examples")
        parsed = [knob.parse(ex) for ex in knob.examples]
        assert parsed[0] != parsed[1]

    @pytest.mark.parametrize("name", ALL_KNOBS)
    def test_every_knob_has_help_and_valid_scope(self, name, monkeypatch):
        """Every knob is execution-scoped: none of its example values
        moves the cache-digest namespace."""
        knob = knobs.REGISTRY[name]
        assert knob.help
        assert knob.env.startswith(knobs.ENV_PREFIX)
        assert_digest_neutral(monkeypatch, [knob])

    def test_every_parser_type_is_used(self):
        """A value type no registered knob declares is dead code."""
        used = {knob.type for knob in knobs.REGISTRY.values()}
        assert set(knobs._PARSERS) <= used, set(knobs._PARSERS) - used

    def test_duplicate_name_rejected(self):
        existing = next(iter(knobs.REGISTRY.values()))
        with pytest.raises(ValueError, match="duplicate"):
            knobs._register(existing)

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(ConfigurationError, match="workers"):
            knobs.get("wokers")


# ---------------------------------------------------------------------------
# the single boolean grammar (the ``"false"``-was-truthy bugfix)
# ---------------------------------------------------------------------------


class TestParseBool:
    @pytest.mark.parametrize("raw", ["1", "true", "TRUE", "yes", "on"])
    def test_truthy(self, raw):
        assert parse_bool(raw) is True

    @pytest.mark.parametrize("raw", ["0", "false", "FALSE", "no", "off"])
    def test_falsy(self, raw):
        assert parse_bool(raw) is False

    @pytest.mark.parametrize("raw", ["maybe", "2", "yep", "nope"])
    def test_anything_else_raises(self, raw):
        with pytest.raises(ConfigurationError, match="invalid boolean"):
            parse_bool(raw)

    @pytest.mark.parametrize("raw,expected", [
        ("false", False), ("FALSE", False), ("0", False), ("1", True),
    ])
    def test_bench_strict_regression(self, monkeypatch, raw, expected):
        """A boolean knob set to ``"false"`` was *truthy* before the
        registry (``not in ("", "0")``); pin the fixed grammar through
        the real consumer.  The tests keep the name of the bench strict
        gate they were written for; ``REPRO_CAMPAIGN_STRICT`` is the
        strict gate that remains."""
        from repro.campaign.engine import default_strict
        monkeypatch.setenv("REPRO_CAMPAIGN_STRICT", raw)
        assert default_strict() is expected

    def test_bench_strict_empty_means_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_STRICT", "")
        from repro.campaign.engine import default_strict
        assert default_strict() is False

    def test_bench_strict_typo_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_STRICT", "maybe")
        from repro.campaign.engine import default_strict
        with pytest.raises(ConfigurationError,
                           match="REPRO_CAMPAIGN_STRICT"):
            default_strict()


# ---------------------------------------------------------------------------
# precedence: arg > env > default, derived from the registry
# ---------------------------------------------------------------------------


class TestPrecedence:
    @pytest.mark.parametrize("name", ALL_KNOBS)
    def test_env_beats_default(self, monkeypatch, name):
        knob = knobs.REGISTRY[name]
        ex = knob.examples[0]
        monkeypatch.setenv(knob.env, ex)
        got = knobs.resolve(name)
        assert got.source == "env"
        assert got.raw == ex
        assert got.value == knob.parse(ex)

    @pytest.mark.parametrize("name", ALL_KNOBS)
    def test_arg_beats_env(self, monkeypatch, name):
        knob = knobs.REGISTRY[name]
        monkeypatch.setenv(knob.env, knob.examples[1])
        got = knobs.resolve(name, arg=knob.examples[0])
        assert got.source == "arg"
        assert got.value == knob.parse(knob.examples[0])

    @pytest.mark.parametrize("name", ALL_KNOBS)
    def test_default_when_nothing_set(self, monkeypatch, name):
        knob = knobs.REGISTRY[name]
        monkeypatch.delenv(knob.env, raising=False)
        got = knobs.resolve(name)
        assert got.source == "default"
        assert got.raw is None
        assert got.value == knob.default_value()

    def test_empty_string_sources_are_absent(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "")
        assert knobs.resolve("max_retries", arg="").source == "default"
        assert knobs.resolve("max_retries", arg="  ").source == "default"

    def test_skip_values_defer_to_the_next_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE_ENGINE", "interp")
        got = knobs.resolve("core_engine", arg="auto")
        assert (got.value, got.source) == ("interp", "env")
        monkeypatch.setenv("REPRO_CORE_ENGINE", "auto")
        got = knobs.resolve("core_engine")
        assert (got.value, got.source) == ("decoded", "default")

    def test_env_is_read_live_not_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert knobs.value("workers") == 2
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert knobs.value("workers") == 3


# ---------------------------------------------------------------------------
# validation and typo detection
# ---------------------------------------------------------------------------


class TestValidation:
    def test_validator_failure_names_knob_and_source(self):
        with pytest.raises(ConfigurationError,
                           match=r"REPRO_WORKERS \(arg\).*>= 1"):
            knobs.value("workers", arg="0")

    def test_choice_failure_lists_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE_ENGINE", "jit")
        with pytest.raises(ConfigurationError,
                           match="REPRO_CORE_ENGINE.*decoded"):
            knobs.value("core_engine")

    def test_unparseable_int_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ConfigurationError, match="REPRO_MAX_RETRIES"):
            knobs.value("max_retries")

    def test_unknown_start_method_raises(self, monkeypatch):
        """A typo must not fall back to the platform default: the
        service daemon would then fork from its threaded process."""
        from repro.service.daemon import pool_context
        monkeypatch.setenv("REPRO_MP_START", "forkk")
        with pytest.raises(ConfigurationError,
                           match="REPRO_MP_START.*forkk"):
            knobs.value("mp_start")
        with pytest.raises(ConfigurationError, match="REPRO_MP_START"):
            pool_context()

    def test_check_env_accepts_known_and_foreign_names(self):
        knobs.check_env(environ={"REPRO_WORKERS": "4", "PATH": "/bin",
                                 "REPROBATE": "not ours"})

    def test_check_env_rejects_typos_with_suggestion(self):
        with pytest.raises(ConfigurationError,
                           match="REPRO_WORKRES.*REPRO_WORKERS"):
            knobs.check_env(environ={"REPRO_WORKRES": "8"})


# ---------------------------------------------------------------------------
# env_override: the one way overrides propagate to worker processes
# ---------------------------------------------------------------------------


class TestEnvOverride:
    def test_sets_and_restores_unset_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE_ENGINE", raising=False)
        with knobs.env_override("core_engine", "interp"):
            assert os.environ.get("REPRO_CORE_ENGINE") == "interp"
            assert knobs.value("core_engine") == "interp"
        assert os.environ.get("REPRO_CORE_ENGINE") is None

    def test_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE_ENGINE", "decoded")
        with knobs.env_override("core_engine", "interp"):
            assert knobs.value("core_engine") == "interp"
        assert os.environ.get("REPRO_CORE_ENGINE") == "decoded"

    def test_none_and_skip_are_no_ops(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE_ENGINE", "interp")
        with knobs.env_override("core_engine", None):
            assert os.environ.get("REPRO_CORE_ENGINE") == "interp"
        with knobs.env_override("core_engine", "auto"):
            assert os.environ.get("REPRO_CORE_ENGINE") == "interp"

    def test_invalid_override_fails_eagerly(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE_ENGINE", raising=False)
        with pytest.raises(ConfigurationError):
            with knobs.env_override("core_engine", "jit"):
                raise AssertionError("must not enter the extent")
        assert os.environ.get("REPRO_CORE_ENGINE") is None


# ---------------------------------------------------------------------------
# digest neutrality — the checked cache-digest property
# ---------------------------------------------------------------------------


def assert_digest_neutral(monkeypatch, registered):
    """Setting each knob in ``registered`` to each of its examples, all
    at once, leaves the campaign cache-digest namespace unchanged."""
    from repro.campaign import engine
    baseline = engine._digest_version()
    for index in range(2):
        for knob in registered:
            monkeypatch.setenv(knob.env, knob.examples[index])
        assert engine._digest_version() == baseline, (
            f"{[k.name for k in registered]} reached the cache digests")
    for knob in registered:
        monkeypatch.delenv(knob.env)


class TestScope:
    @pytest.mark.parametrize("name",
                             ["core_engine", "sched_backend",
                              "soc_sched", "workers", "unit_timeout",
                              "max_retries"])
    def test_result_invariant_knobs_are_execution_scoped(self, name,
                                                         monkeypatch):
        """The differential suites prove results don't depend on these;
        the registry keeps them out of every cache digest *by
        construction*."""
        assert_digest_neutral(monkeypatch, [knobs.get(name)])

    def test_no_execution_knob_reaches_the_fingerprint(self, monkeypatch):
        """Every knob is an execution knob: no knob, over the whole
        registry, moves ``_digest_version()``."""
        assert_digest_neutral(monkeypatch, list(knobs.REGISTRY.values()))
