"""RunConfig: one resolution of the REPRO_* run settings.

Every boolean variable accepts the same spellings in any case, and a
value that is none of them is an error naming the variable rather than
a silent fall-back to the default.
"""

import pytest

from repro.config import ENV_VARS, RunConfig
from repro.dataflow.summaries import interprocedural_default
from repro.runtime import Session
from repro.runtime.compiler import engine_default
from repro.runtime.fastpath import fastpath_enabled_default

BOOL_FIELDS = [field for field in ENV_VARS if field != "engine"]

TRUE_SPELLINGS = ["1", "true", "on", "yes", "TRUE", "On", "YES", " yes "]
FALSE_SPELLINGS = ["0", "false", "off", "no", "FALSE", "Off", "NO", " no "]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ENV_VARS.values():
        monkeypatch.delenv(name, raising=False)


def test_defaults_without_environment():
    assert RunConfig.from_env() == RunConfig()
    assert RunConfig() == RunConfig(
        engine="compiled",
        fastpath=True,
        memoize=True,
        interprocedural=True,
        telemetry=False,
        invariants=False,
    )


@pytest.mark.parametrize("field", BOOL_FIELDS)
@pytest.mark.parametrize("spelling", TRUE_SPELLINGS)
def test_true_spellings(monkeypatch, field, spelling):
    monkeypatch.setenv(ENV_VARS[field], spelling)
    assert getattr(RunConfig.from_env(), field) is True


@pytest.mark.parametrize("field", BOOL_FIELDS)
@pytest.mark.parametrize("spelling", FALSE_SPELLINGS)
def test_false_spellings(monkeypatch, field, spelling):
    monkeypatch.setenv(ENV_VARS[field], spelling)
    assert getattr(RunConfig.from_env(), field) is False


@pytest.mark.parametrize("field", list(ENV_VARS))
@pytest.mark.parametrize("typo", ["ture", "2", "enabled", "nope"])
def test_unknown_value_names_the_variable(monkeypatch, field, typo):
    monkeypatch.setenv(ENV_VARS[field], typo)
    with pytest.raises(ValueError, match=ENV_VARS[field]):
        RunConfig.from_env()


@pytest.mark.parametrize(
    "variable, value, observe, expected",
    [
        ("REPRO_FASTPATH", "no", fastpath_enabled_default, False),
        ("REPRO_INTERPROC", "no", interprocedural_default, False),
        ("REPRO_TELEMETRY", "yes",
         lambda: Session("Native").telemetry is not None, True),
        ("REPRO_INVARIANTS", "yes",
         lambda: Session("Native").invariant_checker is not None, True),
        ("REPRO_INSTRUMENT_CACHE", "no",
         lambda: Session("Native").memoize, False),
        ("REPRO_ENGINE", "COMPILED", engine_default, "compiled"),
    ],
)
def test_process_defaults_honour_every_spelling(
    monkeypatch, variable, value, observe, expected
):
    """The public default helpers and Session see the same parse."""
    monkeypatch.setenv(variable, value)
    assert observe() == expected


def test_empty_variable_keeps_default(monkeypatch):
    for name in ENV_VARS.values():
        monkeypatch.setenv(name, "")
    assert RunConfig.from_env() == RunConfig()


def test_overrides_apply_on_top_of_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    config = RunConfig.from_env(engine="compiled")
    assert (config.engine, config.fastpath) == ("compiled", False)
    assert config.replace(fastpath=True).fastpath is True


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="compiled"):
        RunConfig(engine="jit")


def test_frozen_and_picklable():
    import pickle

    config = RunConfig(engine="compiled", telemetry=True)
    with pytest.raises(Exception):
        config.engine = "tree"
    assert pickle.loads(pickle.dumps(config)) == config
