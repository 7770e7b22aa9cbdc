"""Hypothesis fuzzing of the config grammar, the config types and the five
artifact loaders.

`load_config` must return a RunConfig or raise an EHFError for any INI text
built from the grammar's own sections and keys. Each config type, given any
number, bool, None or text in one numeric field, must be built or raise its
own error class. The path-set, forest, forecast-label, policy checkpoint and
frontier-CSV loaders must raise nothing but IntegrityError on a mangled file.
Sizes stay small, so no draw can ask for a large allocation.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ehf
from ehf.cli import _CONFIG_GRAMMAR, RunConfig, load_config
from ehf.errors import ConfigurationError, DomainError, EHFError, IntegrityError
from ehf.frontier import FrontierPoint
from ehf.hedging_engine import DensePolicy
from ehf.signal_forest import load_forest

_FUZZ = settings(max_examples=400, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_number = st.one_of(
    st.integers(-5, 200).map(str),
    st.floats(-2, 2, allow_nan=False).map(repr),
    st.tuples(st.integers(-3, 400), st.integers(-1, 400)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["nan", "inf", "-inf", "1/0", "0/0", "1e400"]))
_value = st.one_of(
    _number,
    st.lists(_number, max_size=4).map(", ".join),
    st.tuples(_number, _number, st.integers(-2, 50)).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"),
    st.sampled_from(["true", "false", "yes", "off", "maybe", "high_vol", "gbm",
                     "custom", "low_vol", "dense", "gru", "bsm", "fast", "retrain",
                     "oracle", "forecast", "out", ""]),
    # junk: no newline (it would start another line) and no ':' (grids are drawn above)
    st.text(alphabet="abz09.,-+/=;#%[]() \té", max_size=12))


@st.composite
def _ini_text(draw):
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(_CONFIG_GRAMMAR)),
                                 unique=True, max_size=len(_CONFIG_GRAMMAR))):
        lines.append(f"[{section}]")
        keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_GRAMMAR[section])),
                             unique=True))
        lines.extend(f"{key} = {draw(_value)}" for key in keys)
    return "\n".join(lines) + "\n"


@_FUZZ
@given(text=_ini_text())
def test_config_grammar_fuzz(tmp_path, text):
    ini = tmp_path / "fuzz.ini"
    ini.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_config(str(ini)), RunConfig)
    except EHFError:
        pass


# a valid value of each config type -> the error class(es) it raises; RunConfig
# builds a ContractSpec, whose class is DomainError
_CONFIGS = [(ehf.ContractSpec(), DomainError), (ehf.CostModel(0.05), DomainError),
            (ehf.RiskConfig(0.5), DomainError), (ehf.PolicyConfig(), ConfigurationError),
            (ehf.TrainConfig(), ConfigurationError),
            (ehf.GBMParams(0.0, 0.2), ConfigurationError), (ehf.HIGH_VOL, ConfigurationError),
            (ehf.SimConfig(n_paths=4, seed=0), ConfigurationError),
            (ehf.ForestConfig(), ConfigurationError),
            (ehf.SweepConfig(alphas=(0.0, 0.1)), ConfigurationError),
            (FrontierPoint("high_vol", "dense", False, 0.02, 0.5, 0.04, -12.5, 1.0, 30.0,
                           60, "fast", 3), DomainError),
            (RunConfig(), (ConfigurationError, DomainError))]
_NUMERIC_FIELDS = [(base, f.name, error) for base, error in _CONFIGS
                   for f in fields(base) if f.type in ("int", "float", "float | None")]
_any_number = st.one_of(
    st.floats(), st.integers(-2 ** 70, 2 ** 70), st.sampled_from([-1, 0, 2 ** 64]),
    st.booleans(), st.none(),
    st.text(alphabet="0123456789.-+eEinfa ", max_size=6))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.sampled_from(_NUMERIC_FIELDS), value=_any_number)
def test_a_bad_number_raises_its_types_error(case, value):
    """No number ends a build in a TypeError, ValueError or OverflowError:
    each corrupt input maps to an exit code."""
    base, name, error = case
    try:
        replace(base, **{name: value})
    except error:
        pass


# (kind, position, payload); the position wraps around the bytes at hand
_mutation = st.tuples(st.sampled_from(["truncate", "flip", "insert"]),
                      st.integers(0, 1 << 16), st.binary(min_size=1, max_size=8))


def _mutate(raw: bytes, kind: str, at: int, blob: bytes) -> bytes:
    at %= len(raw)
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ (blob[0] or 0xFF)]) + raw[at + 1:]
    return raw[:at] + blob + raw[at:]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One small file of each loaded kind: name -> (its bytes, its loader)."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = ehf.simulate_heston(ehf.HIGH_VOL, ehf.SimConfig(n_paths=3, seed=1,
                                                            n_steps=4))
    ehf.save_pathset(paths, root / "paths.ehfp")
    X = np.random.default_rng(0).normal(size=(40, 2))
    ehf.save_forest(root / "forest.ehff", ehf.fit_forest(
        X, (X[:, 0] > 0).astype(np.int8), ehf.ForestConfig(n_trees=2, max_depth=3)))
    ehf.save_forecast(root / "forecast.ehfl", ehf.label_matrix(paths, 0.01))
    ehf.save_policy(root / "policy.ehfm",
                    DensePolicy.init(ehf.PolicyConfig(hidden=2), seed=0))
    point = FrontierPoint("high_vol", "dense", False, 0.02, 0.5, 0.04, -12.5,
                              1.0, 30.0, 60, "fast", 3)
    ehf.write_frontier_csv(root / "frontier.csv", [point, point])
    loaders = {"paths.ehfp": ehf.load_pathset, "forest.ehff": load_forest,
               "forecast.ehfl": ehf.load_forecast, "policy.ehfm": ehf.load_policy,
               "frontier.csv": ehf.read_frontier_csv}
    return {name: ((root / name).read_bytes(), loader)
            for name, loader in loaders.items()}


@pytest.mark.parametrize("name", ["paths.ehfp", "forest.ehff", "forecast.ehfl",
                                  "policy.ehfm", "frontier.csv"])
@_FUZZ
@given(mutations=st.lists(_mutation, min_size=1, max_size=3))
def test_loader_fuzz_raises_only_integrity_error(artifacts, tmp_path, name,
                                                 mutations):
    raw, loader = artifacts[name]
    for mutation in mutations:
        raw = _mutate(raw, *mutation) if raw else raw
    target = tmp_path / name
    target.write_bytes(raw)
    try:
        loader(target)
    except IntegrityError:
        pass
