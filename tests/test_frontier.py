"""Alpha sweeps, Pareto filtering, range summaries, and frontier CSV I/O."""

import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import ehf
from ehf import frontier, hedging_engine
from ehf.analytics_bsm import bs_delta
from ehf.cli import RunConfig
from ehf.errors import (ConfigurationError, DomainError, IntegrityError,
                        NumericError, StateError)
from ehf.frontier import FrontierPoint
from ehf.hedging_engine import DensePolicy, combine_mask, episode_results, evaluate_policy
from reference import predict_label_matrix


def _point(mean, std, alpha=0.0, trades=10.0, **kw):
    base = dict(scenario="high_vol", policy="dense", rf=False, cost_rate=0.05,
                risk_aversion=0.5, alpha=alpha, mean_loss=mean, std_loss=std,
                avg_trades=trades, n_test_paths=100, mode="fast", seed=0)
    base.update(kw)
    return FrontierPoint(**base)


def _brute_force_pareto(points):
    keep = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            weakly = q.std_loss <= p.std_loss and q.mean_loss >= p.mean_loss
            strictly = q.std_loss < p.std_loss or q.mean_loss > p.mean_loss
            if weakly and strictly:
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return keep


# ---------------------------------------------------------------------------
# pareto filtering
# ---------------------------------------------------------------------------

def test_pareto_single_point_survives():
    pts = [_point(-10.0, 5.0)]
    assert ehf.pareto_filter(pts) == pts


def test_pareto_removes_dominated():
    good = _point(-9.0, 4.0)
    bad = _point(-10.0, 5.0)      # worse mean, worse std
    tradeoff = _point(-11.0, 3.0)  # worse mean, better std: kept
    kept = ehf.pareto_filter([bad, good, tradeoff])
    assert good in kept and tradeoff in kept and bad not in kept


def test_pareto_keeps_exact_duplicates():
    a = _point(-10.0, 5.0, alpha=0.0)
    b = _point(-10.0, 5.0, alpha=0.1)
    assert len(ehf.pareto_filter([a, b])) == 2


def test_pareto_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = rng.integers(1, 14)
        pts = [_point(float(rng.normal(-10, 3)),
                      float(rng.uniform(0.5, 8)), alpha=float(k) / 20)
               for k in range(n)]
        fast = ehf.pareto_filter(pts)
        slow = _brute_force_pareto(pts)
        assert {id(p) for p in fast} == {id(p) for p in slow}, f"trial {trial}"


def test_pareto_survivors_form_a_staircase():
    rng = np.random.default_rng(18)
    pts = [_point(float(rng.normal(-10, 3)), float(rng.uniform(0.5, 8)),
                  alpha=float(k) / 60) for k in range(50)]
    kept = sorted(ehf.pareto_filter(pts), key=lambda p: p.std_loss)
    means = [p.mean_loss for p in kept]
    # among undominated points, taking more risk must buy more return
    assert np.all(np.diff(means) >= 0)


# ---------------------------------------------------------------------------
# summaries and comparisons
# ---------------------------------------------------------------------------

def test_summarize_range_hand_oracle():
    pts = [_point(-10.0, 4.0, alpha=0.00), _point(-12.0, 6.0, alpha=0.05),
           _point(-20.0, 9.0, alpha=0.15)]
    mean, std = ehf.summarize_range(pts, 0.0, 0.1)
    assert mean == pytest.approx(-11.0)
    assert std == pytest.approx(5.0)


def test_summarize_range_empty_raises():
    pts = [_point(-10.0, 4.0, alpha=0.2)]
    with pytest.raises(DomainError):
        ehf.summarize_range(pts, 0.0, 0.1)


def test_compare_configs_improvement_formulas():
    base = [_point(-10.0, 5.0, alpha=0.0), _point(-10.0, 5.0, alpha=0.1)]
    variant = [_point(-9.0, 4.0, alpha=0.0, rf=True),
               _point(-9.0, 4.0, alpha=0.1, rf=True)]
    cmp = ehf.compare_configs(base, variant)
    assert cmp.base_mean == -10.0 and cmp.variant_mean == -9.0
    # mean improves by 10% of |base|; std drops by 20% of base
    assert cmp.mean_improvement_pct == pytest.approx(10.0)
    assert cmp.std_improvement_pct == pytest.approx(20.0)


def test_compare_configs_order_invariant():
    rng = np.random.default_rng(19)
    alphas = np.linspace(0, 0.1, 6)
    base = [_point(float(rng.normal(-10, 1)), float(rng.uniform(3, 6)), alpha=float(a))
            for a in alphas]
    variant = [_point(float(rng.normal(-9, 1)), float(rng.uniform(3, 6)), alpha=float(a))
               for a in alphas]
    forward = ehf.compare_configs(base, variant)
    shuffled = ehf.compare_configs(base[::-1], variant[::-1])
    assert forward.base_mean == pytest.approx(shuffled.base_mean, rel=1e-14)
    assert forward.variant_std == pytest.approx(shuffled.variant_std, rel=1e-14)
    assert forward.mean_improvement_pct == pytest.approx(
        shuffled.mean_improvement_pct, rel=1e-12)


def test_compare_configs_rejects_grid_mismatch():
    base = [_point(-10.0, 5.0, alpha=0.0)]
    variant = [_point(-9.0, 4.0, alpha=0.05)]
    with pytest.raises(ConfigurationError):
        ehf.compare_configs(base, variant)


def test_format_comparison_table_mentions_labels():
    cmp = ehf.compare_configs([_point(-10.0, 5.0)], [_point(-9.0, 4.0, rf=True)])
    text = ehf.format_comparison_table([("dense+rf@0.05", cmp)])
    assert text.split()[1:9] == ["dense", "mean", "dense", "std",
                                 "variant", "mean", "variant", "std"]
    assert "dense+rf@0.05" in text
    assert "10.00" in text and "20.00" in text


# ---------------------------------------------------------------------------
# frontier CSV
# ---------------------------------------------------------------------------

def test_frontier_csv_roundtrip(tmp_path):
    pts = [_point(-10.5, 4.25, alpha=0.0), _point(-11.0, 5.0, alpha=0.07,
                                                  rf=True, policy="gru", seed=3)]
    fn = tmp_path / "frontier.csv"
    ehf.write_frontier_csv(fn, pts)
    header = fn.read_text().splitlines()[0]
    assert header == ",".join(ehf.frontier.FRONTIER_COLUMNS)
    assert header == ("scenario,policy,rf,cost_rate,lambda,alpha,mean_loss,"
                      "std_loss,avg_trades,n_test_paths,mode,seed")
    loaded = ehf.read_frontier_csv(fn)
    assert loaded == pts


def test_frontier_csv_rejects_foreign_header(tmp_path):
    fn = tmp_path / "other.csv"
    fn.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(IntegrityError):
        ehf.read_frontier_csv(fn)


# ---------------------------------------------------------------------------
# sweeps on tiny path sets
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_split():
    cfg = ehf.SimConfig(n_paths=96, seed=21)
    paths = ehf.simulate_heston(ehf.HIGH_VOL, cfg)
    return ehf.split_pathset(paths, 64, 32)


TINY_TRAIN = ehf.TrainConfig(epochs=1, batch_size=32, seed=5)
TINY_POLICY = ehf.PolicyConfig(arch="dense", hidden=8)


def test_sweep_fast_mode_shapes_and_monotone_trades(tiny_split, contract):
    train, test = tiny_split
    sweep = ehf.SweepConfig(alphas=(0.0, 0.02, 0.05, 0.1), cost_rates=(0.02,),
                            mode="fast", seed=5)
    pts = ehf.sweep_alpha(sweep, train, test, contract, TINY_POLICY, TINY_TRAIN)
    assert [p.alpha for p in pts] == [0.0, 0.02, 0.05, 0.1]
    trades = [p.avg_trades for p in pts]
    assert np.all(np.diff(trades) <= 1e-9)
    assert all(p.policy == "dense" and p.mode == "fast" for p in pts)
    assert all(p.n_test_paths == 32 for p in pts)


def test_sweep_rejects_overlapping_splits(tiny_split, contract):
    train, _ = tiny_split
    sweep = ehf.SweepConfig(alphas=(0.0, 0.05))
    with pytest.raises(StateError):
        ehf.sweep_alpha(sweep, train, train.take(0, 16), contract,
                        TINY_POLICY, TINY_TRAIN)


def _ids(*ids):
    return ehf.PathSet(np.full((len(ids), 2), 100.0), 100.0, np.array(ids))


def test_overlapping_splits_count_each_shared_id_once():
    """As np.intersect1d did: an id repeated inside one split is one shared id."""
    with pytest.raises(StateError, match=r"\(2 shared, e\.g\. 5\)"):
        frontier._check_disjoint(_ids(9, 5, 5, 7, 3), _ids(11, 9, 5, 9))
    frontier._check_disjoint(_ids(1, 1, 2), _ids(3, 4, 4))


def test_the_disjoint_check_leaves_numpy_ma_unimported():
    """np.unique, under np.intersect1d, imports numpy.ma (about 15 ms) on its
    first call; nothing else a pipeline runs needs it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(pathlib.Path(ehf.__file__).parents[1]),
                      os.environ.get("PYTHONPATH"))))}
    probe = ("import sys, numpy as np, ehf; from ehf import frontier\n"
             "ids = lambda a, b: ehf.PathSet(np.full((b - a, 2), 1.0), 1.0, np.arange(a, b))\n"
             "frontier._check_disjoint(ids(0, 600), ids(600, 900))\n"
             "try:\n    frontier._check_disjoint(ids(0, 600), ids(590, 900))\n"
             "except ehf.StateError as exc:\n    print(exc)\n"
             "print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.splitlines() == [
        "train/test path ids overlap (10 shared, e.g. 590)", "False"]


def test_sweep_fast_needs_policy_or_training_paths(tiny_split, contract):
    _, test = tiny_split
    sweep = ehf.SweepConfig(alphas=(0.0, 0.05), mode="fast")
    with pytest.raises(ConfigurationError):
        ehf.sweep_alpha(sweep, None, test, contract, TINY_POLICY, TINY_TRAIN)


def test_sweep_cost_rates_scale_costs_linearly(tiny_split, contract):
    """With one frozen policy, switching 2% -> 5% must shift the mean loss by
    exactly 1.5x the 2% cost component at every alpha."""
    train, test = tiny_split
    policy, _ = ehf.train_policy(train, contract, ehf.CostModel(0.02),
                                 ehf.RiskConfig(0.5), TINY_POLICY,
                                 ehf.compute_trade_mask(train, 0.0), TINY_TRAIN)
    alphas = (0.0, 0.03, 0.08)
    pts2 = ehf.sweep_alpha(ehf.SweepConfig(alphas=alphas, cost_rates=(0.02,)),
                           None, test, contract, TINY_POLICY, TINY_TRAIN,
                           policies=[policy])
    pts5 = ehf.sweep_alpha(ehf.SweepConfig(alphas=alphas, cost_rates=(0.05,)),
                           None, test, contract, TINY_POLICY, TINY_TRAIN,
                           policies=[policy])
    for a, p2, p5 in zip(alphas, pts2, pts5):
        mask = ehf.compute_trade_mask(test, a)
        res2 = episode_results(test.prices, policy.deltas(test.prices, mask), contract,
                               ehf.CostModel(0.02))
        mean_cost2 = res2.total_cost.mean()
        assert p5.mean_loss == pytest.approx(p2.mean_loss - 1.5 * mean_cost2,
                                             abs=1e-9)


def test_sweep_baseline_covers_grid(tiny_split, contract):
    _, test = tiny_split
    sweep = ehf.SweepConfig(alphas=(0.0, 0.02, 0.06), cost_rates=(0.05,))
    pts = ehf.sweep_baseline(sweep, test, contract, vol=np.sqrt(0.8), dt=1 / 365)
    assert len(pts) == 3
    assert all(p.policy == "bsm" for p in pts)
    assert pts[0].avg_trades >= pts[-1].avg_trades
    # continuous hedge at alpha 0 trades essentially every day
    assert pts[0].avg_trades > 25


def test_retrain_mode_needs_training_paths(tiny_split, contract):
    _, test = tiny_split
    sweep = ehf.SweepConfig(alphas=(0.0, 0.05), mode="retrain")
    with pytest.raises(ConfigurationError):
        ehf.sweep_alpha(sweep, None, test, contract, TINY_POLICY, TINY_TRAIN)


def test_rf_sweep_uses_signal(tiny_split, contract):
    train, test = tiny_split
    signal = ehf.prepare_signal(train, test, beta=0.05,
                                forest_cfg=ehf.ForestConfig(n_trees=5, seed=6),
                                fit_rows=1000)
    sweep = ehf.SweepConfig(alphas=(0.0, 0.04), rf=True, cost_rates=(0.02,), seed=5)
    pts = ehf.sweep_alpha(
        sweep, train, test, contract, TINY_POLICY, TINY_TRAIN,
        gate=lambda p: predict_label_matrix(signal.forest, p))
    assert all(p.rf for p in pts)
    # the forest gate can only remove trading days
    plain = ehf.sweep_alpha(ehf.SweepConfig(alphas=(0.0, 0.04), cost_rates=(0.02,),
                                            seed=5),
                            train, test, contract, TINY_POLICY, TINY_TRAIN)
    for with_rf, without in zip(pts, plain):
        assert with_rf.avg_trades <= without.avg_trades + 1e-9


def test_sweep_config_validation():
    with pytest.raises(ConfigurationError):
        ehf.SweepConfig(alphas=())
    with pytest.raises(ConfigurationError):
        ehf.SweepConfig(alphas=(0.1, 0.05))
    with pytest.raises(ConfigurationError):
        ehf.SweepConfig(alphas=(0.0, 1.5))
    with pytest.raises(ConfigurationError):
        ehf.SweepConfig(alphas=(0.0,), mode="lazy")
    for empty in ({"cost_rates": ()}, {"risk_aversions": ()}):
        with pytest.raises(ConfigurationError, match="must be non-empty"):
            ehf.SweepConfig(alphas=(0.0,), **empty)
    with pytest.raises(DomainError, match="cost rate must be >= 0"):
        ehf.SweepConfig(alphas=(0.0,), cost_rates=(0.02, -0.01))
    for lam in (0.0, -0.5):
        with pytest.raises(DomainError, match="risk aversion must be > 0"):
            ehf.SweepConfig(alphas=(0.0,), risk_aversions=(0.5, lam))


def test_a_sweeps_settings_run_cost_rate_major():
    sweep = ehf.SweepConfig(alphas=(0.0,), cost_rates=(0.05, 0.02),
                            risk_aversions=(0.7, 0.2))
    assert sweep.settings == [(0.05, 0.7), (0.05, 0.2), (0.02, 0.7), (0.02, 0.2)]


_NAN, _INF = float("nan"), float("inf")
# Besides NaN and the infinities: a count or a seed given as a float or a
# bool, or as an int out of its range, and a real given as text or None
_COUNT, _REAL = [5.0, 1.5, True], ["0.1", None]
_SEED = [1.0, 1.5, 2.5, True, -1, -3, 2 ** 64]


def _split():
    return ehf.split_pathset(ehf.simulate_heston(ehf.HIGH_VOL, ehf.SimConfig(
        n_paths=8, seed=0, n_steps=5)), 4, 4)


def _delta(**kw):
    return bs_delta(**{"spot": 100.0, "strike": 100.0, "rate": 0.0, "vol": 0.2,
                       "tau": 0.1, **kw})


# (id, value -> object, the error it must raise, match, the values to try):
# NaN fails every check, and +-inf each one that has no bound on that side
_NON_FINITE = [
    ("sweep-alpha-inside", lambda v: ehf.SweepConfig(alphas=(0.0, v, 0.1)),
     ConfigurationError, "alpha grid", [_NAN]),
    ("sweep-alpha-last", lambda v: ehf.SweepConfig(alphas=(0.0, 0.1, v)),
     ConfigurationError, "alpha grid", [_NAN]),
    *((f"sim-{k}", lambda v, k=k: ehf.SimConfig(n_paths=4, seed=0, **{k: v}),
       ConfigurationError, f"{k} must be > 0", [_NAN, _INF, *_REAL]) for k in ("s0", "dt")),
    ("strike", lambda v: ehf.ContractSpec(strike=v), DomainError, "strike must be > 0",
     [_NAN, _INF, *_REAL]),
    ("gbm-mu", lambda v: ehf.GBMParams(mu=v, sigma=0.2), ConfigurationError,
     "mu must be finite", [_NAN, _INF, -_INF, *_REAL]),
    ("gbm-sigma", lambda v: ehf.GBMParams(mu=0.0, sigma=v), ConfigurationError,
     "sigma must be >= 0", [_NAN, _INF, *_REAL]),
    *((f"heston-{k}", lambda v, k=k: replace(ehf.HIGH_VOL, **{k: v}), ConfigurationError,
       f"{k} must be", [_NAN, _INF, *_REAL]) for k in ("v0", "theta", "kappa", "sigma_v")),
    ("heston-mu", lambda v: replace(ehf.HIGH_VOL, mu=v), ConfigurationError,
     "mu must be finite", [_NAN, _INF, -_INF, *_REAL]),
    ("point-mean", lambda v: _point(v, 1.0), DomainError, "mean_loss must be finite",
     [_NAN, _INF, -_INF, *_REAL]),
    ("point-std", lambda v: _point(-1.0, v), DomainError, "std_loss must be >= 0",
     [_NAN, _INF, *_REAL]),
    ("point-trades", lambda v: _point(-1.0, 1.0, trades=v), DomainError,
     "avg_trades must be >= 0", [_NAN, _INF, *_REAL]),
    ("heston-rho", lambda v: replace(ehf.HIGH_VOL, rho=v), ConfigurationError,
     "rho must be in", [_NAN, _INF, -1.5, *_REAL]),
    ("cost-rate", lambda v: ehf.CostModel(v), DomainError, "cost rate must be >= 0",
     [_NAN, _INF, -0.1, *_REAL]),
    ("risk-aversion", lambda v: ehf.RiskConfig(v), DomainError,
     "risk aversion must be > 0", [_NAN, _INF, 0.0, *_REAL]),
    ("train-lr", lambda v: ehf.TrainConfig(lr=v), ConfigurationError,
     "learning rate must be > 0", [_NAN, _INF, 0.0, *_REAL]),
    ("train-val_fraction", lambda v: ehf.TrainConfig(val_fraction=v), ConfigurationError,
     "val_fraction must be in", [_NAN, 1.0, -0.1, *_REAL]),
    ("forest-bootstrap", lambda v: ehf.ForestConfig(bootstrap_fraction=v),
     ConfigurationError, "bootstrap fraction must be in", [_NAN, 0.0, 1.5, *_REAL]),
    *((f"point-{k}", lambda v, k=k: _point(-1.0, 1.0, **{k: v}), DomainError,
       f"{k} must be", [_NAN, _INF, low, *_REAL])
      for k, low in (("cost_rate", -0.1), ("risk_aversion", 0.0), ("alpha", -1.0))),
    *((f"run-{k}", lambda v, k=k: RunConfig(**{k: v}), ConfigurationError, f"{k} must be",
       [_NAN, _INF, *bad]) for k, bad in (   # bsm_vol = None: no override
          ("bsm_vol", ["0.1", -0.1]), ("beta", [*_REAL, -0.1]), ("alpha_lo", _REAL),
          ("alpha_hi", _REAL))),
    *((f"bs_delta-{k}", lambda v, k=k: _delta(**{k: v}), DomainError, f"{k} must be",
       [_NAN, _INF, *_REAL, *bad]) for k, bad in (
          ("strike", [0.0]), ("rate", [-_INF]), ("vol", [-0.1]), ("tau", [0.0]))),
    ("table_mask-alpha", lambda v: hedging_engine.table_mask(np.zeros((2, 3)), v),
     DomainError, "alpha must be >= 0", [_NAN, _INF, -0.1, *_REAL]),
    ("label_matrix-beta", lambda v: ehf.label_matrix(_split()[0], v), DomainError,
     "beta must be >= 0", [_NAN, _INF, -0.1, *_REAL]),
    *((f"sim-{k}", lambda v, k=k: ehf.SimConfig(**{"n_paths": 4, "seed": 0, k: v}),
       ConfigurationError, f"{k} must be an integer >= 1", [*_COUNT, 0])
      for k in ("n_paths", "n_steps")),
    ("maturity_steps", lambda v: ehf.ContractSpec(maturity_steps=v), DomainError,
     "maturity_steps must be an integer >= 1", [*_COUNT, 30.0, 0]),
    *((f"policy-{k}", lambda v, k=k: ehf.PolicyConfig(**{k: v}), ConfigurationError,
       f"{k} must be an integer >= 1", [*_COUNT, 0])
      for k in ("hidden", "gru_hidden", "gru_layers", "window")),
    *((f"train-{k}", lambda v, k=k: ehf.TrainConfig(**{k: v}), ConfigurationError,
       f"{k} must be an integer >= 1", [*_COUNT, 0]) for k in ("epochs", "batch_size")),
    *((f"forest-{k}", lambda v, k=k: ehf.ForestConfig(**{k: v}), ConfigurationError,
       f"{k} must be an integer >= {low}", [*_COUNT, low - 1])
      for k, low in (("n_trees", 1), ("max_depth", 0), ("min_leaf", 1))),
    ("point-n_test_paths", lambda v: _point(-1.0, 1.0, n_test_paths=v), DomainError,
     "n_test_paths must be an integer >= 1", [*_COUNT, 0]),
    *((f"run-{k}", lambda v, k=k: RunConfig(**{k: v}), ConfigurationError,
       f"{name} must be an integer >= {low}", [*_COUNT, low - 1])
      for k, name, low in (("n_train", "n_train", 1), ("n_test", "n_test", 1),
                           ("forest_fit_rows", "fit_rows", 0))),
    ("prepare_signal-fit_rows", lambda v: ehf.prepare_signal(
        *_split(), 0.05, ehf.ForestConfig(n_trees=2), fit_rows=v), ConfigurationError,
     "fit_rows must be an integer >= 0", [*_COUNT, 2.5, -5]),
    ("sweep_alpha-jobs", lambda v: ehf.sweep_alpha(
        ehf.SweepConfig(alphas=(0.0,)), *_split(), ehf.ContractSpec(maturity_steps=5),
        TINY_POLICY, TINY_TRAIN, jobs=v), ConfigurationError, "jobs must be an integer >= 1",
     [*_COUNT, 2.0, 0]),
    *((name, build, error, re.escape(f"{match} must be in [0, 2**64) and an integer"),
       _SEED)
      for name, build, error, match in (
          ("sim-seed", lambda v: ehf.SimConfig(n_paths=4, seed=v), ConfigurationError, "seed"),
          ("train-seed", lambda v: ehf.TrainConfig(seed=v), ConfigurationError,
           "training seed"),
          ("forest-seed", lambda v: ehf.ForestConfig(seed=v), ConfigurationError,
           "forest seed"),
          ("sweep-seed", lambda v: ehf.SweepConfig(alphas=(0.0,), seed=v),
           ConfigurationError, "seed"),
          ("point-seed", lambda v: _point(-1.0, 1.0, seed=v), DomainError, "seed"),
          ("run-sim_seed", lambda v: RunConfig(sim_seed=v), ConfigurationError, "seed"))),
]


@pytest.mark.parametrize("build, error, match, value", [
    pytest.param(build, error, match, v, id=f"{name}-{v}")
    for name, build, error, match, values in _NON_FINITE for v in values])
def test_config_types_refuse_non_finite_values(build, error, match, value):
    """Library configs, frontier points and the functions that take a
    number from their caller refuse NaN and the infinities a bound does not
    already exclude, a count or seed that is not an int in its range, and a
    real that is not a number: each with its own error class, before any
    work. The CLI's parsers refuse most of these too, but the types are
    public."""
    with pytest.raises(error, match=match):
        build(value)


@pytest.mark.parametrize("column, cell, match", [
    ("mean_loss", "nan", "mean_loss must be finite"), ("alpha", "nan", "alpha must be in"),
    ("cost_rate", "-0.1", "cost_rate must be >= 0"),
    ("n_test_paths", "0", "n_test_paths must be an integer >= 1"),
    ("seed", "-1", "seed must be in")],
    ids=["mean_loss", "alpha", "cost_rate", "n_test_paths", "seed"])
def test_a_frontier_csv_with_a_nan_loss_is_malformed(tmp_path, column, cell, match):
    """A NaN loss, or a tag that no sweep writes, makes the row malformed
    (report exits 3), not a point."""
    fn = tmp_path / "frontier.csv"
    ehf.write_frontier_csv(fn, [_point(-1.0, 1.0)])
    header, row = fn.read_text().splitlines()
    row = row.split(",")
    row[frontier.FRONTIER_COLUMNS.index(column)] = cell
    fn.write_text(f"{header}\n{','.join(row)}\n")
    with pytest.raises(IntegrityError, match=match):
        ehf.read_frontier_csv(fn)


@pytest.mark.parametrize("build", [
    lambda: ehf.TrainConfig(epochs=2.0), lambda: ehf.TrainConfig(batch_size=8.0),
    lambda: ehf.ForestConfig(n_trees=3.0), lambda: ehf.ForestConfig(max_depth=4.0),
    lambda: ehf.ForestConfig(min_leaf=2.0)],
    ids=["epochs", "batch_size", "n_trees", "max_depth", "min_leaf"])
def test_float_counts_are_configuration_errors(build):
    """A count given as a float would pass a bound check and end in a
    TypeError deep in training or fitting."""
    with pytest.raises(ConfigurationError, match="integer"):
        build()


def test_rf_sweep_needs_a_gate_and_reads_train_labels_only_to_train(
        tiny_split, contract):
    train, test = tiny_split
    rf = ehf.SweepConfig(alphas=(0.0, 0.04), rf=True, cost_rates=(0.02,), seed=5)
    with pytest.raises(ConfigurationError, match="gate"):
        ehf.sweep_alpha(rf, train, test, contract, TINY_POLICY, TINY_TRAIN)
    seen = []

    def gate(paths):
        seen.append(paths.n_paths)
        return ehf.label_matrix(paths, 0.05)

    ehf.sweep_alpha(rf, train, test, contract, TINY_POLICY, TINY_TRAIN, gate=gate)
    assert sorted(seen) == [32, 64]
    seen.clear()
    policy = DensePolicy.init(TINY_POLICY, seed=1)
    ehf.sweep_alpha(rf, train, test, contract, TINY_POLICY, TINY_TRAIN, gate=gate,
                    policies=[policy])
    assert seen == [32]


def test_frontier_point_validation():
    with pytest.raises(DomainError):
        _point(-10.0, -1.0)
    with pytest.raises(DomainError):
        _point(-10.0, 5.0, trades=-2.0)


# ---------------------------------------------------------------------------
# retrain sweeps over forked processes
# ---------------------------------------------------------------------------

RETRAIN_ALPHAS = (0.0, 0.02, 0.05, 0.1)


def _retrain(split, alphas, jobs):
    train, test = split
    sweep = ehf.SweepConfig(alphas=alphas, cost_rates=(0.02,), mode="retrain", seed=5)
    return ehf.sweep_alpha(sweep, train, test, ehf.ContractSpec(100.0, 30),
                           TINY_POLICY, TINY_TRAIN, jobs=jobs)


@pytest.fixture(scope="module")
def serial_retrain(tiny_split):
    return _retrain(tiny_split, RETRAIN_ALPHAS, jobs=1)


@pytest.mark.parametrize("jobs,n_alphas", [(3, 4), (10, 2)],
                         ids=["uneven-shares", "more-jobs-than-alphas"])
def test_retrain_pool_gives_the_serial_points(tiny_split, serial_retrain,
                                              monkeypatch, jobs, n_alphas):
    """Every alpha trains from the same seeds, so the points of a pooled sweep
    equal the serial ones, in grid order (4 alphas over 3 processes: shares
    of 1, 1 and 2)."""
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 16)
    pooled = _retrain(tiny_split, RETRAIN_ALPHAS[:n_alphas], jobs)
    assert pooled == serial_retrain[:n_alphas]


def test_retrain_pool_raises_a_worker_error_in_the_caller(tiny_split, monkeypatch):
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 2)
    caller = os.getpid()
    train_policy = frontier.train_policy

    def failing_in_a_worker(*args, **kwargs):
        if os.getpid() != caller:   # the second alpha, in the forked worker
            raise NumericError("training objective is NaN")
        return train_policy(*args, **kwargs)

    monkeypatch.setattr(frontier, "train_policy", failing_in_a_worker)
    with pytest.raises(NumericError, match="NaN"):
        _retrain(tiny_split, RETRAIN_ALPHAS[:2], jobs=2)


def test_retrain_pool_stops_the_workers_when_the_callers_share_fails(
        tiny_split, monkeypatch):
    """The caller's error surfaces at once, not after the workers' shares."""
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 2)
    caller = os.getpid()

    def failing_in_the_caller(*args, **kwargs):
        if os.getpid() == caller:   # the first alpha, in share 0
            raise NumericError("training objective is NaN")
        time.sleep(60)              # the second alpha, in the forked worker

    monkeypatch.setattr(frontier, "train_policy", failing_in_the_caller)
    start = time.monotonic()
    with pytest.raises(NumericError, match="NaN"):
        _retrain(tiny_split, RETRAIN_ALPHAS[:2], jobs=2)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_retrain_pool_runs_blas_on_one_thread_and_restores_it(
        tiny_split, serial_retrain, monkeypatch):
    calls = frontier._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, _ = calls
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 2)
    train_policy, seen = frontier.train_policy, []

    def counting(*args, **kwargs):
        seen.append(get())
        return train_policy(*args, **kwargs)

    monkeypatch.setattr(frontier, "train_policy", counting)
    before = get()
    assert _retrain(tiny_split, RETRAIN_ALPHAS, jobs=2) == serial_retrain
    assert get() == before
    assert seen == [1, 1]   # the calling process's share


def test_retrain_pool_raises_a_worker_error_between_the_callers_alphas(
        tiny_split, monkeypatch):
    """A worker's error surfaces after the caller's current alpha, not after
    the caller's whole share (four alphas of 2 s each here)."""
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 2)
    caller = os.getpid()
    train_policy = frontier.train_policy

    def slow_in_the_caller(*args, **kwargs):
        if os.getpid() != caller:   # share 1's first alpha, in the forked worker
            raise NumericError("training objective is NaN")
        time.sleep(2)
        return train_policy(*args, **kwargs)

    monkeypatch.setattr(frontier, "train_policy", slow_in_the_caller)
    start = time.monotonic()
    with pytest.raises(NumericError, match="NaN"):
        _retrain(tiny_split, tuple(np.linspace(0.0, 0.14, 8)), jobs=2)
    assert time.monotonic() - start < 5
    assert multiprocessing.active_children() == []



def test_dealt_map_raises_a_later_workers_error_while_an_earlier_one_runs(
        monkeypatch):
    """With the caller's share done, share 2's error surfaces while share 1
    still runs (the shares used to be awaited in order)."""
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 3)

    def item(k):
        if k == 1:
            time.sleep(60)
        if k == 2:
            raise NumericError("training objective is NaN")
        return k

    start = time.monotonic()
    with pytest.raises(NumericError, match="NaN"):
        frontier._dealt_map(item, [0, 1, 2], jobs=3)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []


def test_dealt_map_deals_back_and_forth_and_keeps_input_order(monkeypatch):
    """8 items on 2 processes: the caller computes items 0, 3, 4 and 7."""
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 2)
    out = frontier._dealt_map(lambda k: (k, os.getpid()), list(range(8)), jobs=2)
    assert [k for k, _ in out] == list(range(8))
    assert [k for k, pid in out if pid == os.getpid()] == [0, 3, 4, 7]

# ---------------------------------------------------------------------------
# fast sweeps: the work no mask reads runs once per sweep
# ---------------------------------------------------------------------------

FAST_ALPHAS = (0.0, 0.01, 0.02, 0.04)


def _per_alpha(test, policy, contract, labels=None):
    """(mean, std, avg trades) of evaluate_policy's per-path results at each
    alpha: the reference."""
    out = []
    for alpha in FAST_ALPHAS:
        mask = ehf.compute_trade_mask(test, alpha)
        if labels is not None:
            mask = combine_mask(mask, labels)
        res = evaluate_policy(test, policy, mask, contract, ehf.CostModel(0.02),
                              labels=labels)
        out.append((float(np.mean(res.loss)), float(np.std(res.loss)),
                    float(np.mean(res.trade_counts))))
    return out


def _fast_sweep(test, policy, contract, policy_cfg, labels=None):
    sweep = ehf.SweepConfig(alphas=FAST_ALPHAS, rf=labels is not None,
                            cost_rates=(0.02,))
    points = ehf.sweep_alpha(sweep, None, test, contract, policy_cfg, TINY_TRAIN,
                             gate=lambda paths: labels, policies=[policy])
    return [(p.mean_loss, p.std_loss, p.avg_trades) for p in points]


def _jittered(policy, seed):
    """Nonzero biases, so every unit of the net is live."""
    rng = np.random.default_rng(seed)
    policy.params = {k: v + 0.3 * rng.standard_normal(v.shape)
                     for k, v in policy.params.items()}
    return policy


_GATED = pytest.mark.parametrize("rf,use_label", [
    (False, False), (True, False), (True, True)], ids=["plain", "rf", "rf-label"])


@_GATED
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("window", [1, 3, 5])
def test_gru_fast_sweep_gives_the_per_alpha_points(tiny_split, contract, window,
                                                   layers, rf, use_label):
    _, test = tiny_split
    cfg = ehf.PolicyConfig(arch="gru", hidden=6, gru_hidden=4, gru_layers=layers,
                           window=window, use_label=use_label)
    policy = _jittered(ehf.make_policy(cfg, seed=window), seed=layers)
    labels = ehf.label_matrix(test, 0.01) if rf else None
    assert _fast_sweep(test, policy, contract, cfg, labels) == \
        _per_alpha(test, policy, contract, labels)


@_GATED
def test_dense_fast_sweep_gives_the_per_alpha_points(tiny_split, contract, rf,
                                                     use_label):
    _, test = tiny_split
    cfg = ehf.PolicyConfig(arch="dense", hidden=6, use_label=use_label)
    policy = _jittered(ehf.make_policy(cfg, seed=2), seed=2)
    labels = ehf.label_matrix(test, 0.01) if rf else None
    assert _fast_sweep(test, policy, contract, cfg, labels) == \
        _per_alpha(test, policy, contract, labels)


def test_baseline_sweep_gives_the_per_alpha_points(tiny_split, contract):
    _, test = tiny_split
    sweep = ehf.SweepConfig(alphas=FAST_ALPHAS, cost_rates=(0.02,))
    points = ehf.sweep_baseline(sweep, test, contract, vol=0.9, dt=1 / 365)
    assert [(p.mean_loss, p.std_loss, p.avg_trades) for p in points] == \
        _per_alpha(test, ehf.BSMPolicy(contract, 0.9, 1 / 365), contract)


# ---------------------------------------------------------------------------
# settings that share one test set: gate labels built once, one closed-form
# carry per alpha for every setting, masks from one move table per sweep
# ---------------------------------------------------------------------------

def _setting(cost_rate, lam, **kw):
    return ehf.SweepConfig(alphas=FAST_ALPHAS, cost_rates=(cost_rate,),
                           risk_aversions=(lam,), seed=3, **kw)


# four settings: two cost rates, each with two lambdas
GRID = ehf.SweepConfig(alphas=FAST_ALPHAS, cost_rates=(0.02, 0.05),
                       risk_aversions=(0.2, 0.7), seed=3)


def test_one_baseline_call_gives_each_setting_its_one_setting_points(tiny_split,
                                                                     contract):
    _, test = tiny_split
    shared = frontier.by_setting(
        ehf.sweep_baseline(GRID, test, contract, vol=0.9, dt=1 / 365), GRID)
    assert shared == [ehf.sweep_baseline(_setting(*s), test, contract, vol=0.9, dt=1 / 365)
                      for s in GRID.settings]
    for low, high in (shared[:2], shared[2:]):   # one cost rate's two lambdas
        assert [replace(p, risk_aversion=0.7) for p in low] == high
        assert {p.risk_aversion for p in low} == {0.2}


@pytest.mark.parametrize("arch,gated", [("dense", False), ("dense", True),
                                        ("gru", True)],
                         ids=["dense", "dense-oracle-gate", "gru-oracle-gate"])
def test_one_fast_sweep_gives_each_setting_its_one_setting_points(tiny_split, contract,
                                                                  arch, gated):
    """Four settings walk the grid once, sharing each alpha's mask and carry
    schedule and their policies' parameter-free inputs, and two of them
    share a policy: each setting's points are bit for bit those of a
    one-setting sweep of its policy."""
    _, test = tiny_split
    cfg = ehf.PolicyConfig(arch=arch, hidden=6, gru_hidden=4)
    policies = [_jittered(ehf.make_policy(cfg, seed=k), seed=k) for k in range(3)]
    policies.append(policies[0])
    grid = replace(GRID, rf=gated)
    labels = ehf.label_matrix(test, 0.01) if gated else None

    def sweep(sweep, policies):
        return ehf.sweep_alpha(sweep, None, test, contract, cfg, TINY_TRAIN,
                               gate=lambda paths: labels, policies=policies)

    shared = frontier.by_setting(sweep(grid, policies), grid)
    assert shared == [sweep(_setting(*s, rf=gated), [p])
                      for s, p in zip(grid.settings, policies)]
    assert [{p.cost_rate for p in points} for points in shared] == [{0.02}] * 2 + [{0.05}] * 2


def test_a_sweep_needs_one_policy_per_setting(tiny_split, contract):
    _, test = tiny_split
    policy = DensePolicy.init(TINY_POLICY, seed=1)
    with pytest.raises(ConfigurationError, match="1 policies for 2 settings"):
        ehf.sweep_alpha(replace(_setting(0.02, 0.5), risk_aversions=(0.2, 0.7)), None,
                        test, contract, TINY_POLICY, TINY_TRAIN, policies=[policy])


@pytest.mark.parametrize("trains", [False, True], ids=["given-policies", "trains"])
def test_an_rf_sweep_over_four_settings_calls_the_gate_once_per_split(
        tiny_split, contract, trains):
    """The four settings share one gate call on the test paths and, if the
    sweep trains their policies, one on the training paths, made first."""
    train, test = tiny_split
    seen = []

    def gate(paths):
        seen.append(paths)
        return ehf.label_matrix(paths, 0.01)

    policies = None if trains else [DensePolicy.init(TINY_POLICY, seed=k) for k in range(4)]
    points = ehf.sweep_alpha(replace(GRID, rf=True), train, test, contract, TINY_POLICY,
                             TINY_TRAIN, gate=gate, policies=policies)
    assert len(points) == 4 * len(FAST_ALPHAS)
    assert list(map(id, seen)) == list(map(id, (train, test) if trains else (test,)))


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "oracle-gate"])
def test_a_dense_fast_sweep_on_shared_labels_gives_the_per_alpha_points(
        tiny_split, contract, gated):
    """Masks built from one move table, with gate labels built once per
    sweep, give bit for bit the points of masks built per alpha from the
    paths."""
    _, test = tiny_split
    cfg = ehf.PolicyConfig(arch="dense", hidden=6)
    policy = _jittered(ehf.make_policy(cfg, seed=4), seed=4)
    labels = ehf.label_matrix(test, 0.01) if gated else None
    points = ehf.sweep_alpha(_setting(0.02, 0.5, rf=gated), None, test, contract, cfg,
                             TINY_TRAIN, gate=lambda paths: labels, policies=[policy])
    assert [(p.mean_loss, p.std_loss, p.avg_trades) for p in points] == \
        _per_alpha(test, policy, contract, labels)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_retrain_sweep_on_one_move_table_gives_the_per_alpha_points(
        tiny_split, contract, monkeypatch, jobs):
    """A retrain sweep's evaluations read the sweep's one move table (a
    forked worker inherits it) and equal a training and an evaluation per
    alpha whose masks are built from the paths."""
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 2)
    train, test = tiny_split
    alphas = RETRAIN_ALPHAS[:3]
    sweep = ehf.SweepConfig(alphas=alphas, cost_rates=(0.02,), mode="retrain", seed=5)
    points = ehf.sweep_alpha(sweep, train, test, contract, TINY_POLICY, TINY_TRAIN,
                             jobs=jobs)
    expected = []
    for alpha in alphas:
        policy, _ = ehf.train_policy(train, contract, ehf.CostModel(0.02),
                                     ehf.RiskConfig(0.5), TINY_POLICY,
                                     ehf.compute_trade_mask(train, alpha), TINY_TRAIN)
        res = evaluate_policy(test, policy, ehf.compute_trade_mask(test, alpha),
                              contract, ehf.CostModel(0.02))
        expected.append((float(np.mean(res.loss)), float(np.std(res.loss)),
                         float(np.mean(res.trade_counts))))
    assert [(p.mean_loss, p.std_loss, p.avg_trades) for p in points] == expected


@pytest.mark.parametrize("window,layers", [(1, 1), (3, 2), (5, 2)])
def test_gru_fast_sweep_runs_the_recurrent_stack_once(tiny_split, contract,
                                                      monkeypatch, window, layers):
    """gru_layers cells per day from day window-1 on, for all alphas together."""
    _, test = tiny_split
    cfg = ehf.PolicyConfig(arch="gru", gru_layers=layers, window=window)
    policy = ehf.make_policy(cfg, seed=1)
    cell, calls = hedging_engine._gru_cell, []

    def counting(*args):
        calls.append(1)
        return cell(*args)

    monkeypatch.setattr(hedging_engine, "_gru_cell", counting)
    _fast_sweep(test, policy, contract, cfg)
    assert len(calls) == layers * (test.n_steps - window + 1)


# ---------------------------------------------------------------------------
# metamorphic relations: runs that must agree exactly
# ---------------------------------------------------------------------------

SCALE_ALPHAS = (0.0, 0.02, 0.08)


@pytest.fixture(scope="module")
def scaled_splits():
    """{s0: (train, test)} of the same 300 Heston paths at s0 = 100 and 200."""
    paths = {s0: ehf.simulate_heston(ehf.HIGH_VOL,
                                     ehf.SimConfig(n_paths=300, seed=12345, s0=s0))
             for s0 in (100.0, 200.0)}
    assert np.array_equal(paths[200.0].prices, 2 * paths[100.0].prices)
    return {s0: ehf.split_pathset(p, 200, 100) for s0, p in paths.items()}


def _assert_doubled(points):
    """Each point's mean and std loss exactly 2x at s0 = 200, its trades equal."""
    for base, scaled in zip(points[100.0], points[200.0], strict=True):
        assert scaled.mean_loss == 2 * base.mean_loss
        assert scaled.std_loss == 2 * base.std_loss
        assert scaled.avg_trades == base.avg_trades


@pytest.mark.parametrize("arch,use_label", [("dense", False), ("gru", False),
                                            ("dense", True)],
                         ids=["dense", "gru", "dense-oracle-label"])
def test_doubling_every_price_doubles_the_losses_and_keeps_the_trades(
        scaled_splits, arch, use_label):
    """s0 and strike times 2 scale every float operation of simulation, masks,
    rollouts and loss accounting exactly. Training is not scale-exact (Adam's
    epsilon does not scale), so one policy trained at s0 = 100 sweeps both
    test sets, the second as a copy that reads s0 = 200."""
    gate = (lambda p: ehf.label_matrix(p, 0.02)) if use_label else None
    cfg = ehf.PolicyConfig(arch=arch, hidden=8, gru_hidden=4, use_label=use_label)
    train = scaled_splits[100.0][0]
    train_labels = gate(train) if gate else None
    policy = ehf.train_policy(
        train, ehf.ContractSpec(100.0, 30), ehf.CostModel(0.02), ehf.RiskConfig(0.5),
        cfg, ehf.trade_mask(train, 0.0, train_labels), TINY_TRAIN,
        labels=train_labels)[0]
    policies = {100.0: policy, 200.0: type(policy)(cfg, policy.params, 200.0)}
    sweep = ehf.SweepConfig(alphas=SCALE_ALPHAS, rf=gate is not None, cost_rates=(0.02,))
    _assert_doubled({s0: ehf.sweep_alpha(sweep, None, test, ehf.ContractSpec(s0, 30),
                                         cfg, TINY_TRAIN, gate=gate, policies=[policies[s0]])
                     for s0, (_, test) in scaled_splits.items()})


def test_doubling_every_price_doubles_the_baseline_losses(scaled_splits):
    sweep = ehf.SweepConfig(alphas=SCALE_ALPHAS, cost_rates=(0.02,))
    vol = float(np.sqrt(ehf.HIGH_VOL.theta))
    _assert_doubled({s0: ehf.sweep_baseline(sweep, test, ehf.ContractSpec(s0, 30),
                                            vol=vol, dt=1 / 365)
                     for s0, (_, test) in scaled_splits.items()})
