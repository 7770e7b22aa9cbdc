"""Alpha sweeps, Pareto-undominated frontiers, and config-vs-config comparisons.

A sweep evaluates one hedging configuration (scenario, policy, optional
forest gate) at each (cost rate, risk aversion) setting across a grid of rebalance
thresholds alpha: one (mean loss, std loss) point per alpha on held-out paths.
The undominated subset of those points is the efficient hedging frontier;
range summaries and improvement percentages compare configurations the way a
desk would read them: higher mean (smaller loss) and lower std are better.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import os
from dataclasses import dataclass, replace

import numpy as np

from .analytics_bsm import ContractSpec
from .errors import ConfigurationError, DomainError, IntegrityError, StateError
from .hedging_engine import (BSMPolicy, CostModel, PolicyConfig, RiskConfig,
                             TrainConfig, combine_mask, costed_results, hedge_terms,
                             move_table, price_terms, table_mask, trade_mask,
                             train_policy)
from .market_sim import PathSet
from .signal_forest import (Forest, ForestConfig, _day_rows,
                            classification_report, feature_table, fit_forest,
                            label_matrix, predict_labels, vote_labels)

FRONTIER_COLUMNS = ("scenario", "policy", "rf", "cost_rate", "lambda", "alpha",
                    "mean_loss", "std_loss", "avg_trades", "n_test_paths",
                    "mode", "seed")

@dataclass(frozen=True)
class FrontierPoint:
    scenario: str
    policy: str
    rf: bool
    cost_rate: float
    risk_aversion: float
    alpha: float
    mean_loss: float
    std_loss: float
    avg_trades: float
    n_test_paths: int
    mode: str
    seed: int

    def __post_init__(self):
        if not -np.inf < self.mean_loss < np.inf:
            raise DomainError(f"mean_loss must be finite, got {self.mean_loss}")
        if not 0 <= self.std_loss < np.inf:
            raise DomainError(f"std_loss must be >= 0, got {self.std_loss}")
        if not 0 <= self.avg_trades < np.inf:
            raise DomainError(f"avg_trades must be >= 0, got {self.avg_trades}")


@dataclass(frozen=True)
class SweepConfig:
    """An alpha grid swept at each (cost rate, risk aversion) setting of
    cost_rates x risk_aversions, under one scenario, rf flag, mode and seed.
    The grid is non-empty, ascending and within [0, 1]."""

    alphas: tuple[float, ...]
    scenario: str = "high_vol"
    rf: bool = False
    cost_rates: tuple[float, ...] = (0.05,)
    risk_aversions: tuple[float, ...] = (0.5,)
    mode: str = "fast"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("fast", "retrain"):
            raise ConfigurationError(f"unknown sweep mode {self.mode!r}")
        if len(self.alphas) == 0:
            raise ConfigurationError("alpha grid is empty")
        arr = np.asarray(self.alphas, dtype=np.float64)
        if not (np.all(np.diff(arr) >= 0) and 0 <= arr[0] and arr[-1] <= 1):   # NaN fails
            raise ConfigurationError("alpha grid must be ascending and within [0, 1]")
        if not (self.cost_rates and self.risk_aversions):
            raise ConfigurationError("cost_rates and risk_aversions must be non-empty")
        for rate in self.cost_rates:
            CostModel(rate)
        for lam in self.risk_aversions:
            RiskConfig(lam)

    @property
    def settings(self) -> list[tuple[float, float]]:
        """Each (cost rate, risk aversion), cost-rate-major."""
        return [(rate, lam) for rate in self.cost_rates for lam in self.risk_aversions]


# ---------------------------------------------------------------------------
# forest preparation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalArtifacts:
    """The fitted extrema forecaster, its votes on both splits and accuracy reports."""
    forest: Forest
    train_report: object
    test_report: object
    forecast: np.ndarray  # [n_train + n_test, n_steps] forecast labels, train rows first
    test_features: np.ndarray  # the test split's feature_table, for labels.csv
    test_truth: np.ndarray     # the extremum label of each of those rows


def prepare_signal(train_paths: PathSet, test_paths: PathSet, beta: float,
                   forest_cfg: ForestConfig, fit_rows: int = 0) -> SignalArtifacts:
    """Fit the extrema forecaster on training paths and score it on both splits
    (of one path set: both have the same n_steps).

    fit_rows > 0 caps the classifier's training set with a seed-determined
    subsample (the full desk-scale table is larger than the two-feature
    problem needs).
    """
    (X, y), (X_test, y_test) = (
        (feature_table(paths), _day_rows(label_matrix(paths, beta)).ravel())
        for paths in (train_paths, test_paths))
    sel = slice(None)
    if fit_rows and len(X) > fit_rows:
        rng = np.random.default_rng(np.uint64(forest_cfg.seed) ^ np.uint64(0xF17ED))
        sel = np.sort(rng.choice(len(X), size=fit_rows, replace=False))
    forest = fit_forest(X[sel], y[sel], forest_cfg)
    votes, votes_test = predict_labels(forest, X), predict_labels(forest, X_test)
    forecast = vote_labels(np.concatenate([votes, votes_test]),
                           train_paths.n_paths + test_paths.n_paths, train_paths.n_steps)
    return SignalArtifacts(forest=forest,
                           train_report=classification_report(votes, y),
                           test_report=classification_report(votes_test, y_test),
                           forecast=forecast, test_features=X_test, test_truth=y_test)


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

def _check_disjoint(train_paths: PathSet, test_paths: PathSet) -> None:
    """Raise StateError naming how many distinct ids the splits share and the
    smallest. np.isin over the (small-range) ids, unlike np.intersect1d,
    leaves numpy.ma unimported: np.unique imports it."""
    ids = train_paths.path_ids
    shared = np.sort(ids[np.isin(ids, test_paths.path_ids)])
    if shared.size:
        raise StateError(f"train/test path ids overlap "
                         f"({np.count_nonzero(np.diff(shared)) + 1} shared, e.g. {shared[0]})")


def _points(sweep: SweepConfig, settings, policies, test_paths: PathSet, labels,
            alphas, moves, terms) -> list[FrontierPoint]:
    """Each (cost rate, risk aversion) of settings' FrontierPoints, one per
    alpha, all in one list, setting by setting: the mean and std of the
    per-path losses of its policy's deltas on test_paths under the alpha
    mask (ANDed with labels, if any) at the setting's cost rate, and their
    mean trade count, tagged policy.arch and sweep's other values.
    policies holds one policy per setting; a policy may serve several.

    The grid is walked once for all of them. moves and terms, the test
    paths' move_table and price_terms, are built once per sweep. Each
    policy's remasker does the work no mask reads once, and the policies
    share what of it reads no parameter. Each alpha builds one mask and one
    carry schedule for every policy; each distinct policy's deltas give
    one hedge_terms, scored once per distinct cost rate of its settings."""
    walks = {}   # id(policy) -> (its remasker, {cost: [(mean, std, trades) per alpha]})
    shared = {}
    for (rate, _), policy in zip(settings, policies):
        if id(policy) not in walks:
            walks[id(policy)] = policy.remasker(test_paths.prices, labels, shared=shared), {}
        walks[id(policy)][1][CostModel(rate)] = []
    for alpha in alphas:
        mask = table_mask(moves, alpha)
        if labels is not None:
            mask = combine_mask(mask, labels)
        schedules = {}
        for deltas_at, scores in walks.values():
            _score(terms, hedge_terms(terms, deltas_at(mask, schedules)), scores)
    return [FrontierPoint(
        scenario=sweep.scenario, policy=policy.arch, rf=sweep.rf, cost_rate=rate,
        risk_aversion=lam, alpha=alpha, mean_loss=mean, std_loss=std, avg_trades=trades,
        n_test_paths=test_paths.n_paths, mode=sweep.mode, seed=sweep.seed)
        for (rate, lam), policy in zip(settings, policies)
        for alpha, (mean, std, trades) in zip(alphas, walks[id(policy)][1][CostModel(rate)])]


def _score(terms, hedge, scores: dict) -> None:
    """Append to each cost's rows the (mean loss, loss std, mean trade
    count) of hedge; a policy's hedge terms go before the next policy's
    carry runs."""
    for cost, rows in scores.items():
        res = costed_results(terms, hedge, cost)
        rows.append((float(np.mean(res.loss)), float(np.std(res.loss)),
                     float(np.mean(res.trade_counts))))


def sweep_alpha(sweep: SweepConfig, train_paths: PathSet | None, test_paths: PathSet,
                contract: ContractSpec, policy_cfg: PolicyConfig,
                train_cfg: TrainConfig, gate=None, policies=None,
                jobs: int = 1) -> list[FrontierPoint]:
    """One FrontierPoint per alpha for each (cost rate, risk aversion) of
    sweep.settings, evaluated on the held-out test paths: all in one list,
    each setting's points in turn (by_setting cuts it per setting).

    mode="retrain" trains a fresh policy per setting and alpha; mode="fast"
    re-masks one policy per setting, the one policies holds for it or, if
    that is None (or policies is), one trained here at the densest mask
    (the grid's smallest alpha). Every emitted point carries the mode tag.
    rf sweeps need gate, a function from a PathSet to its [n, n_steps] gate
    labels, called once on the test paths and, if the sweep trains, once
    on the training paths. A retrain sweep spreads its (setting, alpha)
    trainings over up to `jobs` processes (see _dealt_map); every training
    starts from the same seeds, so the points do not depend on jobs. A fast
    sweep's alphas are too cheap to pay for a process and always run here,
    all settings' policies in one walk of the grid (_points). Every alpha's
    test mask is built from one move table of the test paths.
    """
    settings, alphas, retrain = sweep.settings, sweep.alphas, sweep.mode == "retrain"
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    policies = [None] * len(settings) if policies is None else list(policies)
    if len(policies) != len(settings):
        raise ConfigurationError(f"{len(policies)} policies for {len(settings)} settings")
    trains = retrain or None in policies
    if train_paths is not None:
        _check_disjoint(train_paths, test_paths)
    elif retrain:
        raise ConfigurationError("retrain mode needs training paths")
    elif trains:
        raise ConfigurationError(
            "fast mode needs either a trained policy or training paths")
    if sweep.rf and gate is None:
        raise ConfigurationError("an rf sweep needs gate labels")
    train_labels = gate(train_paths) if sweep.rf and trains else None
    test_labels = gate(test_paths) if sweep.rf else None
    moves, terms = move_table(test_paths.prices), price_terms(test_paths.prices, contract)

    def trained_at(setting, alpha: float):
        return train_policy(
            train_paths, contract, CostModel(setting[0]), RiskConfig(setting[1]),
            policy_cfg, trade_mask(train_paths, alpha, train_labels), train_cfg,
            labels=train_labels)[0]

    # each evaluation's per-path arrays are dropped once its point is built,
    # before retrain mode trains the next policy; forked workers inherit moves
    if retrain:
        def retrained(item):
            setting, alpha = item
            return _points(sweep, [setting], [trained_at(setting, alpha)], test_paths,
                           test_labels, (alpha,), moves, terms)[0]

        points = _dealt_map(retrained, [(setting, alpha) for setting in settings
                                        for alpha in alphas], jobs)
    else:
        policies = [trained_at(setting, alphas[0]) if policy is None else policy
                    for setting, policy in zip(settings, policies)]
        points = _points(sweep, settings, policies, test_paths, test_labels, alphas,
                         moves, terms)
    return _checked(points, sweep)


def sweep_baseline(sweep: SweepConfig, test_paths: PathSet, contract: ContractSpec,
                   vol: float, dt: float) -> list[FrontierPoint]:
    """Closed-form-delta frontiers (no training, no gate: tagged rf off and
    mode fast) of each setting of sweep, all in one list, as sweep_alpha
    gives them. The closed-form carry runs once per alpha for every
    setting, and its deltas are scored once per distinct cost rate; the
    risk aversion only tags the points."""
    settings = sweep.settings
    return _checked(_points(replace(sweep, rf=False, mode="fast"), settings,
                            [BSMPolicy(contract, vol, dt)] * len(settings), test_paths,
                            None, sweep.alphas, move_table(test_paths.prices),
                            price_terms(test_paths.prices, contract)), sweep)


def by_setting(points: list[FrontierPoint], sweep: SweepConfig) -> list[list[FrontierPoint]]:
    """sweep_alpha's or sweep_baseline's list of points under sweep, cut
    into each setting's."""
    n = len(sweep.alphas)
    return [points[i:i + n] for i in range(0, len(points), n)]


def _checked(points: list[FrontierPoint], sweep: SweepConfig) -> list[FrontierPoint]:
    """points, once each setting's trades are seen not to rise along alpha."""
    for setting_points in by_setting(points, sweep):
        trades = np.array([p.avg_trades for p in setting_points])
        if np.any(np.diff(trades) > 1e-9):
            worst = int(np.argmax(np.diff(trades)))
            raise StateError(
                f"avg_trades increased along the sweep at alpha index {worst} "
                f"({trades[worst]:.4f} -> {trades[worst + 1]:.4f})")
    return points


# ---------------------------------------------------------------------------
# process pool for retrain sweeps
# ---------------------------------------------------------------------------

def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread inside the block, then restore it.

    With one process per core, a second BLAS thread in each process only
    contends for the same cores. The artifacts stay byte-identical to those
    of a serial run with BLAS threads (tests compare --jobs 1 with 2).
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# A pool worker's share of a _dealt_map call: k -> the results of share k.
# Set in the calling process just before the pool forks, cleared after it.
_worker_share = None


def _run_share(k: int) -> list:
    return _worker_share(k)


def _reraise_failed(shares) -> None:
    """Re-raise the error of a pool share that has failed, if one has."""
    for share in shares:
        if share.ready() and not share.successful():
            share.get()


def _dealt_map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], in input order, with the items dealt back and
    forth over n = min(jobs, len(items), usable cores) processes: share k
    holds items k, 2n-1-k, 2n+k, 4n-1-k, ... (0, 3, 4, 7 and 1, 2, 5, 6 for
    8 items on 2). Where cost falls along the items, as a retrain sweep's
    trainings do as alpha grows, this evens the shares more than items[k::n].

    The calling process computes share 0 itself, and forked pool workers the
    others. A forked worker inherits fn and all it reads (paths, masks, gate
    labels), so only its results are pickled. The pool forks its workers
    before it starts its own threads, with BLAS at one thread. Leaving the
    pool terminates the workers, so an error in share 0 surfaces at once.
    A worker's error surfaces as soon as the caller looks: before each item
    of share 0, then while it waits for the other shares. Without fork, or
    with one share, everything runs here. Only a pool imports multiprocessing.
    """
    global _worker_share
    n = min(jobs, len(items), _usable_cores())
    if n > 1:
        import multiprocessing
    if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    out = [None] * len(items)
    dealt = [[i for i in range(len(items)) if k in (i % (2 * n), 2 * n - 1 - i % (2 * n))]
             for k in range(n)]
    _worker_share = lambda k: [fn(items[i]) for i in dealt[k]]
    try:
        with _one_blas_thread(), multiprocessing.get_context("fork").Pool(n - 1) as pool:
            shares = [pool.apply_async(_run_share, (k,)) for k in range(1, n)]
            for i in dealt[0]:
                _reraise_failed(shares)
                out[i] = fn(items[i])
            while waiting := [share for share in shares if not share.ready()]:
                _reraise_failed(shares)
                waiting[0].wait(0.05)
            for k, share in enumerate(shares, start=1):
                for i, result in zip(dealt[k], share.get()):
                    out[i] = result
    finally:
        _worker_share = None
    return out


# ---------------------------------------------------------------------------
# frontier extraction and summaries
# ---------------------------------------------------------------------------

def pareto_filter(points: list[FrontierPoint]) -> list[FrontierPoint]:
    """Undominated subset: q dominates p when std_q <= std_p and
    mean_q >= mean_p with at least one strict inequality."""
    if not points:
        raise DomainError("cannot filter an empty point set")
    std = np.array([p.std_loss for p in points])
    mean = np.array([p.mean_loss for p in points])
    # rows index the candidate p, columns the potential dominator q
    weakly_better = (std[None, :] <= std[:, None]) & (mean[None, :] >= mean[:, None])
    strictly = (std[None, :] < std[:, None]) | (mean[None, :] > mean[:, None])
    dominated = (weakly_better & strictly).any(axis=1)
    return [p for p, d in zip(points, dominated) if not d]


def summarize_range(points: list[FrontierPoint], alpha_lo: float,
                    alpha_hi: float) -> tuple[float, float]:
    """Simple averages of (mean_loss, std_loss) over alpha in [lo, hi]."""
    sel = [p for p in points if alpha_lo <= p.alpha <= alpha_hi]
    if not sel:
        raise DomainError(
            f"no frontier points with alpha in [{alpha_lo}, {alpha_hi}]")
    return (float(np.mean([p.mean_loss for p in sel])),
            float(np.mean([p.std_loss for p in sel])))


@dataclass(frozen=True)
class Comparison:
    base_mean: float
    base_std: float
    variant_mean: float
    variant_std: float
    mean_improvement_pct: float   # positive = variant's average loss is better (higher)
    std_improvement_pct: float    # positive = variant's loss std is lower


def compare_configs(base: list[FrontierPoint], variant: list[FrontierPoint],
                    alpha_lo: float = 0.0, alpha_hi: float = 0.1) -> Comparison:
    """Percentage improvements of variant over base, averaged over the range."""
    base_grid = sorted(p.alpha for p in base)
    var_grid = sorted(p.alpha for p in variant)
    if len(base_grid) != len(var_grid) or np.max(
            np.abs(np.array(base_grid) - np.array(var_grid))) > 1e-12:
        raise ConfigurationError("comparison requires matching alpha grids")
    b_mean, b_std = summarize_range(base, alpha_lo, alpha_hi)
    v_mean, v_std = summarize_range(variant, alpha_lo, alpha_hi)
    if b_mean == 0 or b_std == 0:
        raise DomainError("degenerate base summary (zero mean or std)")
    return Comparison(
        base_mean=b_mean, base_std=b_std,
        variant_mean=v_mean, variant_std=v_std,
        mean_improvement_pct=(v_mean - b_mean) / abs(b_mean) * 100.0,
        std_improvement_pct=(b_std - v_std) / b_std * 100.0,
    )


def format_comparison_table(rows: list[tuple[str, Comparison]]) -> str:
    """Aligned text table of per-configuration improvements over the dense base."""
    header = (f"{'config':<18} {'dense mean':>14} {'dense std':>13} "
              f"{'variant mean':>14} {'variant std':>13} "
              f"{'mean impr %':>12} {'std impr %':>11}")
    lines = [header, "-" * len(header)]
    for label, c in rows:
        lines.append(
            f"{label:<18} {c.base_mean:>14.3f} {c.base_std:>13.3f} "
            f"{c.variant_mean:>14.3f} {c.variant_std:>13.3f} "
            f"{c.mean_improvement_pct:>12.2f} {c.std_improvement_pct:>11.2f}")
    return "\n".join(lines)


def write_comparison_csv(filename, rows: list[tuple[str, Comparison]]) -> None:
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["config", "base_mean", "base_std", "variant_mean",
                         "variant_std", "mean_improvement_pct", "std_improvement_pct"])
        for label, c in rows:
            writer.writerow([label, repr(c.base_mean), repr(c.base_std),
                             repr(c.variant_mean), repr(c.variant_std),
                             repr(c.mean_improvement_pct), repr(c.std_improvement_pct)])


# ---------------------------------------------------------------------------
# frontier CSV round-trip
# ---------------------------------------------------------------------------

def write_frontier_csv(filename, points: list[FrontierPoint]) -> None:
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FRONTIER_COLUMNS)
        for p in points:
            writer.writerow([
                p.scenario, p.policy, int(p.rf), repr(p.cost_rate),
                repr(p.risk_aversion), repr(p.alpha), repr(p.mean_loss),
                repr(p.std_loss), repr(p.avg_trades), p.n_test_paths,
                p.mode, p.seed])


def read_frontier_csv(filename) -> list[FrontierPoint]:
    try:
        with open(filename, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IntegrityError(f"{filename}: unreadable frontier CSV ({exc})") from exc
    header = rows[0] if rows else None
    if header != list(FRONTIER_COLUMNS):
        raise IntegrityError(f"{filename}: unexpected frontier header {header}")
    points = []
    for row in rows[1:]:
        if len(row) != len(FRONTIER_COLUMNS):
            raise IntegrityError(f"{filename}: malformed row {row}")
        try:
            points.append(FrontierPoint(
                scenario=row[0], policy=row[1], rf=bool(int(row[2])),
                cost_rate=float(row[3]), risk_aversion=float(row[4]),
                alpha=float(row[5]), mean_loss=float(row[6]),
                std_loss=float(row[7]), avg_trades=float(row[8]),
                n_test_paths=int(row[9]), mode=row[10], seed=int(row[11])))
        except (ValueError, DomainError) as exc:
            raise IntegrityError(f"{filename}: bad value in row {row} ({exc})") from exc
    return points
