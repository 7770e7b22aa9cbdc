"""Reference helpers that only tests call: the threshold filter's trade
frequency, the closed-form call value, one path's extremum labels and a
forest's forecast label matrix.

No `ehf` command needs them, so they live here. Each is built on the package
code it checks: `trade_frequency` on the trade mask's move test,
`bs_call_price` on the delta's d1, `label_extrema` on `label_matrix`'s rule
and `predict_label_matrix` on the fill that `prepare_signal` stores.
"""

import numpy as np

from ehf.analytics_bsm import _d1, norm_cdf
from ehf.errors import DomainError
from ehf.hedging_engine import _moves_over
from ehf.signal_forest import _extrema_labels, feature_table, predict_labels, vote_labels


def trade_frequency(paths, alpha: float) -> float:
    """Average number of daily moves per path exceeding alpha.

    This is the frequency statistic of the threshold filter itself, counted
    over all n_steps daily returns of each path (at alpha = 0 it is exactly
    n_steps); it deliberately excludes the forced day-0 rebalance of the mask.
    """
    return float(np.mean(np.sum(_moves_over(paths.prices, alpha), axis=1)))


def bs_call_price(spot, strike: float, rate: float, vol: float, tau: float):
    """Black-Scholes-Merton call value; the forward intrinsic value at
    tau = 0 or vol = 0."""
    spot, discounted, d1 = _d1(spot, strike, rate, vol, tau)
    if d1 is None:
        value = np.maximum(spot - discounted, 0.0)
    else:
        value = spot * norm_cdf(d1) - discounted * norm_cdf(d1 - vol * np.sqrt(tau))
    return value if value.ndim else float(value)


def label_extrema(path: np.ndarray, beta: float) -> np.ndarray:
    """Per-day {0,1} labels for one path of at least 3 prices: 0 on a day
    that spikes by more than beta against both neighbors (_extrema_labels)."""
    s = np.asarray(path, dtype=np.float64)
    if s.ndim != 1 or len(s) < 3:
        raise DomainError(f"need at least 3 prices to label, got shape {s.shape}")
    return _extrema_labels(s, beta)


def predict_label_matrix(forest, paths) -> np.ndarray:
    """[n_paths, n_steps] forecast labels; days 0-1 forced to 1 (no history)."""
    return vote_labels(predict_labels(forest, feature_table(paths)),
                       paths.n_paths, paths.n_steps)
