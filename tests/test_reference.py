"""The test-only reference helpers of `reference.py`, each checked on its own."""

import numpy as np
import pytest
from scipy.stats import norm

import ehf
from ehf.errors import DomainError
from ehf.signal_forest import predict_labels
from reference import bs_call_price, label_extrema, predict_label_matrix, trade_frequency


def _pathset(prices, s0=100.0):
    prices = np.asarray(prices, dtype=np.float64)
    return ehf.PathSet(prices, s0, np.arange(prices.shape[0]))


# ---------------------------------------------------------------------------
# trade frequency of the threshold filter
# ---------------------------------------------------------------------------

def test_trade_frequency_hand_oracle():
    # moves: 2%, ~0.49%, ~1.46%; alpha = 1% admits two of the three
    paths = _pathset([[100.0, 102.0, 102.5, 101.0]])
    assert trade_frequency(paths, 0.01) == pytest.approx(2.0)
    assert trade_frequency(paths, 0.0) == pytest.approx(3.0)
    assert trade_frequency(paths, 0.05) == 0.0


def test_trade_frequency_counts_all_days_not_mask(heston_small):
    """The frequency statistic covers every daily return; the mask also
    forces day 0, so at large alpha they must diverge."""
    freq = trade_frequency(heston_small, 0.5)
    mask = ehf.compute_trade_mask(heston_small, 0.5)
    per_path = float(np.mean(np.sum(mask, axis=1)))
    assert freq < 0.05
    assert per_path >= 1.0


# ---------------------------------------------------------------------------
# closed-form call value
# ---------------------------------------------------------------------------

def test_price_against_scipy_formula():
    for s, k, vol, tau, r in [(100, 100, 0.2, 0.25, 0.0),
                              (95, 100, 0.6, 30 / 365, 0.01),
                              (120, 100, 0.9, 0.08, 0.0),
                              (100, 130, 0.3, 1.0, 0.05)]:
        d1 = (np.log(s / k) + (r + vol**2 / 2) * tau) / (vol * np.sqrt(tau))
        d2 = d1 - vol * np.sqrt(tau)
        ref = s * norm.cdf(d1) - k * np.exp(-r * tau) * norm.cdf(d2)
        assert bs_call_price(s, k, r, vol, tau) == pytest.approx(ref, abs=1e-12)


def test_price_monotone_in_spot_and_vol():
    spots = np.linspace(60, 140, 33)
    prices = [bs_call_price(s, 100.0, 0.0, 0.4, 0.1) for s in spots]
    assert np.all(np.diff(prices) > 0)
    vols = np.linspace(0.05, 1.5, 30)
    prices = [bs_call_price(100.0, 100.0, 0.0, v, 0.1) for v in vols]
    assert np.all(np.diff(prices) > 0)


# ---------------------------------------------------------------------------
# extremum labels of one path
# ---------------------------------------------------------------------------

def test_monotone_path_all_ones():
    path = np.linspace(100, 130, 12)
    assert np.all(label_extrema(path, 0.05) == 1)


def test_symmetric_vee_marks_bottom():
    labels = label_extrema(np.array([100.0, 90.0, 100.0]), 0.05)
    assert labels.tolist() == [1, 0, 1]


def test_spike_marks_peak():
    # 7% up then 7% above tomorrow: significant local max
    labels = label_extrema(np.array([100.0, 107.0, 100.0, 101.0]), 0.05)
    assert labels.tolist() == [1, 0, 1, 1]


def test_shallow_extremum_not_marked():
    # turning point exists but both moves are under 5%
    labels = label_extrema(np.array([100.0, 103.0, 100.0]), 0.05)
    assert labels.tolist() == [1, 1, 1]


def test_ends_always_one():
    rng = np.random.default_rng(0)
    for _ in range(5):
        path = 100 * np.exp(np.cumsum(rng.normal(0, 0.1, size=10)))
        labels = label_extrema(path, 0.0)
        assert labels[0] == 1 and labels[-1] == 1


def test_label_uses_only_adjacent_days():
    rng = np.random.default_rng(1)
    path = 100 * np.exp(np.cumsum(rng.normal(0, 0.08, size=12)))
    base = label_extrema(path, 0.05)
    for t in range(3, 9):
        bumped = path.copy()
        bumped[t + 2:] *= 1.8        # violent move, but beyond the window
        bumped[: t - 1] *= 0.6
        assert label_extrema(bumped, 0.05)[t] == base[t]


def test_labels_scale_invariant():
    rng = np.random.default_rng(2)
    path = 100 * np.exp(np.cumsum(rng.normal(0, 0.07, size=15)))
    assert np.array_equal(label_extrema(path, 0.05),
                          label_extrema(3.7 * path, 0.05))


def test_label_guards():
    with pytest.raises(DomainError):
        label_extrema(np.array([100.0, 101.0]), 0.05)
    with pytest.raises(DomainError):
        label_extrema(np.array([100.0, 101.0, 102.0]), -0.1)


# ---------------------------------------------------------------------------
# forecast label matrix
# ---------------------------------------------------------------------------

def test_predict_label_matrix_forces_early_days(heston_small):
    X = ehf.feature_table(heston_small)
    truth = ehf.label_matrix(heston_small, 0.05)[:, 2:].ravel()
    forest = ehf.fit_forest(X[:4000], truth[:4000], ehf.ForestConfig(n_trees=5, seed=2))
    predicted = predict_label_matrix(forest, heston_small)
    assert predicted.shape == (256, 30)
    assert np.all(predicted[:, :2] == 1)
    # days 2 .. 29 hold the votes on feature_table's rows, in its order
    votes = predict_labels(forest, X)
    assert 0 < np.count_nonzero(votes == 0) < len(votes)
    np.testing.assert_array_equal(predicted[:, 2:].ravel(), votes)
