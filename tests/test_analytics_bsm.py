"""Closed-form call pricing and delta, checked against independent oracles."""

import numpy as np
import pytest
from scipy.stats import norm

import ehf
from ehf.analytics_bsm import bs_delta, norm_cdf
from ehf.hedging_engine import episode_results
from reference import bs_call_price


def test_norm_cdf_matches_scipy():
    x = np.linspace(-8, 8, 201)
    assert np.max(np.abs(norm_cdf(x) - norm.cdf(x))) < 1e-14


def test_norm_cdf_edges_and_tails():
    """Shapes pass through, the limits are exact, and the far left tail keeps
    its relative accuracy wherever the reference is a normal float."""
    assert norm_cdf(0.3).shape == ()
    assert type(bs_delta(100.0, 100.0, 0.0, 0.2, 0.1)) is float
    assert norm_cdf(np.array([])).shape == (0,)
    assert norm_cdf(np.ones((2, 3))).shape == (2, 3)
    edges = norm_cdf(np.array([-np.inf, np.inf, np.nan]))
    assert edges[0] == 0.0 and edges[1] == 1.0 and np.isnan(edges[2])
    x = np.linspace(-40, 40, 801)
    ours, ref = norm_cdf(x), norm.cdf(x)
    assert np.max(np.abs(ours - ref)) < 1e-14
    tail = (x < 0) & (ref >= np.finfo(np.float64).tiny)
    assert x[tail].min() < -37
    assert np.max(np.abs(ours[tail] - ref[tail]) / ref[tail]) < 1e-13


def test_delta_is_price_derivative():
    """Central finite difference of the price recovers delta to 1e-6."""
    h = 1e-4
    for s, vol, tau in [(100.0, 0.2, 0.25), (90.0, 0.9, 30 / 365), (111.0, 0.4, 0.01)]:
        up = bs_call_price(s + h, 100.0, 0.0, vol, tau)
        dn = bs_call_price(s - h, 100.0, 0.0, vol, tau)
        fd = (up - dn) / (2 * h)
        assert bs_delta(s, 100.0, 0.0, vol, tau) == pytest.approx(fd, abs=1e-6)


def test_expiry_and_zero_vol_edges():
    # at tau = 0 the call is worth intrinsic; delta is a step there, so the
    # derivative is refused rather than silently picking a side
    assert bs_call_price(105.0, 100.0, 0.0, 0.3, 0.0) == pytest.approx(5.0)
    assert bs_call_price(95.0, 100.0, 0.0, 0.3, 0.0) == 0.0
    with pytest.raises(ehf.DomainError):
        bs_delta(105.0, 100.0, 0.0, 0.3, 0.0)
    # zero vol collapses to the deterministic forward
    assert bs_call_price(105.0, 100.0, 0.0, 0.0, 0.5) == pytest.approx(5.0)


def test_delta_bounds_and_atm_level():
    for s in np.linspace(50, 150, 41):
        d = bs_delta(s, 100.0, 0.0, 0.5, 0.2)
        assert 0.0 <= d <= 1.0
    # short-dated ATM delta sits just above 1/2
    d = bs_delta(100.0, 100.0, 0.0, 0.2, 1 / 365)
    assert 0.5 < d < 0.52


def test_delta_matrix_matches_scalar_calls(gbm_small, contract):
    vol = 0.2
    deltas = ehf.bsm_delta_matrix(gbm_small, contract, vol)
    assert deltas.shape == (64, 30)
    dt = 1 / 365
    for i in (0, 17, 63):
        for t in (0, 13, 29):
            tau = (30 - t) * dt
            ref = bs_delta(gbm_small.prices[i, t], 100.0, 0.0, vol, tau)
            assert deltas[i, t] == pytest.approx(ref, abs=1e-12)


def test_delta_matrix_mask_freezes_position(gbm_small, contract):
    mask = ehf.compute_trade_mask(gbm_small, 0.05)
    deltas = ehf.BSMPolicy(contract, 0.2, 1 / 365).deltas(gbm_small.prices, mask)
    frozen = ~mask[:, 1:]
    assert np.array_equal(deltas[:, 1:][frozen], deltas[:, :-1][frozen])
    # day 0 always establishes the hedge
    assert np.all(deltas[:, 0] > 0)


def test_baseline_episode_fields(gbm_small, contract):
    result = episode_results(gbm_small.prices,
                                 ehf.bsm_delta_matrix(gbm_small, contract, 0.2),
                                 contract, ehf.CostModel(0.02))
    assert result.loss.shape == (64,)
    assert np.all(np.isfinite(result.loss))
    assert result.loss.std() > 0
    # unmasked continuous hedge trades (almost) every day; deltas can saturate
    # to exactly 0 or 1 deep in/out of the money near expiry
    assert np.median(result.trade_counts) == 30
    assert np.all(result.trade_counts >= 25)
    assert np.all(result.total_cost > 0)


def test_contract_validation():
    with pytest.raises(ehf.DomainError):
        ehf.ContractSpec(strike=-5.0)
    with pytest.raises(ehf.DomainError):
        ehf.ContractSpec(strike=100.0, maturity_steps=0)
