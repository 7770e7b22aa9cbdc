"""Closed-form European call delta, and per-day BSM delta matrices.

All hedging accounting in this package runs at zero financing rate, so the
cash-account leg of a replicating portfolio drops out; the delta matrix the
baseline policy reads is taken at zero rate, while bs_delta still accepts an
explicit rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count, check_real
from .market_sim import PathSet

_erfc = np.vectorize(math.erfc, otypes=[np.float64])


@dataclass(frozen=True)
class ContractSpec:
    """European call: strike and maturity in daily steps."""

    strike: float = 100.0
    maturity_steps: int = 30

    def __post_init__(self):
        check_real(self.strike, "strike", DomainError, 0, ends="()")
        check_count(self.maturity_steps, "maturity_steps", DomainError)


def norm_cdf(x):
    """Standard normal CDF via erfc, its argument scaled as cephes' ndtr scales
    it: erfc(z) turns one ulp of z into about 2 z^2 ulps of relative error."""
    return 0.5 * _erfc(-np.asarray(x, dtype=np.float64) * np.sqrt(0.5))


def _d1(spot, strike: float, rate: float, vol: float, tau: float):
    """(spot as float64, the discounted strike, d1) once the arguments check
    out; d1 is None at vol = 0, where the value degenerates. tau must be
    > 0: a delta is a step at expiry."""
    if np.any(np.asarray(spot) <= 0):
        raise DomainError("spot must be > 0")
    check_real(strike, "strike", DomainError, 0, ends="()")
    check_real(rate, "rate", DomainError)
    check_real(tau, "tau", DomainError, 0, ends="()")
    check_real(vol, "vol", DomainError, 0)
    spot = np.asarray(spot, dtype=np.float64)
    d1 = None if vol == 0 else \
        (np.log(spot / strike) + (rate + 0.5 * vol ** 2) * tau) / (vol * np.sqrt(tau))
    return spot, strike * np.exp(-rate * tau), d1


def bs_delta(spot, strike: float, rate: float, vol: float, tau: float):
    """Call delta N(d1); tau must be strictly positive."""
    spot, discounted, d1 = _d1(spot, strike, rate, vol, tau)
    value = (spot > discounted).astype(np.float64) if d1 is None else norm_cdf(d1)
    return value if value.ndim else float(value)


def bsm_delta_matrix(paths: PathSet, contract: ContractSpec, vol: float,
                     dt: float = 1.0 / 365.0) -> np.ndarray:
    """Per-day BSM deltas at zero rate on simulated paths: [n_paths, n_steps].

    Day t uses spot S_t and remaining maturity (n_steps - t) * dt. Accepts a
    PathSet or a raw price matrix of shape [n_paths, n_steps + 1].
    """
    prices = np.asarray(getattr(paths, "prices", paths), dtype=np.float64)
    n_steps = prices.shape[1] - 1
    if contract.maturity_steps != n_steps:
        raise DomainError(
            f"contract maturity {contract.maturity_steps} != path length {n_steps}")
    return np.stack([bs_delta(prices[:, t], contract.strike, 0.0, vol, (n_steps - t) * dt)
                     for t in range(n_steps)], axis=1)
