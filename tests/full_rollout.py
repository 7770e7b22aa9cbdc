"""Full-row masked carry: the independent oracle for the package's per-rank one.

`hedging_engine._masked_rollout` runs the dense net once per trade rank,
over every path's k-th trading cell, and `_masked_adjoint` walks back over
those ranks alone. Here every dense day runs the net and its adjoint on the
whole batch, and the mask throws the frozen rows' outputs away afterwards.
`full_rows()` swaps these into the package, so a policy's deltas and tape
gradients can be taken both ways and compared. The cache keeps this
module's own layout, which only its masked_adjoint reads: sig, each dense
day's rows (here every row) and its x, h1 and h2 in rows :n of the day's
slabs "x", "h1" and "h2". A GRU's cells write their own slabs to the same
cache, and `GRUPolicy._adjoint` reads those after the masked walk.
"""

import contextlib

import numpy as np
import pytest

from ehf import hedging_engine
from ehf.hedging_engine import _DENSE, _slab
from ehf.neural_core import sigmoid


def masked_rollout(p: dict, prefix: str, xs: np.ndarray, sig: np.ndarray,
                   mask: np.ndarray, cache: dict | None, schedule=None,
                   day0=None) -> np.ndarray:
    """Deltas [n, n_steps] of the masked carry prev <- where(mask[:, t], sig[t], prev).

    Days t < len(xs) run the dense net (blocks prefix + w1 ... b3 of p) on
    every row of xs[t] with the previous delta filled in, and write its
    output to sig[t]; the later rows of sig [n_steps, n] arrive filled and
    are only read. A cache receives sig, and each dense day's x, h1 and h2
    as day t of the slabs "x", "h1" and "h2". The package's carry schedule
    and day-0 outputs are not read: every day runs on every call.
    """
    w1, b1, w2, b2, w3, b3 = (p.get(prefix + k) for k in _DENSE)
    n, n_steps = mask.shape
    prev = np.zeros(n)
    out = np.empty((n, n_steps))
    for t in range(n_steps):
        if t < len(xs):
            x = xs[t]
            x[:, 2] = prev
            h1 = np.maximum(x @ w1.T + b1, 0.0)
            h2 = np.maximum(h1 @ w2.T + b2, 0.0)
            sig[t] = sigmoid(h2 @ w3.T + b3)[:, 0]
            if cache is not None:
                for key, value in (("x", x), ("h1", h1), ("h2", h2)):
                    _slab(cache, key, (len(xs), n, value.shape[1]))[t] = value
        prev = np.where(mask[:, t], sig[t], prev)
        out[:, t] = prev
    if cache is not None:
        cache.update(sig=sig, rows=[slice(None)] * len(xs))
    return out


def masked_adjoint(g: np.ndarray, mask: np.ndarray, p: dict, prefix: str,
                   cache: dict) -> tuple[np.ndarray, dict]:
    """Reverse walk of masked_rollout over the days for upstream gradient g:
    the gradient at every day's sigmoid input [n_steps, n] and the dense
    blocks' gradients, each dense day's vjp taken over the whole batch."""
    w1_prev, w2, w3 = p[prefix + "w1"][:, 2], p[prefix + "w2"], p[prefix + "w3"][0]
    sig, n_dense = cache["sig"], len(cache["rows"])
    ga3 = sig * (1.0 - sig) * mask.T  # sigmoid slope, zero on frozen days
    frozen = ~mask
    gw1, gw2, gw3 = (np.zeros_like(p[prefix + k]) for k in ("w1", "w2", "w3"))
    gpre1, gpre2 = np.zeros((2, len(g), len(w2)))
    carry = np.zeros(len(g))
    for t in reversed(range(mask.shape[1])):
        day = g[:, t] + carry
        ga3[t] *= day
        carry = day * frozen[:, t]
        if t < n_dense:
            x, h1, h2 = (cache[key][t, :len(g)] for key in ("x", "h1", "h2"))
            ga2 = np.multiply.outer(ga3[t], w3) * (h2 > 0)
            ga1 = (ga2 @ w2) * (h1 > 0)
            carry = carry + ga1 @ w1_prev
            gw1 += ga1.T @ x
            gw2 += ga2.T @ h1
            gw3 += ga3[t] @ h2
            gpre1 += ga1
            gpre2 += ga2
    blocks = (gw1, gpre1.sum(axis=0), gw2, gpre2.sum(axis=0), gw3,
              ga3[:n_dense].sum().reshape(1))
    return ga3, dict(zip((prefix + k for k in _DENSE), blocks))


@contextlib.contextmanager
def full_rows():
    """Within the block, every policy rolls out and differentiates through
    masked_rollout and masked_adjoint."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hedging_engine, "_masked_rollout", masked_rollout)
        patch.setattr(hedging_engine, "_masked_adjoint", masked_adjoint)
        yield
