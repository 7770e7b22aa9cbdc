"""The trade-rank walk written plainly: the oracle for the package's leaner one.

`hedging_engine._masked_rollout` and `_masked_adjoint` run the dense net
once per trade rank with their buffers laid out ahead of the loop: biases
and the head's weights spread over the batch, the head's sigmoid written
into preallocated rows, and a rank that holds every row added straight into
the prev-delta sums. Here is the same walk with the per-rank temporaries
numpy allocates by itself, one call at a time. `rank_walk()` swaps these
into the package, so that tests can require equal deltas and gradients bit
for bit: both run the same float operations in the same order. The cache
layout is the package's, which the GRU's adjoint also reads.
"""

import contextlib

import numpy as np
import pytest

from ehf import hedging_engine
from ehf.hedging_engine import _DENSE, _frozen_sums, _relu_layer, _slab, _trade_ranks


def sigmoid(x):
    """neural_core.sigmoid's seven operations, each into a new array."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)


def masked_rollout(p: dict, prefix: str, xs: np.ndarray, sig: np.ndarray,
                   mask: np.ndarray, cache: dict | None) -> np.ndarray:
    """hedging_engine._masked_rollout as a plain loop: the deltas [n,
    n_steps] of the masked carry, the dense net run once per trade rank on
    per-rank temporaries, and the same cache entries."""
    w1, b1, w2, b2, w3, b3 = (p.get(prefix + k) for k in _DENSE)
    n, n_steps = mask.shape
    n_dense = len(xs)
    cells = np.flatnonzero(mask)
    dense_cells = cells if n_dense == n_steps else np.flatnonzero(mask[:, :n_dense])
    ranks, at, pm = _trade_ranks(mask[:, :n_dense], dense_cells)
    if n_dense:
        ws, held = ({}, 1) if cache is None else (cache, n_dense)
        slabs = [_slab(ws, key, (held, n, width)) for key, width in
                 (("x", xs.shape[2]), ("h1", len(w1)), ("h2", len(w2)))]
        flat_xs = xs.reshape(-1, xs.shape[2])
    flat_sig = sig.reshape(-1)
    sig[:n_dense] = 0.0
    out = np.empty(len(at))  # by cell position
    last = np.zeros(n)  # each path's delta after its latest trade so far
    for k, (sel, b, e) in enumerate(ranks):
        x, h1, h2 = (slab[k if cache is not None else 0, :e - b] for slab in slabs)
        flat_xs.take(at[b:e], axis=0, out=x, mode="clip")  # unbuffered; at is in range
        x[:, 2] = last[sel]
        _relu_layer(x, w1, b1, h1)
        _relu_layer(h1, w2, b2, h2)
        last[sel] = out[b:e] = sigmoid(h2 @ w3.T + b3)[:, 0]
    flat_sig[at] = out
    if cache is not None:
        cache.update(sig=sig, dense_days=n_dense, cells=dense_cells, ranks=(ranks, at, pm))
    # each trading cell's entry of sig, held until the path's next trade
    days_held = np.diff(np.append(cells, mask.size))  # from each trading cell to the next
    return sig.T.ravel()[cells].repeat(days_held).reshape(n, n_steps)


def masked_adjoint(g: np.ndarray, mask: np.ndarray, p: dict, prefix: str,
                   cache: dict) -> tuple[np.ndarray, dict]:
    """hedging_engine._masked_adjoint as a plain loop: the gradient at
    every day's sigmoid input [n_steps, n] and the dense blocks' gradients."""
    w1_prev, w2, w3 = p[prefix + "w1"][:, 2], p[prefix + "w2"], p[prefix + "w3"][0]
    sig, n_dense, cells, (ranks, at, pm) = (
        cache[k] for k in ("sig", "dense_days", "cells", "ranks"))
    n, n_steps = mask.shape
    ga3 = sig * (1.0 - sig) * mask.T  # sigmoid slope, zero on frozen days
    frozen = ~mask
    gw1, gw2, gw3 = (np.zeros_like(p[prefix + k]) for k in ("w1", "w2", "w3"))
    gpre1, gpre2 = np.zeros((2, n, len(w2)))
    carry = np.zeros(n)
    for t in reversed(range(n_dense, n_steps)):
        day = g[:, t] + carry
        ga3[t] *= day
        carry = day * frozen[:, t]
    # at each cell position: the slope, scaled in place into the gradient at
    # the sigmoid input, and g
    slope, g_cells = ga3.reshape(-1)[at], g[:, :n_dense].T.ravel()[at]
    tails = _frozen_sums(g[:, :n_dense], mask[:, :n_dense], cells)[pm]
    for k in reversed(range(len(ranks))):
        sel, b, e = ranks[k]
        ga = slope[b:e]
        ga *= g_cells[b:e] + (tails[b:e] + carry[sel])
        x, h1, h2 = (cache[key][k, :e - b] for key in ("x", "h1", "h2"))
        ga2 = np.multiply.outer(ga, w3)
        ga2 *= h2 > 0
        ga1 = ga2 @ w2
        ga1 *= h1 > 0
        carry[sel] = ga1 @ w1_prev
        gw1 += ga1.T @ x
        gw2 += ga2.T @ h1
        gw3 += ga @ h2
        gpre1[sel] += ga1
        gpre2[sel] += ga2
    ga3.reshape(-1)[at] = slope
    blocks = (gw1, gpre1.sum(axis=0), gw2, gpre2.sum(axis=0), gw3,
              ga3[:n_dense].sum().reshape(1))
    return ga3, dict(zip((prefix + k for k in _DENSE), blocks))


@contextlib.contextmanager
def rank_walk():
    """Within the block, every policy rolls out and differentiates through
    masked_rollout and masked_adjoint."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hedging_engine, "_masked_rollout", masked_rollout)
        patch.setattr(hedging_engine, "_masked_adjoint", masked_adjoint)
        yield
