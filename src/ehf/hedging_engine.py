"""Hedging episodes: loss accounting, entropic-risk objective, trade masks, policies.

One episode = one simulated price path hedged day by day. The issuer of an
ATM call holds delta_t shares from day t to t+1, pays proportional costs on
every rebalance, and settles the payoff at maturity. The termination loss

    L = sum_t delta_t (S_{t+1} - S_t) - sum_t rate |delta_t - delta_{t-1}| S_t
        - max(S_T - K, 0),   delta_{-1} = 0

is aggregated across paths by the entropic risk measure, which is what the
neural policies are trained to minimize. Rebalancing is gated by a boolean
trade mask built from a daily-move threshold alpha and (optionally) a
classifier's skip labels; on gated-off days delta is frozen.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analytics_bsm import ContractSpec, bsm_delta_matrix
from .errors import ConfigurationError, DomainError, IntegrityError, ShapeError
from .market_sim import PathSet
from . import container
from . import neural_core as nc
from .neural_core import AdamState, Tape, adam_step, fan_uniform, require_finite


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostModel:
    """Proportional transaction cost: rate * |cash traded|."""

    rate: float

    def __post_init__(self):
        if not (self.rate >= 0.0 and math.isfinite(self.rate)):
            raise DomainError(f"cost rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class RiskConfig:
    """Entropic risk parameter; rho(L) = (1/lambda) log E[exp(-lambda L)]."""

    risk_aversion: float

    def __post_init__(self):
        if not (self.risk_aversion > 0.0 and math.isfinite(self.risk_aversion)):
            raise DomainError(f"risk aversion must be > 0, got {self.risk_aversion}")


_ARCHS = ("bsm", "dense", "gru")


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture tag plus feature switches shared by the trainable policies."""

    arch: str = "dense"
    hidden: int = 32          # dense hidden width (two hidden layers)
    gru_hidden: int = 10      # recurrent units per layer
    gru_layers: int = 2
    window: int = 3           # price-history window consumed by the gru
    use_change: bool = True   # feed the one-day relative price change
    use_label: bool = False   # feed the classifier label as an input

    def __post_init__(self):
        if self.arch not in _ARCHS:
            raise ConfigurationError(f"unknown policy architecture {self.arch!r}")
        sizes = (self.hidden, self.gru_hidden, self.gru_layers, self.window)
        if any(type(size) is not int or size < 1 for size in sizes):
            raise ConfigurationError(
                f"hidden, gru_hidden, gru_layers and window must be integers >= 1, "
                f"got {sizes}")

    @property
    def n_features(self) -> int:
        # log-price, t/T, previous delta, plus optional extras
        return 3 + int(self.use_change) + int(self.use_label)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 12
    batch_size: int = 256
    lr: float = 1e-3
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigurationError(
                f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not (self.lr > 0.0):
            raise ConfigurationError(f"learning rate must be > 0, got {self.lr}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError(
                f"training seed must be in [0, 2**64), got {self.seed}")


# ---------------------------------------------------------------------------
# trade masks
# ---------------------------------------------------------------------------

def _daily_moves(prices: np.ndarray) -> np.ndarray:
    """One-day relative moves S_t/S_{t-1} - 1: [n, width - 1] for [n, width] prices."""
    return prices[:, 1:] / prices[:, :-1] - 1.0


def _moves_over(prices: np.ndarray, alpha: float) -> np.ndarray:
    """Whether each one-day relative move |S_t/S_{t-1} - 1| exceeds alpha:
    [n, width - 1] for [n, width] prices."""
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    return np.abs(_daily_moves(prices)) > alpha


def compute_trade_mask(paths: PathSet, alpha: float) -> np.ndarray:
    """Boolean [n_paths, n_steps]; True on day 0 and whenever the move into
    day t exceeds alpha (_moves_over)."""
    mask = np.empty((paths.n_paths, paths.n_steps), dtype=bool)
    mask[:, 0] = True
    mask[:, 1:] = _moves_over(paths.prices, alpha)[:, :-1]
    return mask


def check_mask(mask: np.ndarray, n_paths: int, n_steps: int) -> np.ndarray:
    if mask.shape != (n_paths, n_steps) or mask.dtype != np.bool_:
        raise ShapeError(
            f"expected bool mask of shape {(n_paths, n_steps)}, got "
            f"{mask.dtype} {mask.shape}")
    if not mask[:, 0].all():
        raise DomainError("trade mask must keep day 0 enabled on every path")
    return mask


def combine_mask(threshold_mask: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """AND the alpha mask with classifier labels (1 = trade allowed); day 0 stays on."""
    if threshold_mask.shape != labels.shape:
        raise ShapeError(
            f"mask shape {threshold_mask.shape} != labels shape {labels.shape}")
    out = threshold_mask & (labels == 1)
    out[:, 0] = True
    return out


def trade_mask(paths: PathSet, alpha: float, labels=None) -> np.ndarray:
    """The alpha mask of paths, ANDed with classifier labels if any are given."""
    mask = compute_trade_mask(paths, alpha)
    return mask if labels is None else combine_mask(mask, labels)


# ---------------------------------------------------------------------------
# episode accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HedgeEpisodeResult:
    """Per-path episode outcomes."""

    loss: np.ndarray         # [n] termination loss (currency; more negative = worse)
    trade_counts: np.ndarray  # [n] days with a nonzero position change
    total_cost: np.ndarray   # [n] accumulated transaction cost


def _loss_and_cash(prices: np.ndarray, deltas: np.ndarray, contract: ContractSpec,
                   cost: CostModel) -> tuple[np.ndarray, ...]:
    """(termination loss [n], signed cash traded per day [n, n_steps], total
    cost [n], position change per day [n, n_steps]) of a batch."""
    prices = np.asarray(prices, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 2 or prices.shape != (deltas.shape[0], deltas.shape[1] + 1):
        raise ShapeError(
            f"prices {prices.shape} incompatible with deltas {deltas.shape}")
    if contract.maturity_steps != deltas.shape[1]:
        raise ShapeError(
            f"contract maturity {contract.maturity_steps} != {deltas.shape[1]} hedge days")
    steps = np.diff(deltas, axis=1, prepend=0.0)
    buy_sell = steps * prices[:, :-1]
    total_cost = (cost.rate * np.abs(buy_sell)).sum(axis=1)
    pnl = np.sum(deltas * np.diff(prices, axis=1), axis=1)
    payoff = np.maximum(prices[:, -1] - contract.strike, 0.0)
    return pnl - total_cost - payoff, buy_sell, total_cost, steps


def episode_results(prices: np.ndarray, deltas: np.ndarray,
                    contract: ContractSpec, cost: CostModel) -> HedgeEpisodeResult:
    """Vectorized termination-loss accounting for a batch of paths."""
    loss, _, total_cost, steps = _loss_and_cash(prices, deltas, contract, cost)
    return HedgeEpisodeResult(loss=loss, trade_counts=np.count_nonzero(steps, axis=1),
                              total_cost=total_cost)


# ---------------------------------------------------------------------------
# entropic risk
# ---------------------------------------------------------------------------

def entropy_risk(losses: np.ndarray, risk: RiskConfig) -> float:
    """rho = (1/lambda) log mean exp(-lambda L), max-shifted for overflow safety."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise DomainError("entropy risk of an empty sample is undefined")
    lam = risk.risk_aversion
    a = -lam * losses
    m = float(np.max(a))
    return (m + math.log(float(np.mean(np.exp(a - m))))) / lam


def tape_entropy_risk(tape: Tape, losses: np.ndarray, risk_aversion: float) -> float:
    """Record the entropic risk of losses [n] (same max-shift as entropy_risk).

    With a = -lambda L and e = exp(a - max a), d rho / d L = -e / sum(e).
    Value and gradient repeat the operations of an op-by-op recording in the
    same order (a + -m, not a - m), so they match it bit for bit.
    """
    inv = 1.0 / risk_aversion
    a = losses * -risk_aversion
    m = float(np.max(a))
    e = np.exp(a + -m)
    mean = float(np.mean(e))
    return tape.record((np.log(mean) + m) * inv, lambda g: (
        np.full_like(e, g * inv / mean / e.size) * e * -risk_aversion))


# ---------------------------------------------------------------------------
# delta policies
# ---------------------------------------------------------------------------

_DENSE = ("w1", "b1", "w2", "b2", "w3", "b3")
_GATES = ("wz", "bz", "wr", "br", "wh", "bh")


def param_shapes(config: PolicyConfig):
    """Yield (name, shape) of every parameter block, in initialisation order.

    Dense: a two-hidden-layer net. GRU: the stacked cells' z, r and candidate
    gates, a sigmoid head, then the dense net prefixed fb_ for the first
    window-1 days.
    """
    if config.arch == "bsm":
        raise ConfigurationError("the closed-form policy has no trainable parameters")
    h, prefix = config.gru_hidden, ""
    if config.arch == "gru":
        for layer in range(1, config.gru_layers + 1):
            for gate in "zrh":
                yield f"l{layer}_w{gate}", (h, (config.window if layer == 1 else h) + h)
                yield f"l{layer}_b{gate}", (h,)
        yield from (("head_w", (1, h)), ("head_b", (1,)))
        prefix = "fb_"
    fb, nf = config.hidden, config.n_features
    yield from zip((prefix + k for k in _DENSE),
                   ((fb, nf), (fb,), (fb, fb), (fb,), (1, fb), (1,)))


def _dense_inputs(cfg: PolicyConfig, s0: float, prices: np.ndarray, labels,
                  n_days: int) -> tuple[np.ndarray, np.ndarray]:
    """log(S_t/S0) for every price column, and the dense net's features of
    each day t < n_days as xs[t] [n, n_features]: log(S_t/S0), t/T, the
    previous delta (column 2, the rollout's to fill in), and optionally the
    one-day relative change and the classifier label. None reads a mask."""
    n, n_steps = prices.shape[0], prices.shape[1] - 1
    logp = np.log(prices / s0)
    xs = np.empty((n_days, n, cfg.n_features))
    xs[:, :, 0] = logp[:, :n_days].T
    xs[:, :, 1] = (np.arange(n_days) / n_steps)[:, None]
    if cfg.use_change:
        xs[1:, :, 3] = _daily_moves(prices[:, :n_days]).T
        xs[:1, :, 3] = 0.0
    if cfg.use_label:
        if labels is None:
            raise ConfigurationError("policy expects a label feature but none was given")
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (n, n_steps):
            raise ShapeError(f"labels shape {labels.shape} != {(n, n_steps)}")
        xs[:, :, -1] = labels[:, :n_days].T
    return logp, xs


def _slab(ws: dict, key: str, days: int, n: int, width: int) -> np.ndarray:
    """ws[key], a [>= days, >= n, width] workspace whose day d holds a batch
    in rows :n; it is allocated again only for more days or rows."""
    slab = ws.get(key)
    if slab is None or slab.shape[0] < days or slab.shape[1] < n or slab.shape[2] != width:
        ws.pop(key, None)
        slab = ws[key] = np.empty((days, n, width))
    return slab


def _relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- max(x w' + b, 0), the products and sums of np.maximum(x @ w.T + b, 0.0)."""
    np.matmul(x, w.T, out=out)
    out += b
    return np.maximum(out, 0.0, out=out)


def _trade_ranks(mask: np.ndarray):
    """The trading cells of mask [n, days] (day 0 trades on every row) by
    trade rank, (ranks, at, pm): a path's k-th trade reads only its
    (k-1)-th trade's delta.

    ranks[k] = (sel, b, e) holds every path's k-th trade, rows ascending:
    sel picks their rows of an [n] array (a slice if every row), b:e their
    cell positions, which run rank by rank. at maps a position to the
    cell's index in a flattened [days, n] array, and pm to its index among
    the trading cells taken path by path. Where each day trades on every
    row or none, rank k is the k-th trading day's rows.
    """
    n, n_days = mask.shape
    count = mask.sum(axis=1)
    ranked = np.arange(count.max(initial=0))[:, None] < count  # [rank, path]
    slot = np.flatnonzero(ranked)  # rank * n + row, position by position
    rank = slot // n
    rows = slot - rank * n
    pm = (np.cumsum(count) - count)[rows] + rank
    edges = [0] + np.cumsum(ranked.sum(axis=1)).tolist()
    # flatnonzero(mask)[pm] = row * n_days + day, turned into day * n + row
    return [(slice(None) if e - b == n else rows[b:e], b, e) for b, e in zip(edges, edges[1:])], \
        (np.flatnonzero(mask)[pm] - rows * n_days) * n + rows, pm


def _frozen_sums(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each trading cell of mask [n, days] (day 0 trades on every row),
    taken path by path, the sum of g [n, days] over the frozen days after it
    up to the path's next trade or last day; 0.0 where there are none."""
    return np.add.reduceat(np.where(mask, 0.0, g).ravel(), np.flatnonzero(mask))


def _masked_rollout(p: dict, prefix: str, xs: np.ndarray, sig: np.ndarray,
                    mask: np.ndarray, cache: dict | None) -> np.ndarray:
    """Deltas [n, n_steps] of the masked carry prev <- where(mask[:, t], sig[t], prev).

    Days t < len(xs) run the dense net (blocks prefix + w1 ... b3 of p; p
    may be empty without such days) on their trading cells, with the
    previous delta filled in, and write its outputs to those cells of sig
    (C-contiguous [n_steps, n]); frozen cells skip it and hold 0.0, so no
    stale or NaN entry of an np.empty sig reaches _masked_adjoint's slope
    sig * (1 - sig) * mask. The later rows of sig arrive filled. The net
    runs once per trade rank (_trade_ranks), over every path's k-th trading
    cell gathered from xs; each trading cell's entry of sig is then held
    until the path's next trade, by one gather. Byte-stable, the bits of a
    day-by-day carry: the deltas where each dense day trades on every row or
    none (each rank is one such day's rows, in order), and every output of
    a GRU with window <= 3 (rank 1 is day 1's trading rows) or of the
    closed-form policy (no dense days). Under other masks a dense output
    depends on the rank grouping at about 1e-15 relative: OpenBLAS gives a
    product over one set of rows other last bits than over another.
    Rank k with m cells writes their x, h1 and h2 to rows :m of slab day k
    of "x", "h1" and "h2" [days, rows, width]. A cache keeps the slabs from
    call to call, with sig, the number of dense days and what _trade_ranks
    gives, for _masked_adjoint; without one, a one-day slab serves each rank.
    """
    w1, b1, w2, b2, w3, b3 = (p.get(prefix + k) for k in _DENSE)
    n, n_steps = mask.shape
    n_dense = len(xs)
    ranks, at, pm = _trade_ranks(mask[:, :n_dense])
    if n_dense:
        ws, held = ({}, 1) if cache is None else (cache, n_dense)
        slabs = [_slab(ws, key, held, n, width) for key, width in
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
        last[sel] = out[b:e] = nc.sigmoid(h2 @ w3.T + b3)[:, 0]
    flat_sig[at] = out
    if cache is not None:
        cache.update(sig=sig, dense_days=n_dense, ranks=(ranks, at, pm))
    # each trading cell's entry of sig, held until the path's next trade
    cells = np.flatnonzero(mask)
    days_held = np.diff(np.append(cells, mask.size))  # from each trading cell to the next
    return sig.T.ravel()[cells].repeat(days_held).reshape(n, n_steps)


def _masked_adjoint(g: np.ndarray, mask: np.ndarray, p: dict, prefix: str,
                    cache: dict) -> tuple[np.ndarray, dict]:
    """Reverse walk of _masked_rollout for upstream gradient g.

    A trading cell's sigmoid gets the sum of g over the days its delta is
    held, plus, if the path's next trade is a dense one, the net's gradient
    at that trade's prev-delta input (column 2 of w1). The days after the
    dense days are walked back one by one, then the trade ranks in reverse,
    each cell taking g[t] + (the sum of g over its frozen days
    (_frozen_sums) + carry). Where at most one frozen day follows, that is a
    day-by-day walk's g[t] + (g[t + 1] + carry), so the gradients are
    byte-stable where _masked_rollout's outputs are, unless two or more
    frozen dense days follow a trade (the grouping of the sum moves them by
    about 1e-16 relative); under other masks they depend on the rank
    grouping at about 1e-15 relative. sig holds 0.0 at frozen dense cells,
    so their slope is an exact zero.
    Returns the gradient at every day's sigmoid input [n_steps, n], whose
    later days feed their own adjoint, and the dense blocks' gradients.
    """
    w1_prev, w2, w3 = p[prefix + "w1"][:, 2], p[prefix + "w2"], p[prefix + "w3"][0]
    sig, n_dense, (ranks, at, pm) = (cache[k] for k in ("sig", "dense_days", "ranks"))
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
    tails = _frozen_sums(g[:, :n_dense], mask[:, :n_dense])[pm]
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


# what one GRU cell keeps for its adjoint, and its rows per batch row: [x, h]
# [n, in + hidden], the z gate stacked over the r gate [2n, hidden], [x, r h]
# and the candidate state
_CELL = ("xh", "zr", "xrh", "cand")
_CELL_ROWS = (1, 2, 1, 1)


def _cell_views(slabs, d: int, n: int) -> list:
    """Day d's arrays, for a batch of n rows, of one GRU layer's _CELL slabs."""
    return [slab[d, :k * n] for slab, k in zip(slabs, _CELL_ROWS)]


def _gru_cell(x, h, wz, bz, wr, br, wh, bh, saved):
    """One GRU step (Cho et al. 2014) on a batch: x [n, in], h [n, hidden].

    Returns h' = (1 - z) h + z tanh([x, r h] wh' + bh), with z, r the sigmoid
    gates of [x, h], and saved, the arrays in _CELL order that
    _gru_cell_adjoint reads, written in place.
    """
    n, nx = len(x), x.shape[1]
    xh, zr, xrh, cand = saved
    xh[:, :nx] = x
    xh[:, nx:] = h
    z, r = zr[:n], zr[n:]
    np.matmul(xh, wz.T, out=z)
    np.matmul(xh, wr.T, out=r)
    z += bz
    r += br
    nc.sigmoid(zr, out=zr)
    xrh[:, :nx] = x
    np.multiply(r, h, out=xrh[:, nx:])
    np.matmul(xrh, wh.T, out=cand)
    cand += bh
    np.tanh(cand, out=cand)
    return (1.0 - z) * h + z * cand, (xh, zr, xrh, cand)


def _gru_cell_adjoint(dh_new, saved, wz, wr, wh, input_grad=True):
    """Gradients of one _gru_cell step at dh_new = d/dh': (d/dx, or None
    without input_grad, d/dh, and the gate blocks in _GATES order)."""
    xh, zr, xrh, cand = saved
    n, nh = cand.shape
    nx = xh.shape[1] - nh
    z, r, h = zr[:n], zr[n:], xh[:, nx:]
    gz = dh_new * (cand - h) * z * (1.0 - z)
    gc = dh_new * z * (1.0 - cand * cand)
    dxrh = gc @ wh
    grh = dxrh[:, nx:]
    gr = grh * h * r * (1.0 - r)
    dxh = gz @ wz + gr @ wr
    dh = dh_new * (1.0 - z) + grh * r + dxh[:, nx:]
    blocks = (gz.T @ xh, gz.sum(axis=0), gr.T @ xh, gr.sum(axis=0),
              gc.T @ xrh, gc.sum(axis=0))
    return dxh[:, :nx] + dxrh[:, :nx] if input_grad else None, dh, blocks


class _Policy:
    """A delta policy: every delta it gives comes out of the one masked carry,
    _masked_rollout. A subclass gives only the carry's inputs that read no
    mask, _unmasked(prices, labels, cache) -> (prefix, xs, sig): the
    features xs of the days that run the dense net (blocks prefix + w1 ...
    b3 of params), and sig [n_steps, n], whose later rows hold the other
    days' targets."""

    def deltas(self, prices: np.ndarray, mask: np.ndarray, labels=None) -> np.ndarray:
        return self.remasker(prices, labels)(mask)

    def remasker(self, prices: np.ndarray, labels=None, cache: dict | None = None):
        """mask -> the deltas [n, n_steps] held on prices under mask. The work
        no mask reads is done once, here; each mask runs only the carry. A
        cache receives what the policy's _adjoint reads."""
        prefix, xs, sig = self._unmasked(prices, labels, cache)
        return lambda mask: _masked_rollout(
            self.params, prefix, xs, sig, check_mask(mask, *sig.shape[::-1]), cache)


class BSMPolicy(_Policy):
    """Closed-form delta policy; not trainable. Rebalances only on masked days."""

    arch = "bsm"

    def __init__(self, contract: ContractSpec, vol: float, dt: float):
        self.contract = contract
        self.vol = vol
        self.dt = dt
        self.params = {}

    def _unmasked(self, prices, labels, cache):
        """No dense days; every day's target is bs_delta(S_t, tau_t)."""
        targets = bsm_delta_matrix(prices, self.contract, self.vol, self.dt)
        return "", (), np.ascontiguousarray(targets.T)


class _NeuralPolicy(_Policy):
    """A trainable policy: config, parameter blocks and S0. A subclass gives
    _unmasked and _adjoint(g, mask, params, cache), the blocks' gradients in
    params order."""

    def __init__(self, config: PolicyConfig, params: dict[str, np.ndarray],
                 s0: float = 100.0):
        self.config = config
        self.params = params
        self.s0 = float(s0)

    @classmethod
    def init(cls, config: PolicyConfig, seed: int, s0: float = 100.0):
        """Fan-uniform weight matrices and zero biases, drawn in param_shapes order."""
        rng = np.random.default_rng(seed)
        params = {name: fan_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape)
                  for name, shape in param_shapes(config)}
        return cls(config, params, s0)

class DensePolicy(_NeuralPolicy):
    """Two-hidden-layer feedforward delta generator with sigmoid output in [0,1].

    Per-day features: log(S_t/S0), t/T, previous delta, and optionally the
    one-day relative change and the classifier label.
    """

    arch = "dense"
    # bound here, not only on _Policy, so the two architectures' evaluations
    # can be wrapped and timed apart (perfbench/tracer.py)
    deltas = _Policy.deltas

    def _unmasked(self, prices, labels, cache):
        """Every day runs the net; its features, and rows for its outputs."""
        _, xs = _dense_inputs(self.config, self.s0, prices, labels, prices.shape[1] - 1)
        return "", xs, np.empty(xs.shape[:2])

    def _adjoint(self, g, mask, p, cache):
        return _masked_adjoint(g, mask, p, "", cache)[1]


class GRUPolicy(_NeuralPolicy):
    """Stacked-GRU delta generator reading a rolling window of log prices.

    Days with an incomplete window (the first window-1 days) route through a
    small dense fallback using the same per-day features as DensePolicy; from
    then on the recurrent state advances every day and the trade mask only
    gates whether the output replaces the held delta.
    """

    arch = "gru"
    deltas = _Policy.deltas   # bound here for the same reason as DensePolicy's

    def _unmasked(self, prices, labels, cache):
        """The first window-1 days' dense features, and the later days' GRU
        outputs (the cells read no mask and no delta)."""
        n_fb = self._fallback_days(prices.shape[1] - 1)
        logp, xs = _dense_inputs(self.config, self.s0, prices, labels, n_fb)
        return "fb_", xs, self._recurrent_rows(logp, n_fb, cache)

    def _fallback_days(self, n_steps: int) -> int:
        """How many of n_steps days run the dense fallback: window - 1 at most."""
        return min(self.config.window - 1, n_steps)

    def _recurrent_rows(self, logp, n_fb, cache=None):
        """sig [n_steps, n] whose rows t >= n_fb hold the head output of day t;
        the stacked cells read only windows of logp [n, n_steps + 1], never a
        mask or a delta. Rows t < n_fb are left to the fallback days. Each
        cell writes what _gru_cell keeps to its day's _cell_views of the slabs
        f"l{layer}_{name}" for each name of _CELL, and the top layer's state
        to rows :n of "top". A cache keeps the slabs for _adjoint; without one, a one-day
        slab serves each day."""
        cfg, p = self.config, self.params
        n, nh = len(logp), cfg.gru_hidden
        sig = np.empty((logp.shape[1] - 1, n))
        ws, held = ({}, 1) if cache is None else (cache, len(sig) - n_fb)
        cells = [[_slab(ws, f"l{i + 1}_{name}", held, k * n, width) for name, k, width
                  in zip(_CELL, _CELL_ROWS, (nx + nh, nh, nx + nh, nh))]
                 for i, nx in enumerate([cfg.window] + [nh] * (cfg.gru_layers - 1))]
        top = _slab(ws, "top", held, n, nh)
        states = [np.zeros((n, nh))] * cfg.gru_layers
        for t in range(n_fb, len(sig)):
            d = 0 if cache is None else t - n_fb
            x = logp[:, t - cfg.window + 1: t + 1]
            for i, slabs in enumerate(cells):
                states[i] = x = _gru_cell(x, states[i],
                                          *(p[f"l{i + 1}_{k}"] for k in _GATES),
                                          _cell_views(slabs, d, n))[0]
            top[d, :n] = x
            sig[t] = nc.sigmoid(x @ p["head_w"].T + p["head_b"])[:, 0]
        return sig

    def _adjoint(self, g, mask, p, cache):
        """The masked walk, then backpropagation through time over the GRU
        days, fed by their head gradients (the cells read no carried delta;
        the first layer's input, a window of log prices, gets no gradient)."""
        ga, grads = _masked_adjoint(g, mask, p, "fb_", cache)
        ga = ga[self._fallback_days(len(ga)):]
        grads = {k: grads[k] if k in grads else np.zeros_like(v) for k, v in p.items()}
        n, top = len(g), cache["top"]
        cells = [[cache[f"l{i + 1}_{name}"] for name in _CELL]
                 for i in range(self.config.gru_layers)]
        dstate = [0.0] * self.config.gru_layers
        for t in reversed(range(len(ga))):
            grads["head_w"] += ga[t] @ top[t, :n]
            dx = np.multiply.outer(ga[t], p["head_w"][0])
            for i in reversed(range(len(cells))):
                names = [f"l{i + 1}_{k}" for k in _GATES]
                dx, dstate[i], blocks = _gru_cell_adjoint(
                    dx + dstate[i], _cell_views(cells[i], t, n),
                    *(p[k] for k in names[::2]), input_grad=i > 0)
                for name, block in zip(names, blocks):
                    grads[name] += block
        grads["head_b"] = ga.sum().reshape(1)
        return grads


def make_policy(config: PolicyConfig, seed: int, s0: float = 100.0):
    """A freshly initialised trainable policy of the configured architecture."""
    return (DensePolicy if config.arch == "dense" else GRUPolicy).init(config, seed, s0)


# ---------------------------------------------------------------------------
# training / evaluation
# ---------------------------------------------------------------------------

def episode_loss_node(tape: Tape, policy, prices: np.ndarray, mask: np.ndarray,
                      contract: ContractSpec, cost: CostModel,
                      labels=None, cache=None) -> np.ndarray:
    """Record the rollout, whose vjp is the policy's hand-written adjoint
    reading what it keeps in cache (see batch_objective) or a new dict, then
    the per-path termination loss [n] of the batch, episode_results(...).loss.

    With cash_t = (D_t - D_{t-1}) S_t,
    dL/dD_t = (S_{t+1} - S_t) - c sign(cash_t) S_t + c sign(cash_{t+1}) S_{t+1},
    the last term absent on the final day; sign(0) = 0, a zero subgradient.
    """
    cache, p = {} if cache is None else cache, dict(policy.params)
    deltas = tape.record(policy.remasker(prices, labels, cache)(mask),
                         lambda g: policy._adjoint(g, mask, p, cache))
    loss, buy_sell, *_ = _loss_and_cash(prices, deltas, contract, cost)
    sgn = np.sign(buy_sell)
    dloss = np.diff(prices, axis=1) - cost.rate * sgn * prices[:, :-1]
    dloss[:, :-1] += cost.rate * sgn[:, 1:] * prices[:, 1:-1]
    return tape.record(loss, lambda g: g[:, None] * dloss)


def batch_objective(policy, prices: np.ndarray, mask: np.ndarray,
                    contract: ContractSpec, cost: CostModel, risk_aversion: float,
                    labels=None, cache=None) -> tuple[float, dict[str, np.ndarray]]:
    """The entropic risk of the batch's termination losses under policy, and
    its gradient in each of policy.params: the one Tape in the package,
    recorded as rollout, loss, risk and composed back in reverse.

    A loop over batches passes them all one cache dict. Its slabs hold one
    batch's rollout state (about 4 MB dense and 8 MB GRU at 256 paths),
    allocated by the first batch or a larger one, and each batch writes its
    state over the last one's in place: the state is held once, and is not
    handed back to the OS and faulted in at every batch.
    """
    # perfbench/tracer.py times each step by rebinding its module-level name
    tape = Tape()
    loss = episode_loss_node(tape, policy, prices, mask, contract, cost,
                             labels=labels, cache=cache)
    objective = tape_entropy_risk(tape, loss, risk_aversion)
    return objective, tape.backward()


@dataclass
class TrainingLog:
    train_objective: list[float] = field(default_factory=list)  # per-epoch mean batch risk
    val_objective: list[float] = field(default_factory=list)
    best_epoch: int = -1


def evaluate_policy(paths: PathSet, policy, mask: np.ndarray,
                    contract: ContractSpec, cost: CostModel,
                    labels=None) -> HedgeEpisodeResult:
    """Pure evaluation pass: the per-path results of policy's deltas on paths
    under mask. No command calls it; like DensePolicy.deltas, it is kept so
    that perfbench/tracer.py can wrap and time a policy's evaluation."""
    return episode_results(paths.prices, policy.deltas(paths.prices, mask, labels=labels),
                           contract, cost)


def train_policy(train_paths: PathSet, contract: ContractSpec, cost: CostModel,
                 risk: RiskConfig, policy_cfg: PolicyConfig, mask: np.ndarray,
                 train_cfg: TrainConfig, labels=None):
    """Minimize the entropic risk of the termination loss by mini-batch Adam.

    The leading (1 - val_fraction) block of paths trains; the trailing block
    is a validation set scored after every epoch, and the parameters with the
    best validation objective are the ones returned. Deterministic given the
    seeds in train_cfg / policy init.
    """
    prices = train_paths.prices
    n = train_paths.n_paths
    check_mask(mask, n, train_paths.n_steps)
    policy = make_policy(policy_cfg, seed=train_cfg.seed, s0=train_paths.s0)
    n_val = int(round(n * train_cfg.val_fraction))
    n_train = n - n_val
    if n_train < 1:
        raise ConfigurationError(f"no training paths left after split ({n} total)")
    lab = None if labels is None else np.asarray(labels)
    adam = AdamState.for_params(policy.params, lr=train_cfg.lr)
    rng = np.random.default_rng(np.uint64(train_cfg.seed) ^ np.uint64(0x5EED5EED))
    log = TrainingLog()
    best_val = math.inf
    best_params = {k: v.copy() for k, v in policy.params.items()}
    cache = {}

    def validation_objective() -> float:
        if n_val == 0:
            sel = slice(0, n_train)
        else:
            sel = slice(n_train, n)
        deltas = policy.deltas(prices[sel], mask[sel],
                               labels=None if lab is None else lab[sel])
        res = episode_results(prices[sel], deltas, contract, cost)
        return entropy_risk(res.loss, risk)

    for epoch in range(train_cfg.epochs):
        order = rng.permutation(n_train)
        batch_objectives = []
        for start in range(0, n_train, train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            objective, grads = batch_objective(
                policy, prices[idx], mask[idx], contract, cost, risk.risk_aversion,
                labels=None if lab is None else lab[idx], cache=cache)
            require_finite(objective, f"training objective (epoch {epoch})")
            for name, g in grads.items():
                require_finite(g, f"gradient of {name} (epoch {epoch})")
            adam_step(policy.params, grads, adam)
            batch_objectives.append(objective)
        val = validation_objective()
        log.train_objective.append(float(np.mean(batch_objectives)))
        log.val_objective.append(val)
        if val < best_val:
            best_val = val
            best_params = {k: v.copy() for k, v in policy.params.items()}
            log.best_epoch = epoch
    policy.params.update(best_params)
    return policy, log


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_policy(filename, policy) -> None:
    if policy.arch == "bsm":
        raise ConfigurationError("closed-form policy has no checkpointable state")
    meta = {**asdict(policy.config), "s0": policy.s0}
    del meta["arch"]
    container.save(filename, "checkpoint", policy.params, meta, tag=policy.arch)


def load_policy(filename):
    """Restore a checkpoint whose parameter blocks have the names and shapes
    param_shapes gives for the stored architecture and config; they are
    compared before anything is allocated for what the header claims."""
    arch, meta, params = container.load(filename, "checkpoint")
    try:
        settings = {f.name: meta[f.name] for f in fields(PolicyConfig)
                    if f.name != "arch"}
        config = PolicyConfig(arch=arch, **settings)
        # one block past the file's count is enough to tell a longer list
        expected = dict(itertools.islice(param_shapes(config), len(params) + 1))
        s0 = float(meta["s0"])
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise IntegrityError(f"{filename}: bad checkpoint header ({exc!r})") from exc
    found = {k: v.shape for k, v in params.items()}
    if found != expected:
        raise IntegrityError(f"{filename}: parameter blocks {found} do not "
                             f"match a {arch} policy's {expected}")
    return (DensePolicy if arch == "dense" else GRUPolicy)(config, params, s0)
