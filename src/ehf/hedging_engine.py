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
from typing import NamedTuple

import numpy as np

from .analytics_bsm import ContractSpec, bsm_delta_matrix
from .errors import (ConfigurationError, DomainError, IntegrityError, ShapeError,
                     check_count, check_real, check_seed)
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
        check_real(self.rate, "cost rate", DomainError, 0)


@dataclass(frozen=True)
class RiskConfig:
    """Entropic risk parameter; rho(L) = (1/lambda) log E[exp(-lambda L)]."""

    risk_aversion: float

    def __post_init__(self):
        check_real(self.risk_aversion, "risk aversion", DomainError, 0, ends="()")


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
        for name in ("hidden", "gru_hidden", "gru_layers", "window"):
            check_count(getattr(self, name), name, ConfigurationError)

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
        check_count(self.epochs, "epochs", ConfigurationError)
        check_count(self.batch_size, "batch_size", ConfigurationError)
        check_real(self.val_fraction, "val_fraction", ConfigurationError, 0, 1, "[)")
        check_real(self.lr, "learning rate", ConfigurationError, 0, ends="()")
        check_seed(self.seed, "training seed", ConfigurationError)


# ---------------------------------------------------------------------------
# trade masks
# ---------------------------------------------------------------------------

def _daily_moves(prices: np.ndarray) -> np.ndarray:
    """One-day relative moves S_t/S_{t-1} - 1: [n, width - 1] for [n, width] prices."""
    return prices[:, 1:] / prices[:, :-1] - 1.0


def move_table(prices: np.ndarray) -> np.ndarray:
    """All that a trade mask reads of [n, n_steps + 1] prices: the absolute
    one-day relative moves |S_t/S_{t-1} - 1| into days 1 .. n_steps - 1,
    [n, n_steps - 1]. A sweep builds it once and each alpha's mask from it."""
    return np.abs(_daily_moves(prices[:, :-1]))


def table_mask(moves: np.ndarray, alpha: float) -> np.ndarray:
    """Boolean [n, width + 1] for a move table [n, width]: True on day 0 and
    whenever the move into day t exceeds alpha."""
    check_real(alpha, "alpha", DomainError, 0)
    mask = np.empty((len(moves), moves.shape[1] + 1), dtype=bool)
    mask[:, 0] = True
    np.greater(moves, alpha, out=mask[:, 1:])
    return mask


def compute_trade_mask(paths: PathSet, alpha: float) -> np.ndarray:
    """Boolean [n_paths, n_steps]: the table_mask of the paths' move_table."""
    return table_mask(move_table(paths.prices), alpha)


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


@dataclass(frozen=True)
class PriceTerms:
    """What an episode's loss reads of the prices [n, n_steps + 1] alone."""

    moves: np.ndarray   # [n, n_steps] S_{t+1} - S_t
    entry: np.ndarray   # [n, n_steps] S_t, the price each day trades at
    payoff: np.ndarray  # [n] max(S_T - K, 0)


@dataclass(frozen=True)
class HedgeTerms:
    """What an episode's loss reads of the deltas [n, n_steps] at no cost rate."""

    cash: np.ndarray          # [n, n_steps] signed cash traded, (D_t - D_{t-1}) S_t
    abs_cash: np.ndarray      # [n, n_steps] |cash|
    pnl: np.ndarray           # [n] sum_t D_t (S_{t+1} - S_t)
    trade_counts: np.ndarray  # [n] days with a nonzero position change


def price_terms(prices: np.ndarray, contract: ContractSpec) -> PriceTerms:
    """The prices' part of every loss on them, built once for any deltas."""
    prices = np.asarray(prices, dtype=np.float64)
    if prices.ndim != 2 or contract.maturity_steps != prices.shape[1] - 1:
        raise ShapeError(f"contract maturity {contract.maturity_steps} does not fit "
                         f"prices {prices.shape}")
    return PriceTerms(moves=np.diff(prices, axis=1), entry=prices[:, :-1],
                      payoff=np.maximum(prices[:, -1] - contract.strike, 0.0))


def hedge_terms(terms: PriceTerms, deltas: np.ndarray) -> HedgeTerms:
    """The deltas' part of every loss on the prices of terms, built once for
    any cost rate. A day's position change D_t - D_{t-1} (D_{-1} = 0) is
    the bits of np.diff(deltas, axis=1, prepend=0.0)."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != terms.moves.shape:
        raise ShapeError(f"deltas {deltas.shape} do not fit prices of "
                         f"{terms.moves.shape[0]} paths and {terms.moves.shape[1]} days")
    steps = np.empty_like(deltas)
    steps[:, 0] = deltas[:, 0]
    np.subtract(deltas[:, 1:], deltas[:, :-1], out=steps[:, 1:])
    trade_counts = np.count_nonzero(steps, axis=1)
    cash = np.multiply(steps, terms.entry, out=steps)
    return HedgeTerms(cash=cash, abs_cash=np.abs(cash),
                      pnl=np.sum(deltas * terms.moves, axis=1), trade_counts=trade_counts)


def costed_results(terms: PriceTerms, hedge: HedgeTerms,
                   cost: CostModel) -> HedgeEpisodeResult:
    """The per-path results of hedge at cost's rate: only the cost sum and
    the loss's two subtractions depend on it."""
    total_cost = (cost.rate * hedge.abs_cash).sum(axis=1)
    return HedgeEpisodeResult(loss=hedge.pnl - total_cost - terms.payoff,
                              trade_counts=hedge.trade_counts, total_cost=total_cost)


def episode_results(prices: np.ndarray, deltas: np.ndarray,
                    contract: ContractSpec, cost: CostModel) -> HedgeEpisodeResult:
    """Vectorized termination-loss accounting for a batch of paths: the
    prices' part, the deltas' part and the cost rate's, in turn."""
    terms = price_terms(prices, contract)
    return costed_results(terms, hedge_terms(terms, deltas), cost)


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
    """log(S_t/S0) for every price column, day-major [n_steps + 1, n], and the
    dense net's features of each day t < n_days as xs[t] [n, n_features]:
    log(S_t/S0), t/T, the previous delta (column 2, the rollout's to fill
    in), and optionally the one-day relative change and the classifier
    label. None reads a mask."""
    n, n_steps = prices.shape[0], prices.shape[1] - 1
    logp = np.log(np.divide(prices.T, s0, order="C"))
    xs = np.empty((n_days, n, cfg.n_features))
    xs[:, :, 0] = logp[:n_days]
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


def _slab(ws: dict, key: str, shape: tuple) -> np.ndarray:
    """ws[key] as a C-contiguous array of shape: a view of the first entries
    of one flat workspace, which is allocated again only for a larger shape."""
    size = math.prod(shape)
    flat = ws.pop(key).base if key in ws else None
    if flat is None or flat.size < size:
        del flat   # the old workspace goes before the new one comes
        flat = np.empty(size)
    ws[key] = slab = flat[:size].reshape(shape)
    return slab


def _relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- max(x w' + b, 0), the products and sums of np.maximum(x @ w.T + b, 0.0)."""
    np.matmul(x, w.T, out=out)
    out += b
    return np.maximum(out, 0.0, out=out)


def _trade_ranks(mask: np.ndarray, cells: np.ndarray):
    """The trading cells of mask [n, days] (day 0 trades on every row), given
    as cells = np.flatnonzero(mask), by trade rank, (ranks, at, pm): a
    path's k-th trade reads only its (k-1)-th trade's delta.

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
    # cells[pm] = row * n_days + day, turned into day * n + row
    return [(slice(None) if e - b == n else rows[b:e], b, e) for b, e in zip(edges, edges[1:])], \
        (cells[pm] - rows * n_days) * n + rows, pm


class CarrySchedule(NamedTuple):
    """What the masked carry reads of a mask [n, n_steps] whose first
    n_dense days run the dense net: the trading cells (np.flatnonzero of
    the mask), each one's hold length (the days to the path's next trading
    cell or the episode's end), the dense days' trading cells, and what
    _trade_ranks gives of those. Policies with as many dense days share it."""

    cells: np.ndarray
    days_held: np.ndarray
    dense_cells: np.ndarray
    ranks: list
    at: np.ndarray
    pm: np.ndarray


def carry_schedule(mask: np.ndarray, n_dense: int) -> CarrySchedule:
    """The CarrySchedule of mask when its first n_dense days run the dense net."""
    cells = np.flatnonzero(mask)
    dense_cells = cells if n_dense == mask.shape[1] else np.flatnonzero(mask[:, :n_dense])
    return CarrySchedule(cells, np.diff(np.append(cells, mask.size)), dense_cells,
                         *_trade_ranks(mask[:, :n_dense], dense_cells))


def _frozen_sums(g: np.ndarray, mask: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """For each trading cell of mask [n, days] (day 0 trades on every row),
    taken path by path (cells = np.flatnonzero(mask)), the sum of g [n, days]
    over the frozen days after it up to the path's next trade or last day;
    0.0 where there are none."""
    return np.add.reduceat(np.where(mask, 0.0, g).ravel(), cells)


def _masked_rollout(p: dict, prefix: str, xs: np.ndarray, sig: np.ndarray,
                    mask: np.ndarray, cache: dict | None, schedule: CarrySchedule,
                    day0: list | None = None) -> np.ndarray:
    """Deltas [n, n_steps] of the masked carry prev <- where(mask[:, t], sig[t], prev).

    Days t < len(xs) run the dense net (blocks prefix + w1 ... b3 of p; p
    may be empty without such days) on their trading cells, with the
    previous delta filled in, and write its outputs to those cells of sig
    (C-contiguous [n_steps, n]); frozen cells skip it and hold 0.0, so no
    stale or NaN entry of an np.empty sig reaches _masked_adjoint's slope
    sig * (1 - sig) * mask. The later rows of sig arrive filled. The net
    runs once per trade rank of mask's carry_schedule, over every path's
    k-th trading cell gathered from xs; each trading cell's entry of sig is
    then held until the path's next trade, by one gather. Byte-stable, the
    bits of a day-by-day carry: the deltas where each dense day trades on
    every row or none (each rank is one such day's rows, in order), and
    every output of a GRU with window <= 3 (rank 1 is day 1's trading rows)
    or of the closed-form policy (no dense days). Under other masks a dense
    output depends on the rank grouping at about 1e-15 relative: OpenBLAS
    gives a product over one set of rows other last bits than over another.
    Rank 0 is day 0 on every row, with a zero previous delta, under every
    mask: a list day0 keeps its outputs from the first call that runs it
    and gives them to the later ones. Rank k with m cells writes their x, h1
    and h2 to rows :m of slab day k of "x", "h1" and "h2" [days, n, width].
    A cache keeps the slabs from call to call, with sig, the number of
    dense days and the schedule, for _masked_adjoint; without one, a
    one-day slab serves each rank. The biases are spread over the batch
    once per call, as _gru_blocks does, and the head's sigmoid writes into
    rows allocated once, so that a rank allocates little.
    """
    w1, b1, w2, b2, w3, b3 = (p.get(prefix + k) for k in _DENSE)
    n, n_steps = mask.shape
    n_dense = len(xs)
    ranks, at = schedule.ranks, schedule.at
    flat_sig = sig.reshape(-1)
    sig[:n_dense] = 0.0
    out = np.empty(len(at))  # by cell position
    if ranks:
        ws, held = ({}, 1) if cache is None else (cache, n_dense)
        x_slab, h1_slab, h2_slab = (_slab(ws, key, (held, n, width)) for key, width in
                                    (("x", xs.shape[2]), ("h1", len(w1)), ("h2", len(w2))))
        flat_xs = xs.reshape(-1, xs.shape[2])
        b1, b2 = (np.repeat(b[None], n, axis=0) for b in (b1, b2))
        head, work = np.empty((2, n, 1))
        last = np.zeros(n)  # each path's delta after its latest trade so far
    for k, (sel, b, e) in enumerate(ranks):
        if k == 0 and day0:
            last[:] = out[:e] = day0[0]
            continue
        m, slot = e - b, k if cache is not None else 0
        x, h1, h2, z = x_slab[slot, :m], h1_slab[slot, :m], h2_slab[slot, :m], head[:m]
        flat_xs.take(at[b:e], axis=0, out=x, mode="clip")  # unbuffered; at is in range
        x[:, 2] = last[sel]
        _relu_layer(x, w1, b1[:m], h1)
        _relu_layer(h1, w2, b2[:m], h2)
        np.matmul(h2, w3.T, out=z)
        z += b3
        last[sel] = out[b:e] = nc.sigmoid(z, out=z, work=work[:m])[:, 0]
        if k == 0 and day0 is not None:
            day0.append(out[:e].copy())
    flat_sig[at] = out
    if cache is not None:
        cache.update(sig=sig, dense_days=n_dense, schedule=schedule)
    # each trading cell's entry of sig, held until the path's next trade
    return sig.T.ravel()[schedule.cells].repeat(schedule.days_held).reshape(n, n_steps)


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
    later days feed their own adjoint, and the dense blocks' gradients. The
    head's weights are spread over the batch once per call, so that its
    outer product with a rank's gradients is a plain multiply.
    """
    w1_prev, w2, w3 = p[prefix + "w1"][:, 2], p[prefix + "w2"], p[prefix + "w3"][0]
    sig, n_dense, (_, _, cells, ranks, at, pm) = (
        cache[k] for k in ("sig", "dense_days", "schedule"))
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
    if ranks:   # (a GRU of window 1 has no dense day, and so no slab)
        x_slab, h1_slab, h2_slab = (cache[key] for key in ("x", "h1", "h2"))
        w3_rows = np.repeat(w3[None], n, axis=0)
        buf2, buf1 = np.empty((2, n, len(w2)))
    for k in reversed(range(len(ranks))):
        sel, b, e = ranks[k]
        m = e - b
        ga = slope[b:e]
        ga *= g_cells[b:e] + (tails[b:e] + carry[sel])
        x, h1, h2 = x_slab[k, :m], h1_slab[k, :m], h2_slab[k, :m]
        ga2 = np.multiply(ga[:, None], w3_rows[:m], out=buf2[:m])
        ga2 *= h2 > 0
        ga1 = np.matmul(ga2, w2, out=buf1[:m])
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


# one GRU layer's slabs, path-minor, day by day: its z, r and candidate gates
# stacked as [3 hidden, n] (z and r after their sigmoid, the candidate after
# its tanh; the reverse walk writes their gradients over them), r h, and its
# state, whose slab holds the zero state before the first day; their rows per
# day, in units of hidden
_CELL = ("gates", "rh", "state")
_CELL_ROWS = (3, 1, 1)


def _cell_views(ws: dict, layer: int, days: int, n: int, hidden: int) -> list:
    """Layer's _CELL slabs f"l{layer}_{name}" of ws for days days of an
    n-path batch, [days, rows, n] each (the state one day more)."""
    return [_slab(ws, f"l{layer}_{name}", (days + (name == "state"), k * hidden, n))
            for name, k in zip(_CELL, _CELL_ROWS)]


def _gru_blocks(p: dict, layer: int, n: int = 1) -> tuple:
    """Layer's gate blocks of p regrouped for path-minor cells: the z, r and
    candidate input weights stacked [3 hidden, in], their biases [3 hidden, n]
    (each repeated over n columns, so that a cell of n paths adds them
    without broadcasting), the z|r state weights [2 hidden, hidden] and the
    candidate's [hidden, hidden]."""
    w = [p[f"l{layer}_w{gate}"] for gate in "zrh"]
    nx = w[0].shape[1] - len(w[0])
    b = np.concatenate([p[f"l{layer}_b{gate}"] for gate in "zrh"])
    return (np.concatenate([wg[:, :nx] for wg in w]), np.repeat(b[:, None], n, axis=1),
            np.concatenate([wg[:, nx:] for wg in w[:2]]), w[2][:, nx:])


def _gru_cell(x, h, blocks, gates, rh, h_new):
    """One GRU step (Cho et al. 2014) on a batch, path-minor: x [in, n], h
    [hidden, n], blocks from _gru_blocks.

    Writes z, r and c = tanh(wx_c x + b_c + u_h (r h)) to gates [3 hidden, n]
    (z, r the sigmoid gates of wx x + b + u_zr h), r h to rh, and h' =
    h + z (c - h) to h_new, which it returns.
    """
    wx, b, u_zr, u_h = blocks
    nh = len(h)
    np.matmul(wx, x, out=gates)
    gates += b
    zr, c = gates[:2 * nh], gates[2 * nh:]
    zr += u_zr @ h
    nc.sigmoid(zr, out=zr)
    np.multiply(zr[nh:], h, out=rh)
    c += u_h @ rh
    np.tanh(c, out=c)
    np.subtract(c, h, out=h_new)
    h_new *= zr[:nh]
    h_new += h
    return h_new


def _gru_cell_adjoint(dh_new, gates, h, blocks, input_grad=True):
    """Reverse of one _gru_cell step at dh_new = d/dh' (which it may
    overwrite), h its input state: writes the gradients at the z, r and
    candidate pre-activations over gates, and returns (d/dx, or None without
    input_grad, d/dh)."""
    wx, _, u_zr, u_h = blocks
    nh = len(h)
    z, r, c = gates[:nh], gates[nh:2 * nh], gates[2 * nh:]
    a = dh_new * z
    dh = np.subtract(dh_new, a, out=dh_new)   # dh' (1 - z)
    t = c - h
    t *= a
    np.multiply(c, c, out=c)
    np.subtract(1.0, c, out=c)
    c *= a                                    # candidate: dh' z (1 - c^2)
    np.subtract(1.0, z, out=a)
    np.multiply(t, a, out=z)                  # z: dh' (c - h) z (1 - z)
    drh = u_h.T @ c
    np.multiply(drh, r, out=t)
    dh += t
    np.subtract(1.0, r, out=a)
    np.multiply(t, a, out=r)
    r *= h                                    # r: d(r h) h r (1 - r)
    dh += u_zr.T @ gates[:2 * nh]
    return wx.T @ gates if input_grad else None, dh


class _Policy:
    """A delta policy: every delta it gives comes out of the one masked carry,
    _masked_rollout. A subclass gives only the carry's inputs that read no
    mask, _unmasked(prices, labels, cache, shared) -> (prefix, xs, sig): the
    features xs of the days that run the dense net (blocks prefix + w1 ...
    b3 of params), and sig [n_steps, n], whose later rows hold the other
    days' targets; what of them reads no parameter it may keep in, or take
    from, the dict shared."""

    def deltas(self, prices: np.ndarray, mask: np.ndarray, labels=None) -> np.ndarray:
        return self.remasker(prices, labels)(mask)

    def remasker(self, prices: np.ndarray, labels=None, cache: dict | None = None,
                 shared: dict | None = None):
        """(mask, schedules=None) -> the deltas [n, n_steps] held on prices
        under mask. The work no mask reads is done once, here; each mask
        runs only the carry, and without a cache the dense net's day 0 runs
        for the first mask only. A cache receives what the policy's _adjoint
        reads. The remaskers of policies of one config and S0 on the same
        prices and labels may share a dict shared: the first puts what reads
        no parameter there (the dense features, and a dense policy's output
        rows), and the others use it. The calls of several remaskers with
        one mask may share a dict schedules: its carry_schedule for each
        number of dense days is built once."""
        shared = {} if shared is None else shared
        prefix, xs, sig = self._unmasked(prices, labels, cache, shared)
        day0 = [] if cache is None else None
        n_dense = len(xs)

        def deltas_at(mask: np.ndarray, schedules: dict | None = None) -> np.ndarray:
            check_mask(mask, *sig.shape[::-1])
            schedules = {} if schedules is None else schedules
            if n_dense not in schedules:
                schedules[n_dense] = carry_schedule(mask, n_dense)
            return _masked_rollout(self.params, prefix, xs, sig, mask, cache,
                                   schedules[n_dense], day0)

        return deltas_at


class BSMPolicy(_Policy):
    """Closed-form delta policy; not trainable. Rebalances only on masked days."""

    arch = "bsm"

    def __init__(self, contract: ContractSpec, vol: float, dt: float):
        self.contract = contract
        self.vol = vol
        self.dt = dt
        self.params = {}

    def _unmasked(self, prices, labels, cache, shared):
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

    def _unmasked(self, prices, labels, cache, shared):
        """Every day runs the net; its features, and rows for its outputs."""
        key = (self.config, self.s0)
        if key not in shared:
            _, xs = _dense_inputs(self.config, self.s0, prices, labels, prices.shape[1] - 1)
            shared[key] = "", xs, np.empty(xs.shape[:2])
        return shared[key]

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

    def _unmasked(self, prices, labels, cache, shared):
        """The first window-1 days' dense features, and the later days' GRU
        outputs (the cells read no mask and no delta)."""
        n_fb = self._fallback_days(prices.shape[1] - 1)
        key = (self.config, self.s0)
        if key not in shared:
            shared[key] = _dense_inputs(self.config, self.s0, prices, labels, n_fb)
        logp, xs = shared[key]
        return "fb_", xs, self._recurrent_rows(logp, n_fb, cache)

    def _fallback_days(self, n_steps: int) -> int:
        """How many of n_steps days run the dense fallback: window - 1 at most."""
        return min(self.config.window - 1, n_steps)

    def _recurrent_rows(self, logp, n_fb, cache=None):
        """sig [n_steps, n] whose rows t >= n_fb hold the head output of day t;
        the stacked cells read only windows of logp [n_steps + 1, n], never a
        mask or a delta. Rows t < n_fb are left to the fallback days. The
        cells run day by day, every layer of a day before the next day, on
        path-minor [rows, n] arrays; each writes its day's gates, r h and
        state to its layer's _cell_views slabs. The head's products go to
        their rows of sig day by day, and its bias and sigmoid run once over
        all days. A cache keeps the slabs, and logp as "logp", for _adjoint;
        without one, a one-day slab (two for the state, the day's input and
        output) serves each day."""
        cfg, p = self.config, self.params
        n, nh, w = logp.shape[1], cfg.gru_hidden, cfg.window
        sig = np.empty((len(logp) - 1, n))
        ws, held = ({}, 1) if cache is None else (cache, len(sig) - n_fb)
        layers = [(_gru_blocks(p, i, n), _cell_views(ws, i, held, n, nh))
                  for i in range(1, cfg.gru_layers + 1)]
        for _, (_, _, state) in layers:
            state[0] = 0.0
        for t in range(n_fb, len(sig)):
            d = t - n_fb
            x = logp[t - w + 1: t + 1]
            for blocks, (gates, rh, state) in layers:
                x = _gru_cell(x, state[d % len(state)], blocks, gates[d % held],
                              rh[d % held], state[(d + 1) % len(state)])
            np.matmul(p["head_w"], x, out=sig[t:t + 1])
        sig[n_fb:] += p["head_b"]
        nc.sigmoid(sig[n_fb:], out=sig[n_fb:])
        if cache is not None:
            cache["logp"] = logp
        return sig

    def _adjoint(self, g, mask, p, cache):
        """The masked walk, then backpropagation through time over the GRU
        days, fed by their head gradients (the cells read no carried delta;
        the first layer's input, a window of log prices, gets no gradient).
        The walk keeps each day's gate gradients in its slabs, and every
        weight and bias gradient is formed from them after it."""
        cfg = self.config
        ga, grads = _masked_adjoint(g, mask, p, "fb_", cache)
        ga = ga[self._fallback_days(len(ga)):]
        grads = {k: grads[k] if k in grads else np.zeros_like(v) for k, v in p.items()}
        (n_days, n), nh = ga.shape, cfg.gru_hidden
        blocks = [_gru_blocks(p, i) for i in range(1, cfg.gru_layers + 1)]
        slabs = [_cell_views(cache, i, n_days, n, nh) for i in range(1, cfg.gru_layers + 1)]
        top = slabs[-1][2][1:]
        grads["head_w"] = np.matmul(top, ga[:, :, None]).sum(axis=0).T
        grads["head_b"] = ga.sum().reshape(1)
        if not n_days:   # (a window longer than the episode has no GRU day)
            return grads
        dtop, dstate = p["head_w"].T * ga[:, None, :], [0.0] * len(slabs)
        for d in reversed(range(n_days)):
            dx = dtop[d]
            for i in reversed(range(len(slabs))):
                gates, _, state = slabs[i]
                dx += dstate[i]
                dx, dstate[i] = _gru_cell_adjoint(dx, gates[d], state[d], blocks[i],
                                                  input_grad=i > 0)
        # the first layer reads windows of log prices, each later one the
        # states of the layer below
        inputs = [np.lib.stride_tricks.sliding_window_view(
            cache["logp"], cfg.window, axis=0)[:n_days]] + \
            [state[1:].transpose(0, 2, 1) for _, _, state in slabs[:-1]]
        for i, ((gates, rh, state), x) in enumerate(zip(slabs, inputs), start=1):
            g_x = np.matmul(gates, x).sum(axis=0)
            g_h = np.concatenate((np.matmul(gates[:, :2 * nh], state[:-1].transpose(0, 2, 1)),
                                  np.matmul(gates[:, 2 * nh:], rh.transpose(0, 2, 1))),
                                 axis=1).sum(axis=0)
            g_b = gates.sum(axis=(0, 2))
            for j, gate in enumerate("zrh"):
                rows = slice(j * nh, (j + 1) * nh)
                grads[f"l{i}_w{gate}"] = np.concatenate((g_x[rows], g_h[rows]), axis=1)
                grads[f"l{i}_b{gate}"] = g_b[rows]
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
    terms = price_terms(prices, contract)
    hedge = hedge_terms(terms, deltas)
    sgn = np.sign(hedge.cash)
    dloss = terms.moves - cost.rate * sgn * terms.entry
    dloss[:, :-1] += cost.rate * sgn[:, 1:] * terms.entry[:, 1:]
    return tape.record(costed_results(terms, hedge, cost).loss, lambda g: g[:, None] * dloss)


def batch_objective(policy, prices: np.ndarray, mask: np.ndarray,
                    contract: ContractSpec, cost: CostModel, risk_aversion: float,
                    labels=None, cache=None) -> tuple[float, dict[str, np.ndarray]]:
    """The entropic risk of the batch's termination losses under policy, and
    its gradient in each of policy.params: the one Tape in the package,
    recorded as rollout, loss, risk and composed back in reverse.

    A loop over batches passes them all one cache dict. Its slabs hold one
    batch's rollout state (about 4 MB dense and 6 MB GRU at 256 paths),
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
