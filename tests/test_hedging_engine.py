"""Episode accounting, the entropic objective, trade masks, and training."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehf
from ehf import hedging_engine
from ehf.errors import DomainError, ShapeError
from ehf.hedging_engine import (DensePolicy, GRUPolicy, _dense_inputs,
                                _masked_adjoint, _masked_rollout, batch_objective,
                                carry_schedule, check_mask, combine_mask, costed_results,
                                entropy_risk, episode_loss_node, episode_results,
                                evaluate_policy, hedge_terms, price_terms,
                                tape_entropy_risk)
from ehf.neural_core import Tape, grad_check
import full_rollout
import rank_walk
from per_op_tape import PerOpTape, tape_gru
from per_op_tape import entropy_risk as per_op_entropy_risk


def _pathset(prices, s0=100.0):
    prices = np.asarray(prices, dtype=np.float64)
    return ehf.PathSet(prices, s0, np.arange(prices.shape[0]))


def _cash_and_costs(prices, deltas, contract, cost):
    """The signed cash traded and the cost (rate * |cash|) of each day."""
    cash = hedge_terms(price_terms(prices, contract), deltas).cash
    return cash, cost.rate * np.abs(cash)


# ---------------------------------------------------------------------------
# episode accounting
# ---------------------------------------------------------------------------

def test_episode_hand_computed():
    """3-day episode worked by hand: pnl 6, costs 0.82, payoff 15."""
    prices = np.array([[100.0, 110.0, 105.0, 115.0]])
    deltas = np.array([[0.5, 0.6, 0.4]])
    contract = ehf.ContractSpec(strike=100.0, maturity_steps=3)
    res = episode_results(prices, deltas, contract, ehf.CostModel(0.01))
    cash, costs = _cash_and_costs(prices, deltas, contract, ehf.CostModel(0.01))
    assert np.allclose(cash, [[50.0, 11.0, -21.0]])
    assert np.allclose(costs, [[0.50, 0.11, 0.21]])
    assert res.total_cost[0] == pytest.approx(0.82)
    assert res.trade_counts[0] == 3
    # pnl: 0.5*10 - 0.6*5 + 0.4*10 = 6; loss = 6 - 0.82 - 15
    assert res.loss[0] == pytest.approx(6.0 - 0.82 - 15.0)


def test_episode_zero_position_loses_payoff():
    prices = np.array([[100.0, 90.0, 130.0]])
    deltas = np.zeros((1, 2))
    contract = ehf.ContractSpec(strike=100.0, maturity_steps=2)
    res = episode_results(prices, deltas, contract, ehf.CostModel(0.05))
    assert res.loss[0] == -30.0
    assert res.total_cost[0] == 0.0
    assert res.trade_counts[0] == 0


def test_episode_out_of_money_zero_hedge_is_free():
    prices = np.array([[100.0, 95.0, 90.0]])
    res = episode_results(prices, np.zeros((1, 2)),
                              ehf.ContractSpec(100.0, 2), ehf.CostModel(0.05))
    assert res.loss[0] == 0.0


def test_cost_scales_linearly_in_rate():
    rng = np.random.default_rng(4)
    prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.03, size=(16, 31)), axis=1))
    deltas = rng.uniform(0, 1, size=(16, 30))
    contract = ehf.ContractSpec(100.0, 30)
    lo = episode_results(prices, deltas, contract, ehf.CostModel(0.02))
    hi = episode_results(prices, deltas, contract, ehf.CostModel(0.05))
    # identical up to one rounding: 0.05 = 2.5 * 0.02 only to the last ulp
    lo_costs = _cash_and_costs(prices, deltas, contract, ehf.CostModel(0.02))[1]
    hi_costs = _cash_and_costs(prices, deltas, contract, ehf.CostModel(0.05))[1]
    assert np.allclose(hi_costs, 2.5 * lo_costs, rtol=5e-16, atol=0)
    assert np.allclose(hi.total_cost, 2.5 * lo.total_cost, rtol=1e-16 * 30, atol=0)


def test_final_day_carries_no_liquidation_cost():
    """Costs are charged on position changes at t < n_steps only; holding to
    expiry settles the payoff without a closing trade."""
    prices = np.array([[100.0, 100.0, 200.0]])
    deltas = np.array([[1.0, 1.0]])
    res = episode_results(prices, deltas, ehf.ContractSpec(100.0, 2),
                              ehf.CostModel(0.05))
    # one trade on day 0 (buy 1 @ 100): cost 5; pnl 100; payoff 100
    assert res.trade_counts[0] == 1
    assert res.loss[0] == pytest.approx(100.0 - 5.0 - 100.0)


def _one_pass_results(prices, deltas, contract, rate):
    """(loss, trade counts, total cost) of the accounting as one formula,
    each term rebuilt per call: the reference for the split one."""
    steps = np.diff(deltas, axis=1, prepend=0.0)
    total_cost = (rate * np.abs(steps * prices[:, :-1])).sum(axis=1)
    pnl = np.sum(deltas * np.diff(prices, axis=1), axis=1)
    payoff = np.maximum(prices[:, -1] - contract.strike, 0.0)
    return pnl - total_cost - payoff, np.count_nonzero(steps, axis=1), total_cost


@given(st.floats(0.0, 0.06), st.booleans(), st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_split_accounting_gives_each_rates_results_bit_for_bit(gbm_small, alpha,
                                                              gated, seed):
    """The prices' part built once for the closed-form, dense and GRU
    deltas, the deltas' part once for each, and only the cost per rate:
    every rate's losses, trade counts and total costs equal episode_results'
    and the one-pass formula's bit for bit, under masks with and without
    gate labels."""
    prices, contract = gbm_small.prices, ehf.ContractSpec(100.0, 30)
    labels = ehf.label_matrix(gbm_small, 0.005) if gated else None
    mask = ehf.trade_mask(gbm_small, alpha, labels)
    terms = price_terms(prices, contract)
    policies = [ehf.BSMPolicy(contract, 0.2, 1 / 365)] + [
        _jittered(cls, ehf.PolicyConfig(arch=arch, hidden=6), seed)
        for arch, cls in (("dense", DensePolicy), ("gru", GRUPolicy))]
    for policy in policies:
        deltas = policy.deltas(prices, mask)
        hedge = hedge_terms(terms, deltas)
        for rate in (0.0, 0.02, 0.05):
            split = costed_results(terms, hedge, ehf.CostModel(rate))
            whole = episode_results(prices, deltas, contract, ehf.CostModel(rate))
            reference = _one_pass_results(prices, deltas, contract, rate)
            for name, value, other, ref in zip(
                    ("loss", "trade_counts", "total_cost"),
                    (split.loss, split.trade_counts, split.total_cost),
                    (whole.loss, whole.trade_counts, whole.total_cost), reference):
                assert np.array_equal(value, other), (policy.arch, rate, name)
                assert np.array_equal(value, ref), (policy.arch, rate, name)


def test_split_accounting_checks_shapes(contract):
    prices = np.full((2, 31), 100.0)
    with pytest.raises(ShapeError):
        price_terms(prices, ehf.ContractSpec(100.0, 29))
    with pytest.raises(ShapeError):
        hedge_terms(price_terms(prices, contract), np.zeros((2, 29)))


# ---------------------------------------------------------------------------
# entropic risk
# ---------------------------------------------------------------------------

def test_entropy_risk_constant_losses():
    risk = ehf.RiskConfig(risk_aversion=0.5)
    losses = np.full(100, -7.25)
    assert entropy_risk(losses, risk) == pytest.approx(7.25, abs=1e-12)


def test_entropy_risk_two_point_oracle():
    # L in {0, -1}: rho = ln((1 + e)/2) for lambda = 1
    risk = ehf.RiskConfig(risk_aversion=1.0)
    val = entropy_risk(np.array([0.0, -1.0]), risk)
    assert val == pytest.approx(np.log((1 + np.e) / 2), abs=1e-12)


def test_entropy_risk_small_lambda_is_negative_mean():
    rng = np.random.default_rng(1)
    losses = rng.normal(-10, 3, size=500)
    val = entropy_risk(losses, ehf.RiskConfig(risk_aversion=1e-8))
    assert val == pytest.approx(-losses.mean(), abs=1e-6)


def test_entropy_risk_jensen_bound():
    rng = np.random.default_rng(2)
    losses = rng.normal(0, 5, size=300)
    for lam in (0.1, 0.5, 1.0, 2.0):
        assert entropy_risk(losses, ehf.RiskConfig(lam)) >= -losses.mean() - 1e-12


def test_entropy_risk_monotone_in_aversion():
    rng = np.random.default_rng(3)
    losses = rng.normal(-5, 4, size=400)
    vals = [entropy_risk(losses, ehf.RiskConfig(lam))
            for lam in (0.1, 0.3, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(vals) > 0)


@given(st.floats(-50, 50), st.floats(0.05, 3.0))
@settings(max_examples=40, deadline=None)
def test_entropy_risk_cash_invariance(shift, lam):
    rng = np.random.default_rng(9)
    losses = rng.normal(-8, 4, size=200)
    risk = ehf.RiskConfig(lam)
    base = entropy_risk(losses, risk)
    shifted = entropy_risk(losses + shift, risk)
    assert shifted == pytest.approx(base - shift, abs=1e-10)


def test_entropy_risk_survives_extreme_losses():
    # max-shift keeps exp() in range even when lambda * loss is huge;
    # the worst outcome dominates: rho -> 4000 - ln 2
    val = entropy_risk(np.array([-4000.0, -3000.0]), ehf.RiskConfig(1.0))
    assert np.isfinite(val)
    assert val == pytest.approx(4000.0 - np.log(2), abs=1e-9)


def test_tape_entropy_risk_matches_plain():
    rng = np.random.default_rng(6)
    losses = rng.normal(-10, 3, size=64)
    # a chain whose first step hands the losses' gradient back as {"l": ...}
    tape = Tape()
    risk = tape_entropy_risk(tape, tape.record(losses, lambda g: {"l": g}), 0.5)
    assert risk == pytest.approx(
        entropy_risk(losses, ehf.RiskConfig(0.5)), abs=1e-12)
    # gradient: d rho / d L_i = -softmax(-lambda L)_i
    grads = tape.backward()
    w = np.exp(-0.5 * losses - np.max(-0.5 * losses))
    assert np.allclose(grads["l"], -w / w.sum(), atol=1e-12)
    # the fused node repeats the per-op recording's arithmetic exactly
    tape = PerOpTape()
    ref = per_op_entropy_risk(tape, tape.param("l", losses), 0.5)
    assert risk == ref.value
    assert np.array_equal(grads["l"], tape.backward(ref)["l"])


# ---------------------------------------------------------------------------
# trade masks and frequency
# ---------------------------------------------------------------------------

def test_mask_day0_and_threshold():
    paths = _pathset([[100.0, 102.0, 102.5, 101.0]])
    mask = ehf.compute_trade_mask(paths, 0.01)
    # day 0 forced; day 1 sees the 2% move; day 2 sees the 0.49% move
    assert mask.tolist() == [[True, True, False]]


def test_mask_alpha_zero_trades_everywhere():
    paths = _pathset([[100.0, 101.0, 100.5, 100.5]])
    mask = ehf.compute_trade_mask(paths, 0.0)
    # a strict threshold at zero still blocks the flat 100.5 -> 100.5 move
    assert mask.tolist() == [[True, True, True]]


@given(st.floats(0, 0.1), st.floats(0, 0.1))
@settings(max_examples=30, deadline=None)
def test_mask_monotone_in_alpha(a1, a2):
    rng = np.random.default_rng(12)
    prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.04, size=(8, 11)), axis=1))
    paths = _pathset(prices)
    lo, hi = min(a1, a2), max(a1, a2)
    m_lo = ehf.compute_trade_mask(paths, lo)
    m_hi = ehf.compute_trade_mask(paths, hi)
    assert np.all(m_lo | ~m_hi)  # m_hi is a subset of m_lo


def test_mask_rejects_negative_alpha(gbm_small):
    with pytest.raises(DomainError):
        ehf.compute_trade_mask(gbm_small, -0.01)


def test_check_mask_guards(gbm_small):
    good = ehf.compute_trade_mask(gbm_small, 0.02)
    assert check_mask(good, 64, 30) is good
    with pytest.raises(ShapeError):
        check_mask(good.astype(int), 64, 30)
    with pytest.raises(ShapeError):
        check_mask(good[:, :-1], 64, 30)
    bad = good.copy()
    bad[0, 0] = False
    with pytest.raises(DomainError):
        check_mask(bad, 64, 30)


def test_combine_mask_keeps_day0():
    paths = _pathset([[100.0, 103.0, 106.0, 109.0]])
    mask = ehf.compute_trade_mask(paths, 0.01)
    labels = np.array([[0, 0, 1]])
    combined = combine_mask(mask, labels)
    assert combined.tolist() == [[True, False, True]]


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_dense_policy_outputs_unit_interval(gbm_small, contract):
    policy = DensePolicy.init(ehf.PolicyConfig(arch="dense"), seed=3)
    mask = ehf.compute_trade_mask(gbm_small, 0.02)
    deltas = policy.deltas(gbm_small.prices, mask)
    assert deltas.shape == (64, 30)
    assert np.all((deltas >= 0) & (deltas <= 1))


def test_policy_freezes_on_masked_days(gbm_small):
    for arch, cls in (("dense", DensePolicy), ("gru", GRUPolicy)):
        policy = cls.init(ehf.PolicyConfig(arch=arch), seed=3)
        mask = ehf.compute_trade_mask(gbm_small, 0.03)
        deltas = policy.deltas(gbm_small.prices, mask)
        frozen = ~mask[:, 1:]
        assert np.array_equal(deltas[:, 1:][frozen], deltas[:, :-1][frozen]), arch


def test_remasker_gives_the_deltas_of_every_mask(gbm_small, contract):
    """A remasker's deltas equal deltas() bit for bit for each mask, whatever
    masks it ran before (it reuses its buffers between calls), and it checks
    each mask as deltas() does."""
    labels = ehf.label_matrix(gbm_small, 0.005)
    masks = [combine_mask(ehf.compute_trade_mask(gbm_small, a), labels)
             for a in (0.0, 0.02, 0.0, 0.01)]
    policies = [ehf.BSMPolicy(contract, 0.2, 1 / 365)] + [
        cls.init(ehf.PolicyConfig(arch=arch, window=4, use_label=True), seed=5)
        for arch, cls in (("dense", DensePolicy), ("gru", GRUPolicy))]
    for policy in policies:
        deltas_at = policy.remasker(gbm_small.prices, labels=labels)
        for mask in masks:
            assert np.array_equal(deltas_at(mask), policy.deltas(
                gbm_small.prices, mask, labels=labels)), policy.arch
        with pytest.raises(DomainError):
            deltas_at(np.zeros_like(masks[0]))


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
def test_cache_free_remaskers_give_fresh_deltas_at_every_alpha(heston_small, gated):
    """Two dense policies and a GRU share their remaskers' parameter-free
    inputs and, for each alpha of the desk grid, one dict of carry
    schedules; each remasker runs its dense net's day 0 for the first mask
    only. Every alpha's deltas still equal a fresh policy.deltas bit for
    bit: the dense policies' on every day, the GRU's on its fallback days
    and on its recurrent ones."""
    paths = heston_small.take(0, 96)
    labels = ehf.label_matrix(paths, 0.01) if gated else None
    dense_cfg = ehf.PolicyConfig(arch="dense", hidden=8)
    policies = [_jittered(DensePolicy, dense_cfg, 1), _jittered(DensePolicy, dense_cfg, 2),
                _jittered(GRUPolicy, ehf.PolicyConfig(arch="gru", hidden=8), 3)]
    shared = {}
    walks = [policy.remasker(paths.prices, shared=shared) for policy in policies]
    assert len(shared) == 2   # the dense policies' one entry, and the GRU's
    for alpha in np.linspace(0.0, 0.2, 21):
        mask, schedules = ehf.trade_mask(paths, alpha, labels), {}
        for policy, deltas_at in zip(policies, walks):
            assert np.array_equal(deltas_at(mask, schedules),
                                  policy.deltas(paths.prices, mask)), (policy.arch, alpha)
        # one for the GRU's fallback days, one for the dense policies' days
        assert sorted(schedules) == [(2, False), (30, False)]


class _KeepingTape(Tape):
    """A Tape that also keeps each recorded value."""

    def __init__(self):
        super().__init__()
        self.values = []

    def record(self, value, vjp):
        self.values.append(value)
        return super().record(value, vjp)


def test_plain_and_tape_forwards_agree(gbm_small, contract):
    """Recording a batch takes two steps: the rollout, which holds the plain
    deltas bit for bit, and the loss, which is episode_results' loss."""
    cost = ehf.CostModel(0.02)
    mask = ehf.compute_trade_mask(gbm_small, 0.01)
    for arch, cls in (("dense", DensePolicy), ("gru", GRUPolicy)):
        policy = cls.init(ehf.PolicyConfig(arch=arch), seed=5)
        plain = policy.deltas(gbm_small.prices, mask)
        tape = _KeepingTape()
        loss = episode_loss_node(tape, policy, gbm_small.prices, mask, contract, cost)
        assert len(tape._nodes) == len(tape.values) == 2, arch
        assert np.array_equal(plain, tape.values[0]), arch
        res = episode_results(gbm_small.prices, plain, contract, cost)
        assert np.array_equal(loss, res.loss), arch


def _per_op_deltas(tape, policy, prices, mask, labels):
    """Reference: the policy's rollout recorded op by op, one node per day.

    Dense days run the dense net: every day of a DensePolicy, the first
    window-1 days of a GRUPolicy (its fb_ blocks). As in the package, the
    net runs once per trade rank k, over the k-th trading day among the
    dense days of every path that has one (rows ascending, gathered), with
    the delta of that path's previous trade filled in; a dense day's
    trading rows then take their rank's output, and its frozen rows hold
    their delta. The GRU's later days run path-minor tape_gru cells over the
    window of log prices, then the sigmoid head.
    """
    cfg = policy.config
    n, n_steps = mask.shape
    logp = np.log(prices / policy.s0)
    change = np.zeros_like(prices)
    change[:, 1:] = prices[:, 1:] / prices[:, :-1] - 1.0
    prm = {k: tape.param(k, v) for k, v in policy.params.items()}
    gru = policy.arch == "gru"
    pre, n_dense = ("fb_", min(cfg.window - 1, n_steps)) if gru else ("", n_steps)
    # rank[p, t]: how many trades path p made on dense days before t, if it trades at t
    rank = np.where(mask[:, :n_dense], np.cumsum(mask[:, :n_dense], axis=1) - 1, -1)
    last = tape.const(np.zeros(n))  # each path's delta after its latest rank
    outputs = []  # per rank: its outputs at its rows, 0.0 at the others [n]
    for k in range(rank.max() + 1 if n_dense else 0):
        rows, days = np.nonzero(rank == k)
        cols = [tape.const(logp[rows, days]), tape.const(days / n_steps),
                tape.take_rows(last, rows)]
        if cfg.use_change:
            cols.append(tape.const(change[rows, days]))
        if cfg.use_label:
            cols.append(tape.const(labels[rows, days]))
        x = tape.hstack(cols)
        h1 = tape.relu(tape.add_row(tape.matmul(x, prm[pre + "w1"]), prm[pre + "b1"]))
        h2 = tape.relu(tape.add_row(tape.matmul(h1, prm[pre + "w2"]), prm[pre + "b2"]))
        raw = tape.squeeze_col(tape.sigmoid(tape.add_row(
            tape.matmul(h2, prm[pre + "w3"]), prm[pre + "b3"])))
        outputs.append(tape.put_rows(raw, rows, n))
        last = tape.where(np.isin(np.arange(n), rows), outputs[-1], last)
    logp_days = np.ascontiguousarray(logp.T)  # the cells run path-minor
    states = [tape.const(np.zeros((cfg.gru_hidden, n)))] * cfg.gru_layers
    prev = tape.const(np.zeros(n))
    nodes = []
    for t in range(n_steps):
        if t < n_dense:
            raw = tape.const(np.zeros(n))
            for k in np.unique(rank[:, t][mask[:, t]]):
                raw = tape.where(rank[:, t] == k, outputs[k], raw)
        else:
            x = tape.const(logp_days[t - cfg.window + 1: t + 1])
            for i in range(cfg.gru_layers):
                gates = (prm[f"l{i + 1}_{k}"] for k in ("wz", "bz", "wr", "br", "wh", "bh"))
                states[i] = x = tape_gru(tape, x, states[i], *gates)
            raw = tape.part(tape.sigmoid(tape.add_col(
                tape.mm(prm["head_w"], x), prm["head_b"])), 0)
        prev = tape.where(mask[:, t], raw, prev)
        nodes.append(prev)
    return nodes


def _per_op_loss(tape, delta_nodes, prices, contract, cost):
    """Reference: the termination loss recorded op by op, day by day."""
    price_diffs = np.diff(prices, axis=1)
    prev = tape.const(np.zeros(len(prices)))
    pnl = cost_sum = None
    for t, delta in enumerate(delta_nodes):
        gain = tape.mul_const(delta, price_diffs[:, t])
        pnl = gain if pnl is None else tape.add(pnl, gain)
        cash = tape.mul_const(tape.sub(delta, prev), prices[:, t])
        day_cost = tape.mul_const(tape.abs(cash), cost.rate)
        cost_sum = day_cost if cost_sum is None else tape.add(cost_sum, day_cost)
        prev = delta
    payoff = np.maximum(prices[:, -1] - contract.strike, 0.0)
    return tape.add_const(tape.sub(pnl, cost_sum), -payoff)


_FUSED_CASES = [(alpha, flags) for alpha in (0.0, 0.02)
                for flags in ({}, {"use_change": False}, {"use_label": True})]


def _fused_vs_per_op(policy, prices, mask, labels, contract, cost):
    """Gradients of the entropic objective through the fused nodes and
    through the per-op reference, whose deltas must equal the policy's bit
    for bit; returns the worst relative error of each block the rollout
    reaches (the others must get an exactly zero gradient from both)."""
    _, fused = batch_objective(policy, prices, mask, contract, cost, 0.5,
                               labels=labels)
    tape = PerOpTape()
    days = _per_op_deltas(tape, policy, prices, mask, labels)
    assert np.array_equal(np.column_stack([d.value for d in days]),
                          policy.deltas(prices, mask, labels=labels))
    loss = _per_op_loss(tape, days, prices, contract, cost)
    ref = tape.backward(per_op_entropy_risk(tape, loss, 0.5))
    assert fused.keys() == ref.keys()
    errors = {}
    for name, g in ref.items():
        assert fused[name].shape == g.shape, name
        if not np.any(g):
            assert not np.any(fused[name]), name
            continue
        errors[name] = np.max(np.abs(fused[name] - g)) / np.max(np.abs(g))
    return errors


def _jittered(cls, cfg, seed):
    # nonzero biases keep relu pre-activations off their kinks
    policy = cls.init(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    policy.params = {k: v + 0.05 * rng.standard_normal(v.shape)
                     for k, v in policy.params.items()}
    return policy


@pytest.mark.parametrize("alpha,flags", _FUSED_CASES)
def test_fused_dense_adjoint_matches_per_op_tape(gbm_small, contract, alpha, flags):
    cfg = ehf.PolicyConfig(arch="dense", hidden=12, **flags)
    policy = _jittered(DensePolicy, cfg, seed=21)
    prices = gbm_small.prices
    mask = ehf.compute_trade_mask(gbm_small, alpha)
    labels = np.random.default_rng(5).integers(0, 2, mask.shape).astype(float) \
        if cfg.use_label else None
    errors = _fused_vs_per_op(policy, prices, mask, labels, contract,
                              ehf.CostModel(0.02))
    assert set(errors) == {"w1", "b1", "w2", "b2", "w3", "b3"}
    assert max(errors.values()) <= 1e-12, errors


# every window x depth with each alpha/flag case; the default shape (window 3,
# two layers) keeps the case's plain id
_GRU_CASES = [
    pytest.param(window, layers, alpha, flags, id=f"{alpha}-flags{i}" + (
        "" if (window, layers) == (3, 2) else f"-window{window}-layers{layers}"))
    for window in (1, 3, 5) for layers in (1, 2)
    for i, (alpha, flags) in enumerate(_FUSED_CASES)]


@pytest.mark.parametrize("window,layers,alpha,flags", _GRU_CASES)
def test_gru_hstack_and_fused_loss_match_per_op_tape(gbm_small, contract, window,
                                                     layers, alpha, flags):
    """The GRU's fused rollout node (the masked walk, then backpropagation
    through time over the cells) against tape_gru cells recorded op by op."""
    cfg = ehf.PolicyConfig(arch="gru", hidden=8, gru_hidden=6, window=window,
                           gru_layers=layers, **flags)
    policy = _jittered(GRUPolicy, cfg, seed=22)
    prices = gbm_small.prices
    mask = ehf.compute_trade_mask(gbm_small, alpha)
    labels = np.random.default_rng(6).integers(0, 2, mask.shape).astype(float) \
        if cfg.use_label else None
    errors = _fused_vs_per_op(policy, prices, mask, labels, contract,
                              ehf.CostModel(0.02))
    # with window 1 no day runs the dense fallback
    assert set(errors) == {k for k in policy.params
                           if window > 1 or not k.startswith("fb_")}
    assert max(errors.values()) <= 1e-12, errors


# ---------------------------------------------------------------------------
# dense days on their trading rows against the full-row oracle
# ---------------------------------------------------------------------------

def _deltas_and_gradients(policy, prices, mask, contract, cost):
    """The policy's deltas, and the tape gradients of the entropic objective."""
    return (policy.deltas(prices, mask),
            batch_objective(policy, prices, mask, contract, cost, 0.5)[1])


@st.composite
def _row_masks(draw, n, n_steps):
    """Masks whose days are drawn one by one: no row, one row, some rows or
    every row trades (day 0 always every row); or, as often as not, every
    row trades every day."""
    if draw(st.booleans()):
        return np.ones((n, n_steps), dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(("none", "one", "some", "all")),
                          min_size=n_steps - 1, max_size=n_steps - 1))
    mask = np.zeros((n, n_steps), dtype=bool)
    for t, kind in enumerate(["all"] + kinds):
        k = {"none": 0, "one": 1, "some": int(rng.integers(2, n)), "all": n}[kind]
        mask[rng.choice(n, k, replace=False), t] = True
    return mask


_ORACLE_POLICIES = {
    "dense": (DensePolicy, ehf.PolicyConfig(arch="dense", hidden=12)),
    "gru-window1": (GRUPolicy, ehf.PolicyConfig(arch="gru", hidden=8, gru_hidden=6,
                                                window=1)),
    "gru-window3": (GRUPolicy, ehf.PolicyConfig(arch="gru", hidden=8, gru_hidden=6,
                                                window=3)),
    "gru-window5": (GRUPolicy, ehf.PolicyConfig(arch="gru", hidden=8, gru_hidden=6,
                                                window=5)),
}


@given(st.sampled_from(sorted(_ORACLE_POLICIES)), _row_masks(16, 30))
@settings(max_examples=60, deadline=None)
def test_trading_rows_match_the_full_row_oracle(gbm_small, name, mask):
    """Deltas and gradients of the row-gathered carry equal the full-row
    oracle's bit for bit when every dense day trades on every row (the same
    code and gemm shapes run), and are within 1e-14 relative otherwise."""
    cls, cfg = _ORACLE_POLICIES[name]
    policy = _jittered(cls, cfg, seed=24)
    prices, cost = gbm_small.prices[:16], ehf.CostModel(0.02)
    contract = ehf.ContractSpec(strike=100.0, maturity_steps=30)
    deltas, grads = _deltas_and_gradients(policy, prices, mask, contract, cost)
    with full_rollout.full_rows():
        ref_deltas, ref = _deltas_and_gradients(policy, prices, mask, contract, cost)
    n_dense = 30 if cls is DensePolicy else cfg.window - 1
    exact = mask[:, :n_dense].all()
    assert grads.keys() == ref.keys()
    for key, value, ref_value in [("deltas", deltas, ref_deltas)] + [
            (k, grads[k], ref[k]) for k in ref]:
        if exact or not np.any(ref_value):
            assert np.array_equal(value, ref_value), (name, key)
        else:
            assert np.max(np.abs(value - ref_value)) <= 1e-14 * np.max(
                np.abs(ref_value)), (name, key)


@given(st.sampled_from(sorted(_ORACLE_POLICIES)), _row_masks(16, 30))
@settings(max_examples=80, deadline=None)
def test_the_lean_rank_step_matches_the_plain_rank_walk(gbm_small, name, mask):
    """The package's trade-rank step, with its buffers laid out ahead of the
    loop, runs the plain walk's float operations in the same order: equal
    deltas and every gradient block equal, bit for bit, whether a day trades
    on no row, one row, some rows or every row (a GRU of window 1 has no
    dense day at all)."""
    cls, cfg = _ORACLE_POLICIES[name]
    policy = _jittered(cls, cfg, seed=27)
    prices, cost = gbm_small.prices[:16], ehf.CostModel(0.02)
    contract = ehf.ContractSpec(strike=100.0, maturity_steps=30)
    deltas, grads = _deltas_and_gradients(policy, prices, mask, contract, cost)
    with rank_walk.rank_walk():
        ref_deltas, ref = _deltas_and_gradients(policy, prices, mask, contract, cost)
    assert grads.keys() == ref.keys()
    for key, value, ref_value in [("deltas", deltas, ref_deltas)] + [
            (k, grads[k], ref[k]) for k in ref]:
        assert np.array_equal(value, ref_value), (name, key)


def test_the_dense_net_runs_once_per_trade_rank(gbm_small, contract, monkeypatch):
    """Every path trades on day 0 and on one later day of its own (path p on
    day 1 + p), so 17 days have a trading row but there are two trade
    ranks: one rollout plus its adjoint evaluates the dense net twice (two
    hidden layers each), and its deltas and gradients still match the
    full-row oracle."""
    policy = _jittered(DensePolicy, ehf.PolicyConfig(arch="dense", hidden=12), seed=26)
    prices, cost = gbm_small.prices[:16], ehf.CostModel(0.02)
    mask = np.zeros((16, 30), dtype=bool)
    mask[:, 0] = True
    mask[np.arange(16), 1 + np.arange(16)] = True
    layer, calls = hedging_engine._relu_layer, []

    def counting(*args):
        calls.append(1)
        return layer(*args)

    monkeypatch.setattr(hedging_engine, "_relu_layer", counting)
    deltas, grads = _deltas_and_gradients(policy, prices, mask, contract, cost)
    assert len(calls) == 2 * 2 * 2  # deltas(), then the recorded rollout
    monkeypatch.undo()
    with full_rollout.full_rows():
        ref_deltas, ref = _deltas_and_gradients(policy, prices, mask, contract, cost)
    for value, ref_value in [(deltas, ref_deltas)] + [(grads[k], ref[k]) for k in ref]:
        assert np.max(np.abs(value - ref_value)) <= 1e-14 * np.max(np.abs(ref_value))


@pytest.mark.parametrize("frozen_days,exact", [
    pytest.param([5, 17], True, id="days-5-and-17"),
    pytest.param([5, 6], False, id="days-5-and-6")])
def test_no_row_day_over_a_nan_sig_buffer(gbm_small, frozen_days, exact):
    """A dense day on which no row trades runs no net and writes 0.0 to its
    row of sig, so a rollout over a NaN-filled sig buffer still gives finite
    gradients. Its deltas equal the full-row oracle's bit for bit; so do the
    gradients while at most one frozen day follows a trade. After two (days
    5 and 6) their g is summed before the carry is added, where the oracle
    adds each to it in turn, so the gradients agree to 1e-14 relative."""
    cfg = ehf.PolicyConfig(arch="dense", hidden=12)
    policy = _jittered(DensePolicy, cfg, seed=25)
    prices = gbm_small.prices[:16]
    mask = np.ones((16, 30), dtype=bool)
    mask[:, frozen_days] = False
    _, xs = _dense_inputs(cfg, policy.s0, prices, None, 30)
    g = np.random.default_rng(7).standard_normal(mask.shape)
    walks = []
    for rollout, adjoint in ((_masked_rollout, _masked_adjoint),
                             (full_rollout.masked_rollout, full_rollout.masked_adjoint)):
        cache = {}
        deltas = rollout(policy.params, "", xs.copy(), np.full((30, 16), np.nan),
                         mask, cache, carry_schedule(mask, 30, adjoint=True))
        walks.append((deltas, *adjoint(g, mask, policy.params, "", cache)))
    (deltas, ga, grads), (ref_deltas, ref_ga, ref) = walks
    assert np.array_equal(deltas, ref_deltas)
    assert grads.keys() == ref.keys()
    for key, value, ref_value in [("ga", ga, ref_ga)] + [(k, grads[k], ref[k]) for k in ref]:
        assert np.all(np.isfinite(value)), key
        if exact:
            assert np.array_equal(value, ref_value), key
        else:
            assert np.max(np.abs(value - ref_value)) <= 1e-14 * np.max(
                np.abs(ref_value)), key


@pytest.mark.parametrize("arch", ["dense", "gru", "bsm"])
def test_a_zero_row_batch_gives_zero_rows_of_deltas(gbm_small, contract, arch):
    """An empty batch has no trade ranks: every policy gives deltas of
    shape (0, n_steps)."""
    policy = ehf.BSMPolicy(contract, 0.2, 1 / 365) if arch == "bsm" else \
        (DensePolicy if arch == "dense" else GRUPolicy).init(
            ehf.PolicyConfig(arch=arch, hidden=8, gru_hidden=6, window=5), seed=3)
    deltas = policy.deltas(gbm_small.prices[:0], np.ones((0, 30), dtype=bool))
    assert deltas.shape == (0, 30)


@pytest.mark.parametrize("arch,tol", [("dense", 1e-5), ("gru", 1e-4)])
def test_grad_check_over_no_one_and_some_row_days(arch, tol):
    """Finite differences agree with the adjoint, at `ehf gradcheck`'s
    tolerances, on an episode whose dense days trade on no row, one row and
    half the rows (the GRU's window 5 puts days 0-3 on its dense fallback)."""
    paths = ehf.simulate_gbm(ehf.GBMParams(mu=0.0, sigma=0.3),
                             ehf.SimConfig(n_paths=8, seed=404, n_steps=6))
    contract, cost = ehf.ContractSpec(100.0, 6), ehf.CostModel(0.02)
    mask = np.ones((8, 6), dtype=bool)
    mask[:, 1] = False
    mask[1:, 2] = False
    mask[::2, 3] = False
    cfg = ehf.PolicyConfig(arch=arch, hidden=6, window=5)
    policy = (DensePolicy if arch == "dense" else GRUPolicy).init(cfg, seed=7)
    jitter = np.random.default_rng(99)
    policy.params = {k: v + 0.05 * jitter.standard_normal(v.shape)
                     for k, v in policy.params.items()}

    def objective(params):
        policy.params = params
        return batch_objective(policy, paths.prices, mask, contract, cost, 0.5)

    report = grad_check(objective, policy.params)
    assert report.ok(tol), report.per_block


@pytest.mark.parametrize("arch", ["dense", "gru"])
def test_a_cache_shared_by_batches_keeps_each_batch_apart(gbm_small, contract, arch):
    """train_policy hands all its batches one cache. Each batch's objective
    and gradients (in params order) equal those of a fresh cache, though the
    cache still holds the previous batch's rollout: larger, then smaller (its
    slabs' first rows serve), then larger than any before (they grow)."""
    policy = (DensePolicy if arch == "dense" else GRUPolicy).init(
        ehf.PolicyConfig(arch=arch, hidden=8), seed=4)
    cost, cache = ehf.CostModel(0.02), {}
    for alpha, rows in ((0.0, slice(0, 16)), (0.01, slice(16, 24)),
                        (0.02, slice(24, 64))):
        prices = gbm_small.prices[rows]
        mask = ehf.compute_trade_mask(gbm_small, alpha)[rows]
        fresh = batch_objective(policy, prices, mask, contract, cost, 0.5)
        shared = batch_objective(policy, prices, mask, contract, cost, 0.5, cache=cache)
        assert shared[0] == fresh[0]
        assert list(shared[1]) == list(fresh[1]) == list(policy.params)
        for name, g in fresh[1].items():
            assert np.array_equal(shared[1][name], g), name


@pytest.mark.parametrize("arch", ["dense", "gru"])
def test_a_training_holds_one_rollout_state(heston_small, contract, arch):
    """A batch's rollout state (about 4 MB dense, 6 MB GRU at 256 paths) is
    written over the last one's in the slabs of the shared cache: a second
    batch of the same size allocates at most a quarter of what the first
    left in the cache, though that is still held. numpy reports its
    allocations to tracemalloc. The GRU's state is at least its cells'
    slabs: per layer and GRU day the gates [3 hidden, n], r h and the state,
    and the zero state before the first day."""
    cfg = ehf.PolicyConfig(arch=arch)
    policy = (DensePolicy if arch == "dense" else GRUPolicy).init(cfg, seed=4)
    gru_days = heston_small.n_steps - (cfg.window - 1)
    cells = cfg.gru_layers * (5 * gru_days + 1) * cfg.gru_hidden * heston_small.n_paths * 8
    mask = ehf.compute_trade_mask(heston_small, 0.01)
    args = (policy, heston_small.prices, mask, contract, ehf.CostModel(0.02), 0.5)
    cache = {}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch_objective(*args, cache=cache)
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        batch_objective(*args, cache=cache)
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert kept > (3e6 if arch == "dense" else cells)
    assert rise <= kept / 4, (rise, kept)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("n_steps", [30, 90])
def test_a_gru_evaluation_holds_one_day_of_cell_state(layers, n_steps):
    """Without a cache, a GRU's deltas on 2,000 paths allocate at most a few
    times its inputs and outputs, plus twice one day's buffers per layer
    (the gates [3 hidden, n], r h, the state in and out, and the biases
    spread over the batch): no evaluation holds every day's gates, whatever
    n_steps."""
    paths = ehf.simulate_heston(ehf.HIGH_VOL, ehf.SimConfig(
        n_paths=2000, seed=5, n_steps=n_steps))
    cfg = ehf.PolicyConfig(arch="gru", gru_layers=layers)
    policy = GRUPolicy.init(cfg, seed=1)
    mask = ehf.compute_trade_mask(paths, 0.01)
    day = 9 * cfg.gru_hidden * paths.n_paths * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        deltas = policy.deltas(paths.prices, mask)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    io = paths.prices.nbytes + mask.nbytes + deltas.nbytes
    assert peak <= 3 * io + 2 * layers * day, (peak, io, day)


def test_training_with_a_one_path_last_batch(heston_small, contract):
    """With n_train = batch_size + 1 each epoch ends on a batch of one path,
    whose frozen days are dense days on which no row trades."""
    paths = _pathset(heston_small.prices[:10])
    mask = ehf.compute_trade_mask(paths, 0.02)
    assert not mask[:9].all()
    cfg = ehf.TrainConfig(epochs=3, batch_size=8, val_fraction=0.1, seed=3)
    policy, log = ehf.train_policy(paths, contract, ehf.CostModel(0.02),
                                   ehf.RiskConfig(0.5),
                                   ehf.PolicyConfig(arch="dense", hidden=8), mask, cfg)
    assert len(log.train_objective) == len(log.val_objective) == 3
    assert np.all(np.isfinite(log.train_objective))
    for k, v in policy.params.items():
        assert np.all(np.isfinite(v)), k


def test_policy_label_feature_changes_output(gbm_small):
    cfg = ehf.PolicyConfig(arch="dense", use_label=True)
    policy = DensePolicy.init(cfg, seed=3)
    mask = ehf.compute_trade_mask(gbm_small, 0.0)
    ones = np.ones((64, 30))
    zeros = np.zeros((64, 30))
    d1 = policy.deltas(gbm_small.prices, mask, labels=ones)
    d0 = policy.deltas(gbm_small.prices, mask, labels=zeros)
    assert not np.array_equal(d1, d0)


def test_bsm_policy_matches_analytics(gbm_small, contract):
    policy = ehf.BSMPolicy(contract, 0.2, 1.0 / 365.0)
    mask = ehf.compute_trade_mask(gbm_small, 0.02)
    deltas = policy.deltas(gbm_small.prices, mask)
    # each day rebalances to its closed-form target or holds the last delta
    targets = ehf.bsm_delta_matrix(gbm_small, contract, 0.2)
    ref, prev = np.empty_like(targets), np.zeros(len(targets))
    for t in range(targets.shape[1]):
        prev = ref[:, t] = np.where(mask[:, t], targets[:, t], prev)
    assert np.array_equal(deltas, ref)


def test_evaluate_policy_is_pure(gbm_small, contract):
    policy = DensePolicy.init(ehf.PolicyConfig(arch="dense"), seed=1)
    mask = ehf.compute_trade_mask(gbm_small, 0.02)
    a = evaluate_policy(gbm_small, policy, mask, contract, ehf.CostModel(0.02))
    b = evaluate_policy(gbm_small, policy, mask, contract, ehf.CostModel(0.02))
    assert np.array_equal(a.loss, b.loss)
    assert np.array_equal(a.total_cost, b.total_cost)
    assert np.array_equal(a.trade_counts, b.trade_counts)
    assert len(a.loss) == 64


def test_training_reduces_objective(heston_small, contract):
    """A few epochs on a small set must beat the untrained policy on the
    training objective; selection returns the best-validation epoch."""
    cost = ehf.CostModel(0.02)
    risk = ehf.RiskConfig(0.5)
    mask = ehf.compute_trade_mask(heston_small, 0.0)
    cfg = ehf.TrainConfig(epochs=4, batch_size=64, seed=2)
    pol_cfg = ehf.PolicyConfig(arch="dense", hidden=16)
    untrained = DensePolicy.init(pol_cfg, seed=2)
    before = entropy_risk(
        episode_results(heston_small.prices,
                            untrained.deltas(heston_small.prices, mask),
                            contract, cost).loss, risk)
    policy, log = ehf.train_policy(heston_small, contract, cost, risk,
                                   pol_cfg, mask, cfg)
    after = entropy_risk(
        episode_results(heston_small.prices,
                            policy.deltas(heston_small.prices, mask),
                            contract, cost).loss, risk)
    assert after < before
    assert log.best_epoch >= 0
    assert len(log.val_objective) == 4
    assert log.val_objective[log.best_epoch] == min(log.val_objective)


def test_training_is_deterministic(heston_small, contract):
    cost = ehf.CostModel(0.05)
    mask = ehf.compute_trade_mask(heston_small, 0.02)
    cfg = ehf.TrainConfig(epochs=2, batch_size=64, seed=9)
    pol_cfg = ehf.PolicyConfig(arch="dense", hidden=8)
    p1, _ = ehf.train_policy(heston_small, contract, cost, ehf.RiskConfig(0.5),
                             pol_cfg, mask, cfg)
    p2, _ = ehf.train_policy(heston_small, contract, cost, ehf.RiskConfig(0.5),
                             pol_cfg, mask, cfg)
    for k in p1.params:
        assert np.array_equal(p1.params[k], p2.params[k]), k


def test_masked_days_cost_exactly_zero(gbm_small, contract):
    """Frozen days produce bitwise-zero position changes, hence zero cost."""
    policy = DensePolicy.init(ehf.PolicyConfig(arch="dense"), seed=4)
    mask = ehf.compute_trade_mask(gbm_small, 0.04)
    deltas = policy.deltas(gbm_small.prices, mask)
    cash, costs = _cash_and_costs(gbm_small.prices, deltas, contract,
                                  ehf.CostModel(0.05))
    frozen = ~mask
    assert np.all(costs[frozen] == 0.0)
    assert np.all(cash[frozen] == 0.0)
    res = episode_results(gbm_small.prices, deltas, contract, ehf.CostModel(0.05))
    np.testing.assert_array_equal(res.total_cost, costs.sum(axis=1))
    np.testing.assert_array_equal(res.trade_counts, np.count_nonzero(cash, axis=1))


def test_config_validation():
    with pytest.raises(DomainError):
        ehf.CostModel(-0.01)
    with pytest.raises(DomainError):
        ehf.RiskConfig(0.0)
    with pytest.raises(ehf.ConfigurationError):
        ehf.PolicyConfig(arch="transformer")
    with pytest.raises(ehf.ConfigurationError):
        ehf.TrainConfig(epochs=0)
    with pytest.raises(ehf.ConfigurationError):
        ehf.TrainConfig(val_fraction=1.5)
