"""The logistic function, one GRU step, the training tape's chain, the
general per-op oracle tape, and Adam."""

import numpy as np
import pytest

import ehf
from ehf.errors import NumericError, ShapeError, StateError
from ehf.hedging_engine import _CELL_ROWS, _gru_blocks, _gru_cell
from ehf.neural_core import (AdamState, GradCheckReport, Tape, adam_step, fan_uniform,
                             grad_check, require_finite, sigmoid)
from per_op_tape import DagTape, PerOpTape


# ---------------------------------------------------------------------------
# logistic function and one GRU step
# ---------------------------------------------------------------------------

def test_sigmoid_saturation_and_symmetry():
    assert sigmoid(np.array(0.0)) == 0.5
    assert sigmoid(np.array(800.0)) == 1.0  # no overflow warning either
    assert sigmoid(np.array(-800.0)) == 0.0
    x = np.linspace(-5, 5, 11)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


def _sigmoid_two_branch(x):
    """Reference: the logistic function with its sign branches spelled out."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_reference_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0,
                      tiny, -tiny, 1e-310, -1e-310])
    rng = np.random.default_rng(17)
    x = np.concatenate([edges] + [scale * rng.standard_normal(2000)
                                  for scale in (1e-8, 1e-2, 1.0, 30.0, 800.0)])
    assert np.array_equal(sigmoid(x), _sigmoid_two_branch(x), equal_nan=True)


def _random_gru(rng, hidden, inp):
    """(w_z, b_z, w_r, b_r, w_h, b_h); each weight matrix is [hidden, inp + hidden]."""
    shape = (hidden, inp + hidden)
    w_z, w_r, w_h = (rng.normal(size=shape) for _ in range(3))
    b_z, b_r, b_h = (rng.normal(size=hidden) for _ in range(3))
    return w_z, b_z, w_r, b_r, w_h, b_h


def _gru_step(weights, x, h):
    """One step of the policy's path-minor GRU cell, its gate blocks
    regrouped from weights; x [batch, inp], h [batch, hidden] in and out."""
    blocks = _gru_blocks(dict(zip(("l1_wz", "l1_bz", "l1_wr", "l1_br", "l1_wh", "l1_bh"),
                                  weights)), 1)
    gates, rh, h_new = (np.empty((k * h.shape[1], len(h))) for k in _CELL_ROWS)
    return _gru_cell(np.ascontiguousarray(x.T), np.ascontiguousarray(h.T), blocks,
                     gates, rh, h_new).T


def test_gru_forward_matches_scalar_reference():
    rng = np.random.default_rng(7)
    w_z, b_z, w_r, b_r, w_h, b_h = weights = _random_gru(rng, hidden=3, inp=2)
    x = rng.normal(size=2)
    h = rng.normal(size=3)

    def ref():
        xh = np.concatenate([x, h])
        z = 1 / (1 + np.exp(-(w_z @ xh + b_z)))
        r = 1 / (1 + np.exp(-(w_r @ xh + b_r)))
        cand = np.tanh(w_h @ np.concatenate([x, r * h]) + b_h)
        return (1 - z) * h + z * cand

    assert np.allclose(_gru_step(weights, x[None], h[None])[0], ref(), atol=1e-14)


def test_gru_zero_weights_halve_state():
    """All-zero parameters: z = r = 1/2, candidate = 0, so h' = h / 2."""
    weights = (np.zeros((4, 6)), np.zeros(4)) * 3
    h = np.array([1.0, -2.0, 0.5, 3.0])
    out = _gru_step(weights, np.array([[9.0, -9.0]]), h[None])
    assert np.allclose(out[0], h / 2)


def test_gru_batch_consistency():
    rng = np.random.default_rng(13)
    weights = _random_gru(rng, hidden=5, inp=3)
    x = rng.normal(size=(6, 3))
    h = rng.normal(size=(6, 5))
    batched = _gru_step(weights, x, h)
    rows = np.concatenate([_gru_step(weights, x[i:i + 1], h[i:i + 1])
                           for i in range(6)])
    assert np.allclose(batched, rows, atol=1e-15)


# ---------------------------------------------------------------------------
# the training tape: a chain of vjps composed in reverse
# ---------------------------------------------------------------------------

def test_chain_backward_before_any_record_raises():
    with pytest.raises(StateError):
        Tape().backward()


def test_chain_composes_recorded_vjps_in_reverse():
    """The last recorded vjp gets 1.0, and each earlier one gets what the vjp
    recorded after it returned; backward returns what the first returns."""
    tape, calls = Tape(), []

    def scale(name, factor):
        def vjp(g):
            calls.append((name, g))
            return g * factor
        return vjp

    for name, factor in (("first", 2.0), ("second", 3.0), ("third", 5.0)):
        assert tape.record(name, scale(name, factor)) == name
    assert tape.backward() == 30.0
    assert calls == [("third", 1.0), ("second", 5.0), ("first", 15.0)]


def test_chain_holds_one_node_per_record():
    tape = Tape()
    for i in range(3):
        assert tape.record(i, lambda g: g) == i
        assert len(tape._nodes) == i + 1


# ---------------------------------------------------------------------------
# the per-op oracle: its recorded ops against hand gradients and finite
# differences, and its general backward pass over a graph of nodes
# ---------------------------------------------------------------------------

def test_tape_linear_map_exact_gradient():
    # matmul follows the layer convention x @ w.T with w stored [out, in];
    # f(w) = sum(x @ w.T) gives df/dw = column sums of x in every output row
    x = np.arange(12.0).reshape(4, 3)
    w0 = np.ones((2, 3))
    tape = PerOpTape()
    w = tape.param("w", w0)
    out = tape.sum(tape.matmul(tape.const(x), w))
    grads = tape.backward(out)
    expected = np.tile(x.sum(axis=0), (2, 1))
    assert np.array_equal(grads["w"], expected)


def test_tape_chain_matches_manual_derivative():
    # f(a) = mean(sigmoid(2a + 1)); f'(a) = 2 sigma' / n elementwise
    a0 = np.array([[0.3, -1.2], [2.0, 0.0]])
    tape = PerOpTape()
    a = tape.param("a", a0)
    out = tape.mean(tape.sigmoid(tape.add_const(tape.mul_const(a, 2.0), 1.0)))
    grads = tape.backward(out)
    s = 1 / (1 + np.exp(-(2 * a0 + 1)))
    assert np.allclose(grads["a"], 2 * s * (1 - s) / a0.size, atol=1e-14)


def test_tape_reused_node_accumulates():
    # f(a) = sum(a * a) = sum(a^2); gradient 2a, both product parents are a
    a0 = np.array([1.5, -2.0, 0.25])
    tape = PerOpTape()
    a = tape.param("a", a0)
    out = tape.sum(tape.mul(a, a))
    grads = tape.backward(out)
    assert np.allclose(grads["a"], 2 * a0, atol=1e-15)


def test_tape_where_routes_gradient():
    a0 = np.array([1.0, 2.0, 3.0])
    b0 = np.array([10.0, 20.0, 30.0])
    pick = np.array([True, False, True])
    tape = PerOpTape()
    a, b = tape.param("a", a0), tape.param("b", b0)
    out = tape.sum(tape.where(pick, a, b))
    grads = tape.backward(out)
    assert np.array_equal(grads["a"], pick.astype(float))
    assert np.array_equal(grads["b"], (~pick).astype(float))


def test_tape_abs_subgradient_zero_at_zero():
    tape = PerOpTape()
    a = tape.param("a", np.array([-2.0, 0.0, 3.0]))
    grads = tape.backward(tape.sum(tape.abs(a)))
    assert np.array_equal(grads["a"], [-1.0, 0.0, 1.0])


def test_tape_relu_subgradient_zero_at_zero():
    tape = PerOpTape()
    a = tape.param("a", np.array([-1.0, 0.0, 2.0]))
    grads = tape.backward(tape.sum(tape.relu(a)))
    assert np.array_equal(grads["a"], [0.0, 0.0, 1.0])


def test_tape_unreached_param_gets_zero_gradient():
    tape = PerOpTape()
    a = tape.param("a", np.array([1.0, 2.0]))
    tape.param("unused", np.array([5.0]))
    grads = tape.backward(tape.sum(a))
    assert np.array_equal(grads["unused"], [0.0])


def test_tape_composite_against_finite_differences():
    """One expression touching most primitives, checked by central FD."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(5, 3))
    params0 = {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=2),
               "v": rng.normal(size=(1, 2))}

    def loss_and_grad(params):
        tape = PerOpTape()
        w = tape.param("w", params["w"])
        b = tape.param("b", params["b"])
        v = tape.param("v", params["v"])
        hid = tape.tanh(tape.add_row(tape.matmul(tape.const(x), w), b))
        raw = tape.squeeze_col(tape.matmul(hid, v))
        gated = tape.where(np.array([1, 0, 1, 1, 0], bool), raw,
                           tape.mul_const(raw, 0.25))
        score = tape.add(tape.abs(gated), tape.exp(tape.mul_const(gated, -0.5)))
        out = tape.mean(tape.log(tape.add_const(score, 1.0)))
        return out.value, tape.backward(out)

    report = grad_check(loss_and_grad, params0)
    assert report.max_rel_error < 1e-7, report.per_block


def test_tape_hstack_splits_gradient():
    a0, b0 = np.array([1.0, 2.0, 3.0]), np.array([[4.0], [5.0], [6.0]])
    tape = PerOpTape()
    a, b = tape.param("a", a0), tape.param("b", b0)
    stacked = tape.hstack([a, b])       # [3, 2]
    weights = np.array([[2.0, 7.0]])    # [out=1, in=2]
    out = tape.sum(tape.matmul(stacked, tape.const(weights)))
    grads = tape.backward(out)
    assert np.array_equal(grads["a"], [2.0, 2.0, 2.0])
    assert np.array_equal(grads["b"], [[7.0], [7.0], [7.0]])


def test_backward_rejects_foreign_root():
    tape = PerOpTape()
    tape.sum(tape.param("a", np.ones(2)))
    other = PerOpTape()
    root = other.sum(other.param("b", np.ones(2)))
    with pytest.raises(StateError):
        tape.backward(root)


def test_backward_requires_recorded_graph():
    tape = DagTape()
    a = tape.param("a", np.ones(3))
    with pytest.raises(StateError):
        tape.backward(a)


def test_const_subgraphs_not_recorded():
    tape = PerOpTape()
    c = tape.mul(tape.const(np.ones(3)), tape.const(np.ones(3)))
    assert not c.requires
    # a const-only result holds neither its operands nor a vjp
    assert c.parents == () and c.vjp is None
    p = tape.param("p", np.ones(3))
    out = tape.sum(tape.mul(p, c))
    grads = tape.backward(out)
    assert np.array_equal(grads["p"], np.ones(3))


def test_param_memoization_returns_same_node():
    tape = DagTape()
    a1 = tape.param("a", np.ones(2))
    a2 = tape.param("a", np.ones(2))
    assert a1 is a2


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_first_step_is_signed_lr():
    """With bias correction, step one moves each weight by ~lr * sign(grad)."""
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([0.5, -4.0, 1e-3])}
    state = AdamState.for_params(params, lr=1e-3)
    before = params["w"].copy()
    adam_step(params, grads, state)
    moved = before - params["w"]
    assert np.allclose(moved, 1e-3 * np.sign(grads["w"]), rtol=1e-4)


def test_adam_zero_gradient_is_noop():
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState.for_params(params, lr=1e-3)
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.0, 2.0])


def test_adam_updates_in_place_and_converges_on_quadratic():
    params = {"w": np.array([5.0])}
    ref = params["w"]
    state = AdamState.for_params(params, lr=0.1)
    for _ in range(500):
        adam_step(params, {"w": 2 * params["w"]}, state)
    assert params["w"] is ref
    assert abs(params["w"][0]) < 1e-3


def test_adam_shape_mismatch_raises():
    params = {"w": np.ones(3)}
    state = AdamState.for_params(params, lr=1e-3)
    with pytest.raises(ShapeError):
        adam_step(params, {"w": np.ones(4)}, state)


# ---------------------------------------------------------------------------
# initialization, guards, checkpoints
# ---------------------------------------------------------------------------

def test_fan_uniform_bounds_and_determinism():
    rng = np.random.default_rng(3)
    w = fan_uniform(rng, 64, 16)
    assert w.shape == (64, 16)
    limit = np.sqrt(6.0 / (64 + 16))
    assert np.max(np.abs(w)) <= limit
    w2 = fan_uniform(np.random.default_rng(3), 64, 16)
    assert np.array_equal(w, w2)


def test_require_finite():
    require_finite(np.array([1.0, 2.0]), "ok")
    with pytest.raises(NumericError):
        require_finite(np.array([1.0, np.nan]), "batch loss")
    with pytest.raises(NumericError):
        require_finite(np.array([np.inf]), "batch loss")


def test_gradcheck_report_flags_worst_block():
    rep = GradCheckReport(per_block={"w": 1e-9, "b": 3e-4})
    assert rep.max_rel_error == 3e-4
    assert not rep.ok(1e-5)
    assert rep.ok(1e-3)
