"""Minimal reverse-mode differentiation kernel for hedging episodes.

A Tape records the forward pass of one mini-batch episode as a few nodes,
each a larger computation with a hand-derived vector-Jacobian product
recorded through ``Tape.record``: the policy rollout over all days, the
termination loss and the risk objective. ``Tape.backward`` replays them in
reverse for exact parameter gradients, all in float64. It is deliberately
not a general autodiff framework; the adjoints themselves, backpropagation
through time included, live with the computations they differentiate.

Also here: the logistic function, fan-based initialization, Adam and
finite-difference gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, StateError


def sigmoid(x):
    """Logistic function; exp(-|x|) keeps it overflow-free at large |x|."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# recording tape
# ---------------------------------------------------------------------------

class Node:
    """One recorded value; vjp maps the upstream gradient to parent gradients."""

    __slots__ = ("value", "parents", "vjp", "requires")

    def __init__(self, value, parents=(), vjp=None, requires=False):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.requires = requires


class Tape:
    """Append-only record of a forward pass; nodes are stored in evaluation order."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._params: dict[str, Node] = {}

    # -- leaves ----------------------------------------------------------
    def param(self, name: str, value: np.ndarray) -> Node:
        if name in self._params:
            return self._params[name]
        node = Node(value, requires=True)
        self._params[name] = node
        return node

    def record(self, value, parents, vjp) -> Node:
        """Append a node; vjp(g) returns one gradient per parent, in order."""
        node = Node(value, tuple(parents), vjp, True)
        self._nodes.append(node)
        return node

    # -- reverse pass ------------------------------------------------------
    def backward(self, root: Node) -> dict[str, np.ndarray]:
        """Accumulate d(root)/d(param) for every parameter touched by the recording."""
        if not self._nodes:
            raise StateError("backward called before any forward pass was recorded")
        if root is not self._nodes[-1] and root not in self._params.values():
            # roots must come from this tape; scanning is O(n) but only on error paths
            if all(root is not n for n in self._nodes):
                raise StateError("backward root was not recorded on this tape")
        grads: dict[int, np.ndarray | float] = {id(root): np.float64(1.0)}
        for node in reversed(self._nodes):
            g = grads.pop(id(node), None)
            if g is None or node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if not parent.requires:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        out = {}
        for name, node in self._params.items():
            g = grads.get(id(node))
            out[name] = np.zeros_like(node.value) if g is None else np.asarray(g)
        return out


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def fan_uniform(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, (n_out, n_in))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8   # Kingma & Ba's defaults


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 1e-3) -> "AdamState":
        return cls(lr=lr, step=0, m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """In-place Adam update with bias correction; increments the step count."""
    state.step += 1
    bc1 = 1.0 - _BETA1 ** state.step
    bc2 = 1.0 - _BETA2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    per_block: dict[str, float]

    @property
    def max_rel_error(self) -> float:
        return max(self.per_block.values()) if self.per_block else 0.0

    def ok(self, tol: float) -> bool:
        return self.max_rel_error <= tol


def grad_check(loss_and_grad, params: dict[str, np.ndarray]) -> GradCheckReport:
    """Compare analytic gradients against central finite differences of step 1e-6.

    loss_and_grad(params) must return (scalar loss, gradient dict) and be a
    pure function of the parameters. The relative-error denominator is floored
    at 1e-3 so roundoff noise on near-zero partials does not read as failure.

    Check at a generic point: relu and abs use a zero subgradient at exactly
    zero, so parameters that put a pre-activation precisely on a kink (e.g.
    zero-initialised biases fed an all-zero feature row) make central
    differences disagree with the analytic convention. Perturb the parameters
    first when that can happen.
    """
    h = 1e-6
    _, analytic = loss_and_grad(params)
    report = {}
    work = {k: p.copy() for k, p in params.items()}
    for name, p in work.items():
        worst = 0.0
        flat = p.reshape(-1)
        a_flat = np.asarray(analytic[name]).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_and_grad(work)
            flat[i] = orig - h
            down, _ = loss_and_grad(work)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-3)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
        report[name] = worst
    return GradCheckReport(report)


def require_finite(value, context: str) -> None:
    """Raise NumericError when a loss or gradient goes NaN/inf."""
    if not np.all(np.isfinite(value)):
        raise NumericError(f"non-finite value encountered in {context}")
