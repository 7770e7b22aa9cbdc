"""The training tape: the chain of one batch's adjoints, plus Adam.

A Tape records a mini-batch episode as the chain of steps it always is: the
policy rollout, the termination loss and the risk objective, each appended
by ``Tape.record`` as its hand-derived vector-Jacobian product.
``Tape.backward`` composes them in reverse, from the objective down to the
policy's parameter gradients in float64: the adjoint method of Giles &
Glasserman ("Smoking adjoints", Risk 2006). The adjoints themselves,
backpropagation through time included, live with the computations they
differentiate.

Also here: the logistic function, fan-based initialization, Adam and
finite-difference gradient checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, StateError


def sigmoid(x, out=None, work=None):
    """Logistic function; exp(-|x|) keeps it overflow-free at large |x|. out
    (x itself, say) receives the values if given, and work, an array of x's
    shape, holds exp(-|x|) and then 1 + exp(-|x|) (else one is allocated)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty_like(x) if work is None else work)
    np.exp(np.negative(e, out=e), out=e)
    return np.divide(np.where(x >= 0, 1.0, e), np.add(1.0, e, out=e), out=out)


# ---------------------------------------------------------------------------
# recording tape
# ---------------------------------------------------------------------------

class Tape:
    """The vjps of one forward pass in evaluation order; each maps the gradient
    at its step's output to that at its input, the previous step's output."""

    def __init__(self):
        self._nodes: list = []   # one vjp per step; perfbench/tracer.py counts them

    def record(self, value, vjp):
        """Append the vjp of the step that produced value; returns value."""
        self._nodes.append(vjp)
        return value

    def backward(self):
        """Feed d(last value)/d(last value) = 1 through the vjps in reverse;
        returns what the first one returns."""
        if not self._nodes:
            raise StateError("backward called before any forward pass was recorded")
        g = np.float64(1.0)
        for vjp in reversed(self._nodes):
            g = vjp(g)
        return g


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
