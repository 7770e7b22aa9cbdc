"""Op-by-op recording tape: the independent oracle for the fused training steps.

The package records a policy rollout, the termination loss and the entropic
risk each as one step of a chain with a hand-written vector-Jacobian
product. Tests rebuild the same computations from the elementwise
primitives here, each recorded with its own textbook vjp on a general
reverse-mode tape (a graph of nodes with named parameter leaves), and
require the fused values and gradients to match.
"""

import numpy as np

from ehf.errors import ShapeError, StateError
from ehf.neural_core import sigmoid


class Node:
    """One recorded value; vjp maps the upstream gradient to parent gradients."""

    __slots__ = ("value", "parents", "vjp", "requires")

    def __init__(self, value, parents=(), vjp=None, requires=False):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.requires = requires


class DagTape:
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


class PerOpTape(DagTape):
    """A DagTape with constant leaves and one recorded node per primitive."""

    def const(self, value) -> Node:
        return Node(np.asarray(value, dtype=np.float64))

    def record(self, value, parents, vjp) -> Node:
        """When no parent needs a gradient the result is a bare constant node
        that holds neither its parents nor its vjp, so a pass recorded on
        constants keeps no intermediates alive.
        """
        if not any(p.requires for p in parents):
            return Node(value)
        return super().record(value, parents, vjp)

    # -- primitives ------------------------------------------------------
    def matmul(self, x: Node, w: Node) -> Node:
        xv, wv = x.value, w.value
        if xv.shape[-1] != wv.shape[1]:
            raise ShapeError(f"matmul width {xv.shape[-1]} != fan-in {wv.shape[1]}")
        value = xv @ wv.T

        def vjp(g):
            return g @ wv, g.T @ xv

        return self.record(value, (x, w), vjp)

    def mm(self, a: Node, b: Node) -> Node:
        """The plain product a @ b."""
        av, bv = a.value, b.value
        return self.record(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))

    def add_row(self, x: Node, b: Node) -> Node:
        value = x.value + b.value

        def vjp(g):
            return g, g.sum(axis=0) if g.ndim > b.value.ndim else g

        return self.record(value, (x, b), vjp)

    def add_col(self, x: Node, b: Node) -> Node:
        """x [k, batch] plus b [k] down each column."""
        return self.record(x.value + b.value[:, None], (x, b),
                           lambda g: (g, g.sum(axis=1)))

    def add(self, a: Node, b: Node) -> Node:
        return self.record(a.value + b.value, (a, b), lambda g: (g, g))

    def sub(self, a: Node, b: Node) -> Node:
        return self.record(a.value - b.value, (a, b), lambda g: (g, -g))

    def mul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        return self.record(av * bv, (a, b), lambda g: (g * bv, g * av))

    def mul_const(self, a: Node, c) -> Node:
        return self.record(a.value * c, (a,), lambda g: (g * c,))

    def add_const(self, a: Node, c) -> Node:
        return self.record(a.value + c, (a,), lambda g: (g,))

    def abs(self, a: Node) -> Node:
        # subgradient convention sign(0) = 0
        sgn = np.sign(a.value)
        return self.record(np.abs(a.value), (a,), lambda g: (g * sgn,))

    def relu(self, a: Node) -> Node:
        value = np.maximum(a.value, 0.0)
        mask = a.value > 0
        return self.record(value, (a,), lambda g: (g * mask,))

    def sigmoid(self, a: Node) -> Node:
        value = sigmoid(a.value)
        return self.record(value, (a,), lambda g: (g * value * (1.0 - value),))

    def tanh(self, a: Node) -> Node:
        value = np.tanh(a.value)
        return self.record(value, (a,), lambda g: (g * (1.0 - value * value),))

    def exp(self, a: Node) -> Node:
        value = np.exp(a.value)
        return self.record(value, (a,), lambda g: (g * value,))

    def log(self, a: Node) -> Node:
        av = a.value
        return self.record(np.log(av), (a,), lambda g: (g / av,))

    def hstack(self, parts: list[Node]) -> Node:
        """Column-concatenate [batch]- or [batch, k]-shaped nodes into [batch, sum k]."""
        cols = [p.value if p.value.ndim == 2 else p.value[:, None] for p in parts]
        widths = [c.shape[1] for c in cols]
        value = np.concatenate(cols, axis=1)
        offsets = np.cumsum([0] + widths)

        def vjp(g):
            grads = []
            for i, p in enumerate(parts):
                piece = g[:, offsets[i]:offsets[i + 1]]
                grads.append(piece if p.value.ndim == 2 else piece[:, 0])
            return tuple(grads)

        return self.record(value, tuple(parts), vjp)

    def vstack(self, parts: list[Node]) -> Node:
        """Concatenate nodes along their first axis."""
        offsets = np.cumsum([0] + [len(p.value) for p in parts])
        return self.record(np.concatenate([p.value for p in parts]), tuple(parts),
                           lambda g: tuple(g[a:b] for a, b in zip(offsets, offsets[1:])))

    def part(self, a: Node, key) -> Node:
        """The view a[key] for a basic index key: a slice of rows or columns,
        or one row."""
        def vjp(g):
            out = np.zeros_like(a.value)
            out[key] = g
            return (out,)

        return self.record(a.value[key], (a,), vjp)

    def take_rows(self, a: Node, rows: np.ndarray) -> Node:
        """a[rows] for an index array rows without repeats."""
        def vjp(g):
            out = np.zeros_like(a.value)
            out[rows] = g
            return (out,)

        return self.record(a.value[rows], (a,), vjp)

    def put_rows(self, a: Node, rows: np.ndarray, n: int) -> Node:
        """[n]-shaped: a at rows, 0.0 elsewhere."""
        value = np.zeros(n)
        value[rows] = a.value
        return self.record(value, (a,), lambda g: (g[rows],))

    def squeeze_col(self, a: Node) -> Node:
        if a.value.ndim != 2 or a.value.shape[1] != 1:
            raise ShapeError(f"expected [batch, 1], got {a.value.shape}")
        return self.record(a.value[:, 0], (a,), lambda g: (g[:, None],))

    def where(self, mask: np.ndarray, a: Node, b: Node) -> Node:
        value = np.where(mask, a.value, b.value)
        return self.record(value, (a, b), lambda g: (g * mask, g * ~mask))

    def mean(self, a: Node) -> Node:
        n = a.value.size
        value = float(np.mean(a.value))
        return self.record(value, (a,), lambda g: (np.full_like(a.value, g / n),))

    def sum(self, a: Node) -> Node:
        value = float(np.sum(a.value))
        return self.record(value, (a,), lambda g: (np.full_like(a.value, g),))


def tape_gru(tape: PerOpTape, x: Node, h: Node, w_z: Node, b_z: Node,
             w_r: Node, b_r: Node, w_h: Node, b_h: Node) -> Node:
    """One path-minor GRU step on x [in, batch] and h [hidden, batch], with
    the package's regrouped gate blocks and its order of operations."""
    nx, nh = len(x.value), len(h.value)
    wx = tape.vstack([tape.part(w, np.s_[:, :nx]) for w in (w_z, w_r, w_h)])
    u_zr = tape.vstack([tape.part(w, np.s_[:, nx:]) for w in (w_z, w_r)])
    pre = tape.add_col(tape.mm(wx, x), tape.vstack([b_z, b_r, b_h]))
    zr = tape.sigmoid(tape.add(tape.part(pre, np.s_[:2 * nh]), tape.mm(u_zr, h)))
    rh = tape.mul(tape.part(zr, np.s_[nh:]), h)
    c = tape.tanh(tape.add(tape.part(pre, np.s_[2 * nh:]),
                           tape.mm(tape.part(w_h, np.s_[:, nx:]), rh)))
    return tape.add(h, tape.mul(tape.part(zr, np.s_[:nh]), tape.sub(c, h)))


def entropy_risk(tape: PerOpTape, loss_node: Node, risk_aversion: float) -> Node:
    """Entropic risk recorded op by op (the max-shift of hedging_engine.entropy_risk)."""
    a = tape.mul_const(loss_node, -risk_aversion)
    m = float(np.max(a.value))
    shifted = tape.add_const(a, -m)
    log_mean = tape.log(tape.mean(tape.exp(shifted)))
    return tape.mul_const(tape.add_const(log_mean, m), 1.0 / risk_aversion)
