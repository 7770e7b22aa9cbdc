"""Node-by-node tree growth: the independent oracle for `fit_forest`.

`fit_forest` grows all of a forest's trees together, one depth at a time,
over presorted rows. Tests grow each tree on its own instead, one node at a
time from a stack, sorting the node's rows afresh for every split, and
require the same trees in every array and dtype.
"""

import math

import numpy as np

from ehf.signal_forest import DecisionTree, ForestConfig


def best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Exhaustive weighted-Gini minimization over midpoint thresholds.

    Returns (feature, threshold, gini) or None if no split leaves both sides
    with at least min_leaf samples. The threshold is the midpoint of the two
    values it separates, or the lower value where the midpoint rounds up to
    the upper one (adjacent doubles) or overflows.
    """
    n = len(y)
    best = (math.inf, -1, 0.0)
    sizes_left = np.arange(1, n, dtype=np.float64)
    sizes_right = n - sizes_left
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ones_left = np.cumsum(y[order])[:-1].astype(np.float64)
        valid = (xs[1:] != xs[:-1]) & (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
        if not valid.any():
            continue
        ones_right = float(y.sum()) - ones_left
        gini_left = 1.0 - (ones_left / sizes_left) ** 2 \
            - ((sizes_left - ones_left) / sizes_left) ** 2
        gini_right = 1.0 - (ones_right / sizes_right) ** 2 \
            - ((sizes_right - ones_right) / sizes_right) ** 2
        gini = (sizes_left * gini_left + sizes_right * gini_right) / n
        gini[~valid] = math.inf
        i = int(np.argmin(gini))
        if gini[i] < best[0]:
            lo, hi = xs[i], xs[i + 1]
            with np.errstate(over="ignore"):
                mid = 0.5 * (lo + hi)
            best = (gini[i], f, mid if lo <= mid < hi else lo)
    if best[1] < 0:
        return None
    return best[1], best[2], best[0]


def fit_tree(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
             rng: np.random.Generator) -> DecisionTree:
    """One tree on a bootstrap drawn from rng; nodes numbered in stack order:
    a split's two children are allocated when it is popped, right popped first."""
    n = len(y)
    n_boot = max(1, int(round(cfg.bootstrap_fraction * n)))
    boot = rng.integers(0, n, size=n_boot)
    Xb, yb = X[boot], y[boot]
    feature, threshold, left, right, leaf_class = [], [], [], [], []

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_class.append(-1)
        return len(feature) - 1

    stack = [(alloc(), np.arange(n_boot), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ys = yb[rows]
        ones = int(ys.sum())
        split = None
        depth_ok = cfg.max_depth == 0 or depth < cfg.max_depth
        if 0 < ones < len(rows) and depth_ok and len(rows) >= 2 * cfg.min_leaf:
            split = best_split(Xb[rows], ys, cfg.min_leaf)
        if split is None:
            leaf_class[node] = 1 if 2 * ones >= len(rows) else 0
            continue
        f, thr, _ = split
        go_left = Xb[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = alloc()
        right[node] = alloc()
        stack.append((left[node], rows[go_left], depth + 1))
        stack.append((right[node], rows[~go_left], depth + 1))
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        leaf_class=np.asarray(leaf_class, dtype=np.int8),
    )


def forest_trees(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> tuple:
    """The trees fit_forest should grow: tree t from SeedSequence(cfg.seed)'s
    t-th spawned child."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y).astype(np.int8)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    return tuple(fit_tree(X, y, cfg, np.random.default_rng(s)) for s in seeds)
