"""Node-by-node tree walks: the independent oracles for the forest's lookup tables.

`predict_labels` reads each tree's vote from a table of its threshold grid.
Tests walk every row from the root instead, one comparison `x <= threshold`
per split, and require the same votes. `_compile_forest` fills the tables
one depth at a time over all trees; `compile_forest` here walks each tree
node by node from a stack, and tests require the same tables byte for byte.
"""

import bisect

import numpy as np

from ehf.signal_forest import DecisionTree, Forest


def tree_predict(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """The leaf class that each row of X reaches from the root."""
    idx = np.zeros(len(X), dtype=np.int64)
    active = np.flatnonzero(tree.feature[idx] >= 0)
    while active.size:
        node = idx[active]
        go_left = X[active, tree.feature[node]] <= tree.threshold[node]
        idx[active] = np.where(go_left, tree.left[node], tree.right[node])
        active = active[tree.feature[idx[active]] >= 0]
    return tree.leaf_class[idx]


def forest_predict(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Majority vote of the walked trees; exact ties go to 1."""
    votes = sum(tree_predict(tree, X).astype(np.int64) for tree in forest.trees)
    return (2 * votes >= len(forest.trees)).astype(np.int8)


def compile_forest(trees: tuple, n_features: int) -> tuple:
    """The forest's lookup tables as signal_forest._compile_forest gives them
    (union, per tree (maps, raveled table)), each table filled by walking
    its tree from the root, one node at a time: a split narrows its cells'
    bin bounds on its feature, and a leaf writes its class over its cells."""
    thresholds = [[np.unique(t.threshold[t.feature == f]).tolist()
                   for f in range(n_features)] for t in trees]
    union = [np.unique(np.concatenate(per_tree)) for per_tree in zip(*thresholds)]
    compiled = []
    for tree, per_f in zip(trees, thresholds):
        table = np.zeros([len(thr) + 1 for thr in per_f], dtype=np.int8)
        feature, threshold, left, right, leaf = (a.tolist() for a in (
            tree.feature, tree.threshold, tree.left, tree.right, tree.leaf_class))
        stack = [(0, (0,) * n_features, table.shape)]   # node, its cells' bin bounds
        while stack:
            node, lo, hi = stack.pop()
            f = feature[node]
            if f < 0:
                table[tuple(map(slice, lo, hi))] = leaf[node]
                continue
            k = bisect.bisect_left(per_f[f], threshold[node]) + 1  # bins < k go left
            stack += [(left[node], lo, hi[:f] + (min(hi[f], k),) + hi[f + 1:]),
                      (right[node], lo[:f] + (max(lo[f], k),) + lo[f + 1:], hi)]
        maps = [np.append(np.searchsorted(thr, u), len(thr)) * stride
                for thr, u, stride in zip(per_f, union, table.strides)]
        compiled.append((maps, table.ravel()))
    return union, compiled
