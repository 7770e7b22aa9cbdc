"""Node-by-node tree walk: the independent oracle for the forest's lookup tables.

`predict_labels` reads each tree's vote from a table of its threshold grid.
Tests walk every row from the root instead, one comparison `x <= threshold`
per split, and require the same votes.
"""

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
