"""Row-by-row tree walks: the independent oracles for the forest's lookup tables.

`predict_labels` reads each tree's vote from a table of its threshold grid,
which `_compile_forest` fills by walking the tree's nodes from a stack and
narrowing each split's bin bounds. The walks here take rows, not bins: each
row goes from the root one comparison `x <= threshold` per split. Tests
require that every table cell holds the class the walk gives at the cell's
representative point, and that the tables vote as the walk does.
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
