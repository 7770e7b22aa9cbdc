"""Local-extrema labels for price paths and a small from-scratch random forest.

Days whose price sticks out by more than a relative threshold beta against
both neighbors are labeled 0 ("skip": a local max or min about to revert);
everything else is 1 ("trade allowed"). The forest forecasts tomorrow-blind
labels from the two most recent log returns so the hedging engine can gate
rebalances without lookahead.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import container
from .errors import ConfigurationError, DomainError, IntegrityError, ShapeError
from .market_sim import PathSet

_MAX_TABLE_CELLS = 2 ** 26   # the most cells a forest's lookup tables may hold
_MAX_GROUP_ROWS = 2 ** 18    # the most bootstrap rows fit_forest grows at once
_CSV_BLOCK_PATHS = 2048      # paths per write_label_csv block

# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------

def _extrema_labels(s: np.ndarray, beta: float) -> np.ndarray:
    """{0,1} labels of the prices s along the last axis; both ends are 1.

    Day t is labeled 0 iff it beats both neighbors by more than beta in
    relative terms:

        up-spike:   (S_t - S_{t-1})/S_{t-1} > beta  and  (S_t - S_{t+1})/S_{t+1} > beta
        down-spike: (S_{t-1} - S_t)/S_{t-1} > beta  and  (S_{t+1} - S_t)/S_t > beta
    """
    if beta < 0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    prev, cur, nxt = s[..., :-2], s[..., 1:-1], s[..., 2:]
    up_spike = ((cur - prev) / prev > beta) & ((cur - nxt) / nxt > beta)
    down_spike = ((prev - cur) / prev > beta) & ((nxt - cur) / cur > beta)
    labels = np.ones(s.shape, dtype=np.int8)
    labels[..., 1:-1][up_spike | down_spike] = 0
    return labels


def label_matrix(paths: PathSet, beta: float) -> np.ndarray:
    """Ground-truth labels for every hedge day: [n_paths, n_steps] in {0,1}.

    The rule of _extrema_labels on every row, less the final price's label
    (it has no tomorrow and is not a decision day anyway).
    """
    return _extrema_labels(paths.prices, beta)[:, : paths.n_steps]


def _day_rows(day_matrix: np.ndarray) -> np.ndarray:
    """The [n_paths, n_steps - 2] view of days 2 .. n_steps - 1 of a per-day
    matrix: the classifier's rows, raveled in feature_table's order."""
    return day_matrix[:, 2:]


def feature_table(paths: PathSet) -> np.ndarray:
    """Classifier features for every day with two prior returns.

    The [n_paths * (n_steps - 2), 2] table holds (log(S_t/S_{t-1}),
    log(S_{t-1}/S_{t-2})) for days t = 2 .. n_steps - 1, path-major: the
    order of a raveled _day_rows. Days 0-1 are excluded: at prediction time
    they carry no usable history and are forced to label 1.
    """
    r = np.diff(np.log(paths.prices), axis=1)   # r[:, t - 1] = log(S_t/S_{t-1})
    return np.stack([r[:, 1:-1].ravel(), r[:, :-2].ravel()], axis=1)


# ---------------------------------------------------------------------------
# decision trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 50
    max_depth: int = 12          # 0 = grow until pure
    min_leaf: int = 5
    bootstrap_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if type(self.n_trees) is not int or self.n_trees < 1:
            raise ConfigurationError(f"n_trees must be an integer >= 1, got {self.n_trees}")
        if not (type(self.min_leaf) is type(self.max_depth) is int
                and self.min_leaf >= 1 and self.max_depth >= 0):
            raise ConfigurationError("min_leaf and max_depth must be integers, >= 1 and >= 0")
        if not (0.0 < self.bootstrap_fraction <= 1.0):
            raise ConfigurationError(
                f"bootstrap fraction must be in (0, 1], got {self.bootstrap_fraction}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError(
                f"forest seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class DecisionTree:
    """Flat-array binary tree; feature[i] = -1 marks node i as a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class: np.ndarray


@dataclass(frozen=True)
class Forest:
    trees: tuple
    config: ForestConfig
    n_features: int
    _tables: tuple = field(init=False, compare=False, repr=False)  # _compile_forest

    def __post_init__(self):
        object.__setattr__(self, "_tables", _compile_forest(self.trees, self.n_features))


def _side_gini(size: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """size * (1 - (ones/size)^2 - ((size - ones)/size)^2) of each side of
    size rows, ones of them labeled 1 (float64 arrays of integers). Each step
    rounds as written: another order could break a tie between two splits
    the other way, and so change a tree."""
    p = ones / size
    q = size - ones
    q /= size
    np.square(p, out=p)
    np.square(q, out=q)
    gini = np.subtract(1.0, p, out=p)
    gini -= q
    gini *= size
    return gini


def _grow_trees(xb: np.ndarray, ranks: np.ndarray, yb: np.ndarray, n_trees: int,
                cfg: ForestConfig) -> list:
    """The trees of n_trees equal bootstraps laid end to end (features xb
    [n_features, rows], their ranks among the feature's distinct values,
    labels yb), grown together one depth at a time over presorted rows
    (SLIQ; Mehta, Agrawal & Rissanen, EDBT 1996).

    orders[f] holds the rows of every open node as one segment, sorted by
    feature f (by rank) with ties in bootstrap position: the order in which
    growing the node alone would stable-sort its rows. Each depth scores,
    with the weighted Gini, every boundary between distinct values that
    leaves min_leaf rows a side, and splits each node at its first minimum
    (first feature, then first boundary). Its children's rows move, still
    sorted, into their own segments; a child that is a leaf drops them.
    """
    n_rows, n_boot, min_leaf = xb.shape[1], xb.shape[1] // n_trees, cfg.min_leaf
    settled = []        # per batch of nodes: ids, feature, threshold, leaf class
    splits = []         # per depth: the split nodes, their left and their right children

    def leaf(ids, sizes, ones):
        settled.append((ids, -1, 0.0, 2 * ones >= sizes))

    def settle(ids, sizes, ones, depth):
        """Record the new nodes that are leaves; the mask of the others."""
        grow = (ones > 0) & (ones < sizes) & (sizes >= 2 * min_leaf)
        grow &= cfg.max_depth == 0 or depth < cfg.max_depth
        leaf(ids[~grow], sizes[~grow], ones[~grow])
        return grow

    nodes = np.arange(n_trees)
    sizes = np.full(n_trees, n_boot)
    ones = yb.reshape(n_trees, n_boot).sum(axis=1, dtype=np.int64)
    grow = settle(nodes, sizes, ones, 0)
    offsets = np.arange(0, n_rows, n_boot)[:, None]
    orders = [(np.argsort(rank.reshape(n_trees, n_boot), axis=1, kind="stable")
               + offsets)[grow].ravel() for rank in ranks]
    nodes, sizes, ones = nodes[grow], sizes[grow], ones[grow]
    n_nodes, depth = n_trees, 0
    routes = np.empty(n_rows, dtype=np.int8)
    while len(nodes):
        starts = np.cumsum(sizes) - sizes
        at = np.repeat(np.arange(len(nodes)), sizes)  # node of each position
        # a boundary after position p leaves min_leaf rows a side
        fits = np.repeat(np.tile([False, True, False], len(nodes)), np.column_stack(
            (np.full_like(sizes, min_leaf - 1), sizes - 2 * min_leaf + 1,
             np.full_like(sizes, min_leaf))).ravel())[:-1]
        # per feature and node: gini, rows and ones left, the values either side
        best = np.full((5, len(orders), len(nodes)), np.inf)
        node_rows, node_ones = sizes.astype(np.float64), ones.astype(np.float64)
        for f, order in enumerate(orders):
            rs, ys = ranks[f][order], yb[order]
            cut = np.flatnonzero(np.not_equal(rs[1:], rs[:-1]) & fits)
            if not len(cut):
                continue
            node = at[cut]
            ones_through = np.cumsum(ys, dtype=np.int32)
            base = ones_through[starts] - ys[starts]          # ones before each segment
            rows_left = (cut + 1 - starts[node]).astype(np.float64)
            ones_left = (ones_through[cut] - base[node]).astype(np.float64)
            n = node_rows[node]
            gini = _side_gini(rows_left, ones_left)
            gini += _side_gini(n - rows_left, node_ones[node] - ones_left)
            gini /= n
            first = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])  # each node's first cut
            low = np.minimum.reduceat(gini, first)
            hit = np.flatnonzero(gini == np.repeat(low, np.diff(first, append=len(cut))))
            hit = hit[np.r_[True, node[hit[1:]] != node[hit[:-1]]]]   # each node's first minimum
            best[:, f, node[first]] = (low, rows_left[hit], ones_left[hit],
                                       xb[f][order[cut[hit]]], xb[f][order[cut[hit] + 1]])
        feature = np.argmin(best[0], axis=0)
        _, rows_left, ones_left, lo, hi = best[:, feature, np.arange(len(nodes))]
        split = np.isfinite(lo)
        leaf(nodes[~split], sizes[~split], ones[~split])
        with np.errstate(over="ignore"):
            mid = 0.5 * (lo + hi)
        threshold = np.where((lo <= mid) & (mid < hi), mid, lo)   # lo where mid rounds to hi
        s = np.flatnonzero(split)
        kids = n_nodes + np.arange(2 * len(s))                    # left children, then right
        n_nodes += len(kids)
        settled.append((nodes[s], feature[s], threshold[s], -1))
        splits.append((nodes[s], kids[:len(s)], kids[len(s):]))
        kid_sizes = np.concatenate((rows_left[s], sizes[s] - rows_left[s])).astype(np.int64)
        kid_ones = np.concatenate((ones_left[s], ones[s] - ones_left[s])).astype(np.int64)
        depth += 1
        grow = settle(kids, kid_sizes, kid_ones, depth)
        # A row's route: 0 to an open left child, 1 to an open right one, 2
        # to a leaf. In the order of its split's feature, a node's first
        # n_left rows go left; a node that does not split sends all to 2.
        to = np.full((len(nodes), 2), 2, dtype=np.int8)          # [node, left / right]
        to[s, 0] = np.where(grow[:len(s)], 0, 2)
        to[s, 1] = np.where(grow[len(s):], 1, 2)
        n_left = np.where(split, rows_left, sizes).astype(np.int64)
        for f, order in enumerate(orders):
            mine = feature == f
            run = np.repeat(np.where(mine[:, None], to, 0), np.column_stack(
                (np.where(mine, n_left, sizes), np.where(mine, sizes - n_left, 0))).ravel())
            if f:
                routes[order] += run
            else:
                routes[order] = run
        nodes, sizes, ones = kids[grow], kid_sizes[grow], kid_ones[grow]
        for f, order in enumerate(orders):
            route = routes[order]
            orders[f] = np.concatenate((order[route == 0], order[route == 1]))
    return _stack_order(n_trees, n_nodes, settled, splits)


def _stack_order(n_trees: int, n_nodes: int, settled: list, splits: list) -> list:
    """The trees of _grow_trees's nodes 0 .. n_nodes - 1 (roots 0 .. n_trees - 1),
    each node numbered as a stack grows its tree: the k-th split popped, a
    right child before its left sibling, gives its children 2k + 1 and 2k + 2.
    settled holds batches (ids, feature, threshold, leaf class) and splits
    holds per depth (split nodes, their left children, their right ones)."""
    below = np.zeros(n_nodes, dtype=np.int64)      # the splits in each node's subtree
    for parents, lefts, rights in reversed(splits):
        below[parents] = 1 + below[lefts] + below[rights]
    size = 2 * below[:n_trees] + 1
    base = np.zeros(n_nodes, dtype=np.int64)       # the first row of the node's tree
    base[:n_trees] = np.cumsum(size) - size
    number = np.zeros(n_nodes, dtype=np.int64)     # the node's number in its tree
    popped = np.zeros(n_nodes, dtype=np.int64)     # the splits popped before the node
    for parents, lefts, rights in splits:
        popped[rights] = popped[parents] + 1
        popped[lefts] = popped[rights] + below[rights]
        number[lefts] = 2 * popped[parents] + 1
        number[rights] = number[lefts] + 1
        base[lefts] = base[rights] = base[parents]
    place = base + number
    columns = [np.empty(n_nodes, dtype=t) for t in (np.int32, np.float64, np.int8)]
    for ids, *values in settled:
        for column, value in zip(columns, values):
            column[place[ids]] = value
    feature, threshold, leaf_class = columns
    left, right = np.full((2, n_nodes), -1, dtype=np.int32)
    for parents, lefts, rights in splits:
        left[place[parents]], right[place[parents]] = number[lefts], number[rights]
    return [DecisionTree(feature[a:b], threshold[a:b], left[a:b], right[a:b], leaf_class[a:b])
            for a, b in zip(base[:n_trees], base[:n_trees] + size)]


def _compile_forest(trees: tuple, n_features: int) -> tuple:
    """(union, per tree (maps, table)): a tree's raveled int8 table holds the
    leaf class of each cell of the grid its thresholds cut (a table grows as
    the product of their counts, hence the cap). A value's bin counts the
    thresholds strictly below it, so x <= thr exactly when the bin is at most
    thr's index, and NaN goes right at every split. union[f] sorts all trees'
    thresholds on feature f; maps[f] takes its bins to offsets in the table.

    Each table is filled by walking its tree from the root: a split narrows
    its cells' bin bounds on its feature, and a leaf writes its class over
    its cells.
    """
    # sorted(set()), not np.unique, which imports numpy.ma (15 ms) on its first call
    thresholds = [[sorted(set(t.threshold[t.feature == f].tolist()))
                   for f in range(n_features)] for t in trees]
    cells = sum(math.prod(len(thr) + 1 for thr in per_f) for per_f in thresholds)
    if cells > _MAX_TABLE_CELLS:
        raise ConfigurationError(f"the forest's lookup tables would hold {cells} cells, "
                                 f"above {_MAX_TABLE_CELLS}: lower max_depth or "
                                 "fit_rows, or raise min_leaf")
    union = [np.array(sorted(set().union(*per_tree)), dtype=np.float64)
             for per_tree in zip(*thresholds)]
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


def fit_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> Forest:
    """Bootstrap-aggregated Gini trees; deterministic given cfg.seed.

    Tree t bootstraps from SeedSequence(cfg.seed)'s t-th spawned child. The
    trees grow together (_grow_trees) in groups of at most _MAX_GROUP_ROWS
    bootstrap rows, which bounds the memory a fit takes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ShapeError(f"features {X.shape} do not match {len(y)} labels")
    if X.shape[1] == 0:
        raise ShapeError(f"features {X.shape} have no column")
    if len(y) < 2:
        raise DomainError("need at least 2 samples to fit")
    if not (np.isin(y, (0, 1)).all() and np.isfinite(X).all()):
        raise DomainError("labels must be binary in {0, 1} and features finite")
    y = y.astype(np.int8)
    xt = np.ascontiguousarray(X.T)
    # each value's rank among its feature's distinct values: sorting ranks
    # orders rows as sorting values does, and 16-bit ranks sort by radix
    ranks = np.stack([np.unique(x, return_inverse=True)[1] for x in xt]).astype(
        np.min_scalar_type(len(y) - 1))
    n_boot = max(1, int(round(cfg.bootstrap_fraction * len(y))))
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    per_group = max(1, _MAX_GROUP_ROWS // n_boot)
    trees = []
    for first in range(0, cfg.n_trees, per_group):
        boot = np.concatenate([np.random.default_rng(s).integers(0, len(y), size=n_boot)
                               for s in seeds[first:first + per_group]])
        trees += _grow_trees(xt.take(boot, axis=1), ranks.take(boot, axis=1), y[boot],
                             len(boot) // n_boot, cfg)
    return Forest(trees=tuple(trees), config=cfg, n_features=X.shape[1])


def predict_labels(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Majority vote across trees; exact ties go to 1 (trade)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ShapeError(
            f"expected [n, {forest.n_features}] features, got {X.shape}")
    union, compiled = forest._tables
    bins = [np.searchsorted(u, x) for u, x in zip(union, X.T)]
    votes = np.zeros(len(X), dtype=np.int64)
    for maps, table in compiled:
        votes += table[sum(m[b] for m, b in zip(maps, bins))]
    return (2 * votes >= len(forest.trees)).astype(np.int8)


def vote_labels(votes: np.ndarray, n_paths: int, n_steps: int) -> np.ndarray:
    """[n_paths, n_steps] forecast labels: the votes on feature_table's rows
    on days 2 .. n_steps - 1, and 1 on days 0-1 (no history)."""
    labels = np.ones((n_paths, n_steps), dtype=np.int8)
    rows = _day_rows(labels)
    rows[:] = votes.reshape(rows.shape)
    return labels


# ---------------------------------------------------------------------------
# reporting and persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    confusion: np.ndarray       # rows = truth, cols = prediction
    prevalence_one: float       # fraction of truth labeled 1
    baseline_accuracy: float    # always-predict-majority accuracy

    def __str__(self):
        c = self.confusion
        return (
            f"accuracy {self.accuracy:.4f} (majority baseline "
            f"{self.baseline_accuracy:.4f}, class-1 prevalence {self.prevalence_one:.4f})\n"
            f"confusion [truth x prediction]:\n"
            f"          pred 0  pred 1\n"
            f"  true 0 {c[0, 0]:7d} {c[0, 1]:7d}\n"
            f"  true 1 {c[1, 0]:7d} {c[1, 1]:7d}")

    def as_dict(self) -> dict:
        """The report's numbers as plain JSON values."""
        return {"accuracy": self.accuracy, "majority_baseline": self.baseline_accuracy,
                "class_1_prevalence": self.prevalence_one,
                "confusion_truth_x_prediction": self.confusion.tolist()}


def classification_report(predictions: np.ndarray, truth: np.ndarray) -> ClassificationReport:
    predictions = np.asarray(predictions).ravel()
    truth = np.asarray(truth).ravel()
    if len(predictions) != len(truth):
        raise ShapeError(
            f"{len(predictions)} predictions vs {len(truth)} truth labels")
    if not (np.isin(predictions, (0, 1)).all() and np.isin(truth, (0, 1)).all()):
        raise DomainError("predictions and truth must be labels in {0, 1}")
    confusion = np.bincount(2 * truth.astype(np.int64) + predictions,
                            minlength=4).reshape(2, 2)
    total = len(truth)
    prevalence = float(np.mean(truth == 1))
    return ClassificationReport(
        accuracy=float(np.trace(confusion)) / total,
        confusion=confusion,
        prevalence_one=prevalence,
        baseline_accuracy=max(prevalence, 1.0 - prevalence),
    )


def save_forest(filename, forest: Forest) -> None:
    """One [n_nodes, 5] block per tree: feature, threshold, left, right, leaf."""
    blocks = {f"t{i}": np.column_stack([tree.feature, tree.threshold, tree.left,
                                        tree.right, tree.leaf_class])
              for i, tree in enumerate(forest.trees)}
    container.save(filename, "forest", blocks,
                   {**asdict(forest.config), "n_features": forest.n_features})


def _tree_from_table(table: np.ndarray, n_features: int) -> DecisionTree:
    """The tree of a [n_nodes, 5] table (feature, threshold, left, right, leaf
    class); ValueError unless it is an integral tree but for its thresholds,
    none NaN: fit_forest numbers both children after their parent, so a
    split's children must be later nodes, each one split's; a leaf's are >= -1.
    """
    if table.ndim != 2 or table.shape[1] != 5 or len(table) == 0:
        raise ValueError(f"a tree table of shape {table.shape}")
    ints, feature = table[:, [0, 2, 3, 4]], table[:, 0]
    if np.any(ints != np.trunc(ints)):     # NaN included
        raise ValueError("a node index or leaf class is not an integer")
    if np.any((feature < -1) | (feature >= n_features)):
        raise ValueError(f"feature index outside [-1, {n_features})")
    leaf = table[:, 4]
    if not np.all(np.isin(leaf, (0, 1)) | (feature >= 0) & (leaf == -1)):
        raise ValueError("leaf class outside {0, 1}, or a split's outside {-1, 0, 1}")
    first = np.where(feature >= 0, np.arange(len(table)) + 1, -1)[:, None]
    if np.any((table[:, 2:4] < first) | (table[:, 2:4] >= len(table))):
        raise ValueError("a child does not point to a later node in range")
    children = table[feature >= 0, 2:4]
    if len(np.unique(children)) != children.size or np.isnan(table[feature >= 0, 1]).any():
        raise ValueError("a node is the child of two splits, or a split's threshold is NaN")
    return DecisionTree(
        feature=feature.astype(np.int32), threshold=table[:, 1].copy(),
        left=table[:, 2].astype(np.int32), right=table[:, 3].astype(np.int32),
        leaf_class=table[:, 4].astype(np.int8))


def load_forest(filename) -> Forest:
    _, meta, blocks = container.load(filename, "forest")
    try:
        n_features = meta.pop("n_features")
        if type(n_features) is not int or not 1 <= n_features < 2 ** 31:
            raise ValueError(f"{n_features!r} features")
        cfg = ForestConfig(**meta)
        if len(blocks) != cfg.n_trees:
            raise ValueError(f"{len(blocks)} tree blocks for {cfg.n_trees} trees")
        trees = tuple(_tree_from_table(blocks[f"t{i}"], n_features)
                      for i in range(cfg.n_trees))
        return Forest(trees=trees, config=cfg, n_features=n_features)
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise IntegrityError(f"{filename}: malformed forest file ({exc!r})") from exc


def save_forecast(filename, labels: np.ndarray) -> None:
    """Forecast labels [n_paths, n_steps] in {0, 1}, row i that of path id i."""
    container.save(filename, "forecast", {"labels": labels}, {})


def load_forecast(filename) -> np.ndarray:
    """The int8 [n_paths, n_steps] labels of save_forecast; IntegrityError
    for any other block, shape or value."""
    _, _, blocks = container.load(filename, "forecast")
    labels = blocks.get("labels")
    if (set(blocks) != {"labels"} or labels.ndim != 2
            or not np.isin(labels, (0, 1)).all()):
        raise IntegrityError(f"{filename}: not one [n_paths, n_steps] block of "
                             f"labels in {{0, 1}}")
    return labels.astype(np.int8)


def write_label_csv(filename, path_ids: np.ndarray, features: np.ndarray,
                    truth: np.ndarray, predicted: np.ndarray) -> None:
    """Feature/label table: path_id, day, r1, r2, label, predicted of each
    feature_table row of the paths path_ids (and of its truth label), with
    their predicted labels [n_paths, n_steps]; _CSV_BLOCK_PATHS at a time."""
    votes = _day_rows(np.asarray(predicted))
    if (len(votes), np.shape(features), np.shape(truth)) != (
            len(path_ids), (votes.size, 2), (votes.size,)):
        raise ShapeError(f"{np.shape(predicted)} labels, {np.shape(features)} features and "
                         f"{np.shape(truth)} truth labels of {len(path_ids)} paths")
    days, rows = range(2, 2 + votes.shape[1]), votes.shape[1]
    with open(filename, "w", newline="") as fh:
        fh.write("path_id,day,r1,r2,label,predicted\n")
        for start in range(0, len(path_ids), _CSV_BLOCK_PATHS):
            stop = start + _CSV_BLOCK_PATHS
            block = slice(start * rows, stop * rows)
            keys = itertools.product(path_ids[start:stop].tolist(), days)
            columns = (*features[block].T.tolist(), truth[block].tolist(),
                       votes[start:stop].ravel().tolist())
            fh.writelines(f"{i},{t},{r1!r},{r2!r},{y},{p}\n"
                          for (i, t), r1, r2, y, p in zip(keys, *columns))
