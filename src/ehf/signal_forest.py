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


def label_extrema(path: np.ndarray, beta: float) -> np.ndarray:
    """Per-day {0,1} labels for one path of at least 3 prices: 0 on a day
    that spikes by more than beta against both neighbors (_extrema_labels)."""
    s = np.asarray(path, dtype=np.float64)
    if s.ndim != 1 or len(s) < 3:
        raise DomainError(f"need at least 3 prices to label, got shape {s.shape}")
    return _extrema_labels(s, beta)


def label_matrix(paths: PathSet, beta: float) -> np.ndarray:
    """Ground-truth labels for every hedge day: [n_paths, n_steps] in {0,1}.

    The rule of label_extrema on every row, less the final price's label (it
    has no tomorrow and is not a decision day anyway).
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
        if self.n_trees < 1:
            raise ConfigurationError(f"need at least one tree, got {self.n_trees}")
        if self.min_leaf < 1 or self.max_depth < 0:
            raise ConfigurationError("min_leaf must be >= 1 and max_depth >= 0")
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


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Exhaustive weighted-Gini minimization over midpoint thresholds.

    Returns (feature, threshold, gini) or None if no split leaves both sides
    with at least min_leaf samples.
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
            best = (gini[i], f, 0.5 * (xs[i] + xs[i + 1]))
    if best[1] < 0:
        return None
    return best[1], best[2], best[0]


def _fit_tree(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
              rng: np.random.Generator) -> DecisionTree:
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
            split = _best_split(Xb[rows], ys, cfg.min_leaf)
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


def _compile_forest(trees: tuple, n_features: int) -> tuple:
    """(union, per tree (maps, table)): a tree's raveled int8 table holds the
    leaf class of each cell of the grid its thresholds cut (a table grows as
    the product of their counts, hence the cap). A value's bin counts the
    thresholds strictly below it, so x <= thr exactly when the bin is at most
    thr's index, and NaN goes right at every split. union[f] sorts all trees'
    thresholds on feature f; maps[f] takes its bins to offsets in the table."""
    thresholds = [[np.unique(t.threshold[t.feature == f]).tolist()
                   for f in range(n_features)] for t in trees]
    cells = sum(math.prod(len(thr) + 1 for thr in per_f) for per_f in thresholds)
    if cells > _MAX_TABLE_CELLS:
        raise ConfigurationError(f"the forest's lookup tables would hold {cells} cells, "
                                 f"above {_MAX_TABLE_CELLS}: lower max_depth or "
                                 "fit_rows, or raise min_leaf")
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


def fit_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> Forest:
    """Bootstrap-aggregated Gini trees; deterministic given cfg.seed."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ShapeError(f"features {X.shape} do not match {len(y)} labels")
    if len(y) < 2:
        raise DomainError("need at least 2 samples to fit")
    if not (np.isin(y, (0, 1)).all() and np.isfinite(X).all()):
        raise DomainError("labels must be binary in {0, 1} and features finite")
    y = y.astype(np.int8)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    trees = tuple(_fit_tree(X, y, cfg, np.random.default_rng(s)) for s in seeds)
    return Forest(trees=trees, config=cfg, n_features=X.shape[1])


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


def predict_label_matrix(forest: Forest, paths: PathSet) -> np.ndarray:
    """[n_paths, n_steps] forecast labels; days 0-1 forced to 1 (no history)."""
    labels = np.ones((paths.n_paths, paths.n_steps), dtype=np.int8)
    rows = _day_rows(labels)
    rows[:] = predict_labels(forest, feature_table(paths)).reshape(rows.shape)
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
    none NaN: _fit_tree allocates both children after their parent, so a
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
