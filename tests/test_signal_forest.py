"""Extremum labeling, the random-forest classifier, and signal artifacts."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ehf
from ehf import container, signal_forest
from ehf.errors import ConfigurationError, DomainError, IntegrityError, ShapeError
from ehf.signal_forest import DecisionTree, Forest, load_forest, predict_labels
from node_walk import forest_predict, tree_predict
from reference import label_extrema, predict_label_matrix
from tree_oracle import best_split, forest_trees


def _pathset(prices, s0=100.0):
    prices = np.asarray(prices, dtype=np.float64)
    return ehf.PathSet(prices, s0, np.arange(prices.shape[0]))


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------

def test_label_matrix_matches_per_path(heston_small):
    mat = ehf.label_matrix(heston_small, 0.05)
    assert mat.shape == (256, 30)
    for i in (0, 100, 255):
        full = label_extrema(heston_small.prices[i], 0.05)
        assert np.array_equal(mat[i], full[:30])


def _truth_rows(paths, beta=0.05):
    """The label of every classifier row: days 2 .. n_steps - 1, path-major."""
    return ehf.label_matrix(paths, beta)[:, 2:].ravel()


def test_feature_table_log_returns(heston_small):
    X = ehf.feature_table(heston_small)
    assert X.shape == (256 * 28, 2)    # days 2 .. 29 of every path
    for k in (0, 27, 28, 1000, len(X) - 1):
        i, t = divmod(k, 28)
        t += 2
        s = heston_small.prices[i]
        assert X[k, 0] == pytest.approx(np.log(s[t] / s[t - 1]), abs=1e-14)
        assert X[k, 1] == pytest.approx(np.log(s[t - 1] / s[t - 2]), abs=1e-14)
    assert np.all(np.isfinite(X))


# ---------------------------------------------------------------------------
# forest internals
# ---------------------------------------------------------------------------

def test_best_split_matches_brute_force():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(np.int8)

    def brute():
        best = (np.inf, None, None)
        for f in range(2):
            vals = np.unique(X[:, f])
            for lo, hi in zip(vals[:-1], vals[1:]):
                thr = (lo + hi) / 2
                go_left = X[:, f] <= thr
                nl, nr = go_left.sum(), (~go_left).sum()
                if nl < 1 or nr < 1:
                    continue
                def gini(part):
                    p = y[part].mean() if part.any() else 0.0
                    return 2 * p * (1 - p)
                w = (nl * gini(go_left) + nr * gini(~go_left)) / 40
                if w < best[0]:
                    best = (w, f, thr)
        return best

    w_ref, f_ref, thr_ref = brute()
    f, thr, w = best_split(X, y, min_leaf=1)
    assert f == f_ref
    assert thr == pytest.approx(thr_ref, abs=1e-12)
    assert w == pytest.approx(w_ref, abs=1e-12)


@pytest.mark.parametrize("lo, hi", [(1 + 2.0 ** -52, 1 + 2.0 ** -51), (1.5e308, 1.7e308)],
                         ids=["adjacent-doubles", "midpoint-overflows"])
def test_split_between_close_or_huge_values_separates_them(lo, hi):
    """0.5 * (lo + hi) rounds to hi, or overflows to inf, so a midpoint
    threshold would send every row left; the split's threshold is lo instead."""
    X = np.repeat([lo, hi], 10)[:, None]
    y = np.repeat([0, 1], 10)
    forest = ehf.fit_forest(X, y, ehf.ForestConfig(n_trees=1, min_leaf=1))
    tree = forest.trees[0]
    assert tree.threshold[0] == lo and len(tree.feature) == 3
    np.testing.assert_array_equal(predict_labels(forest, X), y)
    assert best_split(X, y, min_leaf=1)[1] == lo


def test_separable_set_perfect_training_accuracy():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 2))
    y = (X[:, 0] > 0).astype(np.int8)
    forest = ehf.fit_forest(X, y, ehf.ForestConfig(n_trees=11, seed=3))
    assert np.array_equal(predict_labels(forest, X), y)


def test_single_class_input_is_constant_forest():
    X = np.random.default_rng(7).normal(size=(30, 2))
    forest = ehf.fit_forest(X, np.zeros(30, dtype=np.int8),
                            ehf.ForestConfig(n_trees=5, seed=0))
    assert np.all(predict_labels(forest, X) == 0)


def test_tie_vote_goes_to_one():
    leaf0 = DecisionTree(np.array([-1]), np.zeros(1), np.array([-1]),
                         np.array([-1]), np.array([0], dtype=np.int8))
    leaf1 = DecisionTree(np.array([-1]), np.zeros(1), np.array([-1]),
                         np.array([-1]), np.array([1], dtype=np.int8))
    forest = Forest((leaf0, leaf1), ehf.ForestConfig(n_trees=2), 2)
    votes = predict_labels(forest, np.zeros((4, 2)))
    assert np.all(votes == 1)


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(150, 2))
    y = (rng.uniform(size=150) > 0.3).astype(np.int8)
    cfg = ehf.ForestConfig(n_trees=7, seed=42)
    p1 = predict_labels(ehf.fit_forest(X, y, cfg), X)
    p2 = predict_labels(ehf.fit_forest(X, y, cfg), X)
    assert np.array_equal(p1, p2)


def test_predict_shape_guard():
    X = np.random.default_rng(10).normal(size=(50, 2))
    forest = ehf.fit_forest(X, (X[:, 0] > 0).astype(np.int8),
                            ehf.ForestConfig(n_trees=3, seed=1))
    with pytest.raises(ShapeError):
        predict_labels(forest, np.zeros((5, 3)))


def test_training_accuracy_beats_majority_baseline(heston_small):
    X, truth = ehf.feature_table(heston_small), _truth_rows(heston_small)
    forest = ehf.fit_forest(X, truth, ehf.ForestConfig(seed=11))
    report = ehf.classification_report(predict_labels(forest, X), truth)
    assert report.accuracy >= report.baseline_accuracy


def test_heldout_accuracy_with_regularized_trees(heston_wide):
    """Strongly regularized trees cannot do worse than the majority class on
    held-out data (two past returns barely predict tomorrow)."""
    train = heston_wide.take(0, 3000)
    test = heston_wide.take(3000, 4096)
    Xtr, ytr = ehf.feature_table(train), _truth_rows(train)
    forest = ehf.fit_forest(Xtr, ytr, ehf.ForestConfig(n_trees=20, max_depth=12,
                                                       min_leaf=5, seed=12))
    Xte, yte = ehf.feature_table(test), _truth_rows(test)
    report = ehf.classification_report(predict_labels(forest, Xte), yte)
    assert report.accuracy >= report.baseline_accuracy - 0.01


# ---------------------------------------------------------------------------
# the depth-at-a-time fit against the node-by-node oracle
# ---------------------------------------------------------------------------

def _assert_oracle_trees(forest, X, y, cfg):
    """Every tree equals the oracle's in every array, dtype and byte."""
    oracle = forest_trees(X, y, cfg)
    assert len(forest.trees) == len(oracle)
    for t, (tree, want) in enumerate(zip(forest.trees, oracle)):
        for name in ("feature", "threshold", "left", "right", "leaf_class"):
            a, b = getattr(tree, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                f"tree {t}: {name} {a} != {b}"


# ties, signed zeros, adjacent doubles and midpoints that overflow
_GRID = (-1.0, -0.0, 0.0, 0.5, 1.0, 1 + 2.0 ** -52, 1 + 2.0 ** -51, 1.5e308, 1.7e308)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_trees=st.integers(1, 4), n_rows=st.integers(2, 300), n_features=st.integers(1, 3),
       grid=st.booleans(), labels=st.sampled_from(["mixed", "zeros", "ones", "by-x"]),
       max_depth=st.integers(0, 6), min_leaf=st.integers(1, 8),
       bootstrap=st.one_of(st.just(1e-6), st.just(1.0), st.floats(1e-3, 1.0)),
       group_rows=st.sampled_from([None, 1, 2, 37, 300]), seed=st.integers(0, 2 ** 32 - 1))
def test_fit_grows_the_oracle_trees(monkeypatch, n_trees, n_rows, n_features, grid, labels,
                                    max_depth, min_leaf, bootstrap, group_rows, seed):
    """fit_forest grows, tree for tree, what growing each tree node by node
    grows: on heavily tied and on continuous values, single-class labels, a
    one-row bootstrap (bootstrap 1e-6), and trees grown in groups of a
    lowered row cap."""
    rng = np.random.default_rng(seed)
    if grid:
        X = rng.choice(rng.choice(_GRID, size=rng.integers(1, 5)), size=(n_rows, n_features))
    else:
        X = rng.normal(size=(n_rows, n_features)) * 10.0 ** rng.integers(-3, 4)
    y = {"mixed": rng.integers(0, 2, size=n_rows), "zeros": np.zeros(n_rows, dtype=int),
         "ones": np.ones(n_rows, dtype=int),
         "by-x": (X[:, 0] + 0.5 * rng.normal(size=n_rows) > 0).astype(int)}[labels]
    cfg = ehf.ForestConfig(n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                           bootstrap_fraction=bootstrap, seed=seed)
    with monkeypatch.context() as patch:
        if group_rows:
            patch.setattr(signal_forest, "_MAX_GROUP_ROWS", group_rows)
        forest = ehf.fit_forest(X, y, cfg)
    _assert_oracle_trees(forest, X, y, cfg)


def test_fit_grows_the_oracle_trees_on_heston_features(heston_small):
    """Desk's [labels] forest on 7,168 Heston rows: two groups of trees at
    the default row cap."""
    X, y = ehf.feature_table(heston_small), _truth_rows(heston_small)
    cfg = ehf.ForestConfig(n_trees=50, max_depth=12, min_leaf=5, seed=7)
    assert len(y) * cfg.n_trees > signal_forest._MAX_GROUP_ROWS
    _assert_oracle_trees(ehf.fit_forest(X, y, cfg), X, y, cfg)


# ---------------------------------------------------------------------------
# lookup tables against the node walk
# ---------------------------------------------------------------------------

_SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _probe(forest, rng, n=300):
    """Rows of values exactly at the forest's thresholds, one ulp either side
    of them, +-0.0, +-inf and NaN, mixed across the columns at random."""
    thr = np.concatenate([t.threshold[t.feature >= 0] for t in forest.trees])
    pool = np.concatenate([thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf),
                           _SPECIAL, rng.normal(size=8)])
    return rng.choice(pool, size=(n, forest.n_features))


def _assert_cells_hold_walk(forest):
    """Each cell of a tree's table holds the class that walking the tree
    gives at the cell's representative point: on each feature, the tree's
    threshold that closes the cell's bin, or NaN for the last bin, since NaN
    goes right at every split. The thresholds' union equals the sorted
    distinct thresholds of all trees in value: where trees split at both 0.0
    and -0.0 it holds one of them, and no search tells them apart."""
    union, compiled = forest._tables
    thresholds = [[t.threshold[t.feature == f] for f in range(forest.n_features)]
                  for t in forest.trees]
    for u, per_tree in zip(union, zip(*thresholds), strict=True):
        assert u.dtype == np.float64 and np.array_equal(u, np.unique(np.concatenate(per_tree)))
    for tree, per_f, (_, table) in zip(forest.trees, thresholds, compiled, strict=True):
        points = np.meshgrid(*(np.append(np.unique(thr), np.nan) for thr in per_f),
                             indexing="ij")
        assert table.dtype == np.int8
        np.testing.assert_array_equal(
            table, tree_predict(tree, np.column_stack([p.ravel() for p in points])))


def _assert_tables_match_walk(forest, X):
    """The forest's table cells hold the node walk's classes; each tree's
    table vote (as a one-tree forest) and the forest's majority vote equal
    the walk's."""
    _assert_cells_hold_walk(forest)
    for tree in forest.trees:
        single = Forest((tree,), ehf.ForestConfig(n_trees=1), forest.n_features)
        np.testing.assert_array_equal(predict_labels(single, X), tree_predict(tree, X))
    np.testing.assert_array_equal(predict_labels(forest, X), forest_predict(forest, X))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_features=st.integers(1, 3), n_rows=st.integers(2, 120),
       distinct=st.integers(1, 6), max_depth=st.sampled_from([0, 1, 3, 8]),
       min_leaf=st.integers(1, 3), n_trees=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tables_vote_as_the_node_walk(tmp_path, n_features, n_rows, distinct,
                                      max_depth, min_leaf, n_trees, seed):
    """Random forests fit on heavily duplicated values: the tables' votes
    equal the walk's on training rows and on probes at every threshold, and
    so do a saved and reloaded forest's."""
    rng = np.random.default_rng(seed)
    X = rng.choice(rng.normal(size=distinct), size=(n_rows, n_features))
    y = rng.integers(0, 2, size=n_rows)
    forest = ehf.fit_forest(X, y, ehf.ForestConfig(
        n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf, seed=seed))
    probe = np.vstack([X, _probe(forest, rng)])
    _assert_tables_match_walk(forest, probe)
    ehf.save_forest(tmp_path / "forest.ehff", forest)
    loaded = load_forest(tmp_path / "forest.ehff")
    _assert_tables_match_walk(loaded, probe)
    np.testing.assert_array_equal(predict_labels(loaded, probe),
                                  predict_labels(forest, probe))


@settings(max_examples=25, deadline=None)
@given(n_trees=st.integers(1, 50), max_depth=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tables_equal_the_node_walks(n_trees, max_depth, seed):
    """Forests of 1 to 50 trees, 1 to 12 deep, on two noisy features: every
    cell of every table holds the class the node walk gives there."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(600, 2))
    y = (X[:, 0] * X[:, 1] + 0.5 * rng.normal(size=600) > 0).astype(np.int8)
    _assert_cells_hold_walk(ehf.fit_forest(X, y, ehf.ForestConfig(
        n_trees=n_trees, max_depth=max_depth, min_leaf=2, seed=seed)))


@st.composite
def _random_tree(draw, n_features):
    """A tree no fit would grow: thresholds repeat along a path, fall outside
    their cell, sit at +-0.0 or +-inf."""
    feature, threshold, left, right, leaf = [], [], [], [], []
    values = st.sampled_from([-1.0, -0.5, 0.0, -0.0, 0.5, 1.0, np.inf, -np.inf])

    def grow(depth):
        node = len(feature)
        for column in (feature, threshold, left, right, leaf):
            column.append(-1)
        if depth == 0 or draw(st.booleans()):
            threshold[node], leaf[node] = 0.0, draw(st.integers(0, 1))
            return node
        feature[node] = draw(st.integers(0, n_features - 1))
        threshold[node] = draw(values)
        left[node] = grow(depth - 1)
        right[node] = grow(depth - 1)
        return node

    grow(draw(st.integers(0, 5)))
    return DecisionTree(np.array(feature, dtype=np.int32),
                        np.array(threshold, dtype=np.float64),
                        np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
                        np.array(leaf, dtype=np.int8))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_features=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_tables_of_arbitrary_trees_vote_as_the_node_walk(data, n_features, seed):
    trees = tuple(data.draw(st.lists(_random_tree(n_features), min_size=1, max_size=4)))
    forest = Forest(trees, ehf.ForestConfig(n_trees=len(trees)), n_features)
    _assert_tables_match_walk(forest, _probe(forest, np.random.default_rng(seed)))


def test_fit_and_compile_leave_numpy_ma_unimported():
    """A plain np.unique imports numpy.ma (about 15 ms and 1.5 MB) on its
    first call; neither fitting a forest nor compiling its tables needs it."""
    probe = ("import sys, numpy as np, ehf\n"
             "X = np.random.default_rng(0).normal(size=(200, 2))\n"
             "ehf.fit_forest(X, (X[:, 0] > 0).astype(np.int8), ehf.ForestConfig(n_trees=3))\n"
             "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(pathlib.Path(ehf.__file__).parents[1]),
                      os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.split() == ["False"]


def test_fit_refuses_non_finite_features():
    """The midpoint of -inf and +inf is a NaN threshold, which no bin search
    can place; so fitting refuses any non-finite feature."""
    X = np.array([[-np.inf, 0.0], [np.inf, 1.0], [0.0, 2.0], [1.0, 3.0]])
    for bad in (X, np.where(np.isinf(X), np.nan, X)):
        with pytest.raises(DomainError, match="finite"):
            ehf.fit_forest(bad, np.array([0, 1, 0, 1]), ehf.ForestConfig(n_trees=1))


def test_fit_refuses_zero_columns():
    """With no feature no node can split: a forest of bare leaves whose class
    is bootstrap luck."""
    with pytest.raises(ShapeError, match="no column"):
        ehf.fit_forest(np.zeros((10, 0)), [0, 1] * 5, ehf.ForestConfig(n_trees=1))


def test_table_cap_refuses_fit_and_load(tmp_path, monkeypatch):
    """A forest whose tables would hold more cells than the cap is a
    ConfigurationError on fit and an IntegrityError on load."""
    X = np.random.default_rng(5).normal(size=(200, 2))
    y = (X[:, 0] * X[:, 1] > 0).astype(np.int8)
    cfg = ehf.ForestConfig(n_trees=3, seed=1)
    forest = ehf.fit_forest(X, y, cfg)
    ehf.save_forest(tmp_path / "forest.ehff", forest)
    cells = sum(t.size for _, t in forest._tables[1])
    monkeypatch.setattr(signal_forest, "_MAX_TABLE_CELLS", cells)
    ehf.fit_forest(X, y, cfg)            # at the cap: accepted
    load_forest(tmp_path / "forest.ehff")
    monkeypatch.setattr(signal_forest, "_MAX_TABLE_CELLS", cells - 1)
    with pytest.raises(ConfigurationError, match="max_depth or fit_rows, or raise min_leaf"):
        ehf.fit_forest(X, y, cfg)
    with pytest.raises(IntegrityError, match="cells"):
        load_forest(tmp_path / "forest.ehff")


def test_classification_report_oracles():
    truth = np.array([1, 1, 0, 1, 0, 1])
    perfect = ehf.classification_report(truth.copy(), truth)
    assert perfect.accuracy == 1.0
    assert perfect.confusion[0, 1] == 0 and perfect.confusion[1, 0] == 0
    all_ones = ehf.classification_report(np.ones(6, dtype=np.int8), truth)
    assert all_ones.accuracy == pytest.approx(4 / 6)
    assert all_ones.accuracy == pytest.approx(all_ones.prevalence_one)
    rng = np.random.default_rng(13)
    t = (rng.uniform(size=20000) > 0.5).astype(np.int8)
    p = (rng.uniform(size=20000) > 0.5).astype(np.int8)
    chance = ehf.classification_report(p, t)
    assert chance.accuracy == pytest.approx(0.5, abs=0.02)
    for truth_label in (0, 1):
        for vote in (0, 1):
            assert chance.confusion[truth_label, vote] == np.sum(
                (t == truth_label) & (p == vote))
    with pytest.raises(DomainError):
        ehf.classification_report(np.array([0, 2]), np.array([0, 1]))


def test_forest_roundtrip(tmp_path, heston_small):
    X, truth = ehf.feature_table(heston_small), _truth_rows(heston_small)
    forest = ehf.fit_forest(X[:3000], truth[:3000], ehf.ForestConfig(n_trees=9, seed=3))
    fn = tmp_path / "forest.ehff"
    ehf.save_forest(fn, forest)
    loaded = load_forest(fn)
    assert loaded.config == forest.config
    assert loaded.n_features == forest.n_features
    probe = X[3000:4000]
    assert np.array_equal(predict_labels(loaded, probe),
                          predict_labels(forest, probe))


def test_forest_file_rejects_garbage(tmp_path):
    fn = tmp_path / "forest.ehff"
    fn.write_bytes(b"not an archive at all")
    with pytest.raises(IntegrityError):
        load_forest(fn)


def _set(blocks, column, value, row=None):
    """Write value into one column of tree 0's table, at one row or all."""
    blocks["t0"][slice(None) if row is None else row, column] = value


@pytest.mark.parametrize("edit,message", [
    (lambda meta, blocks: meta.pop("n_features"), "n_features"),
    (lambda meta, blocks: meta.update(bootstrap_fraction=1.5), "bootstrap fraction"),
    (lambda meta, blocks: _set(blocks, 2, 0), "later node"),
    (lambda meta, blocks: _set(blocks, 3, 10 ** 6), "later node"),
    (lambda meta, blocks: _set(blocks, 0, 2, row=0), "feature index"),
    (lambda meta, blocks: _set(blocks, 4, 7, row=-1), "leaf class"),
    (lambda meta, blocks: _set(blocks, 2, 1.5, row=0), "not an integer"),
    (lambda meta, blocks: _set(blocks, 1, np.nan, row=0), "threshold is NaN"),
    (lambda meta, blocks: _set(blocks, 4, -1, row=-1), "leaf class outside"),
    (lambda meta, blocks: _set(blocks, 3, blocks["t0"][0, 2], row=0), "two splits"),
], ids=["meta-missing-n_features", "invalid-config", "child-loops-back",
        "child-out-of-range", "feature-out-of-range", "leaf-class-7",
        "non-integral-child", "nan-threshold", "leaf-class-minus-1",
        "shared-child"])
def test_load_forest_rejects_corrupt_tables(tmp_path, edit, message):
    """Each fault is an IntegrityError at load time; a left child pointing back
    at its parent used to make prediction loop forever."""
    X = np.random.default_rng(5).normal(size=(400, 2))
    y = (X[:, 0] > 0.1).astype(np.int8)
    fn = tmp_path / "forest.ehff"
    ehf.save_forest(fn, ehf.fit_forest(X, y, ehf.ForestConfig(n_trees=3, seed=1)))
    _, meta, blocks = container.load(fn, "forest")
    assert blocks["t0"][0, 0] >= 0  # the root is a split
    edit(meta, blocks)
    container.save(fn, "forest", blocks, meta)
    with pytest.raises(IntegrityError, match=message):
        load_forest(fn)


def test_prepare_signal_artifacts(heston_small):
    train = heston_small.take(0, 200)
    test = heston_small.take(200, 256)
    art = ehf.prepare_signal(train, test, beta=0.05,
                             forest_cfg=ehf.ForestConfig(n_trees=5, seed=4),
                             fit_rows=1500)
    assert art.forecast.shape == (256, 30)
    assert set(np.unique(art.forecast)) <= {0, 1}
    assert art.train_report.accuracy >= 0
    assert "accuracy" in str(art.test_report)
    # the forecast labels are the forest's votes on the train, then the test paths
    np.testing.assert_array_equal(
        np.concatenate([predict_label_matrix(art.forest, train),
                        predict_label_matrix(art.forest, test)]), art.forecast)
    # each report scores the votes on days 2 .. 29 against the truth there
    for report, rows, paths in ((art.train_report, art.forecast[:200], train),
                                (art.test_report, art.forecast[200:], test)):
        expected = ehf.classification_report(rows[:, 2:], _truth_rows(paths))
        assert report.as_dict() == expected.as_dict()


def test_write_label_csv(tmp_path, heston_small):
    fn = tmp_path / "labels.csv"
    paths = heston_small.take(40, 50)    # path ids 40 .. 49
    predicted = (np.arange(300).reshape(10, 30) % 3 != 0).astype(np.int8)
    inputs = (paths.path_ids, ehf.feature_table(paths), _truth_rows(paths))
    ehf.write_label_csv(fn, *inputs, predicted)
    lines = fn.read_text().strip().splitlines()
    assert lines[0] == "path_id,day,r1,r2,label,predicted"
    assert len(lines) == 1 + 10 * 28  # days 2..29 per path
    assert "np.float64" not in lines[1]
    # each row, recomputed from the prices: path id, day, the two log returns
    # (exact, as repr round-trips), the extremum label and the predicted label
    expected = []
    for i in range(10):
        log_s, truth = np.log(paths.prices[i]), label_extrema(paths.prices[i], 0.05)
        for t in range(2, 30):
            expected.append([40 + i, t, log_s[t] - log_s[t - 1],
                             log_s[t - 1] - log_s[t - 2], truth[t], predicted[i, t]])
    rows = [[int(a), int(b), float(c), float(d), int(e), int(f)]
            for a, b, c, d, e, f in (line.split(",") for line in lines[1:])]
    assert rows == expected
    assert {row[4] for row in rows} == {0, 1} and {row[5] for row in rows} == {0, 1}
    with pytest.raises(ShapeError):     # labels of another shape than the paths'
        ehf.write_label_csv(fn, *inputs, np.ones((10, 31), dtype=np.int8))
    with pytest.raises(ShapeError):     # features of another path count
        ehf.write_label_csv(fn, paths.path_ids[:9], *inputs[1:], predicted[:9])


def test_write_label_csv_blocks_join_seamlessly(tmp_path, heston_small, monkeypatch):
    """Blocks of 3 paths, the last one short, write the bytes of one block."""
    paths = heston_small.take(0, 10)
    predicted = np.ones((10, 30), dtype=np.int8)
    rows = (paths.path_ids, ehf.feature_table(paths), _truth_rows(paths), predicted)
    ehf.write_label_csv(tmp_path / "one.csv", *rows)
    monkeypatch.setattr(signal_forest, "_CSV_BLOCK_PATHS", 3)
    ehf.write_label_csv(tmp_path / "blocks.csv", *rows)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_forecast_labels_roundtrip(tmp_path, gbm_small):
    labels = ehf.label_matrix(gbm_small, 0.005)
    ehf.save_forecast(tmp_path / "forecast.ehfl", labels)
    loaded = ehf.load_forecast(tmp_path / "forecast.ehfl")
    assert loaded.dtype == np.int8 and np.array_equal(loaded, labels)


@pytest.mark.parametrize("blocks", [
    {"labels": np.array([[1.0, 2.0]])}, {"labels": np.array([[1.0, np.nan]])},
    {"labels": np.ones(3)}, {"labels": np.ones((2, 3)), "extra": np.ones(1)},
    {"votes": np.ones((2, 3))}],
    ids=["label-2", "nan", "one-dimensional", "extra-block", "other-name"])
def test_load_forecast_rejects_other_blocks(tmp_path, blocks):
    container.save(tmp_path / "forecast.ehfl", "forecast", blocks, {})
    with pytest.raises(IntegrityError, match="labels in"):
        ehf.load_forecast(tmp_path / "forecast.ehfl")
