import tracemalloc

import numpy as np
import pytest

from conftest import mutate_tree, random_dataset, random_tree, ref_misclassified
from treekeep import (
    Dataset,
    Leaf,
    LossParams,
    Split,
    change_count,
    loss,
    misclassification_count,
    node_at,
    node_count,
    predict,
    structural_diff,
)
from treekeep.errors import InputShapeError
from treekeep.loss import _walk, repredict

STUMP = Split(0, 2.5, Leaf(0), Leaf(1))
XDATA = np.array([[1.0], [2.0], [3.0], [4.0]])


def dataset(labels, features=XDATA, n_classes=2):
    return Dataset(features, np.array(labels), n_classes)


def test_params_validation():
    LossParams(0.0, 0.0)
    with pytest.raises(ValueError):
        LossParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        LossParams(1.0, -5.0)
    with pytest.raises(ValueError):
        LossParams(float("nan"), 0.0)


def test_misclassification_leaf():
    assert misclassification_count(Leaf(0), dataset([0, 0, 1, 1])) == 2


def test_misclassification_perfect_stump():
    assert misclassification_count(STUMP, dataset([0, 0, 1, 1])) == 0


def test_misclassification_matches_rowwise_oracle():
    data = dataset([1, 0, 1, 0])
    assert misclassification_count(STUMP, data) == ref_misclassified(STUMP, data) == 2


def test_misclassification_empty_dataset():
    empty = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
    assert misclassification_count(STUMP, empty) == 0


def test_misclassification_shape_mismatch():
    with pytest.raises(InputShapeError):
        misclassification_count(Split(4, 0.0, Leaf(0), Leaf(1)), dataset([0, 0, 1, 1]))


def test_change_count_identical():
    assert change_count(STUMP, STUMP) == 0
    assert change_count(Leaf(2), Leaf(2)) == 0


def test_change_count_no_previous_tree():
    assert change_count(None, STUMP) == 3


def test_change_count_altered_variable_discards_subtree():
    assert change_count(STUMP, Split(1, 2.5, Leaf(0), Leaf(1))) == 3


def test_change_count_altered_threshold_discards_subtree():
    assert change_count(STUMP, Split(0, 3.5, Leaf(0), Leaf(1))) == 3


def test_change_count_single_leaf_change():
    assert change_count(STUMP, Split(0, 2.5, Leaf(0), Leaf(0))) == 1


def test_change_count_kind_mismatch_counts_new_subtree():
    assert change_count(Leaf(0), STUMP) == 3
    assert change_count(STUMP, Leaf(0)) == 1


def test_change_count_bounded_by_node_count():
    rng = np.random.default_rng(21)
    for _ in range(100):
        prev = random_tree(rng)
        new = mutate_tree(rng, prev) if rng.random() < 0.5 else random_tree(rng)
        d = change_count(prev, new)
        assert 0 <= d <= node_count(new)
        assert (d == 0) == (prev == new)


def test_loss_unchanged_stump():
    out = loss(STUMP, STUMP, dataset([0, 0, 1, 1]), LossParams(5.0, 1.0))
    assert (out.misclassifications, out.nodes, out.changed, out.total) == (0, 3, 0, 15.0)


def test_loss_fresh_leaf():
    data = Dataset(np.array([[0.0], [0.0], [0.0]]), np.array([0, 0, 1]), 2)
    out = loss(None, Leaf(0), data, LossParams(1.0, 1.0))
    assert (out.misclassifications, out.nodes, out.changed, out.total) == (1, 1, 1, 3.0)


def test_loss_shifted_threshold_brute_force():
    # hand oracle: f by row-by-row walk, c by count, delta by the discard rule
    data = dataset([0, 0, 1, 1])
    shifted = Split(0, 3.5, Leaf(0), Leaf(1))
    assert ref_misclassified(shifted, data) == 1  # x=3 goes left, label 1
    out = loss(STUMP, shifted, data, LossParams(5.0, 1.0))
    assert (out.misclassifications, out.nodes, out.changed) == (1, 3, 3)
    assert out.total == 19.0


def test_loss_beta_zero_ignores_previous_tree():
    data = dataset([0, 1, 1, 0])
    params = LossParams(2.0, 0.0)
    totals = {
        loss(prev, STUMP, data, params).total
        for prev in (None, STUMP, Leaf(0), Split(1, 9.0, Leaf(1), Leaf(0)))
    }
    assert len(totals) == 1


def test_loss_monotone_in_misclassifications():
    data = Dataset(np.array([[0.0], [0.0], [0.0]]), np.array([0, 0, 1]), 2)
    params = LossParams(1.0, 1.0)
    better = loss(None, Leaf(0), data, params)  # f=1
    worse = loss(None, Leaf(1), data, params)  # f=2, same c and delta
    assert worse.total > better.total


def recursive_loss(prev, new, data, alpha, beta):
    """Independent evaluation: recurse over the new tree, partitioning data,
    charging alpha per node and beta below any altered condition."""
    if isinstance(new, Leaf):
        changed = (
            prev is None or not isinstance(prev, Leaf) or prev.class_label != new.class_label
        )
        wrong = int(np.sum(data.labels != new.class_label))
        return wrong + alpha + (beta if changed else 0.0)
    root_changed = (
        prev is None
        or not isinstance(prev, Split)
        or prev.feature != new.feature
        or prev.threshold != new.threshold
    )
    prev_left = prev.left if not root_changed else None
    prev_right = prev.right if not root_changed else None
    left_data, right_data = data.partition(new.feature, new.threshold)
    return (
        recursive_loss(prev_left, new.left, left_data, alpha, beta)
        + recursive_loss(prev_right, new.right, right_data, alpha, beta)
        + alpha
        + (beta if root_changed else 0.0)
    )


def test_loss_decomposes_over_partitions():
    rng = np.random.default_rng(22)
    for _ in range(120):
        new = random_tree(rng)
        prev = None
        if rng.random() < 0.7:
            prev = mutate_tree(rng, new) if rng.random() < 0.5 else random_tree(rng)
        data = random_dataset(rng)
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        beta = float(rng.choice([0.0, 0.5, 1.0]))
        flat = loss(prev, new, data, LossParams(alpha, beta)).total
        assert flat == recursive_loss(prev, new, data, alpha, beta)


def topmost_change(prev, new, path):
    """How the node at a topmost changed path differs from the previous one."""
    if not path:
        return "root"
    if len(path) >= 2:
        return "deep"
    old, now = node_at(prev, path), node_at(new, path)
    if isinstance(old, Leaf) != isinstance(now, Leaf):
        return "leaf/split swap"
    if isinstance(now, Split) and old.feature == now.feature:
        return "threshold moved"
    return "other"


def test_repredict_matches_predict():
    rng = np.random.default_rng(51)
    seen = set()
    for case in range(400):
        prev = random_tree(rng, max_depth=4)
        new = prev if case % 8 == 0 else mutate_tree(rng, prev)
        # Half-integer values land on the grid's thresholds; every 10th set is empty.
        n_rows = 0 if case % 10 == 0 else int(rng.integers(1, 120))
        features = rng.integers(0, 17, size=(n_rows, 4)) / 2.0
        pred = predict(prev, features)
        before = pred.copy()
        report = structural_diff(prev, new)
        got = repredict(prev, new, features, pred)
        assert np.array_equal(got, predict(new, features))
        assert np.array_equal(pred, before)  # never written to
        # structural_diff is an independent oracle for the walk repredict routes by.
        kept = {e.path for e in report.entries if e.status == "kept"}
        tops = [e.path for e in report.entries if e.status == "changed" and (not e.path or e.path[:-1] in kept)]
        changed = [node for node, is_changed, _ in _walk(prev, new) if is_changed]
        assert len(changed) == len(tops) and all(node is node_at(new, p) for node, p in zip(changed, tops))
        if not tops:
            assert got is pred
            seen.add("identical")
        seen.update(topmost_change(prev, new, path) for path in tops)
        seen.add("empty" if n_rows == 0 else "rows")
    assert {"identical", "root", "deep", "leaf/split swap", "threshold moved", "empty"} <= seen


def test_repredict_checks_its_input():
    pred = predict(STUMP, XDATA)
    wide = Split(1, 0.0, Leaf(0), Leaf(1))
    with pytest.raises(InputShapeError):  # even when no node changed
        repredict(wide, wide, XDATA, pred)
    with pytest.raises(InputShapeError):
        repredict(STUMP, STUMP, XDATA[:, 0], pred)
    with pytest.raises(InputShapeError, match="3 predictions for 4 rows"):
        repredict(STUMP, STUMP, XDATA, pred[:-1])


def test_repredict_memory_is_linear_in_depth():
    # A 10,000-deep right chain whose deepest leaf flips: the one changed node
    # lies 10,000 splits down.  Root-to-node path strings for every kept
    # split on the way would take about 50 MB.
    def chain(deepest):
        tree = Leaf(deepest)
        for _ in range(10000):
            tree = Split(0, 0.5, Leaf(0), tree)
        return tree

    prev, new = chain(1), chain(0)
    features = np.array([[0.0], [1.0], [0.5]])
    pred = predict(prev, features)
    tracemalloc.start()
    try:
        got = repredict(prev, new, features, pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, predict(new, features)) and got.tolist() == [0, 0, 0]
    assert peak < 8 * 2**20
