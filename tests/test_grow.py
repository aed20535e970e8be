import importlib
import itertools

import numpy as np
import pytest

from conftest import random_dataset, ref_gini, ref_misclassified
from treekeep import Dataset, GrowthConfig, Leaf, LossParams, Split, best_split, grow, prune
from treekeep.grow import grow_pruned
from treekeep.prune import _prune
from treekeep.tree import depth

# The module itself: the package re-exports the function ``grow``.
GROW_MODULE = importlib.import_module("treekeep.grow")


def dataset(x, y, n_classes=2):
    return Dataset(np.asarray(x, dtype=float).reshape(len(y), -1), np.array(y), n_classes)


FOUR = dataset([1, 2, 3, 4], [0, 0, 1, 1])


def test_best_split_perfect_midpoint():
    cand = best_split(FOUR)
    assert cand.feature == 0
    assert cand.threshold == 2.5
    assert cand.decrease == 0.5


def test_best_split_scans_all_midpoints():
    # exhaustive oracle over candidates {1.5, 2.5, 3.5}
    parent = ref_gini(FOUR.labels, 2)
    best = None
    for thr in (1.5, 2.5, 3.5):
        left = FOUR.labels[FOUR.features[:, 0] <= thr]
        right = FOUR.labels[FOUR.features[:, 0] > thr]
        dec = parent - len(left) / 4 * ref_gini(left, 2) - len(right) / 4 * ref_gini(right, 2)
        if best is None or dec > best[0]:
            best = (dec, thr)
    cand = best_split(FOUR)
    assert (cand.decrease, cand.threshold) == best


def test_best_split_pure_labels():
    assert best_split(dataset([1, 2, 3], [1, 1, 1])) is None


def test_best_split_identical_rows():
    assert best_split(dataset([2, 2, 2], [0, 1, 0])) is None


def test_best_split_skips_constant_feature():
    data = Dataset(
        np.array([[7.0, 0.0], [7.0, 1.0], [7.0, 0.0], [7.0, 1.0]]),
        np.array([0, 1, 0, 1]),
        2,
    )
    cand = best_split(data)
    assert cand.feature == 1


def test_best_split_tie_prefers_lowest_feature():
    column = np.array([1.0, 2.0, 3.0, 4.0])
    data = Dataset(np.column_stack([column, column]), np.array([0, 0, 1, 1]), 2)
    assert best_split(data).feature == 0


def test_best_split_empty_errors():
    with pytest.raises(ValueError):
        best_split(Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2))


def test_grow_single_perfect_split():
    assert grow(FOUR) == Split(0, 2.5, Leaf(0), Leaf(1))


def test_grow_pure_labels_gives_leaf():
    assert grow(dataset([5, 6, 7], [1, 1, 1])) == Leaf(1)


def test_grow_respects_depth_cap():
    data = dataset([1, 2, 3, 4], [0, 1, 0, 1])
    tree = grow(data, GrowthConfig(max_depth=1))
    assert depth(tree) <= 1


def test_grow_deterministic():
    rng = np.random.default_rng(31)
    for _ in range(10):
        data = random_dataset(rng)
        assert grow(data) == grow(data)


def test_grow_leaf_tie_breaks_to_lowest_class():
    data = dataset([1, 1], [0, 1])  # identical rows, tied counts
    assert grow(data) == Leaf(0)


def walk_partitions(tree, data):
    yield tree, data
    if isinstance(tree, Split):
        left, right = data.partition(tree.feature, tree.threshold)
        yield from walk_partitions(tree.left, left)
        yield from walk_partitions(tree.right, right)


def test_grow_splits_have_positive_gain_and_occupied_children():
    rng = np.random.default_rng(32)
    for _ in range(30):
        data = random_dataset(rng, max_rows=50)
        tree = grow(data)
        for node, part in walk_partitions(tree, data):
            if isinstance(node, Split):
                left, right = part.partition(node.feature, node.threshold)
                assert left.n_rows > 0 and right.n_rows > 0
                parent = ref_gini(part.labels, part.n_classes)
                dec = (
                    parent
                    - left.n_rows / part.n_rows * ref_gini(left.labels, part.n_classes)
                    - right.n_rows / part.n_rows * ref_gini(right.labels, part.n_classes)
                )
                assert dec > 0


def test_grow_beats_single_leaf():
    rng = np.random.default_rng(33)
    for _ in range(20):
        data = random_dataset(rng, max_rows=40)
        tree = grow(data)
        counts = data.class_counts()
        best_leaf_misses = data.n_rows - counts.max()
        assert ref_misclassified(tree, data) <= best_leaf_misses


def test_growth_config_validation():
    with pytest.raises(ValueError):
        GrowthConfig(max_depth=0)
    assert GrowthConfig(max_depth=None).max_depth is None


def grown_then_pruned(data, max_depth, p):
    """The unfused reference: the tree and float cost of prune(grow(...))."""
    grown = grow(data, GrowthConfig(max_depth))
    tree, cost = _prune(grown, data, p + 0.0, 0)
    assert tree == prune(grown, data, LossParams(p, 0))
    return tree, cost


def test_grow_pruned_equals_grow_then_prune():
    rng = np.random.default_rng(34)
    grid = itertools.product([0.0, 0.1, 1 / 3, 0.5, 1.0, 2.5, 5.0], [1, 2, 3, None])
    for p, max_depth in list(grid) * 12:  # 336 datasets
        data = random_dataset(rng, n_classes=int(rng.integers(2, 4)))
        tree, cost = grow_pruned(data, GrowthConfig(max_depth), LossParams(p, 0), {})
        assert (tree, cost) == grown_then_pruned(data, max_depth, p)
        assert type(cost) is float


@pytest.mark.parametrize(
    "p, m, x, y",
    [
        (0.5, 1, [1, 2, 3], [0, 0, 1]),
        (1.0, 2, [1, 2, 3, 4, 5], [0, 0, 0, 1, 1]),
    ],
)
def test_grow_pruned_stops_early_at_m_equal_2p(monkeypatch, p, m, x, y):
    data = dataset(x, y)
    searched = []
    monkeypatch.setattr(GROW_MODULE, "best_split", lambda d: searched.append(d) or best_split(d))
    tree, cost = grow_pruned(data, GrowthConfig(), LossParams(p, 0), {})
    assert (tree, cost) == (Leaf(0), m + p)
    assert searched == []
    # The skipped split would tie the leaf, and ties terminate.
    assert best_split(data) is not None
    assert grown_then_pruned(data, None, p) == (tree, cost)


def test_grow_pruned_splits_just_above_2p():
    # m = 2 > 2p = 1.8: the stump (2.7) beats the leaf (2.9), so no early stop.
    tree, cost = grow_pruned(FOUR, GrowthConfig(), LossParams(0.9, 0), {})
    assert tree == Split(0, 2.5, Leaf(0), Leaf(1))
    assert (tree, cost) == grown_then_pruned(FOUR, None, 0.9)
