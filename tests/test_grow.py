import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_dataset, ref_best_split, ref_gini, ref_misclassified, ref_update
import treekeep.grow as grow_module
from treekeep import Dataset, GrowthConfig, Leaf, LossParams, Split, best_split, retrain, update
from treekeep.grow import (
    _class_sum,
    _least_bound,
    grow,
    grow_pruned,
    grow_pruned_block,
    partition,
    presort,
    split_search,
)
from treekeep.prune import _prune, prune
from treekeep.tree import depth, node_count


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


def test_package_attributes_name_the_modules(monkeypatch):
    import treekeep

    assert treekeep.grow is grow_module
    assert treekeep.prune._prune is _prune
    monkeypatch.setattr("treekeep.grow.best_split", lambda data: None)
    assert grow(FOUR) == Leaf(0)


def test_best_split_empty_errors():
    with pytest.raises(ValueError):
        best_split(Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2))


def bits(cand):
    """A split candidate with its floats as exact bit patterns."""
    return cand and (cand.feature, cand.threshold.hex(), cand.decrease.hex())


def adjacent_floats(rng, n_rows):
    """A column of the four floats from a random start up, so consecutive
    values are one ulp apart and midpoints round both ways."""
    start = rng.uniform(-8.0, 8.0)
    steps = [start]
    for _ in range(3):
        steps.append(np.nextafter(steps[-1], np.inf))
    return np.array(steps)[rng.integers(0, 4, size=n_rows)]


def search_case(rng, case):
    # 256 and 257 classes store labels as uint8 and uint16.
    n_classes = [1, 2, 3, 4, 2, 3, 9, 130, 256, 257][case % 10]
    n_rows = [1, 2, None, int(rng.integers(65, 2001))][case // 10 % 4]
    data = random_dataset(rng, n_rows=n_rows, n_features=int(rng.integers(1, 5)), n_classes=n_classes)
    features = data.features.copy()
    for j in range(features.shape[1]):
        kind = rng.integers(4)
        if kind == 0:
            features[:, j] = 3.0  # constant
        elif kind == 1:
            features[:, j] = adjacent_floats(rng, data.n_rows)
    return Dataset(features, data.labels, n_classes)


@pytest.mark.parametrize("lines_per_sweep", [None, 1, 2])
def test_split_search_equals_per_feature_reference(monkeypatch, lines_per_sweep):
    def sweep_lines(n_rows):
        # 1: one line per sweep, as on large blocks; 2: blocks of 3 or 4 lines take two sweeps.
        if lines_per_sweep is not None:
            monkeypatch.setattr(grow_module, "SWEEP_SIZE", lines_per_sweep * n_rows)

    rng = np.random.default_rng(35)
    searched = 0
    for case in range(400):
        data = search_case(rng, case)
        sweep_lines(data.n_rows)
        assert bits(best_split(data)) == bits(ref_best_split(data))
        rows, block, counts = presort(data)
        assert_left_counts(data, *split_search(rows, block, counts))
        # Sides made by partition search as their rows would on their own.
        feature = int(rng.integers(data.n_features))
        threshold = float(rng.choice(data.features[:, feature]))
        goes_left = data.features[:, feature] <= threshold
        for left, ids in zip((True, False), (np.flatnonzero(goes_left), np.flatnonzero(~goes_left))):
            side = partition(rows, block, feature, threshold, left, ids.size)
            assert side.shape == (data.n_features, ids.size)
            for line in range(data.n_features):  # the side's rows, sorted by that feature
                assert np.array_equal(np.sort(side[line]), ids)
                values = data.features[side[line], line]
                assert np.all(values[:-1] <= values[1:])
            if ids.size:
                sweep_lines(ids.size)
                side_counts = np.bincount(data.labels[ids], minlength=data.n_classes).tolist()
                cand, left_counts = split_search(rows, side, side_counts)
                assert bits(cand) == bits(ref_best_split(data.subset(ids)))
                assert_left_counts(data.subset(ids), cand, left_counts)
                searched += 1
    assert searched > 400


def assert_left_counts(data, cand, left_counts):
    """The class counts a search carries are those of its cut's left side."""
    if cand is None:
        assert left_counts is None
        return
    goes_left = data.features[:, cand.feature] <= cand.threshold
    assert left_counts == np.bincount(data.labels[goes_left], minlength=data.n_classes).tolist()
    assert all(type(count) is int for count in left_counts)


def test_presort_flags_the_tied_lines():
    rng = np.random.default_rng(39)
    seen = set()
    for case in range(200):
        data = search_case(rng, case)
        if rng.random() < 0.2:  # -0.0 and 0.0 are equal values
            data = Dataset(np.where(data.features < 0, -0.0, 0.0), data.labels, data.n_classes)
        rows = presort(data)[0]
        shared = [len(set(data.features[:, j].tolist())) < data.n_rows for j in range(data.n_features)]
        assert rows.tied == tuple(shared)
        seen.update(shared)
    assert seen == {False, True}
    assert presort(Dataset(np.zeros((3, 0)), np.array([0, 1, 0]), 2))[0].tied == ()  # no line, nothing tied


def test_presort_lines_list_every_row_in_value_order():
    rng = np.random.default_rng(41)
    cases = [rng.random((3000, 2)), rng.integers(0, 8, (3000, 3)).astype(np.float64), rng.random((1, 3))]
    cases.append(np.where(rng.random((2000, 2)) < 0.5, -0.0, 0.0))  # -0.0 and 0.0 are equal values
    cases += [rng.integers(0, 256, (int(rng.integers(1, 300)), 2)).astype(np.float64) for _ in range(20)]
    for features in cases:
        data = Dataset(features, rng.integers(0, 2, features.shape[0]), 2)
        rows, block, counts = presort(data)
        assert block.shape == features.T.shape
        assert np.array_equal(counts, np.bincount(data.labels, minlength=2))
        for line, column in zip(block, features.T):
            assert np.array_equal(np.sort(line), np.arange(data.n_rows))
            assert np.all(column[line][:-1] <= column[line][1:])
        assert rows.tied == tuple(len(set(column.tolist())) < data.n_rows for column in features.T)


def test_split_search_memory_does_not_grow_with_the_class_count():
    # One (side, line, position) array per class: about 5 MB here.  A class
    # axis on that array, (side, class, line, position), would take 96 MB.
    rng = np.random.default_rng(38)
    data = Dataset(rng.random((20000, 4)), rng.integers(0, 300, 20000), 300)
    rows, block, counts = presort(data)
    tracemalloc.start()
    try:
        cand = split_search(rows, block, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cand is not None
    assert peak < 8 * 2**20


def test_split_search_midpoint_guard():
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == hi  # the midpoint rounds up to hi
    data = dataset([lo, hi], [0, 1])
    assert best_split(data).threshold == lo
    assert bits(best_split(data)) == bits(ref_best_split(data))


def test_class_sum_adds_as_np_sum():
    rng = np.random.default_rng(36)
    for n_classes in [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 300]:
        shares = rng.random((50, n_classes)) ** 2 * rng.choice([1e-8, 1.0, 1e8], size=(50, n_classes))
        summed = _class_sum(lambda c: shares[:, c], 0, n_classes)
        assert summed.tobytes() == np.sum(shares, axis=1).tobytes()


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
    for mistyped in (2.5, True, "5"):
        with pytest.raises(TypeError):
            GrowthConfig(max_depth=mistyped)
    assert GrowthConfig(max_depth=np.int64(3)).max_depth == 3
    assert GrowthConfig(max_depth=None).max_depth is None


def grown_then_pruned(data, max_depth, p):
    """The unfused reference: the tree and float cost of prune(grow(...))."""
    grown = grow(data, GrowthConfig(max_depth))
    tree, cost = _prune(grown, data, p + 0.0, 0)
    assert tree == prune(grown, data, LossParams(p, 0))
    return tree, cost


def noisy_dataset(rng, n_rows):
    """Two thresholds label the rows and a quarter of the labels are redrawn:
    the grown tree is deep and pruning, or the bound, cuts most of it."""
    features = rng.uniform(0.0, 8.0, size=(n_rows, 3))
    if rng.random() < 0.5:
        features = np.floor(features * 4) / 4  # tied values
    labels = (features[:, 0] > 4.0).astype(int) + (features[:, 1] > 2.0)
    noise = rng.random(n_rows) < 0.25
    labels[noise] = rng.integers(0, 3, size=int(noise.sum()))
    return Dataset(features, labels, 3)


def test_grow_pruned_equals_grow_then_prune():
    rng = np.random.default_rng(34)
    grid = itertools.product([0.0, 0.1, 1 / 3, 0.5, 1.0, 2.5, 5.0], [1, 2, 3, None])
    small = [(p, d, random_dataset(rng, n_classes=int(rng.integers(2, 4)))) for p, d in list(grid) * 12]
    # Large noisy partitions, where the bound cuts subtrees short.
    noisy = [
        (p, max_depth, noisy_dataset(rng, int(rng.integers(200, 2001))))
        for p, max_depth in itertools.product([0.1, 1 / 3, 1.0, 5.0], [6, None])
    ]
    for p, max_depth, data in small + noisy:  # 336 + 8 datasets
        tree, cost = grow_pruned(data, GrowthConfig(max_depth), LossParams(p, 0))
        assert (tree, cost) == grown_then_pruned(data, max_depth, p)
        assert type(cost) is float


@pytest.mark.parametrize("alpha, beta", [(1, 2), (0.3, 1 / 3)])
def test_trees_do_not_depend_on_row_order(alpha, beta):
    # Rows with equal values may lie in any order along a presorted line: a
    # tree depends only on which rows lie left of each cut.
    rng = np.random.default_rng(43)
    params = LossParams(alpha, beta)
    for case in range(60):
        n_rows = int(rng.integers(2, 400))
        if case % 2:
            features = rng.integers(0, 6, size=(n_rows, 3)).astype(np.float64)  # tied
        else:
            features = rng.uniform(0.0, 8.0, size=(n_rows, 3))  # untied
        labels = (features[:, 0] > 2.5).astype(int) + (features[:, 1] > 1.5)
        noise = rng.random(n_rows) < 0.3
        labels[noise] = rng.integers(0, 3, size=int(noise.sum()))
        data = Dataset(features, labels, 3)
        shuffled = data.subset(rng.permutation(n_rows))
        assert retrain(shuffled, params) == retrain(data, params)
        prev = retrain(data.subset(np.arange(n_rows // 2 + 1)), LossParams(0.5, 0.0))
        assert update(prev, shuffled, params) == update(prev, data, params)


def test_grow_pruned_bound_cuts_searches(monkeypatch):
    data = noisy_dataset(np.random.default_rng(37), 1000)
    searched = []
    monkeypatch.setattr(
        grow_module,
        "split_search",
        lambda rows, block, counts: searched.append(block) or split_search(rows, block, counts),
    )
    tree, cost = grow_pruned(data, GrowthConfig(), LossParams(1.0, 0))
    fused = len(searched)
    searched.clear()
    assert (tree, cost) == grown_then_pruned(data, None, 1.0)
    # Pinned: without the bound the fused pass makes 112 searches here, and
    # growing then pruning 243.
    assert fused == 67 < len(searched)


def least_positive_float(holds, high):
    """The least positive float at which a monotone ``holds`` is true, by
    bisection over the bit patterns, which order as positive floats do."""
    low, high = 0, int(np.float64(high).view(np.int64))  # holds(+0.0) fails
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if holds(float(np.int64(mid).view(np.float64))) else (mid, high)
    return float(np.int64(high).view(np.float64))


def test_least_bound_falls_back_to_target_past_a_cancelled_start():
    # The left bound's start, target - p - LB(right), cancels to 1.23e-14
    # against a target near 1e-3: the least bound lies about 8.6e9 ulps of
    # the start above it, out of reach of ulp steps.
    p = 0.00023639642732699333
    sibling = p + p + p
    target = p + sibling + 1.23e-14
    start = target - p - sibling
    calls = []

    def holds(lb):
        calls.append(lb)
        return p + lb + sibling >= target

    bound = _least_bound(start, target, holds)
    assert len(calls) <= 5
    assert holds(bound) and bound <= target
    assert bound == target
    # A start that holds, or holds within a few ulps, gives the least float.
    least = least_positive_float(holds, target)
    assert (least - start) / math.ulp(start) > 1e9
    assert not holds(math.nextafter(least, 0.0))
    near = least
    for _ in range(4):
        assert _least_bound(near, target, holds) == least
        near = math.nextafter(near, 0.0)
    assert _least_bound(near, target, holds) == target
    # Across zero and from below it.
    assert _least_bound(-5e-324, 1.0, lambda x: x > 0.0) == 5e-324
    assert _least_bound(math.nextafter(-0.5, -1.0), 1.0, lambda x: x >= -0.5) == -0.5
    assert _least_bound(-1.0, 1.0, lambda x: x >= -0.5) == 1.0


def test_grow_pruned_node_price_rounding_to_inf():
    # alpha + beta overflows: every cost is inf, and an unbounded call still gives its tree.
    params = LossParams(1e308, 1e308)
    assert grow_pruned(FOUR, GrowthConfig(), params) == (Leaf(0), math.inf)
    assert update(grow(FOUR), FOUR, params) == grow(FOUR)


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
    monkeypatch.setattr(
        grow_module,
        "split_search",
        lambda rows, block, counts: searched.append(block) or split_search(rows, block, counts),
    )
    tree, cost = grow_pruned(data, GrowthConfig(), LossParams(p, 0))
    assert (tree, cost) == (Leaf(0), m + p)
    assert searched == []
    # The skipped split would tie the leaf, and ties terminate.
    assert best_split(data) is not None
    assert grown_then_pruned(data, None, p) == (tree, cost)


def test_grow_pruned_splits_just_above_2p():
    # m = 2 > 2p = 1.8: the stump (2.7) beats the leaf (2.9), so no early stop.
    tree, cost = grow_pruned(FOUR, GrowthConfig(), LossParams(0.9, 0))
    assert tree == Split(0, 2.5, Leaf(0), Leaf(1))
    assert (tree, cost) == grown_then_pruned(FOUR, None, 0.9)


def recording_sides(monkeypatch):
    """Record every side of a block that ``grow_pruned_block`` builds."""
    built = []

    def recording_partition(*args):
        side = partition(*args)
        built.append(side)
        return side

    monkeypatch.setattr(grow_module, "partition", recording_partition)
    return built


def test_update_carried_bounds_cut_partitions(monkeypatch):
    data = noisy_dataset(np.random.default_rng(37), 600)
    params = LossParams(1.0, 0.0)
    prev = retrain(data.subset(np.arange(300)), params)
    built = recording_sides(monkeypatch)
    out = update(prev, data, params)
    assert out == ref_update(prev, data, params)
    # Pinned: with neither the lower-bound memo nor the keep bound, the
    # regrows of this update partition 116 blocks.  With them they partition
    # 52, and building both sides of each would build 104 blocks; a side is
    # built only when it is searched or looked up.
    assert len(built) == 57


def test_a_side_is_built_only_when_it_is_searched(monkeypatch):
    # The root splits at 6.5 into 4:2 and 2:4 class counts.  Under the bound
    # 4.0, the left child must beat 2.0 and its leaf costs 2.5: it searches
    # and fails, so the split cannot get under the bound, and the right side,
    # whose leaf misses 2 > 2p rows, is never built.
    data = dataset(range(1, 13), [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0])
    rows, block, counts = presort(data)
    cand, left_counts = split_search(rows, block, counts)
    assert (cand.threshold, left_counts) == (6.5, [4, 2])
    built = recording_sides(monkeypatch)
    assert grow_pruned_block(rows, block, counts, GrowthConfig(None), 0.5, {}, bound=4.0) is None
    assert [sorted(side[0].tolist()) for side in built] == [list(range(6))]
    # Unbounded, the right side is built and searched too.
    built.clear()
    grow_pruned_block(rows, block, counts, GrowthConfig(None), 0.5, {})
    assert list(range(6, 12)) in [sorted(side[0].tolist()) for side in built]


# Six rows that one split cannot separate and two levels can: the block
# costs its leaf, 2 + p, with one level of room, and 5p with two.
SIX = dataset([1, 2, 3, 4, 5, 6], [0, 0, 1, 1, 0, 0])


def test_grow_pruned_block_reuses_a_failure_only_at_its_level_or_deeper(monkeypatch):
    rows, block, counts = presort(SIX)
    config, p = GrowthConfig(max_depth=2), 0.1
    tree, cost = grow_pruned(SIX, config, LossParams(p, 0))
    assert (node_count(tree), cost) == (5, 0.5)
    memo = {}
    # From level 1 only a stump fits under max_depth, and it does not beat the leaf's 2.1.
    assert grow_pruned_block(rows, block, counts, config, p, memo, level=1, bound=1.0) is None
    built = recording_sides(monkeypatch)
    assert grow_pruned_block(rows, block, counts, config, p, memo, level=1, bound=1.0) is None
    assert built == []  # the failure is remembered ...
    # ... but not carried to a shallower start, where the block costs 0.5.
    assert grow_pruned_block(rows, block, counts, config, p, memo, level=0, bound=1.0)[:2] == (tree, cost)


def test_grow_pruned_block_reuses_a_failure_only_up_to_its_bound(monkeypatch):
    rows, block, counts = presort(SIX)
    config, p = GrowthConfig(max_depth=None), 0.1
    tree, cost = grow_pruned(SIX, config, LossParams(p, 0))
    memo = {}
    assert grow_pruned_block(rows, block, counts, config, p, memo, bound=0.4) is None
    built = recording_sides(monkeypatch)
    # A lower bound, or any level with max_depth None, reuses the failure.
    assert grow_pruned_block(rows, block, counts, config, p, memo, level=3, bound=0.35) is None
    assert built == []
    # A higher bound than the one that failed still searches and finds the tree.
    assert grow_pruned_block(rows, block, counts, config, p, memo, bound=0.6)[:2] == (tree, cost)
    assert built != []
