import importlib
import inspect
import itertools

import numpy as np
import pytest

from conftest import random_dataset, random_tree, ref_update
from treekeep import (
    Dataset,
    GrowthConfig,
    Leaf,
    LossParams,
    Split,
    best_split,
    change_count,
    loss,
    node_count,
    retrain,
    structural_diff,
    update,
)
from treekeep.errors import InputShapeError
from treekeep.grow import grow, grow_pruned, presort, split_search
from treekeep.harness import AlgorithmSpec, _train_step
from treekeep.prune import prune
from treekeep.tree import node_at

GROW_MODULE = importlib.import_module("treekeep.grow")
# The module, not the function the package re-exports under the same name.
UPDATE_MODULE = importlib.import_module("treekeep.update")

STUMP = Split(0, 2.5, Leaf(0), Leaf(1))


def dataset(x, y, n_classes=2):
    return Dataset(np.asarray(x, dtype=float).reshape(len(y), -1), np.array(y), n_classes)


FOUR = dataset([1, 2, 3, 4], [0, 0, 1, 1])


def test_update_overwhelming_beta_returns_prev_exactly():
    # prev disagrees with the data, but beta exceeds any possible saving
    prev = Split(0, 1.5, Leaf(1), Leaf(0))
    beta = FOUR.n_rows + 1.0 * node_count(prev) + 1
    out = update(prev, FOUR, LossParams(1.0, beta))
    assert out == prev
    assert change_count(prev, out) == 0
    assert structural_diff(prev, out).similarity == 1.0


def test_update_keeps_leaf_when_regrowing_is_too_expensive():
    # keep: 2 + 0.5 = 2.5 beats any regrown alternative at alpha=beta=0.5
    assert update(Leaf(0), FOUR, LossParams(0.5, 0.5)) == Leaf(0)


def test_update_regrows_leaf_when_penalties_are_small():
    out = update(Leaf(0), FOUR, LossParams(0.1, 0.1))
    assert out == STUMP
    assert change_count(Leaf(0), out) == 3


def test_update_keeps_root_and_fixes_leaf():
    # threshold still separates, but the right leaf label is now wrong
    prev = Split(0, 2.5, Leaf(0), Leaf(0))
    out = update(prev, FOUR, LossParams(0.5, 0.5))
    assert out == STUMP
    assert change_count(prev, out) == 1


def test_update_empty_kept_child_stays_verbatim():
    # nothing reaches the left side; with beta high the whole tree survives
    prev = Split(0, -100.0, Leaf(1), Leaf(0))
    data = dataset([1, 2, 3], [0, 0, 0])
    assert update(prev, data, LossParams(1.0, 10.0)) == prev


def test_update_validates_schema():
    with pytest.raises(InputShapeError):
        update(Split(5, 0.0, Leaf(0), Leaf(1)), FOUR, LossParams(1, 1))


def test_update_empty_dataset_errors():
    with pytest.raises(ValueError):
        update(STUMP, Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2), LossParams(1, 1))


def test_update_dominates_both_root_options():
    rng = np.random.default_rng(51)
    for _ in range(30):
        data = random_dataset(rng, max_rows=40)
        prev = random_tree(rng) if rng.random() < 0.5 else grow(random_dataset(rng, max_rows=40))
        params = LossParams(
            float(rng.choice([0.0, 0.5, 1.0, 5.0])), float(rng.choice([0.0, 0.5, 1.0, 5.0]))
        )
        out = update(prev, data, params)
        out_loss = loss(prev, out, data, params).total
        assert out_loss <= loss(prev, prev, data, params).total
        regrown = prune(grow(data), data, params)
        assert out_loss <= loss(prev, regrown, data, params).total


def test_update_kept_nodes_match_previous_tree():
    rng = np.random.default_rng(52)
    for _ in range(20):
        data = random_dataset(rng, max_rows=40)
        prev = grow(random_dataset(rng, max_rows=40))
        out = update(prev, data, LossParams(1.0, 1.0))
        for entry in structural_diff(prev, out).entries:
            if entry.status == "kept":
                a, b = node_at(prev, entry.path), node_at(out, entry.path)
                if isinstance(b, Split):
                    assert (a.feature, a.threshold) == (b.feature, b.threshold)
                else:
                    assert a == b


def test_update_beta_zero_never_loses_to_retrain():
    rng = np.random.default_rng(53)
    for _ in range(20):
        data = random_dataset(rng, max_rows=40)
        prev = random_tree(rng)
        params = LossParams(float(rng.choice([0.0, 0.5, 2.0])), 0.0)
        out = update(prev, data, params)
        base = retrain(data, params)
        assert loss(prev, out, data, params).total <= loss(prev, base, data, params).total


def test_update_deterministic():
    rng = np.random.default_rng(54)
    data = random_dataset(rng, n_rows=40)
    prev = random_tree(rng)
    params = LossParams(0.5, 0.5)
    assert update(prev, data, params) == update(prev, data, params)


def test_retrain_prunes_grown_tree():
    assert retrain(FOUR, LossParams(0.5, 0.0)) == STUMP


def test_retrain_pure_labels():
    assert retrain(dataset([1, 2], [1, 1]), LossParams(1.0, 0.0)) == Leaf(1)


def test_retrain_huge_alpha_collapses_to_leaf():
    rng = np.random.default_rng(55)
    for _ in range(10):
        data = random_dataset(rng, max_rows=30)
        out = retrain(data, LossParams(float(data.n_rows), 0.0))
        assert isinstance(out, Leaf)


def test_retrain_ignores_beta():
    assert retrain(FOUR, LossParams(0.5, 100.0)) == retrain(FOUR, LossParams(0.5, 0.0))


def test_keep_original_is_identity():
    # The harness's do-nothing baseline returns the previous tree itself, whatever the data.
    out = _train_step(AlgorithmSpec("keep_original"), STUMP, FOUR, GrowthConfig())
    assert out is STUMP
    assert change_count(STUMP, out) == 0
    assert structural_diff(STUMP, out).similarity == 1.0


def test_update_respects_growth_config():
    rng = np.random.default_rng(56)
    data = random_dataset(rng, n_rows=60)
    out = update(Leaf(0), data, LossParams(0.0, 0.0), GrowthConfig(max_depth=1))
    from treekeep.tree import depth

    assert depth(out) <= 1


@pytest.mark.xfail(
    strict=True, reason="update applies max_depth from each regrown node, not from the root"
)
def test_update_max_depth_is_absolute():
    from treekeep.tree import depth

    rng = np.random.default_rng(0)
    data = random_dataset(rng, n_rows=int(rng.integers(6, 30)), n_features=2, n_classes=2)
    growth = GrowthConfig(max_depth=2)
    prev = retrain(data.subset(np.arange(15)), LossParams(0, 0), growth)
    assert depth(update(prev, data, LossParams(0, 0), growth)) <= 2


def random_prev(rng, data):
    """A previous tree for ``data``: arbitrary, grown on other data, or
    retrained on a prefix of ``data`` (so regrows meet the same partitions)."""
    kind = rng.integers(3)
    if kind == 0:
        return random_tree(rng)
    if kind == 1:
        return grow(random_dataset(rng, max_rows=40))
    prefix = data.subset(np.arange(int(rng.integers(1, data.n_rows + 1))))
    return retrain(prefix, LossParams(float(rng.choice([0.0, 0.5, 1.0])), 0.0))


def assert_matches_oracle(prev, data, params, growth=GrowthConfig()):
    out = update(prev, data, params, growth)
    assert out == ref_update(prev, data, params, growth)
    # The loss carried up to the root is the loss of the result, exactly.
    tree, carried = UPDATE_MODULE._optimize(prev, *presort(data), params, growth, {})
    assert tree == out
    assert carried == loss(prev, out, data, params)


def test_every_block_gets_its_own_class_counts(monkeypatch):
    # Counts are handed down from the search or the kept split (the right
    # side's are the parent's minus the left's), never taken again: each must
    # be the block's own.  A block not yet built is built here to check it.
    checked = []

    def checking(fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            rows, block, counts = call["rows"], call["block"], call["counts"]
            if callable(block):
                block = block()
            assert counts == np.bincount(rows.labels[block[0]], minlength=rows.n_classes).tolist()
            assert all(type(count) is int for count in counts)
            checked.append(fn)
            return fn(*args, **kwargs)

        return wrapper

    optimize, block_call, search = UPDATE_MODULE._optimize, GROW_MODULE.grow_pruned_block, GROW_MODULE.split_search
    monkeypatch.setattr(UPDATE_MODULE, "_optimize", checking(optimize))
    monkeypatch.setattr(GROW_MODULE, "grow_pruned_block", checking(block_call))
    monkeypatch.setattr(UPDATE_MODULE, "grow_pruned_block", GROW_MODULE.grow_pruned_block)
    monkeypatch.setattr(GROW_MODULE, "split_search", checking(search))
    rng = np.random.default_rng(59)
    for _ in range(60):
        data = random_dataset(rng, n_classes=int(rng.integers(2, 4)))
        params = LossParams(float(rng.choice([0.0, 0.1, 1.0])), float(rng.choice([0.0, 0.5, 1.0])))
        update(random_prev(rng, data), data, params)
        grow_pruned(data, GrowthConfig(), params)
    assert checked.count(optimize) > 100 and checked.count(block_call) > 1000 and checked.count(search) > 100


def test_update_equals_grow_then_prune_oracle():
    rng = np.random.default_rng(57)
    penalties = [0.0, 0.1, 0.5, 1.0, 2.5, 5.0]
    for _ in range(240):
        data = random_dataset(rng, n_classes=int(rng.integers(2, 4)))
        prev = random_prev(rng, data)
        params = LossParams(float(rng.choice(penalties)), float(rng.choice(penalties)))
        growth = GrowthConfig([1, 2, 3, None, 20][int(rng.integers(5))])
        assert_matches_oracle(prev, data, params, growth)
    # Penalties with no exact binary form: the fused pass and ``loss`` round
    # their sums differently, and the keep bound must cover the gap.
    non_dyadic = [0.1, 1 / 3, 0.7, 1e-3]
    for alpha, beta, max_depth in itertools.product(non_dyadic, non_dyadic, [1, 2, 3, None]):
        for _ in range(3):
            data = random_dataset(rng, n_classes=int(rng.integers(2, 4)))
            assert_matches_oracle(random_prev(rng, data), data, LossParams(alpha, beta), GrowthConfig(max_depth))


@pytest.mark.parametrize("beta", [0.0, 1.0, 100.0])
def test_update_with_a_previous_class_the_data_lacks(beta):
    # Labels of 2-class data narrow to uint8.  A previous leaf of class 300
    # matches none of them, so every row that reaches it is misclassified.
    data = random_dataset(np.random.default_rng(58), n_rows=60, n_classes=2)
    prev = Split(0, 3.5, Leaf(300), Leaf(1))
    assert_matches_oracle(prev, data, LossParams(1.0, beta))
    goes_left = data.features[:, 0] <= 3.5
    misses = np.count_nonzero(goes_left) + np.count_nonzero(data.labels[~goes_left] != 1)
    assert loss(prev, prev, data, LossParams(1.0, beta)).misclassifications == misses > 0
    if beta == 100.0:  # keep wins, class 300 and all
        assert update(prev, data, LossParams(1.0, beta)) == prev


def test_update_scores_a_regrow_sharing_the_root_split_as_the_oracle_does():
    # The oracle credits the nodes a regrow shares with the previous tree;
    # update counts them all as changed.  Here the root's regrow repeats the
    # previous root split, so the credit applies, and the two must agree.
    rng = np.random.default_rng(3)
    data = random_dataset(rng, n_rows=60, n_classes=2)
    params = LossParams(0.5, 0.5)
    regrown = retrain(data, LossParams(params.alpha + params.beta, 0.0))
    prev = Split(regrown.feature, regrown.threshold, Leaf(0), Leaf(0))
    assert 0 < change_count(prev, regrown) < node_count(regrown)
    assert_matches_oracle(prev, data, params)


@pytest.mark.parametrize(
    "prev, params, regrown",
    [
        # keep: 2 misses; regrow: the stump's three nodes at 2/3 each, 2.0 once rounded
        (Leaf(1), LossParams(0.0, 2 / 3), STUMP),
        # keep: 2 misses + 1; regrow: the other leaf, which ties the stump in the fused pass
        (Leaf(1), LossParams(1.0, 0.0), Leaf(0)),
        # keep: 1 miss + 3 * 0.25; regrow: the stump at 0.25 + 1/3 a node
        (Split(0, 1.5, Leaf(0), Leaf(1)), LossParams(0.25, 1 / 3), STUMP),
    ],
)
def test_update_keeps_on_an_exact_tie(prev, params, regrown):
    assert retrain(FOUR, LossParams(params.alpha + params.beta, 0.0)) == regrown
    assert loss(prev, prev, FOUR, params).total == loss(None, regrown, FOUR, params).total
    assert update(prev, FOUR, params) == prev
    assert_matches_oracle(prev, FOUR, params)


def test_update_keep_bound_covers_the_rounding_gap():
    # Keep (2 misses + 0.6) and the stump regrow (3 * 0.6 + 3 * 4/15) tie
    # in exact arithmetic.  ``loss`` rounds the regrow below keep's 2.6, so
    # the regrow wins, while the fused pass rounds it to 2.6 exactly: a
    # regrow bounded by keep's loss alone would give up and keep the leaf.
    prev, params = Leaf(1), LossParams(0.6, 4 / 15)
    keep_total = loss(prev, prev, FOUR, params).total
    assert loss(None, STUMP, FOUR, params).total < keep_total
    assert grow_pruned(FOUR, GrowthConfig(), LossParams(params.alpha + params.beta, 0.0)) == (STUMP, keep_total)
    assert update(prev, FOUR, params) == STUMP
    assert_matches_oracle(prev, FOUR, params)


def tight_box(rows, block):
    """The bounding box of a block's rows: each line's first and last value."""
    lines = np.arange(block.shape[0])
    return rows.columns[lines, block[:, 0]].tobytes() + rows.columns[lines, block[:, -1]].tobytes()


def test_update_searches_each_partition_once(monkeypatch):
    rng = np.random.default_rng(3)
    data = random_dataset(rng, n_rows=60, n_classes=2)
    prev = retrain(data.subset(np.arange(40)), LossParams(1.0, 0.0))
    root = best_split(data)
    assert (root.feature, root.threshold) == (prev.feature, prev.threshold)
    searched = []

    def recording_search(rows, block, counts):
        searched.append(tight_box(rows, block))
        return split_search(rows, block, counts)

    monkeypatch.setattr(GROW_MODULE, "split_search", recording_search)
    # alpha = beta = 0: the early stop fires only on pure nodes, so the saving is the memo's.
    params = LossParams(0.0, 0.0)
    out = update(prev, data, params)
    calls = len(searched)
    assert len(set(searched)) == calls
    searched.clear()
    assert ref_update(prev, data, params) == out
    assert calls < len(searched)
