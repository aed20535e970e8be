import numpy as np
import pytest

from conftest import random_dataset, random_tree
from treekeep import (
    Dataset,
    Leaf,
    LossParams,
    Split,
    loss,
    node_count,
)
from treekeep.grow import grow
from treekeep.prune import prune

STUMP = Split(0, 2.5, Leaf(0), Leaf(1))


def dataset(x, y, n_classes=2):
    return Dataset(np.asarray(x, dtype=float).reshape(len(y), -1), np.array(y), n_classes)


FOUR = dataset([1, 2, 3, 4], [0, 0, 1, 1])
# Pruning a lone leaf returns the loss-minimizing leaf: the mode class.
NO_PENALTY = LossParams(0.0, 0.0)


def test_best_leaf_mode():
    assert prune(Leaf(0), dataset([0, 0, 0], [0, 0, 1]), NO_PENALTY) == Leaf(0)


def test_best_leaf_unanimous():
    assert prune(Leaf(0), dataset([0, 0, 0], [2, 2, 2], n_classes=3), NO_PENALTY) == Leaf(2)


def test_best_leaf_tie_to_lowest_class():
    assert prune(Leaf(0), dataset([0, 0], [0, 1]), NO_PENALTY) == Leaf(0)


def test_best_leaf_minimizes_loss_over_classes():
    rng = np.random.default_rng(41)
    for _ in range(30):
        data = random_dataset(rng)
        params = LossParams(1.0, 1.0)
        chosen = prune(Leaf(0), data, params)
        best = min(loss(None, Leaf(c), data, params).total for c in range(data.n_classes))
        assert loss(None, chosen, data, params).total == best


def test_prune_terminates_when_alpha_dominates():
    # terminate costs 2+5=7, keeping the split costs 5+5+5=15
    assert prune(STUMP, FOUR, LossParams(5.0, 0.0)) == Leaf(0)


def test_prune_keeps_cheap_perfect_split():
    # split costs 1.5, terminating costs 2.5
    assert prune(STUMP, FOUR, LossParams(0.5, 0.0)) == STUMP


def test_prune_zero_penalties_keep_zero_error_split():
    assert prune(STUMP, FOUR, LossParams(0.0, 0.0)) == STUMP


def test_prune_exact_tie_prefers_terminate():
    # alpha+beta=1 per node: terminate 2+1=3 equals split 1+1+1=3
    assert prune(STUMP, FOUR, LossParams(0.5, 0.5)) == Leaf(0)


def test_prune_charges_alpha_plus_beta_per_node():
    # at alpha=1.2, beta=0: split 3.6 > terminate 3.2; with beta folded into
    # alpha the same comparison happens at alpha=0.6, beta=0.6
    assert prune(STUMP, FOUR, LossParams(1.2, 0.0)) == Leaf(0)
    assert prune(STUMP, FOUR, LossParams(0.6, 0.6)) == Leaf(0)
    assert prune(STUMP, FOUR, LossParams(0.8, 0.0)) == STUMP


def test_prune_empty_partition_takes_parent_mode():
    # no row satisfies x <= -1, so the left child terminates to the parent mode
    tree = Split(0, -1.0, Leaf(1), Split(0, 2.5, Leaf(0), Leaf(1)))
    data = FOUR
    pruned = prune(tree, data, LossParams(0.1, 0.0))
    assert pruned == Split(0, -1.0, Leaf(0), Split(0, 2.5, Leaf(0), Leaf(1)))


def test_prune_empty_dataset_errors():
    with pytest.raises(ValueError):
        prune(STUMP, Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2), LossParams(1, 0))


def test_prune_never_beats_itself():
    rng = np.random.default_rng(42)
    for _ in range(40):
        data = random_dataset(rng, max_rows=50)
        grown = grow(data)
        alpha = float(rng.choice([0.0, 0.5, 1.0, 5.0]))
        beta = float(rng.choice([0.0, 1.0]))
        params = LossParams(alpha, beta)
        pruned = prune(grown, data, params)
        pruned_loss = loss(None, pruned, data, params).total
        assert pruned_loss <= loss(None, grown, data, params).total
        assert pruned_loss <= loss(None, prune(Leaf(0), data, params), data, params).total


def test_prune_idempotent():
    rng = np.random.default_rng(43)
    for _ in range(30):
        data = random_dataset(rng, max_rows=50)
        tree = random_tree(rng) if rng.random() < 0.5 else grow(data)
        params = LossParams(float(rng.choice([0.0, 0.5, 2.0])), float(rng.choice([0.0, 1.0])))
        once = prune(tree, data, params)
        assert prune(once, data, params) == once


def test_prune_alpha_monotone_node_count():
    rng = np.random.default_rng(44)
    for _ in range(10):
        data = random_dataset(rng, n_rows=60)
        grown = grow(data)
        sizes = [
            node_count(prune(grown, data, LossParams(alpha, 0.0)))
            for alpha in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert sizes == sorted(sizes, reverse=True)
