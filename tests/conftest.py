"""Shared generators and reference oracles for the test suite.

Random inputs use grid-valued features (integers 0..7 cast to float) so that
duplicate values, boundary thresholds, and empty partitions actually occur.
"""

import numpy as np

from treekeep import Dataset, Leaf, Split


def random_dataset(rng, n_rows=None, n_features=3, n_classes=3, max_rows=64):
    n = int(n_rows) if n_rows is not None else int(rng.integers(1, max_rows + 1))
    if rng.random() < 0.5:
        features = rng.integers(0, 8, size=(n, n_features)).astype(np.float64)
    else:
        features = rng.uniform(0.0, 8.0, size=(n, n_features))
    labels = rng.integers(0, n_classes, size=n)
    return Dataset(features, labels, n_classes)


def random_tree(rng, max_depth=3, n_features=3, n_classes=3, leaf_p=0.35):
    """Arbitrary tree over the grid feature space; not grown from any data."""
    if max_depth == 0 or rng.random() < leaf_p:
        return Leaf(int(rng.integers(n_classes)))
    return Split(
        int(rng.integers(n_features)),
        float(rng.integers(0, 8)) + 0.5,
        random_tree(rng, max_depth - 1, n_features, n_classes, leaf_p),
        random_tree(rng, max_depth - 1, n_features, n_classes, leaf_p),
    )


def mutate_tree(rng, tree):
    """Perturb one aspect of a tree: threshold, class, feature, or a subtree."""
    if isinstance(tree, Leaf):
        if rng.random() < 0.5:
            return Leaf(tree.class_label + 1)
        return random_tree(rng, max_depth=2)
    choice = rng.random()
    if choice < 0.25:
        return Split(tree.feature, tree.threshold + 1.0, tree.left, tree.right)
    if choice < 0.45:
        return Split(tree.feature + 1, tree.threshold, tree.left, tree.right)
    if choice < 0.6:
        return Leaf(0)
    if choice < 0.8:
        return Split(tree.feature, tree.threshold, mutate_tree(rng, tree.left), tree.right)
    return Split(tree.feature, tree.threshold, tree.left, mutate_tree(rng, tree.right))


def ref_classify(tree, row):
    """Independent walk used to cross-check classify/predict."""
    while isinstance(tree, Split):
        tree = tree.left if row[tree.feature] <= tree.threshold else tree.right
    return tree.class_label


def ref_misclassified(tree, data):
    return sum(
        1
        for row, label in zip(data.features, data.labels)
        if ref_classify(tree, row) != label
    )


def ref_gini(labels, n_classes):
    n = len(labels)
    counts = np.bincount(labels, minlength=n_classes)
    return 1.0 - float(np.sum((counts / n) ** 2))


def right_chain_document(depth):
    """A valid tree document whose right spine is ``depth`` splits long."""
    split = '{"kind": "split", "feature": 0, "threshold": 0.5, "left": {"kind": "leaf", "class": 0}, "right": '
    return split * depth + '{"kind": "leaf", "class": 1}' + "}" * depth
