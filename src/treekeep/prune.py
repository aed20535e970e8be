"""Bottom-up pruning of a freshly grown subtree.

A regrown subtree shares nothing with the previous tree, so every node it
retains pays both the complexity penalty alpha and the change penalty beta.
At each split we compare terminating to a majority-class leaf against keeping
the split with optimally pruned children, and take the cheaper; exact ties
terminate, favouring the smaller tree.  The retrain baseline reuses this with
beta = 0, which reduces to plain cost-complexity pruning.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .loss import LossParams
from .tree import Leaf, Split, Tree

__all__ = ["prune"]


def prune(grown: Tree, data: Dataset, params: LossParams) -> Tree:
    """Minimize misclassifications + (alpha + beta) per retained node.

    Optimal over all terminate/keep choices, including collapsing the whole
    tree to a single leaf.  A node whose partition is empty (possible only
    for trees not grown on this data) terminates to its parent's mode class.
    """
    if data.n_rows == 0:
        raise ValueError("prune requires a non-empty dataset")
    tree, _ = _prune(grown, data, params.alpha + params.beta, 0)
    return tree


def _prune(node: Tree, data: Dataset, per_node: float, parent_mode: int):
    if data.n_rows == 0:
        return Leaf(parent_mode), per_node
    counts = data.class_counts()
    mode = int(np.argmax(counts))
    terminate_cost = float(data.n_rows - counts[mode]) + per_node
    if isinstance(node, Leaf):
        return Leaf(mode), terminate_cost
    left_data, right_data = data.partition(node.feature, node.threshold)
    left, left_cost = _prune(node.left, left_data, per_node, mode)
    right, right_cost = _prune(node.right, right_data, per_node, mode)
    split_cost = per_node + left_cost + right_cost
    if terminate_cost <= split_cost:
        return Leaf(mode), terminate_cost
    return Split(node.feature, node.threshold, left, right), split_cost
