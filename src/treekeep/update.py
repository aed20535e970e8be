"""The keep-regrow update: revise a tree on new data with few audited changes.

At every node of the previous tree, with the training rows that reach it, two
candidates compete:

* keep: a split retains its feature and threshold (paying no change penalty)
  and its children are updated recursively on their partitions; a leaf
  retains its class label.
* regrow: grow a fresh subtree from the partition and prune it with the
  previous tree treated as absent, so every retained node is priced at
  alpha + beta.

The candidate with the lower loss against the previous node wins; exact ties
keep, because fewer changes means less to audit.  The procedure is greedy,
not globally optimal, which is what makes it cheap.
"""

from __future__ import annotations

from .data import Dataset
from .errors import InputShapeError
from .grow import GrowthConfig, grow
from .loss import LossParams, loss
from .prune import prune
from .tree import Leaf, Split, Tree, max_feature

__all__ = ["update", "retrain", "keep_original"]


def update(prev: Tree, data: Dataset, params: LossParams, growth: GrowthConfig = GrowthConfig()) -> Tree:
    """Update ``prev`` on ``data``, trading accuracy against change count.

    With beta large enough (|data| + alpha * node_count(prev) suffices) the
    previous tree comes back untouched; with beta = 0 branches are still
    preserved whenever regrowing would not improve the penalized training
    loss.
    """
    if data.n_rows == 0:
        raise ValueError("update requires a non-empty dataset")
    top = max_feature(prev)
    if top >= data.n_features:
        raise InputShapeError(
            f"previous tree splits on feature {top} but data has {data.n_features} columns"
        )
    tree, _ = _optimize(prev, data, params, growth)
    return tree


def _optimize(prev: Tree, data: Dataset, params: LossParams, growth: GrowthConfig):
    """Return (chosen subtree, its loss against ``prev`` on ``data``)."""
    if isinstance(prev, Leaf):
        keep: Tree = prev
    else:
        left_data, right_data = data.partition(prev.feature, prev.threshold)
        # An empty side stays exactly as it was: no rows reach it, so only
        # the alpha term applies and regrowing (which needs data) is moot.
        if left_data.n_rows == 0:
            left = prev.left
        else:
            left, _ = _optimize(prev.left, left_data, params, growth)
        if right_data.n_rows == 0:
            right = prev.right
        else:
            right, _ = _optimize(prev.right, right_data, params, growth)
        keep = Split(prev.feature, prev.threshold, left, right)
    keep_loss = loss(prev, keep, data, params).total

    regrown = prune(grow(data, growth), data, params)
    regrow_loss = loss(prev, regrown, data, params).total

    if keep_loss <= regrow_loss:
        return keep, keep_loss
    return regrown, regrow_loss


def retrain(data: Dataset, params: LossParams, growth: GrowthConfig = GrowthConfig()) -> Tree:
    """Grow and prune from scratch, ignoring any previous tree (beta plays no part)."""
    if data.n_rows == 0:
        raise ValueError("retrain requires a non-empty dataset")
    return prune(grow(data, growth), data, LossParams(params.alpha, 0.0))


def keep_original(prev: Tree) -> Tree:
    """The do-nothing baseline: zero changes, zero learning."""
    return prev
