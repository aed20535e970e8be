"""Greedy CART-style growing with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted values
of each feature.  Ties on impurity decrease break to the lowest feature index
and then the lowest threshold, so growing is fully deterministic.

``grow_pruned`` fuses ``grow`` with ``prune.prune`` into one recursion for
``update`` and ``retrain``.  It returns the very tree, and the very float
cost, that growing and then pruning would, but it searches less:

* Exact early stop: a node whose majority class misclassifies ``m`` rows
  with ``m <= 2p`` (``p`` the price of a node) becomes a leaf without a
  search.  A kept split costs at least ``p + p + p`` in floating point
  (each child costs at least ``p``, and rounding is monotone), its leaf
  costs ``m + p`` with ``m <= p + p``, and ties terminate; so pruning would
  have cut the split anyway.
* Split memo: ``best_split`` results are kept by the partition's tight
  bounding box.  Every partition one ``update`` searches is its data cut by
  an axis-aligned box, and the tight box of such a partition picks out
  exactly its rows again, so the key is exact and does not depend on the
  node's level.  One update shares one memo across all its regrows: a
  node's regrow reuses the searches its children's regrows made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .data import Dataset
from .loss import LossParams
from .tree import Leaf, Split, Tree

__all__ = ["GrowthConfig", "SplitCandidate", "best_split", "grow"]


@dataclass(frozen=True)
class GrowthConfig:
    """Stopping rules for the grower; pruning does the real complexity control."""

    max_depth: Optional[int] = 20

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None for unlimited")


class SplitCandidate(NamedTuple):
    feature: int
    threshold: float
    decrease: float


def _gini(counts: np.ndarray, n: float) -> float:
    return 1.0 - float(np.sum((counts / n) ** 2))


def best_split(data: Dataset) -> Optional[SplitCandidate]:
    """Best Gini split over all features, or None if nothing strictly helps.

    For each feature, candidates sit at midpoints between consecutive distinct
    sorted values; impurity decrease for all candidates of a feature is
    computed in one vectorized sweep over cumulative class counts.
    """
    if data.n_rows == 0:
        raise ValueError("best_split requires a non-empty dataset")
    X, y = data.features, data.labels
    n, n_feat = X.shape
    k = data.n_classes
    total = np.bincount(y, minlength=k).astype(np.float64)
    parent = _gini(total, n)
    best: Optional[SplitCandidate] = None
    for j in range(n_feat):
        order = np.argsort(X[:, j], kind="stable")
        vals = X[order, j]
        cuts = np.nonzero(vals[:-1] != vals[1:])[0]
        if cuts.size == 0:
            continue
        onehot = np.zeros((n, k), dtype=np.float64)
        onehot[np.arange(n), y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[cuts]
        right = total - left
        n_left = (cuts + 1).astype(np.float64)[:, None]
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left / n_left) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right) ** 2, axis=1)
        decrease = parent - (n_left.ravel() / n) * gini_left - (n_right.ravel() / n) * gini_right
        pos = int(np.argmax(decrease))  # first max: lowest threshold on ties
        if decrease[pos] <= 0.0:
            continue
        if best is None or decrease[pos] > best.decrease:
            lo, hi = vals[cuts[pos]], vals[cuts[pos] + 1]
            threshold = (lo + hi) / 2.0
            if threshold >= hi:  # midpoint rounded up between adjacent floats
                threshold = lo
            best = SplitCandidate(j, float(threshold), float(decrease[pos]))
    return best


def grow(data: Dataset, config: GrowthConfig = GrowthConfig()) -> Tree:
    """Grow a tree greedily; leaves take the majority class of their partition."""
    if data.n_rows == 0:
        raise ValueError("grow requires a non-empty dataset")
    return _grow(data, config, 0)


def _grow(data: Dataset, config: GrowthConfig, level: int) -> Tree:
    counts = data.class_counts()
    mode = int(np.argmax(counts))
    if counts[mode] == data.n_rows:  # pure
        return Leaf(mode)
    if config.max_depth is not None and level >= config.max_depth:
        return Leaf(mode)
    cand = best_split(data)
    if cand is None:
        return Leaf(mode)
    left, right = data.partition(cand.feature, cand.threshold)
    return Split(
        cand.feature,
        cand.threshold,
        _grow(left, config, level + 1),
        _grow(right, config, level + 1),
    )


def grow_pruned(data: Dataset, config: GrowthConfig, params: LossParams, memo: dict) -> tuple[Tree, float]:
    """``prune(grow(data, config), data, params)`` and its cost, in one pass.

    The cost is misclassifications + (alpha + beta) per node, summed exactly
    as ``prune`` sums it.  ``memo`` maps a partition's tight bounding box to
    its ``best_split``; calls on partitions of the same data may share one.
    """
    return _grow_pruned(data, config, params.alpha + params.beta, memo, 0)


def _grow_pruned(data: Dataset, config: GrowthConfig, per_node: float, memo: dict, level: int):
    counts = data.class_counts()
    mode = int(np.argmax(counts))
    misses = data.n_rows - int(counts[mode])
    leaf_cost = float(misses) + per_node
    leaf = Leaf(mode), leaf_cost
    if misses == 0:  # pure
        return leaf
    if config.max_depth is not None and level >= config.max_depth:
        return leaf
    if misses <= 2.0 * per_node:  # no split can beat this leaf
        return leaf
    X = data.features
    key = X.min(axis=0).tobytes() + X.max(axis=0).tobytes()
    if key in memo:
        cand = memo[key]
    else:
        cand = memo[key] = best_split(data)
    if cand is None:
        return leaf
    left_data, right_data = data.partition(cand.feature, cand.threshold)
    left, left_cost = _grow_pruned(left_data, config, per_node, memo, level + 1)
    right, right_cost = _grow_pruned(right_data, config, per_node, memo, level + 1)
    split_cost = per_node + left_cost + right_cost
    if leaf_cost <= split_cost:
        return leaf
    return Split(cand.feature, cand.threshold, left, right), split_cost
