"""Greedy CART-style growing with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted values
of each feature.  Ties on impurity decrease break to the lowest feature index
and then the lowest threshold, so growing is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .data import Dataset
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
