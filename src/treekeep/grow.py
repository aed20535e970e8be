"""Greedy CART-style growing with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted values
of each feature.  Ties on impurity decrease break to the lowest feature index
and then the lowest threshold, so growing is fully deterministic.

Split searches run on an index engine, as in CART's presort.  ``presort``
sorts every feature column of a dataset once.  The rows that reach a node
are then a block: an ``(n_features, n_rows)`` array of row ids whose line
``j`` lists the node's rows in order of feature ``j``.  ``partition`` splits
a block with one boolean mask; the filter is stable, so every line of both
sides stays sorted, and no node sorts or copies features.  ``split_search``
scores the candidates of many features in one vectorised sweep, with the
arithmetic of a per-feature search; ``best_split`` is that search on a
freshly presorted dataset.

``grow_pruned`` fuses ``grow`` with ``prune.prune`` into one recursion over
blocks for ``update`` and ``retrain``.  It returns the very tree, and the
very float cost, that growing and then pruning would, but it searches less:

* Exact early stop: a node whose majority class misclassifies ``m`` rows
  with ``m <= 2p`` (``p`` the price of a node) becomes a leaf without a
  search.  A kept split costs at least ``p + p + p`` in floating point
  (each child costs at least ``p``, and rounding is monotone), its leaf
  costs ``m + p`` with ``m <= p + p``, and ties terminate; so pruning would
  have cut the split anyway.  The code tests ``p + p + p >= target``, the
  bound's form of this stop, which also covers a pure node.
* Split memo: searches are kept by the first and last row id of each line
  of the block.  Those ids give the partition's tight bounding box.  Every
  partition one ``update`` searches is its data cut by an axis-aligned box,
  and the tight box of such a partition picks out exactly its rows again,
  so the key is exact and does not depend on the node's level.  One update
  shares one memo across all its regrows: a node's regrow reuses the
  searches its children's regrows made.
* Bound: a subtree is grown against the cost it must beat, and gives up
  (returns None) once it cannot get under it.  A node's split must cost
  less than ``target``, the smaller of its leaf's cost and the node's own
  bound.  The left child gets the bound ``lb``, the least float from
  ``target - p - p`` up with ``fl(fl(p + lb) + p) >= target``; once the
  left cost ``L`` is known, the right child gets ``rb``, the least from
  ``target - fl(p + L)`` up with ``fl(fl(p + L) + rb) >= target``.  Each
  child costs at least ``p`` and rounding is monotone, so a child whose
  cost reaches its bound makes the split's cost ``fl(fl(p + L) + R)`` reach
  ``target``: pruning would cut the split, or the node misses its own
  bound.  Every subtree that does return is exact, ties still go to the
  leaf, and the memo's entries do not depend on the bound, so the tree and
  cost are those of growing and then pruning, with fewer searches.
* Lower-bound memo: a call that searches and still returns None has shown
  that its block, grown with its room (the levels ``max_depth`` leaves below
  it) or less, costs at least its bound.  The block's memo entry keeps the
  room and bound of its latest such failure, and a later call on the block
  with no more room and no higher bound returns None before it partitions.
  Less room only truncates the greedy tree, and every pruning of a
  truncated tree is a pruning of the fuller one; the cost is the least,
  over prunings, of float sums that rounding keeps monotone in their terms,
  so it cannot drop as the room shrinks.  With ``max_depth`` None the room
  is always infinite.  Costs depend on the price of a node, so calls that
  share a memo share the price too.
"""

from __future__ import annotations

import math
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
        if isinstance(self.max_depth, bool) or not isinstance(self.max_depth, (int, np.integer, type(None))):
            raise TypeError(f"max_depth must be an integer or None, got {self.max_depth!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None for unlimited")


class SplitCandidate(NamedTuple):
    feature: int
    threshold: float
    decrease: float


class Presorted(NamedTuple):
    """A dataset laid out for the index engine; see ``presort``."""

    columns: np.ndarray  # (n_features, n_rows): line j holds feature j by row id
    labels: np.ndarray  # class index by row id
    n_classes: int


def presort(data: Dataset) -> tuple[Presorted, np.ndarray]:
    """Sort every feature once; return the layout and the block of all rows."""
    columns = np.ascontiguousarray(data.features.T)
    if columns.shape[0] == 0:  # one constant line lists the rows and never splits
        columns = np.zeros((1, data.n_rows))
    # Row ids in the narrowest type that holds them: blocks take less memory.
    block = np.argsort(columns, axis=1, kind="stable").astype(np.min_scalar_type(-data.n_rows))
    return Presorted(columns, data.labels, data.n_classes), block


def partition(rows: Presorted, block: np.ndarray, feature: int, threshold: float):
    """Split a block into (value <= threshold, value > threshold), lines still sorted."""
    goes_left = rows.columns[feature][block] <= threshold
    n_lines, n_left = block.shape[0], int(np.count_nonzero(goes_left[0]))
    return block[goes_left].reshape(n_lines, n_left), block[~goes_left].reshape(n_lines, -1)


def _gini(counts: np.ndarray, n: float) -> float:
    return 1.0 - float(np.sum((counts / n) ** 2))


def _class_sum(term, first: int, n: int):
    """``term(first) + ... + term(first + n - 1)``, added in the order in
    which ``np.sum`` adds ``n`` values along an axis (pairwise, in blocks of
    eight), so that a sum over classes rounds as a per-row ``np.sum`` would."""
    if n < 8:
        total = term(first)
        for c in range(first + 1, first + n):
            total = total + term(c)
        return total
    if n <= 128:
        acc = [term(first + c) for c in range(8)]
        blocks_end = n - n % 8
        for c in range(8, blocks_end):
            acc[c % 8] = acc[c % 8] + term(first + c)
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for c in range(blocks_end, n):
            total = total + term(first + c)
        return total
    half = n // 2
    half -= half % 8
    return _class_sum(term, first, half) + _class_sum(term, first + half, n - half)


# Lines x rows one sweep of ``split_search`` scores at most (beyond a single
# line); it bounds the sweep's temporary arrays to a few MB.
SWEEP_SIZE = 1 << 14


def split_search(rows: Presorted, block: np.ndarray) -> Optional[SplitCandidate]:
    """Best Gini split of a block's rows over all features, or None if nothing strictly helps.

    Lines are scored together, as many per sweep as ``SWEEP_SIZE`` allows,
    over cumulative class counts taken one class at a time, so no (features,
    rows, classes) array is built.  Every decrease is computed with the
    operations, in the order, of a per-feature ``np.sum`` over classes, so
    results are bit-for-bit those of searching each feature on its own.
    """
    n_lines, n = block.shape
    total = np.bincount(rows.labels[block[0]], minlength=rows.n_classes).astype(np.float64)
    parent = _gini(total, n)
    step = max(1, SWEEP_SIZE // n)
    best: Optional[SplitCandidate] = None
    for first in range(0, n_lines, step):
        cand = _sweep(rows, block[first : first + step], first, total, parent)
        if cand is not None and (best is None or cand.decrease > best.decrease):
            best = cand
    return best


def _sweep(rows: Presorted, lines: np.ndarray, first: int, total: np.ndarray, parent: float):
    """The best split among ``lines``, the block's lines from feature ``first`` on."""
    n_lines, n = lines.shape
    values = rows.columns[first : first + n_lines][np.arange(n_lines)[:, None], lines]
    labels = rows.labels[lines]
    # line and position of each cut: between the line's rows pos and pos + 1
    line, pos = np.nonzero(values[:, :-1] != values[:, 1:])
    if pos.size == 0:
        return None
    sizes = np.empty((2, pos.size))  # rows left and right of each cut
    sizes[0] = pos + 1
    np.subtract(n, sizes[0], out=sizes[1])

    taken = np.zeros(pos.size)  # rows left of each cut in the classes so far

    def squared_shares(c):  # _class_sum asks for c = 0, 1, ... in turn
        counts = np.empty_like(sizes)
        if c < rows.n_classes - 1:
            counts[0] = (labels == c).cumsum(axis=1)[line, pos]
            np.add(taken, counts[0], out=taken)
        else:  # the last class holds every row the others do not
            np.subtract(sizes[0], taken, out=counts[0])
        np.subtract(total[c], counts[0], out=counts[1])
        return (counts / sizes) ** 2

    gini = 1.0 - _class_sum(squared_shares, 0, rows.n_classes)
    decrease = parent - (sizes[0] / n) * gini[0] - (sizes[1] / n) * gini[1]
    best = int(decrease.argmax())  # first max: lowest feature, then lowest threshold
    if decrease[best] <= 0.0:
        return None
    j, cut = int(line[best]), int(pos[best])
    lo, hi = values[j, cut], values[j, cut + 1]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint rounded up between adjacent floats
        threshold = lo
    return SplitCandidate(first + j, float(threshold), float(decrease[best]))


def best_split(data: Dataset) -> Optional[SplitCandidate]:
    """Best Gini split over all features, or None if nothing strictly helps."""
    if data.n_rows == 0:
        raise ValueError("best_split requires a non-empty dataset")
    return split_search(*presort(data))


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
    as ``prune`` sums it.  ``memo`` maps blocks of ``data``'s row ids to
    their split search and failures; calls on the same data and ``params``
    may share one.
    """
    tree, cost, _, _ = grow_pruned_block(*presort(data), config, params.alpha + params.beta, memo)
    return tree, cost


def grow_pruned_block(
    rows: Presorted, block: np.ndarray, config: GrowthConfig, per_node: float, memo: dict, level: int = 0,
    bound: float = math.inf,
) -> Optional[tuple[Tree, float, int, int]]:
    """``grow_pruned`` on a block: the tree, its cost, and the rows it
    misclassifies and its node count, as ints; or None, only when that cost
    is not below ``bound``."""
    p = per_node
    counts = np.bincount(rows.labels[block[0]], minlength=rows.n_classes)
    mode = int(counts.argmax())
    misses = block.shape[1] - int(counts[mode])
    leaf_cost = float(misses) + p
    leaf = (Leaf(mode), leaf_cost, misses, 1) if leaf_cost <= bound else None
    # A kept split costs at least p + p + p; it must get under ``target``.
    target = min(leaf_cost, bound)
    room = math.inf if config.max_depth is None else config.max_depth - level  # levels left to grow
    if p + p + p >= target or room <= 0:
        return leaf
    key = block[:, :: block.shape[1] - 1].tobytes()  # each line's first and last id
    entry = memo.get(key)
    if entry is None:  # [split search, room and bound of the latest failure]
        entry = memo[key] = [split_search(rows, block), 0, -math.inf]
    cand, failed_room, failed_bound = entry
    if cand is None:
        return leaf
    if room <= failed_room and bound <= failed_bound:  # the block costs at least failed_bound
        return None
    left_block, right_block = partition(rows, block, cand.feature, cand.threshold)
    left_bound = target - p - p
    while p + left_bound + p < target:  # raised until a left cost at the bound loses
        left_bound = math.nextafter(left_bound, math.inf)
    left = grow_pruned_block(rows, left_block, config, p, memo, level + 1, left_bound)
    if left is not None:
        left, left_cost, left_misses, left_nodes = left
        right_bound = target - (p + left_cost)
        while p + left_cost + right_bound < target:
            right_bound = math.nextafter(right_bound, math.inf)
        right = grow_pruned_block(rows, right_block, config, p, memo, level + 1, right_bound)
        if right is not None:
            right, right_cost, right_misses, right_nodes = right
            split_cost = p + left_cost + right_cost
            if split_cost < target:  # ties go to the leaf
                tree = Split(cand.feature, cand.threshold, left, right)
                return tree, split_cost, left_misses + right_misses, 1 + left_nodes + right_nodes
    if leaf is None:
        entry[1:] = room, bound
    return leaf
