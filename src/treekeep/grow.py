"""Greedy CART-style growing with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted values
of each feature.  Ties on impurity decrease break to the lowest feature index
and then the lowest threshold, so growing is fully deterministic.

Split searches run on an index engine, as in CART's presort.  ``presort``
sorts every feature column of a dataset once.  The rows that reach a node
are then a block: an ``(n_features, n_rows)`` array of row ids whose line
``j`` lists the node's rows in order of feature ``j``.  Rows with equal
values keep the order ``presort`` gave them; no split depends on it, as no
cut falls between equal values.  A block always travels with its class
counts, a list of ints.  ``presort`` counts the whole dataset once, and
below the root the search counts: ``split_search`` returns, with its best
cut, the class counts of the rows left of it, which it reads off the labels
it has already gathered, and the right side gets the block's counts minus
those.  ``partition`` builds one side of a split block with one boolean mask
over the flattened block.  The filter is stable, so every line of the side
stays sorted, and no node sorts or copies features.  ``split_search``
scores the candidates of many features in one vectorised sweep, with the
arithmetic of a per-feature search; ``best_split`` is that search on a
freshly presorted dataset.  A sweep scores the whole position grid, the cut
after every row of every line but the last row, and masks out the
positions between equal values rather than listing the true cuts; its
class counts are cumulated from labels stored in the narrowest unsigned
type that holds them (one byte up to 256 classes).  Only a feature with
two equal values anywhere (``Presorted.tied``) can have equal neighbours in
a block, so a sweep of tie-free lines skips the mask and does not gather
their values.

``grow_pruned`` fuses ``grow`` with ``prune.prune`` into one recursion over
blocks for ``update`` and ``retrain``; each call takes its block's counts
from its parent's search.  A node's leaf, early stop, room and bound need
only those counts, so a child's block is built only when the child is
searched or looked up in the memo; a left child that fails its bound spares
the right side's block altogether.  The pass returns the very tree, and the
very float cost, that growing and then pruning would, but it searches less:

* Exact early stop: a node whose majority class misclassifies ``m`` rows
  with ``m <= 2p`` (``p`` the price of a node) becomes a leaf without a
  search.  A kept split costs at least ``p + p + p`` in floating point
  (each child costs at least ``p``, and rounding is monotone), its leaf
  costs ``m + p`` with ``m <= p + p``, and ties terminate; so pruning would
  have cut the split anyway.  The code tests ``p + p + p >= target``, the
  bound's form of this stop, which also covers a pure node.
* Split memo: searches, with the class counts left of their cut, are kept
  by the first and last row id of each line of the block.  Those ids give
  the partition's tight bounding box.  Every
  partition one ``update`` searches is its data cut by an axis-aligned box,
  and the tight box of such a partition picks out exactly its rows again,
  so the key is exact and does not depend on the node's level.  One update
  shares one memo across all its regrows: a node's regrow reuses the
  searches its children's regrows made.
* Bound: a subtree is grown against the cost it must beat, and gives up
  (returns None) once it cannot get under it.  A node's split must cost
  less than ``target``, the smaller of its leaf's cost and the node's own
  bound.  Any cost the right child returns is at least
  ``LB_R = min(fl(m_R + p), fl(fl(p + p) + p))``, with ``m_R`` the rows its
  majority class misses: it returns its leaf, or a split whose children
  each cost at least ``p``, and rounding is monotone.  So the left child
  gets the bound ``lb``, the least float from ``target - p - LB_R`` up with
  ``fl(fl(p + lb) + LB_R) >= target`` (the sibling's lower bound, as in
  MurTree); once the left cost ``L`` is known, the right child gets ``rb``,
  the least from ``target - fl(p + L)`` up with
  ``fl(fl(p + L) + rb) >= target``.  A left cost ``L >= lb`` makes the
  split's cost ``fl(fl(p + L) + R) >= fl(fl(p + lb) + LB_R)`` reach
  ``target``, and so does a right cost ``R >= rb``: pruning would cut the
  split, or the node misses its own bound.  Every subtree that does return
  is exact, ties still go to the leaf, and the memo's entries do not depend
  on the bound, so the tree and cost are those of growing and then pruning,
  with fewer searches.  A few ulp steps find each least float.  After
  cancellation a start can lie billions of ulps below it, and the child
  then gets ``target`` itself: ``p``, ``L`` and ``LB_R`` are non-negative,
  so a child cost of ``target`` or more brings the split to ``target``
  too, and the looser bound costs searches, never a different tree.
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
from functools import partial
from typing import Callable, NamedTuple, Optional

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
    """A dataset laid out for the index engine; see ``presort``.

    ``tied`` holds one bool per line: whether two rows share its value.  A
    block of an untied line has no equal neighbours, so ``split_search``
    masks cuts only on tied lines.
    """

    columns: np.ndarray  # (n_features, n_rows): line j holds feature j by row id
    labels: np.ndarray  # class index by row id, in the narrowest unsigned type (uint8 up to 256 classes)
    n_classes: int
    tied: tuple  # one bool per line: do two rows share a value?
    sizes: np.ndarray  # 1.0, 2.0, ..., n_rows - 1.0: the rows on one side of each cut


def presort(data: Dataset) -> tuple[Presorted, np.ndarray, list]:
    """Sort every feature once; return the layout, the block of all rows and
    its class counts, as ints.

    Rows with equal values come in whatever order ``np.argsort`` leaves
    them: no cut falls between equal values, so the order of a tie decides
    no split."""
    columns = np.ascontiguousarray(data.features.T)
    block = np.argsort(columns, axis=1)
    # One sorted line at a time, so no second (features, rows) array is built.
    tied = []
    for line, order in zip(columns, block):
        values = line.take(order)
        tied.append(bool((values[1:] == values[:-1]).any()))
    # Row ids in the narrowest type that holds them: blocks take less memory.
    block = block.astype(np.min_scalar_type(-data.n_rows))
    # Labels too: a search compares and gathers one byte per row up to 256 classes.
    labels = data.labels.astype(np.min_scalar_type(data.n_classes - 1))
    counts = np.bincount(data.labels, minlength=data.n_classes).tolist()
    sizes = np.arange(1.0, data.n_rows)
    return Presorted(columns, labels, data.n_classes, tuple(tied), sizes), block, counts


def partition(rows: Presorted, block: np.ndarray, feature: int, threshold: float, left: bool, n: int) -> np.ndarray:
    """One side of a split block, the ``n`` rows with value <= threshold if
    ``left``, else those above it.  One mask over the flattened block picks
    them; the filter is stable, so every line stays sorted."""
    flat = block.ravel()
    values = rows.columns[feature].take(flat)
    return flat.compress(values <= threshold if left else values > threshold).reshape(block.shape[0], n)


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


def split_search(rows: Presorted, block: np.ndarray, counts: list) -> tuple[Optional[SplitCandidate], Optional[list]]:
    """Best Gini split of a block's rows over all features, and the class
    counts of its left side as ints; ``(None, None)`` if nothing strictly helps.

    ``counts`` are the block's class counts, which give the parent's Gini.
    Lines are scored together, as many per sweep as ``SWEEP_SIZE`` allows,
    at every position of their grid: the cut after each row but the last.
    Cumulative class counts are taken one class at a time from the narrow
    labels, so memory does not grow with the class count and no (features,
    rows, classes) array is built.  Positions between equal values are set
    to ``-inf`` before one row-major argmax over the grid, whose first
    maximum is the lowest feature, then the lowest threshold; a sweep of
    lines with no tie in the whole dataset skips that mask.  Every decrease
    is computed with the operations, in the order, of a per-feature
    ``np.sum`` over classes, so results are bit-for-bit those of searching
    each feature on its own.
    """
    n_lines, n = block.shape
    if n < 2:
        return None, None
    shares = [c / n for c in counts]  # squared and summed as np.sum would, without its dispatch
    parent = 1.0 - _class_sum(lambda c: shares[c] * shares[c], 0, rows.n_classes)
    # Rows left and right of each position: 1, ..., n - 1 and n - 1, ..., 1.
    sizes = np.concatenate((rows.sizes[: n - 1], rows.sizes[n - 2 :: -1])).reshape(2, 1, n - 1)
    step = max(1, SWEEP_SIZE // n)
    best = best_left = None
    for first in range(0, n_lines, step):
        cand, left = _sweep(rows, block[first : first + step], first, counts, parent, sizes)
        if cand is not None and (best is None or cand.decrease > best.decrease):
            best, best_left = cand, left
    return best, best_left


def _sweep(rows: Presorted, lines: np.ndarray, first: int, counts: list, parent: float, sizes: np.ndarray):
    """The best split among ``lines``, the block's lines from feature ``first``
    on, and its left side's class counts; ``sizes`` holds the rows left and
    right of each position."""
    n_lines, n = lines.shape
    labels = rows.labels.take(lines[:, :-1])  # the last row is left of no position
    last = rows.n_classes - 1
    taken = 0.0  # rows left of each position in the classes so far

    def squared_shares(c):  # _class_sum asks for c = 0, 1, ... in turn
        nonlocal taken
        sides = np.empty((2, n_lines, n - 1))  # the class's rows left and right of each position
        if c < last:
            np.add.accumulate(labels == c, axis=1, dtype=np.float64, out=sides[0])
            taken = sides[0] if c == 0 else taken + sides[0]
        else:  # the last class holds every row the others do not
            np.subtract(sizes[0], taken, out=sides[0])
        np.subtract(float(counts[c]), sides[0], out=sides[1])
        shares = np.divide(sides, sizes)
        return np.square(shares, out=shares)

    gini = _class_sum(squared_shares, 0, rows.n_classes)  # every term is a new array, so this one is ours
    np.subtract(1.0, gini, out=gini)
    gini *= sizes / n
    decrease = np.subtract(parent, gini[0], out=gini[0])
    decrease -= gini[1]
    if any(rows.tied[first : first + n_lines]):
        # Each line's values, by one take from the flattened columns.
        stride = rows.columns.shape[1]
        starts = np.arange(first * stride, (first + n_lines) * stride, stride)
        values = rows.columns.take(lines + starts[:, None])
        decrease[values[:, :-1] == values[:, 1:]] = -np.inf  # no cut between equal values
    best = int(decrease.argmax())  # first max: lowest feature, then lowest threshold
    gain = decrease.item(best)
    if gain <= 0.0:
        return None, None
    j, cut = divmod(best, n - 1)
    lo, hi = rows.columns[first + j].take(lines[j, cut : cut + 2]).tolist()
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint rounded up between adjacent floats
        threshold = lo
    left_counts = np.bincount(labels[j, : cut + 1], minlength=rows.n_classes).tolist()
    return SplitCandidate(first + j, threshold, gain), left_counts


def best_split(data: Dataset) -> Optional[SplitCandidate]:
    """Best Gini split over all features, or None if nothing strictly helps."""
    if data.n_rows == 0:
        raise ValueError("best_split requires a non-empty dataset")
    return split_search(*presort(data))[0]


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


def grow_pruned(data: Dataset, config: GrowthConfig, params: LossParams) -> tuple[Tree, float]:
    """``prune(grow(data, config), data, params)`` and its cost, in one pass.

    The cost is misclassifications + (alpha + beta) per node, summed exactly
    as ``prune`` sums it.  The pass has a split memo of its own.
    """
    tree, cost, _, _ = grow_pruned_block(*presort(data), config, params.alpha + params.beta, {})
    return tree, cost


def grow_pruned_block(
    rows: Presorted, block: np.ndarray | Callable[[], np.ndarray], counts: list, config: GrowthConfig,
    per_node: float, memo: dict, level: int = 0, bound: float = math.inf,
) -> Optional[tuple[Tree, float, int, int]]:
    """``grow_pruned`` on a block with its class counts: the tree, its cost,
    and the rows it misclassifies and its node count, as ints; or None, only
    when that cost is not below ``bound``.  ``block`` is the block, or a
    function of no arguments that builds it, called only if the block is
    searched or looked up in ``memo``.  ``memo`` maps blocks of row ids to
    their split search and failures; calls on the same rows and
    ``per_node`` may share one."""
    p = per_node
    n, most = sum(counts), max(counts)
    misses = n - most
    leaf_cost = misses + p
    leaf = (Leaf(counts.index(most)), leaf_cost, misses, 1) if leaf_cost <= bound else None
    # A kept split costs at least p + p + p; it must get under ``target``.
    target = min(leaf_cost, bound)
    room = math.inf if config.max_depth is None else config.max_depth - level  # levels left to grow
    if p + p + p >= target or room <= 0:
        return leaf
    if callable(block):
        block = block()
    key = block[:, :: n - 1].tobytes()  # each line's first and last id
    entry = memo.get(key)
    if entry is None:  # [split search, its left side's counts, room and bound of the latest failure]
        entry = memo[key] = [*split_search(rows, block, counts), 0, -math.inf]
    cand, left_counts, failed_room, failed_bound = entry
    if cand is None:
        return leaf
    if room <= failed_room and bound <= failed_bound:  # the block costs at least failed_bound
        return None
    right_counts = [c - left for c, left in zip(counts, left_counts)]
    n_left = sum(left_counts)
    # The least cost the right side can return: its leaf's, or a split's.
    sibling = min((n - n_left - max(right_counts)) + p, p + p + p)
    left_bound = _least_bound(target - p - sibling, target, lambda lb: p + lb + sibling >= target)
    sides = partial(partition, rows, block, cand.feature, cand.threshold)
    left = grow_pruned_block(rows, partial(sides, True, n_left), left_counts, config, p, memo, level + 1, left_bound)
    if left is not None:
        left, left_cost, left_misses, left_nodes = left
        base = p + left_cost
        right_bound = _least_bound(target - base, target, lambda rb: base + rb >= target)
        right = grow_pruned_block(
            rows, partial(sides, False, n - n_left), right_counts, config, p, memo, level + 1, right_bound
        )
        if right is not None:
            right, right_cost, right_misses, right_nodes = right
            split_cost = base + right_cost
            if split_cost < target:  # ties go to the leaf
                tree = Split(cand.feature, cand.threshold, left, right)
                return tree, split_cost, left_misses + right_misses, 1 + left_nodes + right_nodes
    if leaf is None:
        entry[2:] = room, bound
    return leaf


def _least_bound(start: float, target: float, holds) -> float:
    """The least float from ``start`` up at which ``holds`` is true, if it is
    one of the first four; else ``target``.

    ``holds`` must be monotone and true at ``target``, and ``start`` at most
    ``target``.  After cancellation ``start`` can lie billions of ulps below
    the least float, out of reach of ulp steps; ``target`` is then a looser
    bound that still holds.
    """
    for _ in range(4):
        if holds(start):
            return start
        start = math.nextafter(start, math.inf)
    return target
