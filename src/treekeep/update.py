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

Each regrow is one fused grow-and-prune pass (``grow.grow_pruned_block``),
equal to pruning a fully grown subtree.  It stops growing at any node whose
majority class misclassifies at most 2 * (alpha + beta) rows: no split below
it could survive pruning.  One update shares a single split memo across all
its regrows, keyed by the rows of each partition, so a node's regrow reuses
the split searches its children's regrows already made, and skips the blocks
they proved too costly for the bound it has there.

Each regrow is bounded by the loss it must beat.  With ``K`` keep's total
and ``n`` the node's rows, ``_optimize`` passes the bound
``B = (K + 2**-1000) * (1 + (n + 2) * 2**-50)`` and keeps when the fused pass
gives up, which it does only when the regrow's fused cost ``C`` is at least
``B``.  Then the regrow's total ``T`` under ``loss`` is at least ``K``, so
keep would win or tie anyway.  Both are float sums of non-negative terms
whose exact sum is ``E = f + (alpha + beta) * c`` for the regrow's ``f``
misclassified rows and ``c`` nodes; every leaf holds a row, so
``c <= 2n - 1``.  With ``u = 2**-53``: ``C`` adds at most ``3n`` terms,
each rounded at most ``3n`` times counting ``p = alpha + beta`` itself, so
``C <= E * (1 + u)**(3n)``; ``T`` rounds each term at most three times and
its two products may underflow by ``2**-1075`` each, so
``T >= E * (1 - u)**3 - 2**-1073``.  If ``T < K``, then
``C < (K + 2**-1073) * (1 + u)**(3n) / (1 - u)**3``, which for
``n <= 2**45`` is below ``(K + 2**-1000) * (1 - u)**3 * (1 + 8 * (n + 2) * u)``,
and that is at most ``B`` after its own three roundings.

The data is presorted once per update (``grow.presort``); every node, kept or
regrown, works on a block of row ids that a stable partition keeps sorted
by each feature, and on the block's class counts, ints that come with it
from ``presort`` at the root.  Below it a kept split counts the rows of its
block's first line that go left, and the right side gets the rest; a
regrown node's counts come from its parent's split search.  A node's
regrow starts from the same counts.  A kept leaf needs only its counts, so
its block is built (``grow.partition``) only if its regrow searches or
looks up the memo.  Losses are carried up
rather than recomputed: a kept leaf's misses are its rows less its class's
count, a kept split sums its children's counts, an empty side kept verbatim
costs only its nodes, and a regrown subtree brings its misclassifications
and node count from the fused pass and counts every one of its nodes as
changed.  Totals are formed as ``loss`` forms them, so the choice at every
node is the one ``loss`` would make.

Crediting a regrow with the nodes it happens to share with the previous
subtree would never change a choice.  A regrow shares nodes only when its
root repeats the previous node; a repeated leaf is the kept leaf itself.  A
repeated split costs alpha plus the losses of its two subtrees against the
previous children.  Each subtree was grown on that child's rows with one
level less to go, so it is a pruning of the tree the child's own regrow
grows, and costs no less than that regrow when it shares nothing with the
previous child; when it does share, the same argument applies one level
down.  So each subtree costs no less than its child's chosen loss, keep wins
or ties, and a regrow that wins shares nothing with ``prev``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .data import Dataset
from .grow import GrowthConfig, Presorted, grow_pruned, grow_pruned_block, partition, presort
from .loss import LossParams, breakdown
# grow, prune and loss go unused here; perfbench/tracer.py patches them in this module.
from .grow import grow  # noqa: F401
from .loss import loss  # noqa: F401
from .prune import prune  # noqa: F401
from .tree import Leaf, Split, Tree, _feature_matrix, node_count

__all__ = ["update", "retrain"]


def update(prev: Tree, data: Dataset, params: LossParams, growth: GrowthConfig = GrowthConfig()) -> Tree:
    """Update ``prev`` on ``data``, trading accuracy against change count.

    With beta large enough (|data| + alpha * node_count(prev) suffices) the
    previous tree comes back untouched; with beta = 0 branches are still
    preserved whenever regrowing would not improve the penalized training
    loss.
    """
    if data.n_rows == 0:
        raise ValueError("update requires a non-empty dataset")
    _feature_matrix(prev, data.features)  # raises InputShapeError if a split's column is missing
    tree, _ = _optimize(prev, *presort(data), params, growth, {})
    return tree


def _optimize(
    prev: Tree, rows: Presorted, block: np.ndarray | Callable[[], np.ndarray], counts: list, params: LossParams,
    growth: GrowthConfig, memo: dict,
):
    """Return (chosen subtree, its loss against ``prev`` on the block's rows).

    ``counts`` are the block's class counts, as ints.  ``block`` is the
    block, or a function of no arguments that builds it, called only when
    ``prev`` is a split or its regrow needs the rows.  ``memo`` is the split
    memo shared by every regrow of one update.
    """
    n = sum(counts)
    if isinstance(prev, Leaf):
        keep: Tree = prev
        label = prev.class_label
        misses = n - counts[label] if label < rows.n_classes else n
        keep_loss = breakdown(misses, 1, 0, params)
    else:
        if callable(block):
            block = block()
        # The left side's counts, from the rows of the block's first line that go left.
        line = block[0]
        goes_left = rows.columns[prev.feature].take(line) <= prev.threshold
        left_counts = np.bincount(rows.labels.take(line.compress(goes_left)), minlength=rows.n_classes).tolist()
        n_left = sum(left_counts)
        sides = (
            (prev.left, left_counts, True, n_left),
            (prev.right, [c - left for c, left in zip(counts, left_counts)], False, n - n_left),
        )
        kept = []
        for child, side_counts, is_left, side_n in sides:
            if side_n == 0:
                # An empty side stays exactly as it was: no rows reach it, so
                # only the alpha term applies and regrowing (which needs data)
                # is moot.
                kept.append((child, breakdown(0, node_count(child), 0, params)))
            else:
                side = partial(partition, rows, block, prev.feature, prev.threshold, is_left, side_n)
                kept.append(_optimize(child, rows, side, side_counts, params, growth, memo))
        (left, left_loss), (right, right_loss) = kept
        keep = Split(prev.feature, prev.threshold, left, right)
        keep_loss = breakdown(
            left_loss.misclassifications + right_loss.misclassifications,
            1 + left_loss.nodes + right_loss.nodes,
            left_loss.changed + right_loss.changed,
            params,
        )

    # A regrow that cannot get under this bound loses to keep or ties it (module docstring).
    bound = (keep_loss.total + 2.0**-1000) * (1.0 + (n + 2) * 2.0**-50)
    regrow = grow_pruned_block(rows, block, counts, growth, params.alpha + params.beta, memo, bound=bound)
    if regrow is None:
        return keep, keep_loss
    regrown, _, misses, nodes = regrow
    regrow_loss = breakdown(misses, nodes, nodes, params)

    if keep_loss.total <= regrow_loss.total:
        return keep, keep_loss
    return regrown, regrow_loss


def retrain(data: Dataset, params: LossParams, growth: GrowthConfig = GrowthConfig()) -> Tree:
    """Grow and prune from scratch, ignoring any previous tree (beta plays no part)."""
    if data.n_rows == 0:
        raise ValueError("retrain requires a non-empty dataset")
    tree, _ = grow_pruned(data, growth, LossParams(params.alpha, 0.0))
    return tree
