"""The update loss: misclassifications + alpha * nodes + beta * changed nodes.

``alpha`` prices tree complexity (every node pays it) and ``beta`` prices the
audit burden of changes: a node of the new tree pays ``beta`` when it does not
match the previous tree.  Altering a decision node's variable or threshold
discards that node and all its descendants, so the whole subtree below an
altered condition counts as changed.  Misclassifications are counted on the
training data itself, never a holdout, which is why ``alpha`` also has to
carry the anti-overfitting load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import InputShapeError
from .tree import Leaf, Split, Tree, _feature_matrix, _predict_into, _route, node_count, predict

__all__ = [
    "LossParams",
    "LossBreakdown",
    "misclassification_count",
    "repredict",
    "change_count",
    "loss",
]


@dataclass(frozen=True)
class LossParams:
    """Penalty weights: alpha per node, beta per changed node; both >= 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class LossBreakdown:
    misclassifications: int
    nodes: int
    changed: int
    total: float


def misclassification_count(tree: Tree, data: Dataset) -> int:
    """Rows whose predicted class differs from their label."""
    if data.n_rows == 0:
        return 0
    return int(np.sum(predict(tree, data.features) != data.labels))


def _walk(prev: Tree, new: Tree) -> list[tuple[Tree, bool, Sequence[int]]]:
    """The positions of ``new`` a lockstep walk with ``prev`` reaches, in preorder,
    as ``(node, changed, children)``.  Nodes match pairwise from the root down:
    splits must agree on feature and threshold, leaves on class.  A matched
    split lists its child entries' indices in ``children``; any mismatch
    (including a split standing where a leaf stood, or vice versa) is a
    topmost change, which sets ``changed`` and is not descended into.
    """
    entries = []
    stack = [(prev, new, [])]  # each pair with its parent entry's children; right pushed first: preorder
    while stack:
        old, now, siblings = stack.pop()
        siblings.append(len(entries))
        if (
            isinstance(old, Split)
            and isinstance(now, Split)
            and old.feature == now.feature
            and old.threshold == now.threshold
        ):
            children = []
            entries.append((now, False, children))
            stack.append((old.right, now.right, children))
            stack.append((old.left, now.left, children))
        else:
            matched = isinstance(old, Leaf) and isinstance(now, Leaf) and old.class_label == now.class_label
            entries.append((now, not matched, ()))
    return entries


def repredict(prev: Tree, new: Tree, features, pred: np.ndarray) -> np.ndarray:
    """The class of every row of ``features`` under ``new``, given ``pred``, their classes under ``prev``.

    Only the rows that reach a topmost changed node are predicted again:
    every split above such a node is ``prev``'s, so every other row keeps its
    class.  ``pred`` is never written to; it is returned as it is when no
    node changed.
    """
    features = _feature_matrix(new, features)
    if len(pred) != features.shape[0]:
        raise InputShapeError(f"{len(pred)} predictions for {features.shape[0]} rows")
    entries = _walk(prev, new)
    # Marked: the topmost changed nodes and the kept splits on the way to them.
    marked = [changed for _, changed, _ in entries]
    for i in reversed(range(len(entries))):
        marked[i] = marked[i] or any(marked[child] for child in entries[i][2])
    if not marked[0]:
        return pred
    out = pred.copy()
    stack = [(0, None)]
    while stack:
        i, idx = stack.pop()
        node, changed, children = entries[i]
        if changed:
            _predict_into(node, features, idx, out)
            continue
        for child, rows in zip(children, _route(node, features, idx)):
            if marked[child]:
                stack.append((child, rows))
    return out


def change_count(prev: Optional[Tree], new: Tree) -> int:
    """Nodes of ``new`` not present in ``prev``: those under every topmost change
    ``_walk`` finds, or all of them with no previous tree."""
    if prev is None:
        return node_count(new)
    return sum(node_count(node) for node, changed, _ in _walk(prev, new) if changed)


def breakdown(f: int, c: int, d: int, params: LossParams) -> LossBreakdown:
    """The loss of ``f`` misclassifications, ``c`` nodes and ``d`` changed nodes."""
    return LossBreakdown(f, c, d, f + params.alpha * c + params.beta * d)


def loss(prev: Optional[Tree], new: Tree, data: Dataset, params: LossParams) -> LossBreakdown:
    """Evaluate the full loss of ``new`` against ``prev`` on ``data``."""
    return breakdown(misclassification_count(new, data), node_count(new), change_count(prev, new), params)
