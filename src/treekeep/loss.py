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
from typing import Optional

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


def _changed_tops(prev: Tree, new: Tree):
    """``(path, subtree)`` of each topmost node of ``new`` not present in ``prev``, in preorder.

    Nodes match pairwise from the root down: splits must agree on feature and
    threshold, leaves on class.  Any mismatch (including a split standing
    where a leaf stood, or vice versa) yields the new subtree at that
    position; the walk does not descend into it.
    """
    stack = [("", prev, new)]
    while stack:
        path, old, now = stack.pop()
        if (
            isinstance(old, Split)
            and isinstance(now, Split)
            and old.feature == now.feature
            and old.threshold == now.threshold
        ):
            stack.append((path + "R", old.right, now.right))
            stack.append((path + "L", old.left, now.left))
        elif not (isinstance(old, Leaf) and isinstance(now, Leaf) and old.class_label == now.class_label):
            yield path, now


def repredict(prev: Optional[Tree], new: Tree, features, pred: Optional[np.ndarray] = None) -> np.ndarray:
    """The class of every row of ``features`` under ``new``, as ``predict`` gives it.

    Given ``prev`` and ``pred``, its classes, only the rows that reach a
    topmost changed node are predicted again: every split above such a node
    is ``prev``'s, so every other row keeps its class.  ``pred`` is never
    written to; it is returned as it is when no node changed.
    """
    if prev is None:
        return predict(new, features)
    features = _feature_matrix(new, features)
    if pred is None or len(pred) != features.shape[0]:
        raise InputShapeError(f"{'no' if pred is None else len(pred)} predictions for {features.shape[0]} rows")
    tops = {path for path, _ in _changed_tops(prev, new)}
    if not tops:
        return pred
    # The topmost changed nodes and the kept splits on the way to them.
    toward = {path[:i] for path in tops for i in range(len(path) + 1)}
    out = pred.copy()
    stack = [(new, "", None)]
    while stack:
        node, path, idx = stack.pop()
        if path in tops:
            _predict_into(node, features, idx, out)
            continue
        for child, step, rows in zip((node.left, node.right), "LR", _route(node, features, idx)):
            if path + step in toward:
                stack.append((child, path + step, rows))
    return out


def change_count(prev: Optional[Tree], new: Tree) -> int:
    """Nodes of ``new`` not present in ``prev``: those of every subtree ``_changed_tops``
    yields, or all of them with no previous tree."""
    if prev is None:
        return node_count(new)
    return sum(node_count(top) for _, top in _changed_tops(prev, new))


def breakdown(f: int, c: int, d: int, params: LossParams) -> LossBreakdown:
    """The loss of ``f`` misclassifications, ``c`` nodes and ``d`` changed nodes."""
    return LossBreakdown(f, c, d, f + params.alpha * c + params.beta * d)


def loss(prev: Optional[Tree], new: Tree, data: Dataset, params: LossParams) -> LossBreakdown:
    """Evaluate the full loss of ``new`` against ``prev`` on ``data``."""
    return breakdown(misclassification_count(new, data), node_count(new), change_count(prev, new), params)
