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
from .diff import DiffReport
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


def repredict(
    new: Tree, features, pred: Optional[np.ndarray] = None, report: Optional[DiffReport] = None
) -> np.ndarray:
    """The class of every row of ``features`` under ``new``, as ``predict`` gives it.

    Given ``pred``, the classes under the previous tree, and ``report``, that
    tree's ``structural_diff`` against ``new``, only the rows that reach a
    topmost changed node (a changed root, or a changed node with a kept
    parent) are predicted again.  By ``change_count``'s rules a kept node and
    every split above it are the previous tree's, so every other row keeps
    its class.  ``pred`` is never written to; it is returned as it is when
    no node changed.
    """
    if pred is None:
        return predict(new, features)
    if report is None:
        raise ValueError("previous predictions need their diff report to be predicted again")
    features = _feature_matrix(new, features)
    if len(pred) != features.shape[0]:
        raise InputShapeError(f"{len(pred)} predictions for {features.shape[0]} rows")
    kept = {e.path for e in report.entries if e.status == "kept"}
    tops = {e.path for e in report.entries if e.status == "changed" and (not e.path or e.path[:-1] in kept)}
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
    """Nodes of ``new`` that are not present in ``prev``.

    Nodes match pairwise from the root down: splits must agree on feature and
    threshold, leaves on class.  Any mismatch (including a split standing
    where a leaf stood, or vice versa) marks the entire new subtree at that
    position as changed.  With no previous tree every node is new.
    """
    if prev is None:
        return node_count(new)
    if isinstance(prev, Leaf) and isinstance(new, Leaf):
        return 0 if prev.class_label == new.class_label else 1
    if (
        isinstance(prev, Split)
        and isinstance(new, Split)
        and prev.feature == new.feature
        and prev.threshold == new.threshold
    ):
        return change_count(prev.left, new.left) + change_count(prev.right, new.right)
    return node_count(new)


def breakdown(f: int, c: int, d: int, params: LossParams) -> LossBreakdown:
    """The loss of ``f`` misclassifications, ``c`` nodes and ``d`` changed nodes."""
    return LossBreakdown(f, c, d, f + params.alpha * c + params.beta * d)


def loss(prev: Optional[Tree], new: Tree, data: Dataset, params: LossParams) -> LossBreakdown:
    """Evaluate the full loss of ``new`` against ``prev`` on ``data``."""
    return breakdown(misclassification_count(new, data), node_count(new), change_count(prev, new), params)
