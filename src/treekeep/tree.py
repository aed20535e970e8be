"""Binary decision trees: structure, prediction, (de)serialization, DOT export.

A tree is either a ``Split`` (feature index, threshold, left/right subtrees)
or a ``Leaf`` (class label).  Rows with ``value <= threshold`` go left, rows
with ``value > threshold`` go right; every module in the package shares this
one predicate.  Trees are immutable values: safe to share, hash-free, and
compared structurally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import InputShapeError, TreeFormatError

__all__ = [
    "Leaf",
    "Split",
    "Tree",
    "NodeId",
    "predict",
    "node_count",
    "depth",
    "max_feature",
    "iter_nodes",
    "node_at",
    "serialize",
    "deserialize",
    "save_tree",
    "load_tree",
    "to_dot",
]

# Path from the root as a string of "L"/"R" steps; the root is "".
NodeId = str

# Classes lie below this bound: predict writes them into an int64 array.
_CLASS_LIMIT = 2**63


@dataclass(frozen=True)
class Leaf:
    """Terminal node emitting a class label (dense index in [0, 2**63))."""

    class_label: int

    def __post_init__(self):
        if not 0 <= self.class_label < _CLASS_LIMIT:
            raise ValueError(f"class label must lie in [0, 2**63), got {self.class_label}")


@dataclass(frozen=True)
class Split:
    """Internal node testing ``x[feature] <= threshold``."""

    feature: int
    threshold: float
    left: "Tree"
    right: "Tree"

    def __post_init__(self):
        if self.feature < 0:
            raise ValueError(f"feature index must be non-negative, got {self.feature}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")


Tree = Union[Split, Leaf]


def max_feature(tree: Tree) -> int:
    """Largest feature index any split tests, or -1 for a bare leaf."""
    return max((node.feature for _, node in iter_nodes(tree) if isinstance(node, Split)), default=-1)


def _feature_matrix(tree: Tree, features) -> np.ndarray:
    """``features`` as a float matrix with every column ``tree`` splits on."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise InputShapeError(f"expected a 2-D feature matrix, got shape {features.shape}")
    top = max_feature(tree)
    if top >= features.shape[1]:
        raise InputShapeError(f"tree splits on feature {top} but data has {features.shape[1]} columns")
    return features


def predict(tree: Tree, features: np.ndarray) -> np.ndarray:
    """Class label of every row of a feature matrix; equal-to-threshold goes left."""
    features = _feature_matrix(tree, features)
    out = np.empty(features.shape[0], dtype=np.int64)
    _predict_into(tree, features, np.arange(features.shape[0]), out)
    return out


def _predict_into(node, features, idx, out):
    if isinstance(node, Leaf):
        out[idx] = node.class_label
        return
    if idx.size == 0:
        return
    goes_left = features[idx, node.feature] <= node.threshold
    _predict_into(node.left, features, idx[goes_left], out)
    _predict_into(node.right, features, idx[~goes_left], out)


def node_count(tree: Tree) -> int:
    """Total number of nodes, decision nodes and leaves together."""
    return sum(1 for _ in iter_nodes(tree))


def depth(tree: Tree) -> int:
    """Number of split levels on the longest root-to-leaf path (leaf -> 0)."""
    return max(len(path) for path, _ in iter_nodes(tree))


def iter_nodes(tree: Tree, path: NodeId = "") -> Iterator[tuple[NodeId, Tree]]:
    """Preorder traversal yielding (path, node) pairs; iterative, so any depth works."""
    stack = [(path, tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Split):
            stack.append((path + "R", node.right))
            stack.append((path + "L", node.left))


def node_at(tree: Tree, path: NodeId) -> Tree:
    """Return the node reached by following a path of 'L'/'R' steps."""
    node = tree
    for step in path:
        if not isinstance(node, Split):
            raise ValueError(f"path {path!r} descends past a leaf")
        if step == "L":
            node = node.left
        elif step == "R":
            node = node.right
        else:
            raise ValueError(f"path step must be 'L' or 'R', got {step!r}")
    return node


# ---------------------------------------------------------------------------
# Tree file format: one JSON document per file.
#   split: {"kind": "split", "feature": 2, "threshold": 0.8, "left": ..., "right": ...}
#   leaf:  {"kind": "leaf", "class": 1}
# Thresholds are written via repr and round-trip bit-exactly.
# ---------------------------------------------------------------------------


def serialize(tree: Tree) -> str:
    """Render a tree as its JSON document (trailing newline included)."""
    return json.dumps(_to_obj(tree), indent=2) + "\n"


def _to_obj(node):
    if isinstance(node, Leaf):
        return {"kind": "leaf", "class": node.class_label}
    return {
        "kind": "split",
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _to_obj(node.left),
        "right": _to_obj(node.right),
    }


def deserialize(text: str) -> Tree:
    """Parse a tree document, enforcing tree invariants.

    Errors name the path of the offending node, e.g. ``root.left.threshold``.
    """

    def reject_constant(token):
        raise TreeFormatError(f"non-finite number {token} is not allowed in a tree document")

    try:
        return _from_obj(json.loads(text, parse_constant=reject_constant), "root")
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid tree document: {exc}") from exc
    except RecursionError:
        raise TreeFormatError("tree document is nested too deeply to read") from None


def _from_obj(obj, path: str) -> Tree:
    if not isinstance(obj, dict):
        raise TreeFormatError(f"{path}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "leaf":
        label = obj.get("class")
        if not isinstance(label, int) or isinstance(label, bool) or not 0 <= label < _CLASS_LIMIT:
            raise TreeFormatError(f"{path}.class: expected an integer in [0, 2**63), got {label!r}")
        return Leaf(label)
    if kind == "split":
        feature = obj.get("feature")
        if not isinstance(feature, int) or isinstance(feature, bool) or feature < 0:
            raise TreeFormatError(f"{path}.feature: expected a non-negative integer, got {feature!r}")
        threshold = obj.get("threshold")
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise TreeFormatError(f"{path}.threshold: expected a number, got {threshold!r}")
        threshold = float(threshold)
        if not math.isfinite(threshold):
            raise TreeFormatError(f"{path}.threshold: must be finite, got {threshold!r}")
        if "left" not in obj or "right" not in obj:
            raise TreeFormatError(f"{path}: split node needs both 'left' and 'right'")
        return Split(
            feature,
            threshold,
            _from_obj(obj["left"], path + ".left"),
            _from_obj(obj["right"], path + ".right"),
        )
    raise TreeFormatError(f"{path}.kind: expected 'split' or 'leaf', got {kind!r}")


def save_tree(tree: Tree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(tree))


def load_tree(path) -> Tree:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return deserialize(fh.read())


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_CHANGED_STYLE = 'style=filled, fillcolor="lightsalmon"'
_KEPT_STYLE = 'style=filled, fillcolor="palegreen"'


def to_dot(tree: Tree, diff: Optional["DiffReport"] = None) -> str:  # noqa: F821
    """Render the tree as a Graphviz digraph.

    When a diff report (computed against this tree as the new tree) is given,
    kept nodes are filled green and changed nodes salmon so regrown regions
    stand out in the rendered figure.
    """
    status = {}
    if diff is not None:
        status = {entry.path: entry.status for entry in diff.entries}
    lines = ["digraph tree {", "  node [shape=box];"]
    for path, node in iter_nodes(tree):
        name = "n" + path
        if isinstance(node, Leaf):
            label = f"class = {node.class_label}"
        else:
            label = f"x[{node.feature}] <= {node.threshold:g}"
        style = ""
        if path in status:
            style = ", " + (_CHANGED_STYLE if status[path] == "changed" else _KEPT_STYLE)
        lines.append(f'  {name} [label="{label}"{style}];')
    for path, node in iter_nodes(tree):
        if isinstance(node, Split):
            name = "n" + path
            lines.append(f'  {name} -> {name}L [label="true"];')
            lines.append(f'  {name} -> {name}R [label="false"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
