"""Structural comparison of two trees.

Two instruments, deliberately different:

* ``delta`` is the strict change count the update loss optimizes: any
  alteration of a condition discards the node and everything under it.
* ``similarity`` is an evaluation-only partial-match score in [0, 1] that
  gives half credit to a split keeping its variable but shifting its
  threshold.  It approximates the published partial-match idea rather than
  reproducing any exact formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import Leaf, NodeId, Split, Tree, iter_nodes, node_count

__all__ = ["DiffEntry", "DiffReport", "structural_diff", "diff_table"]

PARTIAL_CREDIT = 0.5


def _match_score(prev: Tree, new: Tree) -> float:
    """Match score for an aligned node pair: 1 exact, 0.5 same-variable split, 0 else."""
    if isinstance(prev, Leaf) and isinstance(new, Leaf):
        return 1.0 if prev.class_label == new.class_label else 0.0
    if isinstance(prev, Split) and isinstance(new, Split) and prev.feature == new.feature:
        return 1.0 if prev.threshold == new.threshold else PARTIAL_CREDIT
    return 0.0


@dataclass(frozen=True)
class DiffEntry:
    path: NodeId  # position in the new tree
    status: str  # "kept" | "changed"
    match_score: float


@dataclass(frozen=True)
class DiffReport:
    entries: tuple[DiffEntry, ...]
    delta: int
    similarity: float


def structural_diff(prev: Tree, new: Tree) -> DiffReport:
    """Walk both trees in lockstep, classifying every node of the new tree.

    Statuses follow the strict change rules (delta always agrees with
    ``loss.change_count``).  Scores descend through same-variable splits even
    when the threshold moved, stop at a kind mismatch or a different split
    variable, and sum into ``similarity`` over the larger tree's node count.
    """
    entries: list[DiffEntry] = []
    stack = [("", prev, new, False)]  # right pushed before left: the entries stay in preorder
    while stack:
        path, old, now, ancestor_changed = stack.pop()
        score = _match_score(old, now)
        if score == 0.0:
            entries.extend(DiffEntry(p, "changed", 0.0) for p, _ in iter_nodes(now, path))
            continue
        exact = score == 1.0
        entries.append(DiffEntry(path, "kept" if exact and not ancestor_changed else "changed", score))
        if isinstance(now, Split):  # a nonzero score means old is a Split too
            below_changed = ancestor_changed or not exact
            stack.append((path + "R", old.right, now.right, below_changed))
            stack.append((path + "L", old.left, now.left, below_changed))
    delta = sum(1 for e in entries if e.status == "changed")
    score = sum(e.match_score for e in entries)
    sim = score / max(node_count(prev), node_count(new))
    return DiffReport(tuple(entries), delta, sim)


def diff_table(report: DiffReport) -> str:
    """One text row per new-tree node: path, status, match score."""
    lines = ["path\tstatus\tscore"]
    for entry in report.entries:
        lines.append(f"{entry.path or 'root'}\t{entry.status}\t{entry.match_score:g}")
    return "\n".join(lines) + "\n"
