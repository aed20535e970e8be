"""Shared generators and reference oracles for the test suite.

Random inputs use grid-valued features (integers 0..7 cast to float) so that
duplicate values, boundary thresholds, and empty partitions actually occur.
"""

import csv
import os
from typing import Union

import numpy as np

from treekeep import Dataset, GrowthConfig, Leaf, Split, SplitCandidate, load_tree, loss
from treekeep.cli import main
from treekeep.data import SyntheticSpec, builtin_dataset_path, load_csv, make_batch_plan
from treekeep.errors import DataLoadError
from treekeep.grow import grow
from treekeep.prune import prune

# Seed of the 15-row iris sample: updating its tree on full iris keeps the
# root split and regrows one lower condition with a shifted threshold.
IRIS_SAMPLE_SEED = 21


def random_dataset(rng, n_rows=None, n_features=3, n_classes=3, max_rows=64):
    n = int(n_rows) if n_rows is not None else int(rng.integers(1, max_rows + 1))
    if rng.random() < 0.5:
        features = rng.integers(0, 8, size=(n, n_features)).astype(np.float64)
    else:
        features = rng.uniform(0.0, 8.0, size=(n, n_features))
    labels = rng.integers(0, n_classes, size=n)
    return Dataset(features, labels, n_classes)


def random_tree(rng, max_depth=3, n_features=3, n_classes=3, leaf_p=0.35):
    """Arbitrary tree over the grid feature space; not grown from any data."""
    if max_depth == 0 or rng.random() < leaf_p:
        return Leaf(int(rng.integers(n_classes)))
    return Split(
        int(rng.integers(n_features)),
        float(rng.integers(0, 8)) + 0.5,
        random_tree(rng, max_depth - 1, n_features, n_classes, leaf_p),
        random_tree(rng, max_depth - 1, n_features, n_classes, leaf_p),
    )


def mutate_tree(rng, tree):
    """Perturb one aspect of a tree: threshold, class, feature, or a subtree."""
    if isinstance(tree, Leaf):
        if rng.random() < 0.5:
            return Leaf(tree.class_label + 1)
        return random_tree(rng, max_depth=2)
    choice = rng.random()
    if choice < 0.25:
        return Split(tree.feature, tree.threshold + 1.0, tree.left, tree.right)
    if choice < 0.45:
        return Split(tree.feature + 1, tree.threshold, tree.left, tree.right)
    if choice < 0.6:
        return Leaf(0)
    if choice < 0.8:
        return Split(tree.feature, tree.threshold, mutate_tree(rng, tree.left), tree.right)
    return Split(tree.feature, tree.threshold, tree.left, mutate_tree(rng, tree.right))


def ref_classify(tree, row):
    """Independent row-at-a-time walk used to cross-check predict."""
    while isinstance(tree, Split):
        tree = tree.left if row[tree.feature] <= tree.threshold else tree.right
    return tree.class_label


def ref_misclassified(tree, data):
    return sum(
        1
        for row, label in zip(data.features, data.labels)
        if ref_classify(tree, row) != label
    )


def ref_gini(labels, n_classes):
    n = len(labels)
    counts = np.bincount(labels, minlength=n_classes)
    return 1.0 - float(np.sum((counts / n) ** 2))


def ref_best_split(data):
    """``best_split`` as it was before the index engine: each feature on its
    own, argsorted, with a one-hot cumulative count per candidate."""
    X, y = data.features, data.labels
    n, n_feat = X.shape
    k = data.n_classes
    total = np.bincount(y, minlength=k).astype(np.float64)
    parent = 1.0 - float(np.sum((total / n) ** 2))
    best = None
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
        pos = int(np.argmax(decrease))
        if decrease[pos] <= 0.0:
            continue
        if best is None or decrease[pos] > best.decrease:
            lo, hi = vals[cuts[pos]], vals[cuts[pos] + 1]
            threshold = (lo + hi) / 2.0
            if threshold >= hi:
                threshold = lo
            best = SplitCandidate(j, float(threshold), float(decrease[pos]))
    return best


def ref_update(prev, data, params, growth=GrowthConfig()):
    """``update`` as it was before the fused pass: every regrow grows a full
    subtree, then prunes it, and nothing is shared between regrows."""
    return _ref_optimize(prev, data, params, growth)[0]


def _ref_optimize(prev, data, params, growth):
    if isinstance(prev, Leaf):
        keep = prev
    else:
        left_data, right_data = data.partition(prev.feature, prev.threshold)
        if left_data.n_rows == 0:
            left = prev.left
        else:
            left, _ = _ref_optimize(prev.left, left_data, params, growth)
        if right_data.n_rows == 0:
            right = prev.right
        else:
            right, _ = _ref_optimize(prev.right, right_data, params, growth)
        keep = Split(prev.feature, prev.threshold, left, right)
    keep_loss = loss(prev, keep, data, params).total
    regrown = prune(grow(data, growth), data, params)
    regrow_loss = loss(prev, regrown, data, params).total
    if keep_loss <= regrow_loss:
        return keep, keep_loss
    return regrown, regrow_loss


# ``load_csv`` and its label order as they were before the chunked parser,
# copied verbatim (renamed): every line split on its own, every cell parsed
# on its own.  The parity test in test_data.py compares the two.
def _ref_sort_key(raw: str):
    try:
        return (0, float(raw), "")
    except ValueError:
        return (1, 0.0, raw)


def ref_load_csv(path, label_column: Union[int, str], has_header: bool = False) -> Dataset:
    """Load a delimited text file (comma or whitespace separated).

    ``label_column`` is a 0-based column index, or a column name when the
    file has a header.  Feature cells must parse as finite numbers; labels
    are densified to 0-based class indices (sorted numerically when every
    label parses as a number, lexicographically otherwise) and the mapping
    is recorded in ``label_names``.
    """
    if not os.path.exists(path):
        raise DataLoadError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln for ln in (line.strip() for line in fh) if ln]
    if not lines:
        raise DataLoadError(f"{path}: file is empty")

    def split_line(line: str) -> list[str]:
        if "," in line:
            return next(csv.reader([line]))
        return line.split()

    header = None
    start = 0
    if has_header:
        header = [cell.strip() for cell in split_line(lines[0])]
        start = 1
        if not lines[start:]:
            raise DataLoadError(f"{path}: no data rows after the header")

    first = split_line(lines[start])
    n_cols = len(first)
    if isinstance(label_column, str):
        if header is None:
            raise DataLoadError(f"{path}: label column given by name but the file has no header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataLoadError(f"{path}: no column named {label_column!r} in header") from None
    else:
        label_idx = label_column if label_column >= 0 else n_cols + label_column
    if not 0 <= label_idx < n_cols:
        raise DataLoadError(f"{path}: label column {label_column} out of range for {n_cols} columns")

    features = []
    raw_labels = []
    for row_no, line in enumerate(lines[start:], start=start + 1):
        cells = split_line(line)
        if len(cells) != n_cols:
            raise DataLoadError(f"{path}, row {row_no}: expected {n_cols} cells, got {len(cells)}")
        row = []
        for col_no, cell in enumerate(cells):
            if col_no == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataLoadError(
                    f"{path}, row {row_no}, column {col_no + 1}: not a number: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise DataLoadError(
                    f"{path}, row {row_no}, column {col_no + 1}: non-finite value: {cell!r}"
                )
            row.append(value)
        features.append(row)

    distinct = sorted(set(raw_labels), key=_ref_sort_key)
    index_of = {name: i for i, name in enumerate(distinct)}
    labels = np.array([index_of[name] for name in raw_labels], dtype=np.int64)
    column_names = None
    if header is not None:
        column_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    return Dataset(
        np.array(features, dtype=np.float64),
        labels,
        n_classes=len(distinct),
        column_names=column_names,
        label_names=tuple(distinct),
    )


def ref_synthetic(spec: SyntheticSpec, seed) -> Dataset:
    """``synthetic`` as it was before the column-wise masks: each
    rectangle's mask from one broadcast comparison of the whole feature
    matrix and an ``np.all`` along its rows."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n, d = spec.n_rows, spec.n_features
    features = rng.uniform(0.0, 1.0, size=(n, d))
    labels = np.full(n, spec.background_label, dtype=np.int64)
    unassigned = np.ones(n, dtype=bool)
    for rect in spec.rectangles:
        inside = np.all(
            (features >= np.asarray(rect.lows)) & (features <= np.asarray(rect.highs)),
            axis=1,
        )
        take = inside & unassigned
        labels[take] = rect.label
        unassigned &= ~take
    k = spec.resolved_classes()
    if spec.flip_noise > 0.0 and k > 1:
        flip = rng.random(n) < spec.flip_noise
        offsets = rng.integers(1, k, size=n)
        labels = np.where(flip, (labels + offsets) % k, labels)
    return Dataset(features, labels, n_classes=k)


def right_chain_document(depth):
    """A valid tree document whose right spine is ``depth`` splits long."""
    split = '{"kind": "split", "feature": 0, "threshold": 0.5, "left": {"kind": "leaf", "class": 0}, "right": '
    return split * depth + '{"kind": "leaf", "class": 1}' + "}" * depth


def iris_walkthrough(work, *update_flags):
    """README's CLI walkthrough, run in directory ``work``.

    Grows a tree on a 15-row iris sample, then updates it on full iris
    (alpha=1, beta=1), passing ``update_flags`` to ``update``.  Returns the
    grown and the updated tree.
    """
    iris_path = builtin_dataset_path("iris")
    iris = load_csv(iris_path, "species", has_header=True)
    sample = make_batch_plan(iris, 1, 15, 0, IRIS_SAMPLE_SEED).cumulative(0)
    sample_path = work / "iris_sample.csv"
    with open(sample_path, "w") as fh:
        fh.write("sepal_length,sepal_width,petal_length,petal_width,species\n")
        for row, label in zip(sample.features, sample.labels):
            cells = [repr(float(v)) for v in row] + [sample.label_names[label]]
            fh.write(",".join(cells) + "\n")
    first, second = work / "t0.json", work / "t1.json"
    common = ["--label-col", "species", "--has-header", "--alpha", "1"]
    assert main(["grow", "--data", str(sample_path), *common, "--out", str(first)]) == 0
    rc = main(
        ["update", "--prev-tree", str(first), "--data", iris_path, *common, "--beta", "1",
         "--out", str(second), *update_flags]
    )
    assert rc == 0
    return load_tree(first), load_tree(second)
