"""Datasets: loading, batch planning, and synthetic generation.

All randomness flows through numpy's PCG64 generator seeded via
``np.random.SeedSequence``, so a (seed, dataset) pair reproduces the same
batches on any platform.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DataLoadError

__all__ = [
    "Dataset",
    "BatchPlan",
    "load_csv",
    "make_batch_plan",
    "Rectangle",
    "SyntheticSpec",
    "synthetic",
    "builtin_dataset_path",
    "DatasetManifest",
    "load_manifest",
    "dataset_from_manifest",
]


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with dense integer class labels.

    ``label_names[i]`` records the original label value that was densified to
    class index ``i``; the mapping is a bijection.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    column_names: Optional[tuple[str, ...]] = None
    label_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} does not match {features.shape[0]} feature rows"
            )
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite (no NaN or infinity)")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.labels[indices],
            self.n_classes,
            self.column_names,
            self.label_names,
        )

    def partition(self, feature: int, threshold: float) -> tuple["Dataset", "Dataset"]:
        """Split rows into (value <= threshold, value > threshold)."""
        goes_left = self.features[:, feature] <= threshold
        return self.subset(goes_left), self.subset(~goes_left)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


def _sort_key(raw: str):
    try:
        return (0, float(raw), "")
    except ValueError:
        return (1, 0.0, raw)


def load_csv(path, label_column: Union[int, str], has_header: bool = False) -> Dataset:
    """Load a delimited text file (comma or whitespace separated).

    ``label_column`` is a 0-based column index, or a column name when the
    file has a header.  Feature cells must parse as finite numbers; labels
    are densified to 0-based class indices (sorted numerically when every
    label parses as a number, lexicographically otherwise) and the mapping
    is recorded in ``label_names``.
    """
    if not os.path.exists(path):
        raise DataLoadError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
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

    distinct = sorted(set(raw_labels), key=_sort_key)
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


def builtin_dataset_path(name: str) -> str:
    """Path of a dataset bundled with the package (currently just 'iris')."""
    here = os.path.dirname(__file__)
    path = os.path.join(here, "datasets", f"{name}.csv")
    if not os.path.exists(path):
        raise DataLoadError(f"no builtin dataset named {name!r}")
    return path


# ---------------------------------------------------------------------------
# Batch planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchPlan:
    """Disjoint training batches plus a held-out test set over one dataset.

    ``cumulative(t)`` is the union of batches 0..t, the training data a model
    sees at step t.
    """

    source: Dataset
    batch_indices: tuple[np.ndarray, ...]
    test_indices: np.ndarray

    @property
    def n_batches(self) -> int:
        return len(self.batch_indices)

    @property
    def test(self) -> Dataset:
        return self.source.subset(self.test_indices)

    def batch(self, t: int) -> Dataset:
        return self.source.subset(self.batch_indices[t])

    def cumulative(self, t: int) -> Dataset:
        """Union of batches 0..t, in draw order."""
        return self.source.subset(np.concatenate(self.batch_indices[: t + 1]))


def make_batch_plan(
    data: Dataset,
    n_batches: int,
    batch_size: int,
    test_size: int,
    seed,
) -> BatchPlan:
    """Shuffle the dataset and carve out disjoint batches plus a test set.

    Batches are drawn first (up to ``n_batches`` full batches; fewer, with a
    warning, when the data runs short), then the test set comes from the
    remaining rows, shrinking with a warning if fewer than ``test_size``
    remain.  Deterministic for a fixed seed.
    """
    if n_batches < 1 or batch_size < 1:
        raise ValueError("n_batches and batch_size must be positive")
    if test_size < 0:
        raise ValueError("test_size must be non-negative")
    n = data.n_rows
    if n < batch_size:
        raise ValueError(f"dataset has {n} rows, fewer than one batch of {batch_size}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    n_full = min(n_batches, n // batch_size)
    if n_full < n_batches:
        warnings.warn(
            f"dataset supports only {n_full} of the requested {n_batches} batches "
            f"of {batch_size} rows"
        )
    batches = tuple(
        perm[i * batch_size : (i + 1) * batch_size] for i in range(n_full)
    )
    rest = perm[n_full * batch_size :]
    if len(rest) < test_size:
        warnings.warn(
            f"only {len(rest)} rows left for the test set (requested {test_size})"
        )
    test = rest[: min(test_size, len(rest))]
    return BatchPlan(data, batches, test)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box assigning a label; bounds are inclusive."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    label: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for labelled data: uniform features in [0, 1], rectangle rules.

    Rows take the label of the first rectangle containing them, else
    ``background_label``.  With probability ``flip_noise`` a row's label is
    replaced by a uniformly chosen different class.
    """

    n_rows: int
    n_features: int
    rectangles: tuple[Rectangle, ...] = ()
    background_label: int = 0
    flip_noise: float = 0.0
    n_classes: Optional[int] = None

    def resolved_classes(self) -> int:
        labels = [self.background_label] + [r.label for r in self.rectangles]
        needed = max(labels) + 1
        if self.n_classes is None:
            return needed
        return self.n_classes

    def validate(self):
        if self.n_rows < 1:
            raise ConfigError("synthetic spec needs n_rows >= 1")
        if self.n_features < 1:
            raise ConfigError("synthetic spec needs n_features >= 1")
        if not 0.0 <= self.flip_noise <= 1.0:
            raise ConfigError(f"flip_noise must be in [0, 1], got {self.flip_noise}")
        labels = [self.background_label] + [r.label for r in self.rectangles]
        if min(labels) < 0:
            raise ConfigError("labels must be non-negative")
        if self.n_classes is not None and max(labels) >= self.n_classes:
            raise ConfigError(
                f"label {max(labels)} does not fit in {self.n_classes} classes"
            )
        for rect in self.rectangles:
            if len(rect.lows) != self.n_features or len(rect.highs) != self.n_features:
                raise ConfigError("rectangle bounds must have one entry per feature")
            if any(lo > hi for lo, hi in zip(rect.lows, rect.highs)):
                raise ConfigError("rectangle lows must not exceed highs")


def synthetic(spec: SyntheticSpec, seed) -> Dataset:
    """Generate a dataset from a spec; deterministic for a fixed seed."""
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
        # uniformly pick a class different from the current one
        offsets = rng.integers(1, k, size=n)
        labels = np.where(flip, (labels + offsets) % k, labels)
    return Dataset(features, labels, n_classes=k)


# ---------------------------------------------------------------------------
# Dataset manifests: reproducible pointers to externally fetched files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    """Where a benchmark file comes from and how to parse it.

    The package never downloads anything; ``url`` documents the manual fetch
    and ``file`` names the local copy, relative to the manifest.
    """

    name: str
    url: str
    file: str
    label_column: Union[int, str]
    has_header: bool = False
    base_dir: str = "."

    def local_path(self) -> str:
        return os.path.normpath(os.path.join(self.base_dir, self.file))

    def is_present(self) -> bool:
        return os.path.exists(self.local_path())


def load_manifest(path) -> DatasetManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise DataLoadError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataLoadError(f"{path}: invalid manifest: {exc}") from exc
    missing = {"name", "url", "file", "label_column"} - set(obj)
    if missing:
        raise DataLoadError(f"{path}: manifest is missing fields: {sorted(missing)}")
    return DatasetManifest(
        name=obj["name"],
        url=obj["url"],
        file=obj["file"],
        label_column=obj["label_column"],
        has_header=bool(obj.get("has_header", False)),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def dataset_from_manifest(manifest: DatasetManifest) -> Dataset:
    path = manifest.local_path()
    if not os.path.exists(path):
        raise DataLoadError(
            f"dataset file for {manifest.name!r} not found at {path}; "
            f"download it manually from {manifest.url}"
        )
    return load_csv(path, manifest.label_column, manifest.has_header)
