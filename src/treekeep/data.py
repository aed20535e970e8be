"""Datasets: loading, batch planning, and synthetic generation.

All randomness flows through numpy's PCG64 generator seeded via
``np.random.SeedSequence``, so a (seed, dataset) pair reproduces the same
batches on any platform.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import NoReturn, Optional, Union

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
        """A copy of the rows at ``indices``, in that order.

        ``indices`` is what numpy's fancy indexing takes along the rows:
        integers (an array or a list, empty too; negative ones count from
        the end) or a boolean mask with one entry per row.  An index out of
        range or a mask of the wrong length raises ``IndexError``.  Rows are
        gathered with ``take``, a few times faster than fancy indexing.
        """
        rows = np.asarray(indices)
        if rows.dtype == np.bool_:
            if rows.shape != self.labels.shape:
                raise IndexError(f"boolean index of shape {rows.shape} does not match {self.n_rows} rows")
            rows = np.flatnonzero(rows)
        elif rows.size == 0:  # an empty list is a float array to numpy
            rows = rows.astype(np.intp)
        return Dataset(
            self.features.take(rows, axis=0),
            self.labels.take(rows),
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
    """Numbers in numeric order, then every other label as a string.  NaN
    counts as a string: it compares with no number, so among the numbers it
    would leave their order to the order of the rows."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        return (1, 0.0, raw)
    return (0, value, "")


# Rows parsed at a time.  It bounds the cell strings held at once to a few
# MB at HIGGS width (29 columns), while the per-chunk numpy calls stay few.
CHUNK_ROWS = 1024


def _nonblank(fh):
    """The file's lines stripped of surrounding whitespace, blank ones skipped."""
    return (line for line in map(str.strip, fh) if line)


def _split_line(line: str) -> list[str]:
    """Lines with a comma are CSV (with quotes); others split on whitespace."""
    if "," not in line:
        return line.split()
    if '"' not in line:  # as the csv reader splits it, without its field size limit
        return line.split(",")
    return next(csv.reader([line]))


def _row_cells(path, row_no: int, line: str) -> list[str]:
    """``_split_line``, with a line the csv reader rejects (a cell over
    ``csv.field_size_limit()``, say) reported by its row number."""
    try:
        return _split_line(line)
    except csv.Error as exc:
        raise DataLoadError(f"{path}, row {row_no}: {exc}") from None


def _parse_chunk(lines, n_cols, label_idx, out):
    """Parse a chunk into ``out`` one column at a time and return its label
    cells; return None if a row is faulty or the csv reader fails on a line
    (``out`` is then partly written)."""
    try:
        rows = [_split_line(line) for line in lines]
    except csv.Error:
        return None
    if any(len(cells) != n_cols for cells in rows):
        return None
    columns = list(zip(*rows))
    feature_columns = (col for col in range(n_cols) if col != label_idx)
    try:
        for j, col in enumerate(feature_columns):
            out[:, j] = np.fromiter(map(float, columns[col]), np.float64, len(lines))
    except ValueError:
        return None
    if not np.isfinite(out).all():
        return None
    return columns[label_idx]


def _raise_chunk_fault(path, lines, first_row, n_cols, label_idx) -> NoReturn:
    """Raise the first fault of a chunk ``_parse_chunk`` refused, with its
    row number (counting non-blank lines) and column."""
    for row_no, line in enumerate(lines, first_row):
        cells = _row_cells(path, row_no, line)
        if len(cells) != n_cols:
            raise DataLoadError(f"{path}, row {row_no}: expected {n_cols} cells, got {len(cells)}")
        for col_no, cell in enumerate(cells):
            if col_no == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataLoadError(
                    f"{path}, row {row_no}, column {col_no + 1}: not a number: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DataLoadError(
                    f"{path}, row {row_no}, column {col_no + 1}: non-finite value: {cell!r}"
                )
    raise AssertionError(f"{path}: the chunk from row {first_row} was refused but holds no fault")


def load_csv(path, label_column: Union[int, str], has_header: bool = False) -> Dataset:
    """Load a delimited text file (comma or whitespace separated).

    ``label_column`` is a 0-based column index, or a column name when the
    file has a header.  Feature cells must parse as finite numbers; labels
    are densified to 0-based class indices (sorted numerically when every
    label parses as a number, lexicographically otherwise) and the mapping
    is recorded in ``label_names``.

    The file is read twice: once to count its rows, so that the float64
    feature array is allocated once, then ``CHUNK_ROWS`` lines at a time,
    each chunk converted one column at a time.  Memory peaks a little above
    that one array.  A chunk that fails to parse is read again cell by cell
    to name its first faulty row and column.
    """
    if not os.path.exists(path):
        raise DataLoadError(f"dataset file not found: {path}")
    # utf-8-sig drops the byte order mark that spreadsheet "CSV UTF-8" exports begin with.
    with open(path, "r", encoding="utf-8-sig") as fh:
        if not fh.seekable():
            raise DataLoadError(f"{path}: not a regular file (it is read twice)")
        n_lines = sum(1 for _ in _nonblank(fh))
        if not n_lines:
            raise DataLoadError(f"{path}: file is empty")
        fh.seek(0)
        lines = itertools.islice(_nonblank(fh), n_lines)
        header = None
        if has_header:
            header = [cell.strip() for cell in _row_cells(path, 1, next(lines))]
            if n_lines == 1:
                raise DataLoadError(f"{path}: no data rows after the header")
        chunk = list(itertools.islice(lines, CHUNK_ROWS))

        first_row = 1 if header is None else 2
        n_cols = len(_row_cells(path, first_row, chunk[0]))
        if header is not None and len(header) != n_cols:
            raise DataLoadError(f"{path}: header has {len(header)} columns but row 2 has {n_cols}")
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

        n_rows = n_lines - first_row + 1
        features = np.empty((n_rows, n_cols - 1), dtype=np.float64)
        # Class ids in first-seen order; sorted by label name below.
        label_ids = np.empty(n_rows, dtype=np.int64)
        first_seen: dict[str, int] = {}
        done = 0
        while chunk:
            end = done + len(chunk)
            block = features[done:end]
            cells = _parse_chunk(chunk, n_cols, label_idx, block)
            if cells is None:
                _raise_chunk_fault(path, chunk, first_row + done, n_cols, label_idx)
            label_ids[done:end] = [first_seen.setdefault(cell.strip(), len(first_seen)) for cell in cells]
            done = end
            chunk = list(itertools.islice(lines, CHUNK_ROWS))
        if done != n_rows:
            raise DataLoadError(f"{path}: file shrank while it was read")

    distinct = sorted(first_seen, key=_sort_key)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[[first_seen[name] for name in distinct]] = np.arange(len(distinct))
    column_names = None
    if header is not None:
        column_names = tuple(name for i, name in enumerate(header) if i != label_idx)
    return Dataset(
        features,
        rank[label_ids],
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

    ``train`` holds the batches' rows in draw order, ``batch_size`` rows each.
    ``cumulative(t)``, batches 0..t and so the training data a model sees at
    step t, is a read-only view into ``train``: a stream copies each row once.
    """

    train: Dataset
    batch_size: int
    test: Dataset

    def __post_init__(self):
        if self.batch_size < 1 or self.train.n_rows % self.batch_size:
            raise ValueError(f"{self.train.n_rows} rows are not whole batches of {self.batch_size}")

    @property
    def n_batches(self) -> int:
        return self.train.n_rows // self.batch_size

    def cumulative(self, t: int) -> Dataset:
        """Union of batches 0..t, in draw order."""
        if not 0 <= t < self.n_batches:
            raise ValueError(f"batch t={t} is outside 0..{self.n_batches - 1} (n_batches={self.n_batches})")
        end, train = (t + 1) * self.batch_size, self.train
        return Dataset(train.features[:end], train.labels[:end], train.n_classes, train.column_names, train.label_names)


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
    rest = perm[n_full * batch_size :]
    if len(rest) < test_size:
        warnings.warn(
            f"only {len(rest)} rows left for the test set (requested {test_size})"
        )
    # The test rows are gathered first: the process's peak memory follows allocation order.
    test = data.subset(rest[:test_size])
    return BatchPlan(data.subset(perm[: n_full * batch_size]), batch_size, test)


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
    """Generate a dataset from a spec; deterministic for a fixed seed.

    A rectangle's rows are found one feature column at a time: each bound
    that can cut a row is compared and ANDed into a copy of the rows no
    earlier rectangle took, so no temporary the size of the feature matrix
    is made.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n, d = spec.n_rows, spec.n_features
    features = rng.uniform(0.0, 1.0, size=(n, d))
    labels = np.full(n, spec.background_label, dtype=np.int64)
    unassigned = np.ones(n, dtype=bool)
    for rect in spec.rectangles:
        take = unassigned.copy()
        for j, (low, high) in enumerate(zip(rect.lows, rect.highs)):
            # Features lie in [0, 1): a low at or below 0 or a high at or
            # above 1 keeps every row and is not compared.  A NaN bound is
            # compared, and keeps no row.
            column = features[:, j]
            if not low <= 0.0:
                take &= column >= low
            if not high >= 1.0:
                take &= column <= high
        labels[take] = rect.label
        unassigned &= ~take
    k = spec.resolved_classes()
    if spec.flip_noise > 0.0 and k > 1:
        flipped = np.flatnonzero(rng.random(n) < spec.flip_noise)
        # uniformly pick a class different from the current one
        offsets = rng.integers(1, k, size=n)
        labels[flipped] = (labels[flipped] + offsets[flipped]) % k
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


def _data_ref(label_column, has_header) -> tuple[Union[int, str], bool]:
    """A data reference's ``label_column`` and ``has_header``, as a manifest
    or an ``eval`` config gives them: a JSON integer or a column name, and a
    bool.  Any other value raises ``TypeError``."""
    if not isinstance(has_header, bool):
        raise TypeError(f"has_header must be true or false, got {has_header!r}")
    if isinstance(label_column, bool) or not isinstance(label_column, (int, str)):
        raise TypeError(f"label_column must be an integer or a name, got {label_column!r}")
    return label_column, has_header


def load_manifest(path) -> DatasetManifest:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise DataLoadError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataLoadError(f"{path}: invalid manifest: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataLoadError(f"{path}: a manifest must be a JSON object, got {type(obj).__name__}")
    missing = {"name", "url", "file", "label_column"} - set(obj)
    if missing:
        raise DataLoadError(f"{path}: manifest is missing fields: {sorted(missing)}")
    not_text = [key for key in ("name", "url", "file") if not isinstance(obj[key], str)]
    if not_text:
        raise DataLoadError(f"{path}: manifest fields must be strings: {not_text}")
    try:
        label_column, has_header = _data_ref(obj["label_column"], obj.get("has_header", False))
    except TypeError as exc:
        raise DataLoadError(f"{path}: {exc}") from None
    return DatasetManifest(
        name=obj["name"],
        url=obj["url"],
        file=obj["file"],
        label_column=label_column,
        has_header=has_header,
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
