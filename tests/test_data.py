import csv
import importlib
import itertools
import json
import os
import threading

import numpy as np
import pytest

from treekeep import Dataset, load_csv, make_batch_plan, synthetic
from treekeep.data import (
    BatchPlan,
    Rectangle,
    SyntheticSpec,
    builtin_dataset_path,
    dataset_from_manifest,
    load_manifest,
)
from treekeep.errors import ConfigError, DataLoadError

from conftest import ref_load_csv, ref_synthetic

DATA_MODULE = importlib.import_module("treekeep.data")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_densifies_labels(tmp_path):
    path = write(tmp_path, "d.csv", "1.0,2.0,a\n2.0,3.0,b\n3.0,1.0,a\n4.0,0.5,b\n")
    data = load_csv(path, label_column=2)
    assert data.n_classes == 2
    assert data.labels.tolist() == [0, 1, 0, 1]
    assert data.label_names == ("a", "b")
    assert data.features.shape == (4, 2)


def test_load_csv_numeric_labels_sorted_numerically(tmp_path):
    path = write(tmp_path, "d.csv", "1.0,10\n2.0,2\n3.0,10\n")
    data = load_csv(path, label_column=1)
    assert data.label_names == ("2", "10")
    assert data.labels.tolist() == [1, 0, 1]


def test_load_csv_nan_cell_rejected_with_position(tmp_path):
    path = write(tmp_path, "d.csv", "1.0,2.0,a\n3.0,NaN,b\n")
    with pytest.raises(DataLoadError, match="row 2, column 2"):
        load_csv(path, label_column=2)


def test_load_csv_non_numeric_cell_rejected(tmp_path):
    path = write(tmp_path, "d.csv", "1.0,x,a\n")
    with pytest.raises(DataLoadError, match="row 1, column 2"):
        load_csv(path, label_column=2)


def test_load_csv_missing_file():
    with pytest.raises(DataLoadError, match="not found"):
        load_csv("/no/such/file.csv", 0)


def test_load_csv_empty_file(tmp_path):
    path = write(tmp_path, "d.csv", "")
    with pytest.raises(DataLoadError, match="empty"):
        load_csv(path, 0)


def test_load_csv_header_and_named_label(tmp_path):
    path = write(tmp_path, "d.csv", "x,y,target\n1,2,yes\n3,4,no\n")
    data = load_csv(path, label_column="target", has_header=True)
    assert data.column_names == ("x", "y")
    assert data.label_names == ("no", "yes")


@pytest.mark.parametrize("text", ["x,y,label\n1,2,0,7\n", "x,y,z,label\n1,2,0\n"])
def test_load_csv_header_width_must_match_rows(tmp_path, text):
    path = write(tmp_path, "d.csv", text)
    with pytest.raises(DataLoadError, match="header has [34] columns but row 2 has [34]"):
        load_csv(path, label_column=-1, has_header=True)


def test_load_csv_named_label_requires_header(tmp_path):
    path = write(tmp_path, "d.csv", "1,2,yes\n")
    with pytest.raises(DataLoadError, match="header"):
        load_csv(path, label_column="target")


def test_load_csv_whitespace_delimited(tmp_path):
    path = write(tmp_path, "d.txt", "1.0 2.0 0\n3.0 4.0 1\n")
    data = load_csv(path, label_column=-1)
    assert data.n_rows == 2
    assert data.features[1].tolist() == [3.0, 4.0]


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "d.csv", "1.0,2.0,a\n1.0,b\n")
    with pytest.raises(DataLoadError, match="row 2"):
        load_csv(path, label_column=2)


# Cells that parse: padded, signed, with digit separators, non-ASCII digits.
VALID_CELLS = ("0", "1", "-2", "3.5", "0.1", "2.5e-3", "+1e3", "1_000", " 2 ", "-0.0", "７", "0.30000000000000004")
# Cells that do not parse, or parse to a non-finite value.
FAULTY_CELLS = ("inf", "-Infinity", "nan", "1e400", "x", "", "0x10", "1__0", "1 2")


def label_text(rng, style, k):
    """Label ``k`` as a cell; no two labels of one file parse to the same number."""
    if style == "mixed":
        style = "number" if k % 2 else "string"
    if style == "number":
        return f" {k} " if rng.random() < 0.2 else str(k)
    if style == "quoted":
        return f'"k,{k}"'
    return f"c{k}"


def join_cells(rng, cells, comma):
    if comma:
        return (", " if rng.random() < 0.2 else ",").join(cells)
    return "".join(cell + (" \t"[int(rng.integers(2))] * int(rng.integers(1, 3))) for cell in cells).strip()


def split_cells(line):
    """How either loader splits one line."""
    if "," in line:
        return next(csv.reader([line]))
    return line.split()


def random_text_file(rng):
    """A delimited text file and the arguments to load it with.

    Covers comma, whitespace and mixed lines, blank lines, CR and CRLF line
    ends, headers and header-only files, named and negative label columns,
    1 to 300 classes, and rows with one fault: a cell that does not parse or
    is not finite, a missing or extra cell, or an unterminated quote.
    """
    big = rng.random() < 0.06
    n_rows = int(rng.integers(300, 900)) if big else int(rng.integers(0, 13))
    n_cols = int(rng.integers(1, 6))
    n_classes = int(rng.integers(150, 301)) if big else int(rng.integers(1, 5))
    delimiter = ("comma", "space", "mixed")[int(rng.integers(3))]
    style = ("number", "string", "mixed") + (("quoted",) if delimiter == "comma" else ())
    style = style[int(rng.integers(len(style)))]
    has_header = rng.random() < 0.4
    label_idx = int(rng.integers(n_cols))
    if has_header and rng.random() < 0.5:
        label_column = "zz" if rng.random() < 0.1 else f"h{label_idx}"
    elif rng.random() < 0.05:
        label_column = (n_cols, -n_cols - 1, "zz")[int(rng.integers(3))]
    else:
        label_column = label_idx - n_cols if rng.random() < 0.5 else label_idx

    def comma_line():
        return delimiter == "comma" or (delimiter == "mixed" and rng.random() < 0.5)

    rows = []
    for _ in range(n_rows):
        cells = [VALID_CELLS[int(rng.integers(len(VALID_CELLS)))] for _ in range(n_cols)]
        cells[label_idx] = label_text(rng, style, int(rng.integers(n_classes)))
        rows.append(cells)
    commas = [comma_line() or any("," in cell for cell in cells) for cells in rows]
    if rows and rng.random() < 0.5:
        i = int(rng.integers(len(rows)))
        fault = int(rng.choice(4, p=[0.5, 0.1, 0.1, 0.3]))
        j = int(rng.integers(n_cols))
        if fault == 0:
            if j != label_idx:  # "nan" or "inf" labels would sort in set order
                rows[i][j] = FAULTY_CELLS[int(rng.integers(len(FAULTY_CELLS)))]
        elif fault == 1:
            rows[i].append("1")
        elif fault == 2:
            rows[i].pop(j)
        else:  # in the last column the line keeps its cell count
            j = n_cols - 1 if rng.random() < 0.5 else j
            rows[i][j] = '"' + rows[i][j].strip('"')
            commas[i] = True
    lines = [join_cells(rng, cells, comma) for cells, comma in zip(rows, commas)]
    if has_header:
        lines.insert(0, join_cells(rng, [f"h{j}" for j in range(n_cols)], comma_line()))
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), ("", "  ", "\t ")[int(rng.integers(3))])
    end = ("\n", "\r\n", "\r")[int(rng.choice(3, p=[0.6, 0.3, 0.1]))]
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    return text, label_column, has_header


def header_width_differs(text, has_header):
    lines = [ln for ln in (line.strip() for line in text.splitlines()) if ln]
    return has_header and len(lines) > 1 and len(split_cells(lines[0])) != len(split_cells(lines[1]))


def load_outcome(loader, path, label_column, has_header):
    try:
        data = loader(path, label_column, has_header)
    except Exception as exc:  # the reference's exception, whatever it is, is the expectation
        return type(exc), str(exc)
    return (
        data.features.shape,
        data.features.tobytes(),
        data.labels.tolist(),
        data.n_classes,
        data.label_names,
        data.column_names,
    )


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
def test_load_csv_matches_line_reference(tmp_path, monkeypatch, chunk_rows):
    if chunk_rows is not None:  # chunk edges fall inside files, and on the header
        monkeypatch.setattr(DATA_MODULE, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(44)
    path = str(tmp_path / "d.csv")
    loaded = failed = most_classes = 0
    while loaded + failed < 400:
        text, label_column, has_header = random_text_file(rng)
        if header_width_differs(text, has_header):
            continue  # rejected since the reference was taken
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = load_outcome(ref_load_csv, path, label_column, has_header)
        assert load_outcome(load_csv, path, label_column, has_header) == expected, (text, label_column)
        if len(expected) == 2:
            failed += 1
        else:
            loaded += 1
            most_classes = max(most_classes, expected[3])
    assert loaded > 120 and failed > 120 and most_classes > 200


# Quote-free lines, then quoted ones, then quote-free ones again.
MIXED_LINES = ["1,2,a", " 3,4 , b", "5,-0.0,a", '6,7,"b"', '8,9,"c,d"', "10,11,a", "12,13,b"]


@pytest.mark.parametrize("chunk_rows", [2, 3, 4])
@pytest.mark.parametrize(
    "changed, loads",
    [
        ((), True),
        (("14 15 a",), True),
        (('14,15,a"',), True),
        (("14,15,a,",), False),
        (("14,x,a",), False),
        (("14,15",), False),
        (("14,15,16,1", "17,2"), False),  # as many commas as two good lines
    ],
    ids=["as-is", "whitespace", "stray-quote", "extra-comma", "not-a-number", "one-comma-short", "commas-offset"],
)
def test_load_csv_mixes_quoted_and_quote_free_chunks(tmp_path, monkeypatch, chunk_rows, changed, loads):
    # Chunk edges fall between the quote-free and the quoted lines; lines are
    # changed in turn, so that a quote-free chunk gets lines the csv reader
    # must split, or faulty ones.
    monkeypatch.setattr(DATA_MODULE, "CHUNK_ROWS", chunk_rows)
    for at in range(len(MIXED_LINES) - len(changed) + 1):
        lines = list(MIXED_LINES)
        lines[at : at + len(changed)] = changed
        path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        expected = load_outcome(ref_load_csv, path, 2, False)
        assert load_outcome(load_csv, path, 2, False) == expected, lines
        assert len(expected) == (6 if loads else 2)


@pytest.mark.parametrize(
    "text, label_column, has_header",
    [("1.0,2.0,0\n2.0,3.0,1\n", 2, False), ("label,x\n0,1.0\n1,2.0\n", "label", True)],
)
def test_load_csv_skips_a_utf8_byte_order_mark(tmp_path, text, label_column, has_header):
    # Spreadsheet "CSV UTF-8" exports begin with one.
    plain = write(tmp_path, "plain.csv", text)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected = load_outcome(load_csv, plain, label_column, has_header)
    assert len(expected) == 6  # loaded
    assert load_outcome(load_csv, str(marked), label_column, has_header) == expected
    assert load_outcome(ref_load_csv, str(marked), label_column, has_header) == expected


# A quoted cell longer than the csv reader's field limit (131,072 characters).
OVERSIZED = '"' + "x" * (csv.field_size_limit() + 1) + '"'


@pytest.mark.parametrize(
    "lines, has_header, row",
    [
        (["a," + OVERSIZED, "1,0", "2,1"], True, 1),  # the header
        (["1," + OVERSIZED, "2,1"], False, 1),  # the first row, which sets the width
        (["x,label", "1,0", "2,1", "3," + OVERSIZED, "4,0"], True, 4),  # a row inside a chunk
    ],
    ids=["header", "first-row", "chunk"],
)
def test_load_csv_names_the_row_of_a_cell_over_the_field_limit(tmp_path, monkeypatch, lines, has_header, row):
    monkeypatch.setattr(DATA_MODULE, "CHUNK_ROWS", 2)
    path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataLoadError, match=f"d.csv, row {row}: field larger than field limit"):
        load_csv(path, label_column=1, has_header=has_header)
    # Unquoted, the same cell is a label like any other.
    unquoted = write(tmp_path, "e.csv", "\n".join(lines).replace('"', "") + "\n")
    assert load_csv(unquoted, label_column=1, has_header=has_header).n_rows == len(lines) - has_header


def test_load_csv_numerically_equal_labels_keep_first_seen_order(tmp_path):
    # "1.0" and "1" sort as equals; the first one met comes first, whatever
    # the process's string hashes.
    for text, names in (("0,1.0\n1,1\n", ("1.0", "1")), ("0,1\n1,1.0\n", ("1", "1.0"))):
        assert load_csv(write(tmp_path, "d.csv", text), label_column=1).label_names == names


def test_load_csv_label_order_does_not_depend_on_row_order(tmp_path):
    # NaN sorts as a string after the numbers; among them it would compare
    # with none and leave their order to the rows.
    for order in itertools.permutations(["2", "nan", "1", "-inf", "NaN", "b"]):
        text = "".join(f"{i},{label}\n" for i, label in enumerate(order))
        data = load_csv(write(tmp_path, "d.csv", text), label_column=1)
        assert data.label_names == ("-inf", "1", "2", "NaN", "b", "nan")


def test_load_csv_rejects_a_pipe(tmp_path):
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "w") as fh:
                fh.write("1,0\n2,1\n")
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with pytest.raises(DataLoadError, match="not a regular file"):
            load_csv(fifo, label_column=1)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_load_csv_rejects_a_file_that_shrinks_between_reads(tmp_path, monkeypatch):
    path = write(tmp_path, "d.csv", "1,0\n2,1\n3,0\n")
    reads = []
    nonblank = DATA_MODULE._nonblank

    def second_read_loses_a_line(fh):
        reads.append(fh)
        lines = list(nonblank(fh))
        return iter(lines if len(reads) == 1 else lines[:-1])

    monkeypatch.setattr(DATA_MODULE, "_nonblank", second_read_loses_a_line)
    with pytest.raises(DataLoadError, match="shrank"):
        load_csv(path, label_column=1)


def test_builtin_iris_loads():
    data = load_csv(builtin_dataset_path("iris"), "species", has_header=True)
    assert data.n_rows == 150
    assert data.n_features == 4
    assert data.n_classes == 3


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([0]), 1)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([0, 3]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([0]), 1)


def test_dataset_arrays_are_frozen():
    data = Dataset(np.zeros((2, 1)), np.array([0, 0]), 1)
    with pytest.raises(ValueError):
        data.features[0, 0] = 5.0


def test_partition_boundary_goes_left():
    data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 2]), 3)
    left, right = data.partition(0, 2.0)
    assert left.labels.tolist() == [0, 1]
    assert right.labels.tolist() == [2]


SUBSET_DATA = Dataset(
    np.arange(21, dtype=float).reshape(7, 3),
    np.array([0, 1, 2, 0, 1, 2, 0]),
    3,
    column_names=("a", "b", "c"),
    label_names=("x", "y", "z"),
)


@pytest.mark.parametrize(
    "indices",
    [
        np.array([3, 0, 3, 6]),
        np.array([-1, -7, 2], dtype=np.int32),
        [5, -2, 1],
        [],
        np.array([], dtype=np.int64),
        np.array([True, False, False, True, True, False, True]),
        np.zeros(7, dtype=bool),
    ],
    ids=["ints", "negative-int32", "list", "empty-list", "empty-array", "mask", "empty-mask"],
)
def test_subset_matches_fancy_indexing(indices):
    got = SUBSET_DATA.subset(indices)
    assert np.array_equal(got.features, SUBSET_DATA.features[indices])
    assert np.array_equal(got.labels, SUBSET_DATA.labels[indices])
    assert (got.n_classes, got.column_names, got.label_names) == (3, ("a", "b", "c"), ("x", "y", "z"))


@pytest.mark.parametrize(
    "indices",
    [[7], np.array([-8]), np.ones(6, dtype=bool), np.ones(8, dtype=bool)],
    ids=["past-end", "before-start", "short-mask", "long-mask"],
)
def test_subset_rejects_what_fancy_indexing_rejects(indices):
    with pytest.raises(IndexError):
        SUBSET_DATA.features[indices]
    with pytest.raises(IndexError):
        SUBSET_DATA.subset(indices)


def make_identifiable(n):
    # feature 0 identifies the row, so shuffles can be audited
    features = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return Dataset(features, np.zeros(n, dtype=int), 1)


def test_batch_plan_iris_tenth():
    iris = load_csv(builtin_dataset_path("iris"), "species", has_header=True)
    plan = make_batch_plan(iris, n_batches=1, batch_size=15, test_size=0, seed=4)
    assert plan.cumulative(0).n_rows == 15
    assert plan.test.n_rows == 0


def test_batch_plan_deterministic():
    data = make_identifiable(100)
    a = make_batch_plan(data, 3, 20, 30, seed=42)
    b = make_batch_plan(data, 3, 20, 30, seed=42)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test.features, b.test.features)


def test_batch_plan_disjoint_and_cumulative():
    data = make_identifiable(120)
    plan = make_batch_plan(data, 3, 20, 40, seed=9)
    rows, size = plan.train.features[:, 0].tolist(), plan.batch_size
    ids = [set(rows[t * size : (t + 1) * size]) for t in range(plan.n_batches)]
    test_ids = set(plan.test.features[:, 0].tolist())
    assert len(ids[0] | ids[1] | ids[2] | test_ids) == 100
    assert plan.cumulative(1).n_rows == 40
    assert set(plan.cumulative(2).features[:, 0].tolist()) == ids[0] | ids[1] | ids[2]


def test_cumulative_is_a_read_only_view_of_the_plan_rows():
    data = make_identifiable(30)
    plan = make_batch_plan(data, 4, 6, 6, seed=3)
    perm = np.random.default_rng(np.random.SeedSequence(3)).permutation(30)
    last = plan.cumulative(plan.n_batches - 1)
    for t in range(plan.n_batches):
        got = plan.cumulative(t)
        want = data.subset(perm[: (t + 1) * 6])
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
        assert np.shares_memory(got.features, last.features)
        assert np.shares_memory(got.labels, last.labels)
        assert not got.features.flags.writeable and not got.labels.flags.writeable
    assert plan.test is plan.test
    assert np.array_equal(plan.test.features, data.subset(perm[24:]).features)


@pytest.mark.parametrize("batch_size, n_rows", [(0, 0), (-2, 4), (3, 4), (3, 2)])
def test_batch_plan_rejects_rows_that_are_not_whole_batches(batch_size, n_rows):
    data = make_identifiable(6)
    with pytest.raises(ValueError, match="whole batches"):
        BatchPlan(data.subset(np.arange(n_rows)), batch_size, data.subset([5]))


@pytest.mark.parametrize("method, t", [("cumulative", 5), ("cumulative", -1)])
def test_batch_plan_rejects_t_outside_its_batches(method, t):
    plan = make_batch_plan(make_identifiable(40), 3, 10, 10, seed=1)
    with pytest.raises(ValueError, match=rf"t={t}\b.*n_batches=3"):
        getattr(plan, method)(t)


def test_batch_plan_shrinks_test_with_warning():
    data = make_identifiable(50)
    with pytest.warns(UserWarning, match="test set"):
        plan = make_batch_plan(data, 2, 20, 100, seed=0)
    assert plan.test.n_rows == 10


def test_batch_plan_fewer_batches_with_warning():
    data = make_identifiable(50)
    with pytest.warns(UserWarning, match="batches"):
        plan = make_batch_plan(data, 5, 20, 0, seed=0)
    assert plan.n_batches == 2


def test_batch_plan_too_small_errors():
    data = make_identifiable(5)
    with pytest.raises(ValueError, match="fewer than one batch"):
        make_batch_plan(data, 1, 10, 0, seed=0)


RECT_SPEC = SyntheticSpec(
    n_rows=100,
    n_features=2,
    rectangles=(Rectangle((0.0, 0.0), (0.5, 0.5), 1),),
)


def test_synthetic_rectangle_labels_by_construction():
    data = synthetic(RECT_SPEC, seed=1)
    inside = np.all(data.features <= 0.5, axis=1)
    assert np.array_equal(data.labels == 1, inside)


def test_synthetic_deterministic():
    a = synthetic(RECT_SPEC, seed=7)
    b = synthetic(RECT_SPEC, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_full_flip_noise_decouples_labels():
    spec = SyntheticSpec(n_rows=2000, n_features=1, rectangles=(
        Rectangle((0.0,), (0.5,), 1),), flip_noise=0.5)
    noisy = synthetic(spec, seed=3)
    clean = synthetic(SyntheticSpec(n_rows=2000, n_features=1, rectangles=spec.rectangles), seed=3)
    flipped = np.mean(noisy.labels != clean.labels)
    assert 0.4 < flipped < 0.6


def random_spec(rng) -> SyntheticSpec:
    """1-8 features and 0-4 rectangles.  Bounds reach outside [0, 1], some
    as integers and some NaN; a rectangle may be empty or cover an earlier
    one."""
    d = int(rng.integers(1, 9))
    rects = []
    for _ in range(int(rng.integers(0, 5))):
        lows = rng.uniform(-0.5, 1.2, size=d)
        highs = lows + rng.uniform(0.0, 1.0, size=d)
        if rng.random() < 0.2:
            lows, highs = np.floor(lows), np.ceil(highs)
        if rng.random() < 0.1:
            (lows if rng.random() < 0.5 else highs)[rng.integers(d)] = np.nan
        box = [tuple(int(v) if v.is_integer() else v for v in b.tolist()) for b in (lows, highs)]
        if rects and rng.random() < 0.2:
            box = [rects[-1].lows, rects[-1].highs]
        rects.append(Rectangle(*box, int(rng.integers(0, 4))))
    background = int(rng.integers(0, 3))
    needed = max([background] + [r.label for r in rects]) + 1
    return SyntheticSpec(
        n_rows=int(rng.integers(1, 400)),
        n_features=d,
        rectangles=tuple(rects),
        background_label=background,
        flip_noise=float(rng.choice([0.0, 0.1, 1.0])),
        n_classes=None if rng.random() < 0.5 else needed + int(rng.integers(0, 3)),
    )


def test_synthetic_matches_broadcast_reference():
    rng = np.random.default_rng(17)
    claimed = 0
    for case in range(300):
        spec = random_spec(rng)
        got, want = synthetic(spec, (case, 1)), ref_synthetic(spec, (case, 1))
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
        assert got.n_classes == want.n_classes
        claimed += spec.flip_noise == 0.0 and bool(np.any(got.labels != spec.background_label))
    assert claimed > 20  # rectangles do claim rows


def test_synthetic_invalid_spec():
    with pytest.raises(ConfigError):
        synthetic(SyntheticSpec(n_rows=0, n_features=1), seed=0)
    with pytest.raises(ConfigError):
        synthetic(SyntheticSpec(n_rows=5, n_features=1, flip_noise=1.5), seed=0)
    with pytest.raises(ConfigError):
        synthetic(
            SyntheticSpec(n_rows=5, n_features=2, rectangles=(Rectangle((0.0,), (1.0,), 1),)),
            seed=0,
        )
    with pytest.raises(ConfigError, match="n_features"):
        synthetic(SyntheticSpec(n_rows=5, n_features=0), seed=0)
    with pytest.raises(ConfigError, match="non-negative"):
        synthetic(SyntheticSpec(n_rows=5, n_features=1, background_label=-1), seed=0)
    with pytest.raises(ConfigError, match="does not fit in 2 classes"):
        synthetic(
            SyntheticSpec(n_rows=5, n_features=1, rectangles=(Rectangle((0.0,), (1.0,), 2),), n_classes=2),
            seed=0,
        )
    with pytest.raises(ConfigError, match="lows must not exceed highs"):
        synthetic(SyntheticSpec(n_rows=5, n_features=1, rectangles=(Rectangle((0.6,), (0.4,), 1),)), seed=0)


def test_manifest_roundtrip(tmp_path):
    write(tmp_path, "mini.csv", "1,0\n2,1\n")
    manifest_path = write(
        tmp_path,
        "mini.json",
        '{"name": "mini", "url": "https://example.org/mini", "file": "mini.csv", "label_column": 1}',
    )
    manifest = load_manifest(manifest_path)
    assert os.path.exists(manifest.local_path())
    data = dataset_from_manifest(manifest)
    assert data.n_rows == 2


def test_manifest_skips_a_utf8_byte_order_mark(tmp_path):
    write(tmp_path, "mini.csv", "1,0\n2,1\n")
    path = tmp_path / "mini.json"
    document = '{"name": "mini", "url": "https://example.org/mini", "file": "mini.csv", "label_column": 1}'
    path.write_bytes(b"\xef\xbb\xbf" + document.encode("utf-8"))
    manifest = load_manifest(str(path))
    assert (manifest.name, manifest.label_column) == ("mini", 1)
    assert dataset_from_manifest(manifest).n_rows == 2


def test_manifest_missing_data_file(tmp_path):
    manifest_path = write(
        tmp_path,
        "gone.json",
        '{"name": "gone", "url": "https://example.org/gone", "file": "gone.csv", "label_column": 0}',
    )
    manifest = load_manifest(manifest_path)
    assert not os.path.exists(manifest.local_path())
    with pytest.raises(DataLoadError, match="download"):
        dataset_from_manifest(manifest)


def test_manifest_missing_or_not_json(tmp_path):
    with pytest.raises(DataLoadError, match="manifest not found"):
        load_manifest(str(tmp_path / "none.json"))
    with pytest.raises(DataLoadError, match="invalid manifest"):
        load_manifest(write(tmp_path, "broken.json", '{"name": '))


def test_builtin_dataset_path_unknown_name():
    with pytest.raises(DataLoadError, match="no builtin dataset named 'nope'"):
        builtin_dataset_path("nope")


def test_manifest_missing_fields(tmp_path):
    manifest_path = write(tmp_path, "bad.json", '{"name": "x"}')
    with pytest.raises(DataLoadError, match="missing fields"):
        load_manifest(manifest_path)


@pytest.mark.parametrize("document", ["5", '"abc"', "[]", "null"])
def test_manifest_must_be_a_json_object(tmp_path, document):
    path = write(tmp_path, "odd.json", document)
    with pytest.raises(DataLoadError, match=r"odd\.json: a manifest must be a JSON object"):
        load_manifest(path)


@pytest.mark.parametrize("key", ["name", "url", "file"])
def test_manifest_names_must_be_strings(tmp_path, key):
    document = {"name": "mini", "url": "https://example.org/mini", "file": "mini.csv", "label_column": 1}
    document[key] = 5
    path = write(tmp_path, "mini.json", json.dumps(document))
    with pytest.raises(DataLoadError, match=rf"mini\.json: manifest fields must be strings: \['{key}'\]"):
        load_manifest(path)


def test_manifest_rejects_a_mistyped_header_flag_or_label_column(tmp_path):
    write(tmp_path, "mini.csv", "x,y\n1,0\n2,1\n")
    fields = '"name": "mini", "url": "https://example.org/mini", "file": "mini.csv"'
    bad_fields = [
        '"has_header": "false", "label_column": 1',
        '"has_header": 0, "label_column": 1',
        '"label_column": 1.0',
        '"label_column": true',
        '"label_column": null',
    ]
    for bad in bad_fields:
        path = write(tmp_path, "mini.json", "{" + fields + ", " + bad + "}")
        with pytest.raises(DataLoadError, match="has_header|label_column"):
            load_manifest(path)
    path = write(tmp_path, "mini.json", "{" + fields + ', "has_header": true, "label_column": "y"}')
    assert dataset_from_manifest(load_manifest(path)).n_rows == 2


SKIN_MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir, "manifests", "skin.json")


@pytest.mark.skipif(
    not (os.path.exists(SKIN_MANIFEST) and os.path.exists(load_manifest(SKIN_MANIFEST).local_path())),
    reason="skin-segmentation file not downloaded",
)
def test_skin_dataset_shape_when_present():
    data = dataset_from_manifest(load_manifest(SKIN_MANIFEST))
    assert data.n_features == 3  # B, G, R channels
    assert data.n_classes == 2
