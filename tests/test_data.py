import os

import numpy as np
import pytest

from treekeep import Dataset, load_csv, make_batch_plan, synthetic
from treekeep.data import (
    Rectangle,
    SyntheticSpec,
    builtin_dataset_path,
    dataset_from_manifest,
    load_manifest,
)
from treekeep.errors import ConfigError, DataLoadError


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


def make_identifiable(n):
    # feature 0 identifies the row, so shuffles can be audited
    features = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return Dataset(features, np.zeros(n, dtype=int), 1)


def test_batch_plan_iris_tenth():
    iris = load_csv(builtin_dataset_path("iris"), "species", has_header=True)
    plan = make_batch_plan(iris, n_batches=1, batch_size=15, test_size=0, seed=4)
    assert plan.batch(0).n_rows == 15
    assert plan.test.n_rows == 0


def test_batch_plan_deterministic():
    data = make_identifiable(100)
    a = make_batch_plan(data, 3, 20, 30, seed=42)
    b = make_batch_plan(data, 3, 20, 30, seed=42)
    for x, y in zip(a.batch_indices, b.batch_indices):
        assert np.array_equal(x, y)
    assert np.array_equal(a.test_indices, b.test_indices)


def test_batch_plan_disjoint_and_cumulative():
    data = make_identifiable(120)
    plan = make_batch_plan(data, 3, 20, 40, seed=9)
    ids = [set(plan.batch(t).features[:, 0].tolist()) for t in range(plan.n_batches)]
    test_ids = set(plan.test.features[:, 0].tolist())
    assert len(ids[0] | ids[1] | ids[2] | test_ids) == 100
    assert plan.cumulative(1).n_rows == 40
    assert set(plan.cumulative(2).features[:, 0].tolist()) == ids[0] | ids[1] | ids[2]


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


def test_manifest_roundtrip(tmp_path):
    write(tmp_path, "mini.csv", "1,0\n2,1\n")
    manifest_path = write(
        tmp_path,
        "mini.json",
        '{"name": "mini", "url": "https://example.org/mini", "file": "mini.csv", "label_column": 1}',
    )
    manifest = load_manifest(manifest_path)
    assert manifest.is_present()
    data = dataset_from_manifest(manifest)
    assert data.n_rows == 2


def test_manifest_missing_data_file(tmp_path):
    manifest_path = write(
        tmp_path,
        "gone.json",
        '{"name": "gone", "url": "https://example.org/gone", "file": "gone.csv", "label_column": 0}',
    )
    manifest = load_manifest(manifest_path)
    assert not manifest.is_present()
    with pytest.raises(DataLoadError, match="download"):
        dataset_from_manifest(manifest)


def test_manifest_missing_fields(tmp_path):
    manifest_path = write(tmp_path, "bad.json", '{"name": "x"}')
    with pytest.raises(DataLoadError, match="missing fields"):
        load_manifest(manifest_path)


SKIN_MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir, "manifests", "skin.json")


@pytest.mark.skipif(
    not (os.path.exists(SKIN_MANIFEST) and load_manifest(SKIN_MANIFEST).is_present()),
    reason="skin-segmentation file not downloaded",
)
def test_skin_dataset_shape_when_present():
    data = dataset_from_manifest(load_manifest(SKIN_MANIFEST))
    assert data.n_features == 3  # B, G, R channels
    assert data.n_classes == 2
