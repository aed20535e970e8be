import numpy as np
import pytest

from conftest import random_dataset, random_tree, ref_classify, right_chain_document
from treekeep import (
    Dataset,
    Leaf,
    LossParams,
    Split,
    change_count,
    depth,
    deserialize,
    load_tree,
    loss,
    node_at,
    node_count,
    predict,
    serialize,
    structural_diff,
    to_dot,
)
from treekeep.errors import InputShapeError, TreeFormatError
from treekeep.loss import repredict
from treekeep.tree import iter_nodes, max_feature

STUMP = Split(0, 2.5, Leaf(0), Leaf(1))
FULL2 = Split(0, 4.0, Split(1, 2.0, Leaf(0), Leaf(1)), Split(1, 6.0, Leaf(1), Leaf(0)))


@pytest.mark.parametrize(
    "tree, row, expected",
    [(Leaf(0), [9.9], 0), (STUMP, [2.5], 0), (STUMP, [3.0], 1)],
    ids=["leaf_ignores_features", "boundary_value_goes_left", "strictly_greater_goes_right"],
)
def test_predict_routes_row(tree, row, expected):
    assert predict(tree, np.array([row])).tolist() == [expected]


def test_predict_agrees_with_reference_walk():
    rng = np.random.default_rng(11)
    for _ in range(25):
        tree = random_tree(rng)
        data = random_dataset(rng)
        expected = [ref_classify(tree, row) for row in data.features]
        assert predict(tree, data.features).tolist() == expected
    # The root reads its column in place, whatever the matrix's layout or type.
    wide = rng.integers(0, 9, size=(40, 6)) / 2.0
    one_sided = Split(1, 100.0, FULL2, Leaf(2))
    for tree, matrix in [
        (FULL2, wide[:, ::2]),
        (FULL2, np.asfortranarray(wide)),
        (FULL2, wide.astype(np.int64)),
        (FULL2, wide[:0]),
        (one_sided, wide),
    ]:
        expected = [ref_classify(tree, row) for row in matrix]
        assert predict(tree, matrix).tolist() == expected


def test_predict_rejects_narrow_matrix():
    with pytest.raises(InputShapeError):
        predict(Split(5, 0.0, Leaf(0), Leaf(1)), np.zeros((4, 2)))


@pytest.mark.parametrize(
    "tree,expected",
    [(Leaf(1), 1), (STUMP, 3), (FULL2, 7)],
)
def test_node_count(tree, expected):
    assert node_count(tree) == expected


def test_node_count_recursion_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = random_tree(rng)
        if isinstance(t, Split):
            assert node_count(t) == 1 + node_count(t.left) + node_count(t.right)


def test_walkers_return_on_a_5000_deep_chain():
    tree = Leaf(1)
    for _ in range(5000):
        tree = Split(0, 0.5, Leaf(0), tree)
    assert node_count(tree) == 10001
    assert depth(tree) == 5000
    assert max_feature(tree) == 0
    paths = [path for path, _ in iter_nodes(tree)]
    assert len(paths) == 10001 and paths[-1] == "R" * 5000
    assert to_dot(tree).count(" -> ") == 10000
    rows = np.array([[0.0], [1.0]])  # 1.0 goes right at every split, to the deepest leaf
    pred = predict(tree, rows)
    assert pred.tolist() == [0, 1]
    flipped = Leaf(0)
    for _ in range(5000):
        flipped = Split(0, 0.5, Leaf(0), flipped)
    report = structural_diff(tree, flipped)
    assert report.delta == 1 and [e.path for e in report.entries if e.status == "changed"] == ["R" * 5000]
    assert change_count(tree, flipped) == 1
    assert loss(tree, flipped, Dataset(rows, np.array([0, 1]), 2), LossParams(0.0, 1.0)).total == 2.0
    assert repredict(tree, flipped, rows, pred).tolist() == [0, 0]


def test_depth():
    assert depth(Leaf(0)) == 0
    assert depth(STUMP) == 1
    assert depth(FULL2) == 2


def test_tree_invariants_enforced_at_construction():
    with pytest.raises(ValueError):
        Split(0, float("nan"), Leaf(0), Leaf(1))
    with pytest.raises(ValueError):
        Split(0, float("inf"), Leaf(0), Leaf(1))
    with pytest.raises(ValueError):
        Split(-1, 0.0, Leaf(0), Leaf(1))
    with pytest.raises(ValueError):
        Leaf(-2)
    with pytest.raises(ValueError):
        Leaf(2**63)


def test_roundtrip_split():
    t = Split(2, 0.8, Leaf(0), Leaf(1))
    assert deserialize(serialize(t)) == t


def test_roundtrip_leaf():
    assert deserialize(serialize(Leaf(3))) == Leaf(3)
    assert deserialize(serialize(Leaf(2**63 - 1))) == Leaf(2**63 - 1)


def test_roundtrip_threshold_bit_exact():
    t = Split(0, 0.1 + 0.2, Leaf(0), Leaf(1))
    back = deserialize(serialize(t))
    assert back.threshold == t.threshold  # bit-exact, not approximately


def test_roundtrip_random_trees():
    rng = np.random.default_rng(13)
    for _ in range(50):
        t = random_tree(rng, max_depth=4)
        assert deserialize(serialize(t)) == t


def test_load_tree_skips_a_utf8_byte_order_mark(tmp_path):
    # Editors on Windows may save JSON with one.
    path = tmp_path / "tree.json"
    path.write_bytes(b"\xef\xbb\xbf" + serialize(STUMP).encode("utf-8"))
    assert load_tree(path) == STUMP


def test_deserialize_rejects_nan_threshold_string():
    doc = '{"kind": "split", "feature": 0, "threshold": "NaN", "left": {"kind": "leaf", "class": 0}, "right": {"kind": "leaf", "class": 1}}'
    with pytest.raises(TreeFormatError, match="threshold"):
        deserialize(doc)


def test_deserialize_rejects_nan_token():
    doc = '{"kind": "split", "feature": 0, "threshold": NaN, "left": {"kind": "leaf", "class": 0}, "right": {"kind": "leaf", "class": 1}}'
    with pytest.raises(TreeFormatError):
        deserialize(doc)


def test_deserialize_unknown_kind_names_path():
    doc = '{"kind": "split", "feature": 0, "threshold": 1.0, "left": {"kind": "branch"}, "right": {"kind": "leaf", "class": 1}}'
    with pytest.raises(TreeFormatError, match=r"root\.left"):
        deserialize(doc)


def test_deserialize_missing_child():
    doc = '{"kind": "split", "feature": 0, "threshold": 1.0, "left": {"kind": "leaf", "class": 0}}'
    with pytest.raises(TreeFormatError, match="right"):
        deserialize(doc)


LEAVES = '"left": {"kind": "leaf", "class": 0}, "right": {"kind": "leaf", "class": 1}'


@pytest.mark.parametrize(
    "doc, where",
    [
        ('{"kind": "split", "feature": 0, "threshold": 1e400, ' + LEAVES + "}", r"root\.threshold"),
        ('{"kind": "split", "feature": 0, "threshold": 1.0, "left": [], "right": {"kind": "leaf", "class": 1}}',
         r"root\.left: expected an object"),
        ('{"kind": "leaf", "class": 1.0}', r"root\.class"),
        ('{"kind": "split", "feature": -1, "threshold": 1.0, ' + LEAVES + "}", r"root\.feature"),
        # predict writes classes into an int64 array
        ('{"kind": "leaf", "class": 100000000000000000000}', r"root\.class"),
        ('{"kind": "leaf", "class": 9223372036854775808}', r"root\.class"),
    ],
    ids=["threshold_1e400", "node_not_an_object", "class_float", "feature_negative", "class_1e20", "class_2_63"],
)
def test_deserialize_rejects_a_bad_field(doc, where):
    with pytest.raises(TreeFormatError, match=where):
        deserialize(doc)


def test_deserialize_garbage():
    with pytest.raises(TreeFormatError):
        deserialize("not json at all {")


@pytest.mark.parametrize(
    "doc",
    [right_chain_document(1500), "[" * 100000 + "]" * 100000],
    ids=["right_chain_1500", "nested_brackets"],
)
def test_deserialize_too_deep_is_format_error(doc):
    with pytest.raises(TreeFormatError, match="nested too deeply"):
        deserialize(doc)


def test_node_at():
    assert node_at(FULL2, "") is FULL2
    assert node_at(FULL2, "L") is FULL2.left
    assert node_at(FULL2, "RL") == Leaf(1)
    with pytest.raises(ValueError):
        node_at(STUMP, "LL")


def test_max_feature():
    assert max_feature(Leaf(0)) == -1
    assert max_feature(FULL2) == 1


def test_to_dot_single_leaf():
    dot = to_dot(Leaf(0))
    assert dot.startswith("digraph")
    assert 'label="class = 0"' in dot
    assert "->" not in dot


def test_to_dot_stump_nodes_and_edges():
    dot = to_dot(STUMP)
    assert dot.count("label=\"x[0] <= 2.5\"") == 1
    assert dot.count('[label="true"]') == 1
    assert dot.count('[label="false"]') == 1
    node_lines = [ln for ln in dot.splitlines() if "label=" in ln and "->" not in ln]
    assert len(node_lines) == 3


def test_to_dot_marks_changed_nodes():
    changed = Split(0, 2.5, Leaf(0), Leaf(2))
    report = structural_diff(STUMP, changed)
    dot = to_dot(changed, report)
    lines = {ln.split()[0]: ln for ln in dot.splitlines() if "label=" in ln and "->" not in ln}
    assert "lightsalmon" in lines["nR"]
    assert "palegreen" in lines["n"]
    assert "palegreen" in lines["nL"]


def test_to_dot_node_lines_match_node_count():
    rng = np.random.default_rng(14)
    for _ in range(10):
        t = random_tree(rng)
        dot = to_dot(t)
        node_lines = [ln for ln in dot.splitlines() if "label=" in ln and "->" not in ln]
        assert len(node_lines) == node_count(t)


def test_iter_nodes_paths_unique():
    paths = [p for p, _ in iter_nodes(FULL2)]
    assert len(paths) == len(set(paths)) == 7
    assert paths[0] == ""
