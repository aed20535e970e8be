import json
import sys
from pathlib import Path

import pytest

from treekeep import Leaf, LossParams, Split, load_csv, load_tree, retrain, save_tree, update
from conftest import iris_walkthrough, right_chain_document
from treekeep.cli import main

FOUR_ROWS = "1.0,0\n2.0,0\n3.0,1\n4.0,1\n"


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(FOUR_ROWS)
    return str(path)


def test_grow_writes_tree_and_reports(data_file, tmp_path, capsys):
    out = tmp_path / "tree.json"
    rc = main(["grow", "--data", data_file, "--alpha", "0.5", "--out", str(out)])
    assert rc == 0
    assert load_tree(out) == Split(0, 2.5, Leaf(0), Leaf(1))
    printed = capsys.readouterr().out
    assert "nodes: 3" in printed
    assert "misclassifications: 0" in printed


def test_grow_pure_labels_single_leaf(tmp_path, capsys):
    data = tmp_path / "pure.csv"
    data.write_text("1.0,1\n2.0,1\n")
    out = tmp_path / "tree.json"
    assert main(["grow", "--data", str(data), "--out", str(out)]) == 0
    assert load_tree(out) == Leaf(0)


def test_label_only_data_gives_a_single_leaf(tmp_path):
    # No feature column: there is nothing to split on, even at alpha 0.
    data = tmp_path / "labels.csv"
    data.write_text("0\n1\n1\n")
    dataset = load_csv(str(data), -1)
    assert dataset.n_features == 0
    params = LossParams(0.0, 0.0)
    assert retrain(dataset, params) == Leaf(1)
    assert update(Leaf(0), dataset, params) == Leaf(1)
    out, updated = tmp_path / "tree.json", tmp_path / "updated.json"
    assert main(["grow", "--data", str(data), "--alpha", "0", "--out", str(out)]) == 0
    assert load_tree(out) == Leaf(1)
    assert main(["update", "--data", str(data), "--prev-tree", str(out), "--alpha", "0", "--out", str(updated)]) == 0
    assert load_tree(updated) == Leaf(1)


def test_grow_missing_file_exits_nonzero(tmp_path, capsys):
    rc = main(["grow", "--data", str(tmp_path / "no.csv"), "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_grow_header_narrower_than_rows_exits_3(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x,y,label\n1,2,0,7\n3,4,1,7\n")
    rc = main(["grow", "--data", str(data), "--has-header", "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "header has 3 columns but row 2 has 4" in capsys.readouterr().err


def test_grow_cell_over_the_csv_field_limit_exits_3(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text('1,"' + "x" * 140000 + '"\n2,y\n')
    rc = main(["grow", "--data", str(data), "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "row 1: field larger than field limit" in capsys.readouterr().err


def test_grow_dot_output(data_file, tmp_path):
    out = tmp_path / "tree.json"
    dot = tmp_path / "tree.dot"
    main(["grow", "--data", data_file, "--alpha", "0.5", "--out", str(out), "--dot-out", str(dot)])
    assert dot.read_text().startswith("digraph")


def test_update_huge_beta_keeps_tree(data_file, tmp_path, capsys):
    prev_path = tmp_path / "prev.json"
    save_tree(Split(0, 1.5, Leaf(1), Leaf(0)), prev_path)
    out = tmp_path / "new.json"
    rc = main(
        [
            "update",
            "--prev-tree",
            str(prev_path),
            "--data",
            data_file,
            "--alpha",
            "1",
            "--beta",
            "1e9",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert load_tree(out) == load_tree(prev_path)
    printed = capsys.readouterr().out
    assert "delta): 0" in printed
    assert "similarity (approximate): 1.0000" in printed


def test_update_negative_beta_rejected(data_file, tmp_path, capsys):
    prev_path = tmp_path / "prev.json"
    save_tree(Leaf(0), prev_path)
    rc = main(
        ["update", "--prev-tree", str(prev_path), "--data", data_file,
         "--beta", "-1", "--out", str(tmp_path / "o.json")]
    )
    assert rc == 3
    assert "beta" in capsys.readouterr().err


def test_update_leaf_class_beyond_int64_exits_3(data_file, tmp_path, capsys):
    # Kept by a large beta, such a leaf would fail in predict.
    prev_path = tmp_path / "prev.json"
    prev_path.write_text('{"kind": "leaf", "class": 100000000000000000000}')
    rc = main(
        ["update", "--prev-tree", str(prev_path), "--data", data_file,
         "--beta", "1000", "--out", str(tmp_path / "new.json")]
    )
    assert rc == 3
    assert "root.class" in capsys.readouterr().err


def test_update_writes_diff_table(data_file, tmp_path):
    prev_path = tmp_path / "prev.json"
    save_tree(Leaf(0), prev_path)
    out = tmp_path / "new.json"
    diff_out = tmp_path / "diff.txt"
    rc = main(
        ["update", "--prev-tree", str(prev_path), "--data", data_file,
         "--alpha", "0.1", "--beta", "0.1", "--out", str(out), "--diff-out", str(diff_out)]
    )
    assert rc == 0
    assert diff_out.read_text().splitlines()[0] == "path\tstatus\tscore"


def test_diff_identical_files(tmp_path, capsys):
    path = tmp_path / "a.json"
    save_tree(Split(0, 2.5, Leaf(0), Leaf(1)), path)
    rc = main(["diff", "--a", str(path), "--b", str(path)])
    assert rc == 0
    assert "similarity (approximate): 1.0000" in capsys.readouterr().out


def test_diff_disjoint_roots(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(Split(0, 2.5, Leaf(0), Leaf(1)), a)
    save_tree(Split(1, 2.5, Leaf(0), Leaf(1)), b)
    rc = main(["diff", "--a", str(a), "--b", str(b)])
    assert rc == 0
    assert "similarity (approximate): 0.0000" in capsys.readouterr().out


def test_diff_dot_out_highlights_changes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_tree(Split(0, 2.5, Leaf(0), Leaf(1)), a)
    save_tree(Split(0, 2.5, Leaf(0), Leaf(2)), b)
    dot = tmp_path / "d.dot"
    assert main(["diff", "--a", str(a), "--b", str(b), "--dot-out", str(dot)]) == 0
    text = dot.read_text()
    assert "digraph" in text
    assert "lightsalmon" in text


@pytest.mark.parametrize(
    "doc",
    [right_chain_document(1500), "[" * 100000 + "]" * 100000],
    ids=["right_chain_1500", "nested_brackets"],
)
def test_diff_too_deep_tree_exits_3(tmp_path, capsys, doc):
    path = tmp_path / "deep.json"
    path.write_text(doc)
    assert main(["diff", "--a", str(path), "--b", str(path)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_update_reads_the_deepest_tree_diff_reads(tmp_path, capsys):
    # update recurses no deeper than diff: on the deepest right chain that
    # diff still reads it succeeds, and its output loads
    path = tmp_path / "deep.json"
    for depth in range(sys.getrecursionlimit(), 0, -1):
        path.write_text(right_chain_document(depth))
        if main(["diff", "--a", str(path), "--b", str(path)]) == 0:
            break
    data = tmp_path / "three.csv"
    data.write_text("1.0,0\n2.0,1\n3.0,1\n")
    out = tmp_path / "o.json"
    assert main(["update", "--prev-tree", str(path), "--data", str(data), "--out", str(out)]) == 0
    assert load_tree(out) == Leaf(1)


def test_update_recursion_error_exits_3(tmp_path, capsys, monkeypatch):
    # a tree too deep for update's recursion ends as bad input, not as an
    # internal error
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("treekeep.cli.update", too_deep)
    prev = tmp_path / "prev.json"
    save_tree(Split(0, 1.5, Leaf(0), Leaf(1)), prev)
    data = tmp_path / "three.csv"
    data.write_text("1.0,0\n2.0,1\n3.0,1\n")
    rc = main(["update", "--prev-tree", str(prev), "--data", str(data), "--out", str(tmp_path / "o.json")])
    assert rc == 3
    assert "error: tree is nested too deeply to process" in capsys.readouterr().err


def blobs(label=1, lows=(0, 0), highs=(0.5, 1), **spec):
    return {
        "name": "blobs",
        "synthetic": {
            "n_rows": 300,
            "n_features": 2,
            "rectangles": [{"lows": list(lows), "highs": list(highs), "label": label}],
            "flip_noise": 0.1,
            "seed": 9,
            **spec,
        },
    }


def eval_config(tmp_path, **overrides):
    obj = {
        "dataset": blobs(),
        "algorithm": {"name": "keep_regrow", "alpha": 1, "beta": 1},
        "n_runs": 2,
        "n_batches": 3,
        "batch_size": 25,
        "test_size": 50,
        "seed": 2,
    }
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_eval_writes_results(tmp_path, capsys):
    cfg = eval_config(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["eval", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "manifest.json").exists()


def test_eval_config_may_begin_with_a_utf8_byte_order_mark(tmp_path):
    cfg = eval_config(tmp_path, n_runs=1)
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(cfg).read_bytes())
    out_plain, out_marked = tmp_path / "plain", tmp_path / "marked"
    assert main(["eval", "--config", cfg, "--out-dir", str(out_plain)]) == 0
    assert main(["eval", "--config", str(marked), "--out-dir", str(out_marked)]) == 0
    assert (out_marked / "results.csv").read_bytes() == (out_plain / "results.csv").read_bytes()


def test_eval_flag_overrides_config(tmp_path):
    cfg = eval_config(tmp_path)
    out_dir = tmp_path / "out"
    main(["eval", "--config", cfg, "--out-dir", str(out_dir), "--n-runs", "1"])
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 1 * 3


def test_eval_deterministic_bytes(tmp_path):
    cfg = eval_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["eval", "--config", cfg, "--out-dir", str(out_a)]) == 0
    assert main(["eval", "--config", cfg, "--out-dir", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_eval_out_dir_from_env(tmp_path, monkeypatch):
    cfg = eval_config(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("TREEKEEP_OUT_DIR", str(target))
    assert main(["eval", "--config", cfg]) == 0
    assert (target / "results.csv").exists()


def test_eval_unknown_algorithm_lists_names(tmp_path, capsys):
    cfg = eval_config(tmp_path, algorithm={"name": "perceptron"})
    rc = main(["eval", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "keep_regrow" in err and "retrain" in err and "keep_original" in err


@pytest.mark.parametrize(
    "override",
    [
        {"growth": {"max_depth": "5"}},
        {"algorithm": {"name": "keep_regrow", "alpha": None}},
        {"n_runs": None},
        {"growth": []},
        {"sweep": {"alphas": 5}},
        # Values of the wrong JSON type are refused, not coerced.
        {"n_runs": 2.7},
        {"n_runs": True},
        {"seed": "12"},
        {"algorithm": {"name": "keep_regrow", "alpha": "5"}},
        {"algorithm": {"name": "keep_regrow", "alpha": True}},
        {"growth": {"max_depth": 2.5}},
        {"growth": {"max_depth": True}},
        {"sweep": {"alphas": ["1"]}},
        {"sweep": {"betas": [False]}},
        {"dataset": blobs(label=1.7)},
        {"dataset": blobs(label=True)},
        {"dataset": {"path": "four.csv", "label_column": -1, "has_header": "false"}},
        {"dataset": blobs(n_rows=300.0)},
        {"dataset": blobs(n_features=2.0)},
        {"dataset": blobs(background_label=1.5)},
        {"dataset": blobs(n_classes=2.0)},
        {"dataset": blobs(seed=9.0)},
        {"dataset": blobs(flip_noise=True)},
        {"dataset": blobs(lows=(True, 0))},
        {"dataset": blobs(highs=("1", 1))},
        {"dataset": {"path": "four.csv", "label_column": True}},
        {"dataset": {"path": "four.csv", "label_column": 1.5}},
        {"dataset": {"path": "four.csv", "label_column": None}},
        {"dataset": {"builtin": "iris", "label_column": True}},
        {"dataset": {"builtin": "iris", "label_column": 1.5}},
        {"dataset": {"builtin": "iris", "label_column": None}},
    ],
    ids=[
        "max_depth_string",
        "alpha_null",
        "n_runs_null",
        "growth_list",
        "sweep_alphas_scalar",
        "n_runs_float",
        "n_runs_bool",
        "seed_string",
        "alpha_string",
        "alpha_bool",
        "max_depth_float",
        "max_depth_bool",
        "sweep_alpha_string",
        "sweep_beta_bool",
        "rectangle_label_float",
        "rectangle_label_bool",
        "has_header_string",
        "synthetic_n_rows_float",
        "synthetic_n_features_float",
        "background_label_float",
        "n_classes_float",
        "synthetic_seed_float",
        "flip_noise_bool",
        "rectangle_lows_bool",
        "rectangle_highs_string",
        "path_label_column_bool",
        "path_label_column_float",
        "path_label_column_null",
        "builtin_label_column_bool",
        "builtin_label_column_float",
        "builtin_label_column_null",
    ],
)
def test_eval_mistyped_config_value_exits_3(tmp_path, capsys, override):
    (tmp_path / "four.csv").write_text(FOUR_ROWS)
    cfg = eval_config(tmp_path, **override)
    out_dir = tmp_path / "o"
    assert main(["eval", "--config", cfg, "--out-dir", str(out_dir)]) == 3
    assert "invalid config" in capsys.readouterr().err
    assert not out_dir.exists()


def test_eval_unknown_dataset_key_exits_3(tmp_path, capsys):
    cfg = eval_config(tmp_path, dataset={"builtin": "iris", "nmae": "flowers"})
    assert main(["eval", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3
    assert "nmae" in capsys.readouterr().err


def test_eval_sweep_with_equal_grid_values_exits_3(tmp_path, capsys):
    cfg = eval_config(tmp_path, sweep={"alphas": [1, 1.0]})
    assert main(["eval", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3
    assert "sweep alphas" in capsys.readouterr().err


def test_eval_beta_sweep_on_data_too_short_for_2_batches_exits_3(tmp_path, capsys):
    cfg = eval_config(tmp_path, dataset=blobs(n_rows=50), n_batches=2, batch_size=30, sweep={"betas": [1]})
    out_dir = tmp_path / "o"
    assert main(["eval", "--config", cfg, "--out-dir", str(out_dir)]) == 3
    assert "beta sweep needs 2 batches" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("document", ["5", '"abc"', "[]", "null"])
def test_eval_manifest_that_is_not_an_object_exits_3(tmp_path, capsys, document):
    (tmp_path / "odd.json").write_text(document)
    cfg = eval_config(tmp_path, dataset={"manifest": "odd.json"})
    out_dir = tmp_path / "o"
    assert main(["eval", "--config", cfg, "--out-dir", str(out_dir)]) == 3
    assert "odd.json: a manifest must be a JSON object" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["a\rb", "a\nb"])
@pytest.mark.parametrize("source", ["config", "path stem", "manifest"])
def test_eval_dataset_name_with_a_control_character_exits_3(tmp_path, capsys, name, source):
    # A carriage return or line feed in the name would split a row of results.csv.
    if source == "config":
        dataset = {**blobs(), "name": name}
    elif source == "path stem":
        (tmp_path / f"{name}.csv").write_text(FOUR_ROWS)
        dataset = {"path": f"{name}.csv", "label_column": -1}
    else:
        (tmp_path / "four.csv").write_text(FOUR_ROWS)
        manifest = {"name": name, "url": "https://example.org/four", "file": "four.csv", "label_column": -1}
        (tmp_path / "four.json").write_text(json.dumps(manifest))
        dataset = {"manifest": "four.json"}
    cfg = eval_config(tmp_path, dataset=dataset, n_batches=1, batch_size=2, test_size=2)
    out_dir = tmp_path / "o"
    assert main(["eval", "--config", cfg, "--out-dir", str(out_dir)]) == 3
    assert "control character" in capsys.readouterr().err
    assert not out_dir.exists()


def test_eval_missing_config_exits_3(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path / "none.json")]) == 3
    assert "config file not found" in capsys.readouterr().err


def test_eval_malformed_config_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dataset": \n  oops}')
    rc = main(["eval", "--config", path.as_posix()])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def test_iris_walkthrough_via_cli(tmp_path, capsys):
    # grow on a one-tenth sample, then update on the full dataset: the root
    # split survives and some lower structure is regrown
    t0, t1 = iris_walkthrough(tmp_path)
    assert (t0.feature, t0.threshold) == (t1.feature, t1.threshold)
    assert "delta" in capsys.readouterr().out
    assert t0 != t1
