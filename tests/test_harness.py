import csv
import importlib
import json
import re

import numpy as np
import pytest

from treekeep import (
    accuracy_ci_halfwidth,
    load_tree,
    misclassification_count,
    structural_diff,
    summarize,
)
from treekeep.data import Rectangle, SyntheticSpec, make_batch_plan, synthetic
from treekeep.errors import ConfigError
from treekeep.grow import GrowthConfig
from treekeep.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    RESULT_COLUMNS,
    RunRecord,
    _write_csv,
    archive_name,
    config_from_dict,
    run_eval,
    run_experiment,
    sweep,
)

HARNESS_MODULE = importlib.import_module("treekeep.harness")

POOL = synthetic(
    SyntheticSpec(
        n_rows=400,
        n_features=2,
        rectangles=(Rectangle((0.0, 0.0), (0.5, 1.0), 1),),
        flip_noise=0.1,
    ),
    seed=5,
)


def make_config(name="keep_regrow", alpha=1.0, beta=1.0, **kw):
    defaults = dict(
        dataset=POOL,
        dataset_name="pool",
        algorithm=AlgorithmSpec(name, alpha, beta),
        n_runs=2,
        n_batches=3,
        batch_size=30,
        test_size=60,
        seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def strip_timing(records):
    return [
        (r.dataset, r.algorithm, r.alpha, r.beta, r.run, r.batch, r.accuracy, r.nodes, r.delta, r.similarity)
        for r in records
    ]


def test_record_bookkeeping():
    records = run_experiment(make_config())
    assert len(records) == 2 * 3
    assert {r.batch for r in records} == {0, 1, 2}
    for r in records:
        if r.batch == 0:
            assert r.delta is None and r.similarity is None
        else:
            assert r.delta is not None and r.similarity is not None


def test_keep_original_stream():
    records = run_experiment(make_config("keep_original", alpha=1.0))
    for r in records:
        if r.batch > 0:
            assert r.delta == 0
            assert r.similarity == 1.0
    for run in (0, 1):
        accs = [r.accuracy for r in records if r.run == run]
        assert len(set(accs)) == 1  # no learning after batch 0


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(make_config())
    b = run_experiment(make_config())
    assert strip_timing(a) == strip_timing(b)
    _write_csv(a, RESULT_COLUMNS, tmp_path / "a.csv")
    _write_csv(b, RESULT_COLUMNS, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_baseline_beta_labels():
    records = run_experiment(make_config("retrain", alpha=1.0))
    assert all(r.beta is None and r.label == "beta=-100" for r in records)
    records = run_experiment(make_config("keep_original", alpha=1.0))
    assert all(r.label == "beta=100" for r in records)


def fabricated_record(accuracy, run=0):
    return RunRecord(
        dataset="d",
        algorithm="retrain",
        alpha=5.0,
        beta=None,
        run=run,
        batch=0,
        accuracy=accuracy,
        nodes=3,
        delta=None,
        similarity=None,
        wall_time_ms=1.0,
    )


def test_summarize_ci_halfwidth_matches_hand_value():
    rows = summarize([fabricated_record(0.5)], test_size=100000)
    assert round(rows[0].accuracy_ci95, 4) == 0.0031


def test_summarize_perfect_accuracy_has_zero_ci():
    rows = summarize([fabricated_record(1.0)], test_size=100000)
    assert rows[0].accuracy_ci95 == 0.0


def test_summarize_identical_values_have_zero_stdev():
    records = [fabricated_record(0.75, run=i) for i in range(12)]
    rows = summarize(records, test_size=1000)
    assert rows[0].runs == 12
    assert rows[0].accuracy_stdev == 0.0
    assert rows[0].accuracy_mean == 0.75


def test_summarize_empty_errors():
    with pytest.raises(ValueError):
        summarize([], test_size=10)


def test_accuracy_ci_halfwidth_formula():
    assert accuracy_ci_halfwidth(0.5, 100000) == pytest.approx(
        1.96 * (0.5 * 0.5 / 100000) ** 0.5
    )
    assert accuracy_ci_halfwidth(0.5, 0) is None


def test_sweep_alpha_rows_shrink_with_alpha():
    records = sweep(make_config(alpha=5.0), alphas=[0.0, 1.0, 5.0, 100.0], betas=[])
    assert {r.batch for r in records} == {0}
    for run in (0, 1):
        sizes = [r.nodes for r in sorted(records, key=lambda r: r.alpha) if r.run == run]
        assert sizes == sorted(sizes, reverse=True)


def test_sweep_beta_rows_and_baselines():
    records = sweep(make_config(alpha=5.0), alphas=[5.0], betas=[0.0, 1.0, 1000.0])
    by_algo = {}
    for r in records:
        by_algo.setdefault((r.algorithm, r.beta), []).append(r)
    assert ("retrain", None) in by_algo
    assert ("keep_original", None) in by_algo
    assert ("keep_regrow", 1.0) in by_algo  # the suggested default is present
    # an overwhelming beta reproduces the keep-original baseline exactly
    frozen = sorted(
        (r.run, r.accuracy, r.nodes, r.delta, r.similarity)
        for r in by_algo[("keep_regrow", 1000.0)]
        if r.batch == 1
    )
    keep = sorted(
        (r.run, r.accuracy, r.nodes, r.delta, r.similarity)
        for r in by_algo[("keep_original", None)]
        if r.batch == 1
    )
    assert frozen == keep


def test_sweep_draws_one_plan_per_run(monkeypatch):
    seeds = []

    def counted_plan(*args):
        seeds.append(args[-1])
        return make_batch_plan(*args)

    monkeypatch.setattr(HARNESS_MODULE, "make_batch_plan", counted_plan)
    config = make_config(n_runs=3)
    records = sweep(config, alphas=[0.0, 1.0, 5.0], betas=[0.0, 1.0, 100.0])
    assert seeds == [(config.seed, run) for run in range(3)]
    assert len(records) == 3 * (3 + 3 + 2)


def test_sweep_trains_batch_0_once_per_alpha(monkeypatch):
    # The config's alpha is one of the swept ones: the beta grid and the
    # baselines continue from the alpha sweep's batch-0 tree.
    config = make_config(alpha=1.0, n_runs=3)
    batch_0_alphas = []
    retrain = HARNESS_MODULE.retrain

    def counted_retrain(data, params, *args):
        if data.n_rows == config.batch_size:
            batch_0_alphas.append(params.alpha)
        return retrain(data, params, *args)

    monkeypatch.setattr(HARNESS_MODULE, "retrain", counted_retrain)
    sweep(config, alphas=[0.0, 1.0, 5.0], betas=[0.0, 1.0, 100.0])
    assert sorted(batch_0_alphas) == [0.0] * 3 + [1.0] * 3 + [5.0] * 3


@pytest.mark.parametrize(
    "alphas, betas",
    [([1.0, 1.0], []), ([0.0, -0.0], []), ([0.1, 0.1000001], []), ([], [2.0, 2.0]), ([1.0], [1e-7, 1.00000001e-7])],
    ids=["equal", "signed_zeros", "print_alike", "equal_betas", "betas_print_alike"],
)
def test_sweep_rejects_a_grid_with_equal_or_alike_printed_values(tmp_path, alphas, betas):
    # Equal values would count one cell's runs twice; values that print
    # alike would write their trees to one file name.
    with pytest.raises(ConfigError, match="alphas" if len(alphas) > 1 else "betas"):
        run_eval(make_config(), tmp_path / "exp", alphas=alphas, betas=betas)
    assert not (tmp_path / "exp").exists()


def test_beta_sweep_rejects_data_too_short_for_2_batches(tmp_path):
    # 50 rows hold one batch of 30: batch 1, which a beta sweep records, never comes.
    config = make_config(dataset=POOL.subset(np.arange(50)), n_batches=2, batch_size=30, test_size=20)
    with pytest.raises(ConfigError, match="beta sweep needs 2 batches.* 50 rows hold 1 of 30"):
        run_eval(config, tmp_path / "exp", betas=[1.0])
    assert not (tmp_path / "exp").exists()
    # An alpha sweep records batch 0 only, so it runs.
    with pytest.warns(UserWarning, match="supports only 1 of the requested 2 batches"):
        assert len(sweep(config, alphas=[1.0], betas=[])) == config.n_runs


def test_summary_ci_uses_the_test_rows_the_plan_holds(tmp_path):
    # 400 rows hold 10 batches of 30, leaving 100 rows for a test set of 1000.
    config = make_config(n_batches=10, batch_size=30, test_size=1000)
    with pytest.warns(UserWarning, match="test set"):
        run_eval(config, tmp_path / "exp")
    with open(tmp_path / "exp" / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        p = float(row["accuracy_mean"])
        assert 0.0 < p < 1.0  # so the 1000-row half-width differs
        assert float(row["accuracy_ci95"]) == accuracy_ci_halfwidth(p, 100)


def test_sweep_warns_once_per_run_when_the_data_runs_short():
    # 400 rows hold 13 batches of 30, leaving 10 rows for a test set of 60.
    config = make_config(n_runs=2, n_batches=20, batch_size=30, test_size=60)
    with pytest.warns(UserWarning) as caught:
        sweep(config, alphas=[1.0], betas=[1.0])
    messages = [str(w.message) for w in caught]
    assert sum("requested 20 batches" in m for m in messages) == 2
    assert sum("test set" in m for m in messages) == 2


def test_sweep_needs_values():
    with pytest.raises(ConfigError):
        sweep(make_config(), alphas=[], betas=[])


def test_run_eval_artifacts_and_rederivable_records(tmp_path):
    out = tmp_path / "exp"
    records = run_eval(make_config(), out)
    for name in ("results.csv", "summary.csv", "timings.csv", "manifest.json"):
        assert (out / name).exists()
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "dataset,algorithm,alpha,beta,run,batch,accuracy,nodes,delta,similarity,label"
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "dataset,algorithm,alpha,beta,run,batch,wall_time_ms"
    assert len(timings) == len(results)
    for timing, result in zip(timings[1:], results[1:]):
        cells = timing.split(",")
        assert cells[:6] == result.split(",")[:6]
        assert re.fullmatch(r"\d+\.\d{3}", cells[6])
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["growth"]) == {"max_depth"}
    # every record's delta/similarity re-derives from the archived trees
    from dataclasses import replace

    for r in records:
        if r.batch == 0:
            continue
        prev = load_tree(out / "trees" / archive_name(replace(r, batch=r.batch - 1)))
        new = load_tree(out / "trees" / archive_name(r))
        report = structural_diff(prev, new)
        assert (report.delta, report.similarity) == (r.delta, r.similarity)


@pytest.mark.parametrize("algorithm", ["keep_regrow", "retrain"])
def test_run_eval_predicts_again_only_under_changed_nodes(tmp_path, monkeypatch, algorithm):
    # Test rows predicted, per batch, in the order the batches run; the
    # updates' predictions on their training data are not counted.
    rows_predicted = []
    scoring = []  # set while the harness predicts its test rows
    predict_into = importlib.import_module("treekeep.tree")._predict_into
    repredict = HARNESS_MODULE.repredict

    def counted_predict_into(node, features, idx, out):
        if scoring:  # no index set stands for every row
            rows_predicted[-1] += len(out) if idx is None else idx.size
        predict_into(node, features, idx, out)

    def flagged_repredict(*args):  # the stream scores each record once
        rows_predicted.append(0)
        scoring.append(True)
        try:
            return repredict(*args)
        finally:
            scoring.pop()

    for module in ("treekeep.tree", "treekeep.loss"):
        monkeypatch.setattr(importlib.import_module(module), "_predict_into", counted_predict_into)
    monkeypatch.setattr(HARNESS_MODULE, "repredict", flagged_repredict)
    config = make_config(algorithm, alpha=0.5, n_runs=3, n_batches=5, batch_size=40, test_size=100)
    out = tmp_path / "exp"
    records = run_eval(config, out)
    assert len(rows_predicted) == len(records)
    unchanged = 0
    for r, rows in zip(records, rows_predicted):
        if r.batch == 0:
            assert rows == config.test_size
        elif r.delta == 0:
            assert rows == 0
            unchanged += 1
        else:
            assert rows <= config.test_size
        test = make_batch_plan(POOL, config.n_batches, config.batch_size, config.test_size, (config.seed, r.run)).test
        tree = load_tree(out / "trees" / archive_name(r))
        assert r.accuracy == 1.0 - misclassification_count(tree, test) / test.n_rows
    assert unchanged >= 4 and any(r.delta for r in records)


def test_result_tables_quote_cells_as_csv_does(tmp_path):
    # A line feed cannot reach a cell: ExperimentConfig rejects control characters in the name.
    out = tmp_path / "exp"
    run_eval(make_config(dataset_name='skin, v2 "rgb" subset'), out)
    for table in ("results.csv", "summary.csv", "timings.csv"):
        with open(out / table, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows)
        assert {row[header.index("dataset")] for row in rows} == {'skin, v2 "rgb" subset'}


def test_config_from_dict_synthetic_and_sweep():
    obj = {
        "dataset": {
            "name": "blobs",
            "synthetic": {
                "n_rows": 50,
                "n_features": 2,
                "rectangles": [{"lows": [0, 0], "highs": [0.5, 1], "label": 1}],
                "flip_noise": 0.1,
                "seed": 3,
            },
        },
        "algorithm": {"name": "keep_regrow", "alpha": 2, "beta": 0.5},
        "n_runs": 1,
        "n_batches": 2,
        "batch_size": 10,
        "test_size": 10,
        "seed": 1,
        "sweep": {"alphas": [1, 5], "betas": [0, 1]},
    }
    config, alphas, betas = config_from_dict(obj)
    assert config.dataset_name == "blobs"
    assert config.dataset.n_rows == 50
    assert config.algorithm.beta == 0.5
    assert alphas == [1.0, 5.0]
    assert betas == [0.0, 1.0]


def test_config_from_dict_builtin():
    config, alphas, betas = config_from_dict(
        {"dataset": {"builtin": "iris"}, "algorithm": {"name": "retrain"}, "n_runs": 1}
    )
    assert config.dataset.n_rows == 150
    assert alphas is None and betas is None


def test_config_unknown_algorithm_lists_valid_names():
    with pytest.raises(ConfigError, match="keep_regrow, retrain, keep_original"):
        config_from_dict({"dataset": {"builtin": "iris"}, "algorithm": {"name": "sgd"}})


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"dataset": {"builtin": "iris"}, "algorithm": {"name": "retrain"}, "bogus": 1})


@pytest.mark.parametrize(
    "section, key",
    [
        ({"algorithm": {"name": "keep_regrow", "alpah": 0.5}}, "alpah"),
        ({"growth": {"max_detph": 3}}, "max_detph"),
    ],
)
def test_config_unknown_keys_inside_sections_rejected(section, key):
    obj = {"dataset": {"builtin": "iris"}, "algorithm": {"name": "keep_regrow"}, **section}
    with pytest.raises(ConfigError, match=key):
        config_from_dict(obj)


IRIS = {"builtin": "iris"}
RETRAIN = {"name": "retrain"}


@pytest.mark.parametrize(
    "obj, match",
    [
        ([], "config document must be an object"),
        ({"dataset": IRIS}, "'algorithm' object"),
        ({"dataset": IRIS, "algorithm": "retrain"}, "'algorithm' object"),
        ({"dataset": "iris", "algorithm": RETRAIN}, "'dataset' must be an object"),
        ({"dataset": {"name": "iris"}, "algorithm": RETRAIN}, "dataset must specify one of"),
        ({"dataset": IRIS, "algorithm": RETRAIN, "sweep": {"gammas": [1]}}, "'sweep' takes only"),
        ({"dataset": IRIS, "algorithm": RETRAIN, "n_runs": 0}, "n_runs must be >= 1"),
        ({"dataset": IRIS, "algorithm": RETRAIN, "n_batches": 0}, "n_batches must be >= 1"),
        ({"dataset": IRIS, "algorithm": RETRAIN, "batch_size": 0}, "batch_size must be >= 1"),
        ({"dataset": IRIS, "algorithm": RETRAIN, "test_size": -1}, "test_size must be >= 0"),
        ({"dataset": {"path": "points.csv", "label_column": True}, "algorithm": RETRAIN}, "label_column"),
        ({"dataset": {"path": "points.csv", "label_column": 1.5}, "algorithm": RETRAIN}, "label_column"),
        ({"dataset": {"path": "points.csv", "label_column": None}, "algorithm": RETRAIN}, "label_column"),
        ({"dataset": {"builtin": "iris", "label_column": True}, "algorithm": RETRAIN}, "label_column"),
        ({"dataset": {"builtin": "iris", "label_column": 1.5}, "algorithm": RETRAIN}, "label_column"),
        ({"dataset": {"path": "points.csv", "label_column": 0, "has_header": 1}, "algorithm": RETRAIN}, "has_header"),
    ],
    ids=[
        "document_list",
        "no_algorithm",
        "algorithm_string",
        "dataset_string",
        "dataset_no_kind",
        "sweep_unknown_key",
        "n_runs_0",
        "n_batches_0",
        "batch_size_0",
        "test_size_negative",
        "path_label_column_bool",
        "path_label_column_float",
        "path_label_column_null",
        "builtin_label_column_bool",
        "builtin_label_column_float",
        "path_has_header_int",
    ],
)
def test_config_rejects_a_malformed_document(tmp_path, obj, match):
    (tmp_path / "points.csv").write_text("1,2,0\n3,4,1\n")
    with pytest.raises(ConfigError, match=match):
        config_from_dict(obj, str(tmp_path))


def test_config_omitted_keys_take_dataclass_defaults():
    config, _, _ = config_from_dict({"dataset": {"builtin": "iris"}, "algorithm": {"name": "retrain"}})
    assert config == ExperimentConfig(config.dataset, "iris", AlgorithmSpec("retrain"))
    assert config.growth == GrowthConfig()


def test_config_rectangle_missing_label_rejected():
    rectangle = {"lows": [0, 0], "highs": [0.5, 1]}
    obj = {
        "dataset": {"synthetic": {"n_rows": 20, "n_features": 2, "rectangles": [rectangle]}},
        "algorithm": {"name": "retrain"},
    }
    with pytest.raises(ConfigError, match="label"):
        config_from_dict(obj)


@pytest.mark.parametrize(
    "ref, key",
    [
        ({"builtin": "iris", "has_header": True}, "has_header"),
        ({"manifest": "rows.json", "name": "rows"}, "name"),
        ({"path": "points.csv", "label_column": 2, "sep": ";"}, "sep"),
        ({"synthetic": {"n_rows": 20, "n_features": 2}, "nmae": "blobs"}, "nmae"),
        ({"builtin": "iris", "path": "points.csv"}, "path"),
        (
            {
                "synthetic": {
                    "n_rows": 20,
                    "n_features": 2,
                    "rectangles": [{"lows": [0, 0], "highs": [0.5, 1], "label": 1, "lable": 3}],
                }
            },
            "lable",
        ),
    ],
    ids=["builtin", "manifest", "path", "synthetic", "two_kinds", "rectangle"],
)
def test_config_dataset_ref_unknown_key_rejected(ref, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict({"dataset": ref, "algorithm": {"name": "retrain"}})


def test_config_dataset_ref_accepts_every_key_of_its_kind(tmp_path):
    (tmp_path / "points.csv").write_text("x,y,target\n1,2,yes\n3,4,no\n")
    refs = [
        {"builtin": "iris", "label_column": "species"},
        {"path": "points.csv", "label_column": "target", "has_header": True, "name": "pts"},
        {"synthetic": {"n_rows": 20, "n_features": 2}, "name": "blobs"},
    ]
    for ref, name in zip(refs, ["iris", "pts", "blobs"]):
        obj = {"dataset": ref, "algorithm": {"name": "retrain"}}
        config, _, _ = config_from_dict(obj, str(tmp_path))
        assert config.dataset_name == name


@pytest.mark.parametrize("grids", [None, ([0, 1], [0, 1])], ids=["stream", "sweep"])
def test_manifest_tree_files_are_the_archived_trees(tmp_path, grids):
    out = tmp_path / "exp"
    run_eval(make_config(), out, *(grids or ()))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tree_files"] == sorted(p.name for p in (out / "trees").iterdir())


def test_manifest_tree_files_skip_earlier_runs_in_the_same_dir(tmp_path):
    out = tmp_path / "exp"
    run_eval(make_config(n_runs=2), out)
    run_eval(make_config(n_runs=1), out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_records"] == 3
    assert len(list((out / "trees").iterdir())) == 6
    expected = sorted(archive_name(r) for r in run_experiment(make_config(n_runs=1)))
    assert manifest["tree_files"] == expected


def test_config_needs_dataset():
    with pytest.raises(ConfigError, match="dataset"):
        config_from_dict({"algorithm": {"name": "retrain"}})


def test_config_dataset_path_defaults_name_to_stem(tmp_path):
    (tmp_path / "points.csv").write_text("x,y,target\n1,2,yes\n3,4,no\n5,6,yes\n")
    config, _, _ = config_from_dict(
        {
            "dataset": {"path": "points.csv", "label_column": "target", "has_header": True},
            "algorithm": {"name": "retrain"},
        },
        str(tmp_path),
    )
    assert config.dataset_name == "points"
    assert config.dataset.n_rows == 3
    assert config.dataset.label_names == ("no", "yes")


def test_config_dataset_manifest(tmp_path):
    (tmp_path / "rows.txt").write_text("1.0 2.0 0\n3.0 4.0 1\n")
    manifest = {"name": "rows", "url": "https://example.org/rows", "file": "rows.txt", "label_column": 2}
    (tmp_path / "rows.json").write_text(json.dumps(manifest))
    config, _, _ = config_from_dict(
        {"dataset": {"manifest": "rows.json"}, "algorithm": {"name": "retrain"}}, str(tmp_path)
    )
    assert config.dataset_name == "rows"
    assert config.dataset.n_rows == 2


def test_config_dataset_path_needs_label_column():
    with pytest.raises(ConfigError, match="label_column"):
        config_from_dict({"dataset": {"path": "points.csv"}, "algorithm": {"name": "retrain"}})
