"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The desk-scale benchmark prefers the real skin-segmentation file when it has
been downloaded next to manifests/skin.json and otherwise falls back to a
synthetic stand-in with the same shape (3 features, binary labels, mild
noise), since the suite must run offline.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from conftest import iris_walkthrough, mutate_tree, random_dataset, random_tree
from treekeep import (
    GrowthConfig,
    Leaf,
    LossParams,
    Split,
    change_count,
    loss,
    misclassification_count,
    node_count,
    structural_diff,
    update,
)
from treekeep.data import (
    Rectangle,
    SyntheticSpec,
    builtin_dataset_path,
    dataset_from_manifest,
    load_csv,
    load_manifest,
    synthetic,
)
from treekeep.grow import grow
from treekeep.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    run_eval,
    summarize,
)
from treekeep.prune import prune

MANIFEST_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "manifests")


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1 -------------------------------------------------------------


def enumerate_prunings(node, data, parent_mode):
    """Every terminate/keep choice per node; terminate takes the partition
    mode (parent mode on an empty partition)."""
    if data.n_rows == 0:
        return [Leaf(parent_mode)]
    mode = int(np.argmax(np.bincount(data.labels, minlength=data.n_classes)))
    variants = [Leaf(mode)]
    if isinstance(node, Split):
        left_data, right_data = data.partition(node.feature, node.threshold)
        for left in enumerate_prunings(node.left, left_data, mode):
            for right in enumerate_prunings(node.right, right_data, mode):
                variants.append(Split(node.feature, node.threshold, left, right))
    return variants


def test_criterion_1_prune_optimality():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    shallow = GrowthConfig(max_depth=3)
    for case in range(100):
        data = random_dataset(rng, max_rows=64)
        tree = grow(data, shallow) if rng.random() < 0.5 else random_tree(rng, max_depth=3)
        params = LossParams(float(rng.choice([0.0, 0.5, 1.0, 5.0])), float(rng.choice([0.0, 1.0])))
        pruned = prune(tree, data, params)
        achieved = loss(None, pruned, data, params).total
        best = min(
            loss(None, variant, data, params).total
            for variant in enumerate_prunings(tree, data, 0)
        )
        assert achieved == best, f"case {case}: {achieved} != optimal {best}"
    elapsed = time.perf_counter() - started
    report(1, elapsed < 60.0, f"prune optimal on 100 enumerated cases in {elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_beta_extreme_identity():
    rng = np.random.default_rng(102)
    for case in range(50):
        data = random_dataset(rng, max_rows=64)
        prev = grow(random_dataset(rng, max_rows=64)) if rng.random() < 0.5 else random_tree(rng)
        alpha = float(rng.choice([0.0, 0.5, 1.0, 5.0]))
        beta = data.n_rows + alpha * node_count(prev) + 1
        out = update(prev, data, LossParams(alpha, beta))
        assert out == prev, f"case {case}: tree was modified"
        assert change_count(prev, out) == 0
        assert structural_diff(prev, out).similarity == 1.0
    report(2, True, "update returned prev exactly for 50 overwhelming-beta cases")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_root_dominance():
    rng = np.random.default_rng(103)
    for case in range(100):
        data = random_dataset(rng, max_rows=64)
        prev = grow(random_dataset(rng, max_rows=64)) if rng.random() < 0.5 else random_tree(rng)
        alpha = float(rng.choice([0.0, 0.5, 1.0, 5.0, rng.uniform(0.0, 3.0)]))
        beta = float(rng.choice([0.0, 0.5, 1.0, 5.0, rng.uniform(0.0, 3.0)]))
        params = LossParams(alpha, beta)
        out_loss = loss(prev, update(prev, data, params), data, params).total
        keep_loss = loss(prev, prev, data, params).total
        regrow_loss = loss(prev, prune(grow(data), data, params), data, params).total
        assert out_loss <= min(keep_loss, regrow_loss), f"case {case}"
    report(3, True, "update never lost to keep-original or regrow-at-root in 100 cases")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_alpha_monotonicity():
    rng = np.random.default_rng(104)
    alphas = (0.0, 1.0, 2.0, 5.0, 10.0, 100.0)
    for case in range(20):
        data = random_dataset(rng, n_rows=int(rng.integers(50, 200)))
        grown = grow(data)
        for beta in (0.0, 1.0):
            sizes = [node_count(prune(grown, data, LossParams(a, beta))) for a in alphas]
            assert sizes == sorted(sizes, reverse=True), f"case {case}, beta={beta}: {sizes}"
    report(4, True, "pruned size non-increasing over alpha grid for 20 grown trees")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_delta_agreement():
    rng = np.random.default_rng(105)
    for case in range(1000):
        prev = random_tree(rng)
        new = mutate_tree(rng, prev) if case % 2 else random_tree(rng)
        assert structural_diff(prev, new).delta == change_count(prev, new), f"case {case}"
    report(5, True, "change_count and structural_diff agree on 1000 random pairs")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_iris_demo(tmp_path):
    # the README's CLI walkthrough: grow on a tenth of iris, update on all of it
    started = time.perf_counter()
    initial, updated = iris_walkthrough(tmp_path)
    elapsed = time.perf_counter() - started
    iris = load_csv(builtin_dataset_path("iris"), "species", has_header=True)
    assert isinstance(initial, Split) and isinstance(updated, Split)
    root_kept = (initial.feature, initial.threshold) == (updated.feature, updated.threshold)
    assert root_kept, "root split was not preserved"
    delta = structural_diff(initial, updated).delta
    assert 0 < delta < node_count(updated)
    before = misclassification_count(initial, iris)
    after = misclassification_count(updated, iris)
    assert after <= before
    assert elapsed < 5.0
    report(6, True, f"root kept, delta={delta}, misclassified {before}->{after} in {elapsed:.2f}s")


# -- criterion 7 -------------------------------------------------------------

SKIN_LIKE = SyntheticSpec(
    n_rows=245057,  # same pool size as the real skin-segmentation file
    n_features=3,
    rectangles=(
        Rectangle((0.0, 0.0, 0.0), (0.42, 1.0, 1.0), 1),
        Rectangle((0.0, 0.0, 0.55), (1.0, 0.28, 1.0), 1),
    ),
    background_label=0,
    flip_noise=0.06,
    n_classes=2,
)


def load_skin_or_standin():
    manifest_path = os.path.join(MANIFEST_DIR, "skin.json")
    if os.path.exists(manifest_path):
        manifest = load_manifest(manifest_path)
        if os.path.exists(manifest.local_path()):
            return manifest.name, dataset_from_manifest(manifest)
    return "skin-like-synthetic", synthetic(SKIN_LIKE, seed=2024)


def test_criterion_7_desk_scale_benchmark(tmp_path):
    name, pool = load_skin_or_standin()
    means = {}
    for algo, beta in (("keep_regrow", 1.0), ("retrain", 0.0)):
        config = ExperimentConfig(
            dataset=pool,
            dataset_name=name,
            algorithm=AlgorithmSpec(algo, 5.0, beta),
            n_runs=5,
            n_batches=10,
            batch_size=1000,
            test_size=100000,
            seed=7,
        )
        records = run_eval(config, tmp_path / algo)
        assert len(records) == 5 * 10
        accuracy = float(np.mean([r.accuracy for r in records]))
        sim = float(np.mean([r.similarity for r in records if r.similarity is not None]))
        means[algo] = (accuracy, sim)
    acc_gap = abs(means["keep_regrow"][0] - means["retrain"][0])
    sim_edge = means["keep_regrow"][1] - means["retrain"][1]
    assert acc_gap <= 0.01, f"accuracy gap {acc_gap:.4f} exceeds one percentage point"
    assert sim_edge > 0.0, "keep_regrow similarity did not exceed retrain"
    report(
        7,
        True,
        f"{name}: accuracy gap {acc_gap * 100:.2f}pp, "
        f"similarity {means['keep_regrow'][1]:.3f} vs {means['retrain'][1]:.3f}",
    )


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_ci_arithmetic():
    from test_harness import fabricated_record

    rows = summarize([fabricated_record(0.5)], test_size=100000)
    half_width = rows[0].accuracy_ci95
    assert round(half_width, 4) == 0.0031
    report(8, True, f"CI half-width {half_width:.6f} rounds to 0.0031 at p=0.5, n=100000")


# -- criterion 9 -------------------------------------------------------------

EVAL_CONFIG = {
    "dataset": {
        "name": "blobs",
        "synthetic": {
            "n_rows": 400,
            "n_features": 2,
            "rectangles": [{"lows": [0, 0], "highs": [0.5, 1], "label": 1}],
            "flip_noise": 0.1,
            "seed": 9,
        },
    },
    "algorithm": {"name": "keep_regrow", "alpha": 1, "beta": 1},
    "n_runs": 2,
    "n_batches": 3,
    "batch_size": 30,
    "test_size": 60,
    "seed": 2,
}


def test_criterion_9_eval_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(EVAL_CONFIG))
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "treekeep.cli",
                "eval",
                "--config",
                str(config_path),
                "--out-dir",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (
                (out_dir / "results.csv").read_bytes(),
                (out_dir / "summary.csv").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1], "result tables differ between identical runs"
    report(9, True, "two eval runs produced byte-identical results.csv and summary.csv")
