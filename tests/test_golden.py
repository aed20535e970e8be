"""Golden-output check: `eval` and `update` write the same bytes as recorded.

The files under tests/golden/ were written by ``build`` below and are
compared byte for byte.  Regenerate them (``python tests/test_golden.py``)
only in a change that alters trees on purpose and says so.
"""

import json
import os
import sys
from pathlib import Path

from treekeep.cli import main
from treekeep.data import builtin_dataset_path, load_csv, make_batch_plan
from treekeep.harness import DEMO_SEED

GOLDEN = Path(__file__).parent / "golden"

# The acceptance suite's criterion-9 config.
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
SWEEP_CONFIG = dict(EVAL_CONFIG, sweep={"alphas": [0, 1, 5], "betas": [0, 1, 100]})


def _eval(config, work: Path, out: Path) -> None:
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["eval", "--config", str(config_path), "--out-dir", str(work / "out")]) == 0
    out.mkdir(parents=True)
    for name in ("results.csv", "summary.csv"):
        os.replace(work / "out" / name, out / name)
    os.replace(work / "out" / "trees", out / "trees")


def _update(work: Path, out: Path) -> None:
    """Grow on the 15-row iris sample, then update on full iris (alpha=1, beta=1)."""
    iris_path = builtin_dataset_path("iris")
    iris = load_csv(iris_path, "species", has_header=True)
    sample = make_batch_plan(iris, 1, 15, 0, DEMO_SEED).batch(0)
    sample_path = work / "iris_sample.csv"
    with open(sample_path, "w") as fh:
        fh.write("sepal_length,sepal_width,petal_length,petal_width,species\n")
        for row, label in zip(sample.features, sample.labels):
            cells = [repr(float(v)) for v in row] + [sample.label_names[label]]
            fh.write(",".join(cells) + "\n")
    first = work / "t0.json"
    common = ["--label-col", "species", "--has-header", "--alpha", "1"]
    assert main(["grow", "--data", str(sample_path), *common, "--out", str(first)]) == 0
    out.mkdir(parents=True)
    rc = main(
        ["update", "--prev-tree", str(first), "--data", iris_path, *common, "--beta", "1",
         "--out", str(work / "t1.json"), "--diff-out", str(out / "diff.tsv"),
         "--dot-out", str(out / "diff.dot")]
    )
    assert rc == 0


def build(root: Path) -> None:
    """Write every golden file under ``root``."""
    for name, config in (("eval", EVAL_CONFIG), ("sweep", SWEEP_CONFIG)):
        work = root / "work" / name
        work.mkdir(parents=True)
        _eval(config, work, root / name)
    work = root / "work" / "update"
    work.mkdir(parents=True)
    _update(work, root / "update")


def _files(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_outputs_match_golden(tmp_path):
    build(tmp_path)
    expected = _files(GOLDEN)
    actual = {k: v for k, v in _files(tmp_path).items() if not k.startswith("work/")}
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], f"{name} differs from tests/golden/{name}"


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        build(Path(tmp))
        shutil.rmtree(Path(tmp) / "work")
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(tmp, GOLDEN)
    print(f"wrote {len(_files(GOLDEN))} files under {GOLDEN}", file=sys.stderr)
