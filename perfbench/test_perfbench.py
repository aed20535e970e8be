"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric of BENCHMARK.json is printed with its unit, that a
tree with one nudged threshold counts as a failed operation, that the traced
self times fit inside the traced wall time, and that the benchmark refuses
to run without the treekeep sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

WORKLOADS = sorted(run.WORKLOADS)
SEED = 5


def bench(tmp_dir, *args, timeout=120):
    return subprocess.run(
        [sys.executable, os.path.join(tmp_dir, "perfbench", "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=tmp_dir,
    )


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    proc = bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared(kind)
    lines = proc.stdout.splitlines()
    for name, entry in result["metrics"].items():
        assert f"{name} = {entry['value']!r} {entry['unit']}" in lines


def nudge_first_threshold(tree):
    """The tree with its first split (preorder) moved to the next float up."""
    tk = sys.modules["treekeep"]
    if isinstance(tree, tk.Split):
        return tk.Split(tree.feature, float(np.nextafter(tree.threshold, np.inf)), tree.left, tree.right)
    raise AssertionError("the update produced a bare leaf; nothing to nudge")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_nudged_threshold_counts_as_failure(workload, monkeypatch):
    clean = run.run_workload(workload, SEED, 0, 0, smoke=True)
    assert clean["correct"], clean["problems"]
    original_set_up = run.set_up

    def set_up_with_fault(*args):
        workload_obj, inputs, setup_s = original_set_up(*args)
        tk = sys.modules["treekeep"]
        update = tk.update

        def nudged_update(*call_args, **kwargs):
            return nudge_first_threshold(update(*call_args, **kwargs))

        for module in ("treekeep", "treekeep.harness", "treekeep.cli"):
            monkeypatch.setattr(sys.modules[module], "update", nudged_update)
        return workload_obj, inputs, setup_s

    monkeypatch.setattr(run, "set_up", set_up_with_fault)
    faulty = run.run_workload(workload, SEED, 0, 0, smoke=True, reference=clean["digests"])
    assert not faulty["correct"]
    assert faulty["failed"] >= 1
    # deep's loss check may catch the nudge before its digest does
    assert any(p.startswith("i0.update: ") for p in faulty["problems"])
    assert not any("nothing to nudge" in p for p in faulty["problems"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_wall_time(workload):
    result = run.run_workload(workload, SEED, 0, 1, smoke=True)
    assert result["correct"], result["problems"]
    layers = {name: entry["value"] for name, entry in result["metrics"].items()}
    span_self = sum(layers[f"{span}.s"] for span in run.SPANS)
    assert span_self == pytest.approx(layers["trace.self_s"])
    assert 0.0 < span_self <= layers["trace.wall_s"]
    assert all(layers[f"{span}.s"] >= 0.0 for span in run.SPANS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "--workload", "deep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
