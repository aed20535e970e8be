"""The benchmark's three workloads, driven only through treekeep's public API.

Each workload owns its inputs: every dataset is generated from the workload
seed, and no file of the repository is read.  A run holds a fixed number of
instances (``Scale.instances``), each with inputs seeded by ``(seed, k)``,
so quality numbers depend on the seed alone and not on how many timing
repetitions the time budget allowed.

An instance has an untimed ``prepare`` step (the previous tree, CSV files)
and two timed paths: ``update`` (keep-regrow) and ``retrain`` (from
scratch, on the same data).  Each step returns the digests of everything it
produced, so a changed tree or table is caught, and the quality numbers of
the update path.  Only the call into treekeep is timed (``elapsed``), not
the benchmark's own digesting and scoring.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


class OperationFailed(Exception):
    """A path finished but its output is wrong (e.g. a non-zero CLI exit)."""


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; ``smoke`` shrinks them for the self-test."""

    instances: int
    pool_rows: int = 0
    n_batches: int = 0
    batch_size: int = 0
    test_rows: int = 0
    first_rows: int = 0
    update_rows: int = 0


def skin_like(tk, n_rows):
    """The acceptance suite's SKIN_LIKE stand-in (3 features, 2 classes)."""
    return tk.SyntheticSpec(
        n_rows=n_rows,
        n_features=3,
        rectangles=(
            tk.Rectangle((0.0, 0.0, 0.0), (0.42, 1.0, 1.0), 1),
            tk.Rectangle((0.0, 0.0, 0.55), (1.0, 0.28, 1.0), 1),
        ),
        background_label=0,
        flip_noise=0.06,
        n_classes=2,
    )


def _box(lows, highs, n_features=8):
    lo = list(lows) + [0.0] * (n_features - len(lows))
    hi = list(highs) + [1.0] * (n_features - len(highs))
    return tuple(lo), tuple(hi)


def eight_feature(tk, n_rows):
    """An 8-feature, 3-class rule set with 5% label noise for the CLI files."""
    rect = tk.Rectangle
    return tk.SyntheticSpec(
        n_rows=n_rows,
        n_features=8,
        rectangles=(
            rect(*_box((0.0, 0.0), (0.35, 0.6)), 1),
            rect(*_box((0.5, 0.0, 0.0, 0.0), (1.0, 1.0, 0.3, 0.7)), 2),
            rect(*_box((0.0, 0.6, 0.0, 0.0, 0.4), (0.5, 1.0, 1.0, 1.0, 1.0)), 2),
            rect(*_box((0.6, 0.0, 0.5, 0.0, 0.0, 0.2), (1.0, 0.45, 1.0, 1.0, 1.0, 0.9)), 1),
        ),
        background_label=0,
        flip_noise=0.05,
        n_classes=3,
    )


def accuracy(tk, tree, data) -> float:
    return 1.0 - tk.misclassification_count(tree, data) / data.n_rows


class Workload:
    name = ""
    scales: dict = {}

    def __init__(self, tk, seed: int, scale: Scale, work_dir: str):
        self.tk = tk
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.prepared: dict = {}  # what ``prepare`` made, by instance
        self.elapsed = 0.0  # seconds spent in treekeep by the last step
        self.tracer = None  # set for the traced pass; records inside ``timed`` only

    def timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False

    def build(self, k: int):
        """The Dataset objects of instance ``k`` (timed as set-up)."""
        raise NotImplementedError

    def prepare(self, k: int, data):
        """Untimed per-instance work: (digests, None)."""
        return {}, None

    def update(self, k: int, data):
        """Keep-regrow path: (digests, {"accuracy": ..., "changed_nodes": ...})."""
        raise NotImplementedError

    def retrain(self, k: int, data):
        """Retrain path on the update's data: (digests, None)."""
        raise NotImplementedError


class Stream(Workload):
    """The criterion-7 batch stream through the harness, writers included."""

    name = "stream"
    scales = {
        "full": Scale(instances=1, pool_rows=245057, n_batches=10, batch_size=1000, test_rows=100000),
        "smoke": Scale(instances=1, pool_rows=3000, n_batches=3, batch_size=100, test_rows=500),
    }

    def build(self, k):
        tk, s = self.tk, self.scale
        pool = tk.synthetic(skin_like(tk, s.pool_rows), (self.seed, k))
        # The plan run_eval draws for run 0, kept to re-score the last tree.
        plan = tk.make_batch_plan(pool, s.n_batches, s.batch_size, s.test_rows, (self._config_seed(k), 0))
        return pool, plan.test

    def _config_seed(self, k):
        return self.seed * 100 + k

    def _eval(self, k, data, algorithm, beta):
        tk, s = self.tk, self.scale
        pool, _ = data
        config = tk.ExperimentConfig(
            dataset=pool,
            dataset_name="skin-like",
            algorithm=tk.AlgorithmSpec(algorithm, 5.0, beta),
            n_runs=1,
            n_batches=s.n_batches,
            batch_size=s.batch_size,
            test_size=s.test_rows,
            seed=self._config_seed(k),
        )
        out_dir = os.path.join(self.work_dir, f"{self.name}{k}_{algorithm}")
        try:
            records = self.timed(tk.run_eval, config, out_dir)
            digests = {
                f"i{k}.{algorithm}.{name}": file_sha256(os.path.join(out_dir, name))
                for name in ("results.csv", "summary.csv")
            }
            trees_dir = os.path.join(out_dir, "trees")
            names = sorted(os.listdir(trees_dir))  # the last one is the final batch's tree
            for name in names:
                digests[f"i{k}.{algorithm}.{name}"] = file_sha256(os.path.join(trees_dir, name))
            last = tk.load_tree(os.path.join(trees_dir, names[-1]))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return records, digests, last

    def update(self, k, data):
        records, digests, last = self._eval(k, data, "keep_regrow", 1.0)
        _, test = data
        if records[-1].accuracy != accuracy(self.tk, last, test):
            raise OperationFailed("results.csv accuracy does not match the archived tree")
        quality = {
            "accuracy": sum(r.accuracy for r in records) / len(records),
            "changed_nodes": sum(r.delta for r in records if r.delta is not None),
        }
        return digests, quality

    def retrain(self, k, data):
        return self._eval(k, data, "retrain", 0.0)[1], None


class Deep(Workload):
    """One alpha=0 update over a large previous tree: the keep/regrow recursion."""

    name = "deep"
    scales = {
        "full": Scale(instances=3, pool_rows=245057, batch_size=5000, test_rows=100000),
        "smoke": Scale(instances=1, pool_rows=2000, batch_size=200, test_rows=500),
    }

    def build(self, k):
        tk, s = self.tk, self.scale
        pool = tk.synthetic(skin_like(tk, s.pool_rows), (self.seed, k))
        plan = tk.make_batch_plan(pool, 2, s.batch_size, s.test_rows, (self.seed, k))
        # The previous tree sees the first batch, the update both.
        return plan.cumulative(0), plan.cumulative(1), plan.test

    def prepare(self, k, data):
        first, _, _ = data
        self.prepared[k] = prev = self.tk.retrain(first, self.tk.LossParams(0.0, 1.0))
        return {f"i{k}.prev": sha256(self.tk.serialize(prev))}, None

    def update(self, k, data):
        tk = self.tk
        _, full, test = data
        prev = self.prepared[k]
        params = tk.LossParams(0.0, 1.0)
        new = self.timed(tk.update, prev, full, params)
        if tk.loss(prev, new, full, params).total > tk.loss(prev, prev, full, params).total:
            raise OperationFailed("update lost to keeping the previous tree")
        quality = {"accuracy": accuracy(tk, new, test), "changed_nodes": tk.change_count(prev, new)}
        return {f"i{k}.update": sha256(tk.serialize(new))}, quality

    def retrain(self, k, data):
        tk = self.tk
        _, full, _ = data
        tree = self.timed(tk.retrain, full, tk.LossParams(0.0, 1.0))
        return {f"i{k}.retrain": sha256(tk.serialize(tree))}, None


def write_csv(path, data, rows):
    """Write rows of a Dataset as a headed CSV with string class labels."""
    features = data.features[rows].tolist()
    labels = data.labels[rows].tolist()
    n_features = data.n_features
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j}" for j in range(n_features)] + ["label"]) + "\n")
        for row, label in zip(features, labels):
            fh.write(",".join(map(repr, row)) + f",c{label}\n")


class Cli(Workload):
    """In-process ``treekeep.cli.main``: CSV parsing and tree file round trips."""

    name = "cli"
    scales = {
        "full": Scale(instances=1, first_rows=16000, update_rows=24000, test_rows=20000),
        "smoke": Scale(instances=1, first_rows=300, update_rows=450, test_rows=300),
    }

    def build(self, k):
        tk, s = self.tk, self.scale
        data = tk.synthetic(eight_feature(tk, s.update_rows + s.test_rows), (self.seed, k))
        return data, data.subset(np.arange(s.update_rows, s.update_rows + s.test_rows))

    def _path(self, k, name):
        return os.path.join(self.work_dir, f"{self.name}{k}_{name}")

    def _run(self, argv):
        """Run one CLI command in-process with the workload's common flags."""
        argv = argv[:1] + ["--label-col", "label", "--has-header", "--alpha", "5"] + argv[1:]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.timed(sys.modules["treekeep.cli"].main, argv)
        if code != 0:
            raise OperationFailed(f"treekeep {argv[0]} exited with {code}")

    def prepare(self, k, data):
        full, _ = data
        s = self.scale
        write_csv(self._path(k, "first.csv"), full, np.arange(s.first_rows))
        write_csv(self._path(k, "cumulative.csv"), full, np.arange(s.update_rows))
        self._run(["grow", "--data", self._path(k, "first.csv"), "--out", self._path(k, "t0.json")])
        return {f"i{k}.t0": file_sha256(self._path(k, "t0.json"))}, None

    def update(self, k, data):
        tk = self.tk
        _, test = data
        self._run(["update", "--prev-tree", self._path(k, "t0.json"), "--beta", "1",
                   "--data", self._path(k, "cumulative.csv"), "--out", self._path(k, "t1.json"),
                   "--dot-out", self._path(k, "t1.dot")])
        prev = tk.load_tree(self._path(k, "t0.json"))
        new = tk.load_tree(self._path(k, "t1.json"))
        quality = {"accuracy": accuracy(tk, new, test), "changed_nodes": tk.change_count(prev, new)}
        return {f"i{k}.update": file_sha256(self._path(k, "t1.json"))}, quality

    def retrain(self, k, data):
        self._run(["grow", "--data", self._path(k, "cumulative.csv"), "--out", self._path(k, "t2.json")])
        return {f"i{k}.retrain": file_sha256(self._path(k, "t2.json"))}, None


WORKLOADS = {w.name: w for w in (Stream, Deep, Cli)}
