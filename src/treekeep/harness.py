"""Batch-stream experiment harness.

Protocol per run: shuffle the source data into disjoint batches plus a fixed
held-out test set, train the initial tree on batch 0, then for each later
batch apply the configured algorithm to the cumulative training data and
record test accuracy, node count, change count against the previous tree,
and partial-match similarity.  Runs derive their seeds from (base seed, run
index), so a config reproduces its result tables byte for byte; wall times
go to a separate timings file to keep the tables deterministic.

The retrain and keep-original baselines correspond to the conventional
beta=-100 / beta=100 sweep endpoints and are tagged that way in the output.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import unicodedata
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .data import (
    Dataset,
    SyntheticSpec,
    Rectangle,
    _data_ref,
    builtin_dataset_path,
    dataset_from_manifest,
    load_csv,
    load_manifest,
    make_batch_plan,
    synthetic,
)
from .diff import structural_diff
from .errors import ConfigError
from .grow import GrowthConfig
from .loss import LossParams, repredict
from .tree import Tree, node_count, predict, save_tree
from .update import retrain, update

__all__ = [
    "VALID_ALGORITHMS",
    "AlgorithmSpec",
    "ExperimentConfig",
    "RunRecord",
    "SummaryRow",
    "summarize",
    "accuracy_ci_halfwidth",
    "run_eval",
    "config_from_dict",
]

VALID_ALGORITHMS = ("keep_regrow", "retrain", "keep_original")

_BASELINE_LABELS = {"retrain": "beta=-100", "keep_original": "beta=100"}


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which updater to run. alpha always applies (the initial tree needs it);
    beta only matters for keep_regrow."""

    name: str
    alpha: float = 5.0
    beta: float = 1.0

    def __post_init__(self):
        if self.name not in VALID_ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.name!r}; valid names: {', '.join(VALID_ALGORITHMS)}"
            )
        LossParams(self.alpha, self.beta)  # range check


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Dataset
    dataset_name: str
    algorithm: AlgorithmSpec
    n_runs: int = 12
    n_batches: int = 10
    batch_size: int = 1000
    test_size: int = 100000
    seed: int = 0
    growth: GrowthConfig = field(default_factory=GrowthConfig)

    def __post_init__(self):
        for key, low in (("n_runs", 1), ("n_batches", 1), ("batch_size", 1), ("test_size", 0), ("seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}")
        if self.dataset.n_rows < self.batch_size:
            raise ConfigError(f"batch_size {self.batch_size} is more than the dataset's {self.dataset.n_rows} rows")
        # A control character such as a carriage return would split a row of the result tables.
        if any(unicodedata.category(c) == "Cc" for c in str(self.dataset_name)):
            raise ConfigError(f"dataset name {self.dataset_name!r} holds a control character")


@dataclass(frozen=True)
class RunRecord:
    dataset: str
    algorithm: str
    alpha: float
    beta: Optional[float]  # None for the baselines
    run: int
    batch: int
    accuracy: Optional[float]  # None when the test set is empty
    nodes: int
    delta: Optional[int]  # None at batch 0 (no previous tree)
    similarity: Optional[float]
    wall_time_ms: float

    @property
    def label(self) -> str:
        return _BASELINE_LABELS.get(self.algorithm, "")


def _row_order(row) -> tuple:
    """Canonical row order; a baseline's beta (None) sorts first, summary rows have no run."""
    beta = -math.inf if row.beta is None else row.beta
    return (row.dataset, row.algorithm, row.alpha, beta, getattr(row, "run", 0), row.batch)


def _train_step(algorithm: AlgorithmSpec, prev: Optional[Tree], train: Dataset, growth: GrowthConfig) -> Tree:
    if algorithm.name == "keep_regrow":
        return update(prev, train, LossParams(algorithm.alpha, algorithm.beta), growth)
    if algorithm.name == "retrain":
        return retrain(train, LossParams(algorithm.alpha, 0.0), growth)
    return prev  # keep_original: zero changes, zero learning


def archive_name(record: RunRecord) -> str:
    beta = "none" if record.beta is None else f"{record.beta:g}"
    return (
        f"{record.algorithm}_a{record.alpha:g}_b{beta}"
        f"_r{record.run:02d}_t{record.batch:02d}.json"
    )


def _timed(step, *args):
    """``step(*args)`` and its wall time in milliseconds."""
    started = time.perf_counter()
    result = step(*args)
    return result, (time.perf_counter() - started) * 1000.0


def _run_tracks(
    config: ExperimentConfig, tracks: Sequence[tuple[AlgorithmSpec, range]], archive_dir: str
) -> tuple[list[RunRecord], int, set[str]]:
    """Every run of ``tracks``, canonically sorted, the rows each run's test
    set holds, and the names of the tree files saved under ``archive_dir``.

    A track is an algorithm and the batches it records; it steps from batch
    0 to the last of them, or to the plan's last batch if the data runs
    short.  Each run draws its plan once and trains its batch-0 tree (a
    retrain) once per alpha; every track at that alpha continues from it.
    """
    records, saved = [], set()
    for run in range(config.n_runs):
        # The batches and test set depend on the dataset, the sizes and (seed, run) only.
        plan = make_batch_plan(
            config.dataset, config.n_batches, config.batch_size, config.test_size, (config.seed, run)
        )
        test = plan.test
        roots = {}  # alpha -> (batch-0 tree, its wall time)
        for algorithm, recorded in tracks:
            if algorithm.alpha not in roots:
                params = LossParams(algorithm.alpha, 0.0)
                roots[algorithm.alpha] = _timed(retrain, plan.cumulative(0), params, config.growth)
            tree, elapsed_ms = roots[algorithm.alpha]
            # Predicted per track, not kept with the root: a stream then holds
            # at most two arrays of test classes at once.
            pred = predict(tree, test.features) if test.n_rows else None
            delta = sim = None
            for t in range(min(recorded.stop, plan.n_batches)):
                if t > 0:
                    prev = tree
                    tree, elapsed_ms = _timed(_train_step, algorithm, prev, plan.cumulative(t), config.growth)
                    report = structural_diff(prev, tree)
                    delta, sim = report.delta, report.similarity
                    if pred is not None:
                        # Rows that reach no changed node keep the previous tree's class.
                        pred = repredict(prev, tree, test.features, pred)
                record = RunRecord(
                    dataset=config.dataset_name,
                    algorithm=algorithm.name,
                    alpha=algorithm.alpha,
                    beta=algorithm.beta if algorithm.name == "keep_regrow" else None,
                    run=run,
                    batch=t,
                    accuracy=None if pred is None else 1.0 - int(np.sum(pred != test.labels)) / test.n_rows,
                    nodes=node_count(tree),
                    delta=delta,
                    similarity=sim,
                    wall_time_ms=elapsed_ms,
                )
                name = archive_name(record)
                save_tree(tree, os.path.join(archive_dir, name))
                saved.add(name)
                if t in recorded:
                    records.append(record)
    records.sort(key=_row_order)
    return records, test.n_rows, saved


def _sweep_tracks(
    config: ExperimentConfig, alphas: Sequence[float], betas: Sequence[float]
) -> list[tuple[AlgorithmSpec, range]]:
    """A sweep's tracks: batch 0 at each alpha, then batch 1 at each beta and of each baseline."""
    if not alphas and not betas:
        raise ConfigError("sweep needs at least one alpha or beta value")
    full = config.dataset.n_rows // config.batch_size  # full batches, as make_batch_plan counts them
    if betas and min(config.n_batches, full) < 2:
        raise ConfigError(
            f"a beta sweep needs 2 batches: n_batches is {config.n_batches}, and "
            f"{config.dataset.n_rows} rows hold {full} of {config.batch_size}"
        )
    for name, grid in (("alphas", alphas), ("betas", betas)):
        # Equal values would count as one cell's runs twice over; values that
        # print alike would write one tree file name.
        if len(set(grid)) < len(grid) or len({f"{v:g}" for v in grid}) < len(grid):
            raise ConfigError(f"sweep {name} must differ and print differently (as with %g): {list(grid)}")
    tracks = [(AlgorithmSpec("retrain", alpha=alpha), range(1)) for alpha in alphas]
    if betas:
        fixed_alpha = config.algorithm.alpha
        tracks += [(AlgorithmSpec("keep_regrow", fixed_alpha, beta), range(1, 2)) for beta in betas]
        tracks += [(AlgorithmSpec(baseline, fixed_alpha), range(1, 2)) for baseline in ("retrain", "keep_original")]
    return tracks


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def accuracy_ci_halfwidth(p: float, test_size: int) -> Optional[float]:
    """Normal-approximation 95% CI half-width for an accuracy estimate."""
    if test_size <= 0:
        return None
    return 1.96 * math.sqrt(p * (1.0 - p) / test_size)


def _mean_stdev(values) -> tuple[Optional[float], Optional[float]]:
    """Mean and sample standard deviation of the values that are not ``None``."""
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    m = sum(values) / len(values)
    if len(values) < 2:
        return m, 0.0
    return m, math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class SummaryRow:
    dataset: str
    algorithm: str
    alpha: float
    beta: Optional[float]
    batch: int
    runs: int
    accuracy_mean: Optional[float]
    accuracy_stdev: Optional[float]
    accuracy_ci95: Optional[float]
    nodes_mean: float
    nodes_stdev: float
    delta_mean: Optional[float]
    delta_stdev: Optional[float]
    similarity_mean: Optional[float]
    similarity_stdev: Optional[float]
    label: str


def summarize(records: Sequence[RunRecord], test_size: int) -> list[SummaryRow]:
    """Per (dataset, algorithm, alpha, beta, batch) cell: mean, stdev, 95% CI.

    The accuracy CI is the binomial normal approximation at the cell's mean
    accuracy over a test set of ``test_size`` rows.
    """
    if not records:
        raise ValueError("summarize needs at least one record")
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.dataset, rec.algorithm, rec.alpha, rec.beta, rec.batch)
        groups.setdefault(key, []).append(rec)
    rows = []
    for (dataset, algorithm, alpha, beta, batch), recs in groups.items():
        stats = {}
        for name in ("accuracy", "nodes", "delta", "similarity"):
            stats[name + "_mean"], stats[name + "_stdev"] = _mean_stdev([getattr(r, name) for r in recs])
        acc_mean = stats["accuracy_mean"]
        rows.append(
            SummaryRow(
                dataset=dataset,
                algorithm=algorithm,
                alpha=alpha,
                beta=beta,
                batch=batch,
                runs=len(recs),
                accuracy_ci95=None if acc_mean is None else accuracy_ci_halfwidth(acc_mean, test_size),
                label=_BASELINE_LABELS.get(algorithm, ""),
                **stats,
            )
        )
    return sorted(rows, key=_row_order)


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------


def _cell(column: str, value) -> str:
    if value is None:
        return ""
    if column == "wall_time_ms":
        return f"{value:.3f}"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _write_csv(rows, columns: Sequence[str], path) -> None:
    """One line per row, one cell per named attribute of the row; the csv
    module quotes a cell that holds a comma, a double quote or a line feed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(c, getattr(row, c)) for c in columns] for row in rows)


RESULT_COLUMNS = (
    "dataset",
    "algorithm",
    "alpha",
    "beta",
    "run",
    "batch",
    "accuracy",
    "nodes",
    "delta",
    "similarity",
    "label",
)
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))
# Wall times live here, outside the deterministic result table.
TIMING_COLUMNS = RESULT_COLUMNS[:6] + ("wall_time_ms",)


def run_eval(
    config: ExperimentConfig,
    out_dir,
    alphas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
) -> list[RunRecord]:
    """Run the experiment, or a sweep when grids are given, and write artifacts.

    Without grids every run records each batch of ``config.algorithm``'s
    stream.  A sweep explores parameters around the config instead.  The
    alpha sweep prunes the very first batch's tree at each alpha (no
    updating involved, batch 0 only).  The beta sweep holds alpha at the
    config's value and records batch-1 metrics for each beta, alongside the
    retrain and keep-original baseline rows for the same batch.  Equal
    values in one grid, or values that print alike, raise ``ConfigError``.

    Each run draws its plan once and trains its batch-0 tree once per alpha,
    one run at a time, so only one plan is held at once.  Produces
    results.csv and summary.csv (deterministic), timings.csv, manifest.json,
    and one tree file per (run, batch) under trees/; records come back
    canonically sorted.
    """
    started = time.perf_counter()
    if alphas is not None or betas is not None:
        tracks, mode = _sweep_tracks(config, alphas or (), betas or ()), "sweep"
    else:
        tracks, mode = [(config.algorithm, range(config.n_batches))], "stream"
    trees_dir = os.path.join(out_dir, "trees")
    os.makedirs(trees_dir, exist_ok=True)
    records, test_rows, tree_files = _run_tracks(config, tracks, trees_dir)
    _write_csv(records, RESULT_COLUMNS, os.path.join(out_dir, "results.csv"))
    rows = summarize(records, test_rows)
    _write_csv(rows, SUMMARY_COLUMNS, os.path.join(out_dir, "summary.csv"))
    _write_csv(records, TIMING_COLUMNS, os.path.join(out_dir, "timings.csv"))
    manifest = {
        "mode": mode,
        "dataset": config.dataset_name,
        "dataset_rows": config.dataset.n_rows,
        "algorithm": asdict(config.algorithm),
        "n_runs": config.n_runs,
        "n_batches": config.n_batches,
        "batch_size": config.batch_size,
        "test_size": config.test_size,
        "seed": config.seed,
        "growth": asdict(config.growth),
        "sweep_alphas": list(alphas) if alphas is not None else None,
        "sweep_betas": list(betas) if betas is not None else None,
        "n_records": len(records),
        "results": "results.csv",
        "summary": "summary.csv",
        "timings": "timings.csv",
        "trees_dir": "trees",
        # This run's trees only, even when trees/ holds files from earlier runs.
        "tree_files": sorted(tree_files),
        "version": __version__,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return records


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

# Integer settings a config document may set and `treekeep eval` may override.
INT_KEYS = ("n_runs", "n_batches", "batch_size", "test_size", "seed")
_CONFIG_KEYS = {"dataset", "algorithm", "growth", "sweep", *INT_KEYS}
# The keys each kind of dataset reference accepts; the first kind present decides.
_DATASET_KEYS = {
    "builtin": {"builtin", "label_column"},
    "manifest": {"manifest"},
    "path": {"path", "label_column", "has_header", "name"},
    "synthetic": {"synthetic", "name"},
}


def _reject_unknown(obj, allowed, what: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _json_number(key: str, value, kinds=(int, float)):
    """``value`` if it is a JSON number of ``kinds``; a JSON ``true`` is not one."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{key} must be {'an integer' if kinds is int else 'a number'}, got {value!r}")
    return value


def _rectangle(obj) -> Rectangle:
    _reject_unknown(obj, [f.name for f in fields(Rectangle)], "rectangle")
    lows, highs = (tuple(_json_number(key, v) for v in obj[key]) for key in ("lows", "highs"))
    return Rectangle(lows, highs, _json_number("label", obj["label"], int))


def _dataset_from_ref(ref, base_dir: str) -> tuple[str, Dataset]:
    if not isinstance(ref, dict):
        raise ConfigError("'dataset' must be an object")
    kind = next((k for k in _DATASET_KEYS if k in ref), None)
    if kind is None:
        raise ConfigError(f"dataset must specify one of: {', '.join(map(repr, _DATASET_KEYS))}")
    _reject_unknown(ref, _DATASET_KEYS[kind], f"'{kind}' dataset")
    if kind == "builtin":
        name = ref["builtin"]
        return name, load_csv(builtin_dataset_path(name), *_data_ref(ref.get("label_column", -1), True))
    if kind == "manifest":
        manifest = load_manifest(os.path.join(base_dir, ref["manifest"]))
        return manifest.name, dataset_from_manifest(manifest)
    if kind == "path":
        if "label_column" not in ref:
            raise ConfigError("dataset with 'path' needs 'label_column'")
        path = os.path.join(base_dir, ref["path"])
        name = ref.get("name") or os.path.splitext(os.path.basename(ref["path"]))[0]
        return name, load_csv(path, *_data_ref(ref["label_column"], ref.get("has_header", False)))
    spec_obj = dict(ref["synthetic"])
    for key, value in spec_obj.items():
        if key in ("n_rows", "n_features", "background_label", "seed") or (key == "n_classes" and value is not None):
            _json_number(key, value, int)
    _json_number("flip_noise", spec_obj.get("flip_noise", 0.0))
    seed = spec_obj.pop("seed", 0)
    rects = tuple(_rectangle(r) for r in spec_obj.pop("rectangles", []))
    return ref.get("name", "synthetic"), synthetic(SyntheticSpec(rectangles=rects, **spec_obj), seed)


def config_from_dict(obj: dict, base_dir: str = "."):
    """Build (ExperimentConfig, sweep_alphas, sweep_betas) from a config document.

    The document mirrors the config field names; see README for the format.
    Keys it leaves out take the dataclasses' defaults.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config document must be an object")
    _reject_unknown(obj, _CONFIG_KEYS, "config")
    if "dataset" not in obj:
        raise ConfigError("config needs a 'dataset' entry")
    algo_obj = obj.get("algorithm")
    if not isinstance(algo_obj, dict):
        raise ConfigError("config needs an 'algorithm' object with a 'name'")
    try:
        name, dataset = _dataset_from_ref(obj["dataset"], base_dir)
        config = ExperimentConfig(
            dataset=dataset,
            dataset_name=name,
            # A JSON integer alpha would otherwise print as "1", not "1.0", in results.csv.
            algorithm=AlgorithmSpec(
                **{k: float(_json_number(k, v)) if k in ("alpha", "beta") else v for k, v in algo_obj.items()}
            ),
            growth=GrowthConfig(**obj.get("growth", {})),
            **{key: _json_number(key, obj[key], int) for key in INT_KEYS if key in obj},
        )
        alphas = betas = None
        if "sweep" in obj:
            sweep_obj = obj["sweep"]
            if not isinstance(sweep_obj, dict) or set(sweep_obj) - {"alphas", "betas"}:
                raise ConfigError("'sweep' takes only 'alphas' and 'betas' lists")
            alphas = [float(_json_number("alphas", a)) for a in sweep_obj.get("alphas", [])]
            betas = [float(_json_number("betas", b)) for b in sweep_obj.get("betas", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return config, alphas, betas
