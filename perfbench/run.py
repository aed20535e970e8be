"""treekeep benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (tracing off); with ``--trace 1`` they are
the per-layer ones from a traced pass, next to an untraced pass of the same
instances that gives the tracing overhead.  See README.md in this directory.
"""

import os

# Pin every BLAS pool to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_FILE = os.path.join(HERE, "reference_digests.json")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)

from tracer import COUNTS, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "update_s": "s",
    "retrain_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "fraction",
}

# Per-layer metrics beyond "<span>.calls", "<span>.s" and the tracer's
# work counts, with their units.
LAYER_EXTRAS = {
    "prune.kept_ratio": "ratio",
    "update.changed_nodes": "count",
    "derived.update_over_retrain": "ratio",
    "trace.wall_s": "s",
    "trace.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.s"] = "s"
    units.update(COUNTS)
    units.update(LAYER_EXTRAS)
    return units


class Checker:
    """Counts operations and failures; compares every digest it is shown.

    A digest must equal the reference recorded for this workload and seed,
    when there is one, and the digest of the same item earlier in the run.
    """

    def __init__(self, reference):
        self.reference = reference
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, label, step):
        """Run one operation; returns its quality dict, or None if it failed."""
        self.attempted += 1
        try:
            digests, quality = step()
        except Exception as exc:  # any failure of the program counts, the run goes on
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        bad = []
        for item, digest in digests.items():
            first = self.seen.setdefault(item, digest)
            if self.reference is not None and self.reference.get(item) != digest:
                bad.append(f"{item} differs from the reference")
            elif first != digest:
                bad.append(f"{item} differs from its first run")
        if bad:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(bad))
            return None
        return quality if quality is not None else {}


def load_reference(workload: str, seed: int, smoke: bool):
    if smoke or not os.path.exists(REFERENCE_FILE):
        return None
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def set_up(cls, seed, scale, work_dir, repeats):
    """Import treekeep afresh and build every instance's datasets, ``repeats`` times.

    Returns the workload built by the last repeat, its inputs, and the
    median set-up time.
    """
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "treekeep" or m.startswith("treekeep.")]:
            del sys.modules[name]
        start = time.perf_counter()
        tk = importlib.import_module("treekeep")
        importlib.import_module("treekeep.cli")
        workload = cls(tk, seed, scale, work_dir)
        inputs = [workload.build(k) for k in range(scale.instances)]
        times.append(time.perf_counter() - start)
    return workload, inputs, statistics.median(times)


def run_workload(name, seed, seconds, trace, smoke=False, reference=None):
    """Run one workload.

    Returns the result fields (``correct``, ``attempted``, ``failed``,
    ``metrics``, None when some path never succeeded) plus ``problems``,
    ``digests`` and the raw ``times``.
    """
    cls = WORKLOADS[name]
    scale = cls.scales["smoke" if smoke else "full"]
    work_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(work_parent, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent)
    try:
        workload, inputs, setup_s = set_up(cls, seed, scale, work_dir, 1 if smoke else SETUP_REPEATS)
        checker = Checker(reference)
        instances = range(scale.instances)
        for k in instances:
            checker.run(f"i{k}.prepare", lambda: workload.prepare(k, inputs[k]))
        times = {k: {"update": [], "retrain": []} for k in instances}
        quality = {}

        def sample(k, path, first=False):
            step = workload.update if path == "update" else workload.retrain
            got = checker.run(f"i{k}.{path}", lambda: step(k, inputs[k]))
            if got is not None:
                times[k][path].append(workload.elapsed)
                if first and path == "update":
                    quality[k] = got

        deadline = time.perf_counter() + seconds
        for k in instances:
            sample(k, "update", first=True)
            sample(k, "retrain")
        layers = None
        if trace:
            layers = traced_pass(workload, inputs, checker, times)
        else:
            repeat_until(deadline, times, sample)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:  # another run still uses it
            pass

    complete = len(quality) == scale.instances and all(
        times[k]["update"] and times[k]["retrain"] for k in instances
    )
    result = {
        "correct": checker.failed == 0 and complete,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "digests": checker.seen,
        "times": times,
    }
    if not complete:
        result["metrics"] = None
        return result
    update_s = statistics.fmean(statistics.median(times[k]["update"]) for k in instances)
    retrain_s = statistics.fmean(statistics.median(times[k]["retrain"]) for k in instances)
    if trace:
        layers["derived.update_over_retrain"] = update_s / retrain_s
        layers["update.changed_nodes"] = statistics.fmean(q["changed_nodes"] for q in quality.values())
        units = per_layer_units()
        result["metrics"] = {m: {"value": layers[m], "unit": u} for m, u in units.items()}
    else:
        values = {
            "update_s": update_s,
            "retrain_s": retrain_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_accuracy": statistics.fmean(q["accuracy"] for q in quality.values()),
        }
        result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    return result


def repeat_until(deadline, times, sample):
    """Re-time the paths, instances in turn, while the next sample fits.

    The update path gets about two thirds of the remaining time and the
    retrain path, usually much shorter, the rest.
    """
    paths = ("update", "retrain")
    share = {"update": 2.0, "retrain": 1.0}
    turn = dict.fromkeys(paths, 0)
    spent = dict.fromkeys(paths, 0.0)
    while all(samples for per_path in times.values() for samples in per_path.values()):
        fits = []
        for path in sorted(paths, key=lambda p: spent[p] / share[p]):
            k = turn[path] % len(times)
            expected = statistics.median(times[k][path])
            if time.perf_counter() + expected <= deadline:
                fits.append((path, k, expected))
        if not fits:
            return
        path, k, expected = fits[0]
        sample(k, path)
        turn[path] += 1
        spent[path] += expected


def traced_pass(workload, inputs, checker, times):
    """Re-run every instance's timed paths with the wrappers installed.

    Values are per instance.  ``trace.overhead_s`` is the traced minus the
    untraced update time of the same instances.
    """
    tracer = Tracer()
    workload.tracer = tracer
    wall = overhead = 0.0
    n = len(inputs)
    try:
        with tracer.installed():
            for k in range(n):
                traced = checker.run(f"i{k}.traced-update", lambda: workload.update(k, inputs[k]))
                if traced is not None and times[k]["update"]:
                    overhead += workload.elapsed - times[k]["update"][0]
                wall += workload.elapsed
                checker.run(f"i{k}.traced-retrain", lambda: workload.retrain(k, inputs[k]))
                wall += workload.elapsed
    finally:
        workload.tracer = None
    layers = {}
    for span in SPANS:
        layers[f"{span}.calls"] = tracer.calls[span] / n
        layers[f"{span}.s"] = tracer.self_s[span] / n
    for counter in COUNTS:
        layers[counter] = tracer.counts[counter] / n
    grown = tracer.counts["prune.nodes_in"]
    layers["prune.kept_ratio"] = tracer.counts["prune.nodes_kept"] / grown if grown else 0.0
    layers["trace.wall_s"] = wall / n
    layers["trace.self_s"] = tracer.total_self_s() / n
    layers["trace.overhead_s"] = overhead / n
    return layers


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treekeep", "__init__.py")):
        print(f"error: no treekeep sources at {SRC}; run from a treekeep checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference = load_reference(args.workload, args.seed, args.smoke)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke, reference)
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    if reference is None and not args.smoke:
        print(f"note: no reference digests for {args.workload} seed {args.seed}; "
              "outputs were checked for repeatability only", file=sys.stderr)
    metrics = result["metrics"]
    if metrics is None:
        print("error: a timed path failed on every attempt; no metrics", file=sys.stderr)
        return 1
    samples = sum(len(s) for per_path in result["times"].values() for s in per_path.values())
    print(json.dumps({"env": environment(), "timed_samples": samples}))
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']!r} {entry['unit']}")
    if not args.trace:
        ratio = metrics["update_s"]["value"] / metrics["retrain_s"]["value"]
        print(f"update_s / retrain_s = {ratio!r} (not gated)")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
