"""Command line interface.

Exit codes: 0 success, 2 usage errors (argparse), 3 bad inputs (files,
formats, configuration), 4 unexpected runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .data import load_csv
from .diff import diff_table, structural_diff
from .errors import ConfigError, TreekeepError
from .grow import GrowthConfig
from .harness import INT_KEYS, AlgorithmSpec, config_from_dict, run_eval
from .loss import LossParams, loss, misclassification_count
from .tree import load_tree, node_count, save_tree, to_dot
from .update import retrain, update

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_RUNTIME = 4

OUT_DIR_ENV = "TREEKEEP_OUT_DIR"


def _label_column(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treekeep",
        description="Grow, update, and compare decision trees with auditable diffs.",
    )
    parser.add_argument("--version", action="version", version=f"treekeep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by grow and update; their defaults are the library's.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True, help="CSV or whitespace-delimited file")
    common.add_argument("--label-col", default="-1", help="label column index or name (default: last)")
    common.add_argument("--has-header", action="store_true")
    common.add_argument("--alpha", type=float, default=AlgorithmSpec.alpha, help="per-node complexity penalty")
    common.add_argument("--max-depth", type=int, default=GrowthConfig.max_depth)
    common.add_argument("--out", required=True, help="tree file to write")

    p_grow = sub.add_parser("grow", parents=[common], help="grow and prune a tree from a dataset")
    p_grow.add_argument("--dot-out", help="also write a Graphviz rendering")

    p_update = sub.add_parser(
        "update", parents=[common], help="update a tree on new data, minimising changes"
    )
    p_update.add_argument("--prev-tree", required=True)
    p_update.add_argument("--beta", type=float, default=AlgorithmSpec.beta, help="per-changed-node penalty")
    p_update.add_argument("--diff-out", help="write the per-node diff table here")
    p_update.add_argument("--dot-out", help="write a diff-highlighted Graphviz rendering")

    p_diff = sub.add_parser("diff", help="compare two tree files")
    p_diff.add_argument("--a", required=True, help="previous tree file")
    p_diff.add_argument("--b", required=True, help="new tree file")
    p_diff.add_argument("--dot-out", help="write tree b with changed nodes highlighted")

    p_eval = sub.add_parser("eval", help="run the batch-stream evaluation harness")
    p_eval.add_argument("--config", required=True, help="JSON config file (see README)")
    p_eval.add_argument(
        "--out-dir",
        help=f"output directory (default: ${OUT_DIR_ENV} or alongside the config)",
    )
    for key in INT_KEYS:
        p_eval.add_argument("--" + key.replace("_", "-"), type=int, help=f"override the config's {key}")
    return parser


def cmd_grow(args) -> int:
    data = load_csv(args.data, _label_column(args.label_col), args.has_header)
    tree = retrain(data, LossParams(args.alpha, 0.0), GrowthConfig(args.max_depth))
    save_tree(tree, args.out)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(to_dot(tree))
    print(f"wrote {args.out}")
    print(f"nodes: {node_count(tree)}")
    print(f"training misclassifications: {misclassification_count(tree, data)} / {data.n_rows}")
    return EXIT_OK


def cmd_update(args) -> int:
    prev = load_tree(args.prev_tree)
    data = load_csv(args.data, _label_column(args.label_col), args.has_header)
    params = LossParams(args.alpha, args.beta)
    new = update(prev, data, params, GrowthConfig(args.max_depth))
    save_tree(new, args.out)
    report = structural_diff(prev, new)
    breakdown = loss(prev, new, data, params)
    if args.diff_out:
        with open(args.diff_out, "w", encoding="utf-8") as fh:
            fh.write(diff_table(report))
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(to_dot(new, report))
    print(f"wrote {args.out}")
    print(f"changed nodes (delta): {report.delta}")
    print(f"partial-match similarity (approximate): {report.similarity:.4f}")
    print(
        "loss: "
        f"{breakdown.total:g} = {breakdown.misclassifications} misclassified"
        f" + {params.alpha:g} * {breakdown.nodes} nodes"
        f" + {params.beta:g} * {breakdown.changed} changed"
    )
    print(diff_table(report), end="")
    return EXIT_OK


def cmd_diff(args) -> int:
    prev = load_tree(args.a)
    new = load_tree(args.b)
    report = structural_diff(prev, new)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(to_dot(new, report))
    print(f"changed nodes (delta): {report.delta}")
    print(f"partial-match similarity (approximate): {report.similarity:.4f}")
    print(diff_table(report), end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    base_dir = os.path.dirname(os.path.abspath(args.config))
    if isinstance(obj, dict):  # the flags override the file's keys before the config is checked
        obj.update({key: getattr(args, key) for key in INT_KEYS if getattr(args, key) is not None})
    config, alphas, betas = config_from_dict(obj, base_dir)
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or os.path.join(base_dir, "eval_out")
    records = run_eval(config, out_dir, alphas, betas)
    print(f"wrote {len(records)} records to {os.path.join(out_dir, 'results.csv')}")
    print(f"summary: {os.path.join(out_dir, 'summary.csv')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "grow": cmd_grow,
        "update": cmd_update,
        "diff": cmd_diff,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (TreekeepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: tree is nested too deeply to process", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
