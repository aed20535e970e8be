"""Record the reference digests that ``run.py`` checks outputs against.

    python3 perfbench/record_digests.py WORKLOAD FIRST_SEED LAST_SEED [--out FILE]

Runs each seed's instances once, untimed, and stores the sha256 of every
tree and table they produce under ``[workload][seed]`` in FILE (default:
reference_digests.json next to this script), keeping all other entries.
Record only on a commit whose trees are known to be right: a later change
that alters a tree is then reported as a failed operation.
"""

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("first_seed", type=int)
    parser.add_argument("last_seed", type=int)
    parser.add_argument("--out", default=run.REFERENCE_FILE)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    table = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            table = json.load(fh)
    entries = table.setdefault(args.workload, {})
    for seed in range(args.first_seed, args.last_seed + 1):
        result = run.run_workload(args.workload, seed, seconds=0, trace=0)
        if not result["correct"]:
            print(f"seed {seed}: {result['problems']}", file=sys.stderr)
            return 1
        entries[str(seed)] = dict(sorted(result["digests"].items()))
        print(f"{args.workload} seed {seed}: {len(result['digests'])} digests", flush=True)
    table[args.workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
