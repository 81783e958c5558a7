#!/usr/bin/env python3
"""Run the traced run on every workload and write perfbench/baseline.json.

    python3 perfbench/record_baseline.py [--seed 1]

Run from the repository root.  Each traced run measures for the
``run_seconds`` of BENCHMARK.json, as the benchmark's own runs do.  The
baseline holds, per workload: the seed, the run length, the host record,
every per-layer and module metric, and the plan's per-operator numbers.  It is a record for reading next to later traced
runs, not an input to them.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, HERE)
    import corpora

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = os.path.join(root, ".perfbench", "runs")
    baseline = {}
    for name in corpora.WORKLOADS:
        before = set(glob.glob(os.path.join(runs, f"{name}-s{args.seed}-t1-*.json")))
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "1"],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout, file=sys.stderr)
            print(f"{name}: traced run failed", file=sys.stderr)
            return 1
        (record,) = set(glob.glob(
            os.path.join(runs, f"{name}-s{args.seed}-t1-*.json"))) - before
        with open(record) as fh:
            rec = json.load(fh)
        baseline[name] = {
            "seed": args.seed,
            "seconds": seconds,
            "host_before": rec["host_before"],
            "host_after": rec["host_after"],
            "layers": rec["report"],
            "operators": rec["operators"],
        }
        print(f"{name}: recorded", file=sys.stderr)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
