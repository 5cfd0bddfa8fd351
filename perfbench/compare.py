#!/usr/bin/env python3
"""Compare two sets of benchmark results written by run.py.

Usage: python3 perfbench/compare.py --base .perfbench_out/A/*.json --new .perfbench_out/B/*.json

For every workload and end-to-end metric it prints the median, quartiles
and run count of each side and the change of the median, and marks a
change worse than the metric's bound in BENCHMARK.json.  Results taken with
different kernels, Python versions or processor counts are not comparable:
the script refuses them and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    runs = [json.loads(Path(p).read_text("utf-8")) for p in paths]
    return [r for r in runs if r["trace"] == 0]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    envs = {json.dumps(r["env"], sort_keys=True) for r in base + new}
    if len(envs) != 1:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    by = defaultdict(lambda: defaultdict(lambda: ([], [])))
    for side, runs in ((0, base), (1, new)):
        for r in runs:
            for name, m in r["metrics"].items():
                by[r["workload"]][name][side].append(m["value"])
    worse = 0
    for workload in sorted(by):
        for name, (b, n) in sorted(by[workload].items()):
            if not b or not n or name not in bounds:
                continue
            qb, qn = quartiles(b), quartiles(n)
            change = qn[1] / qb[1] - 1 if qb[1] else float("inf")
            sign = 1 if bounds[name]["better"] == "lower" else -1
            flag = "WORSE" if sign * change > bounds[name]["bound"] else ""
            worse += bool(flag)
            print(f"{workload:13s} {name:14s} base {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}"
                  f"  new {qn[1]:.6g} [{qn[0]:.6g}, {qn[2]:.6g}] n={len(n)}"
                  f"  {change:+.1%} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
