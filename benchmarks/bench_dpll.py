#!/usr/bin/env python3
"""Benchmark the DPLL kernel against the naive reference solver.

Times the naive reference (tests/reference_dpll.py) and the pure-Python
watched-literal kernel.  Instances: seeded random 3-CNF near the
satisfiability phase transition, plus ground CNFs obtained from first-order
corpus sentences.  Both run the same deterministic search, so assignments
are compared bit for bit; a mismatch exits 1.

Usage: python benchmarks/bench_dpll.py [--seed N] [--repeat N]
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import reference_dpll
from ebsedp import _dpll_py
from ebsedp.groundsat import AtomTable, ground_fixed_universe, tseitin


def random_3cnf(rng, n_vars, ratio=4.2):
    clauses = []
    for _ in range(int(n_vars * ratio)):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def ground_instances():
    from corpus import EVEN_MATCHING, EXAMPLE_B, EXAMPLE_C, TOTAL_RELATION
    specs = [("even-matching n=5", EVEN_MATCHING, 5),
             ("even-matching n=6", EVEN_MATCHING, 6),
             ("example-b n=3", EXAMPLE_B, 3),
             ("example-c n=4", EXAMPLE_C, 4),
             ("total-relation n=5", TOTAL_RELATION, 5)]
    out = []
    for name, pf, n in specs:
        table = AtomTable()
        prop, _ = ground_fixed_universe(pf, n, table=table,
                                       node_cap=10_000_000)
        out.append((name, tseitin(prop, table)))
    return out


def bench(fn, cnf, repeat):
    times = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(cnf)
        times.append(time.perf_counter() - t0)
    return result, min(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20240823)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    instances = [(f"random-3cnf v={v}", random_3cnf(rng, v))
                 for v in (40, 60, 80, 100)]
    instances += ground_instances()

    print(f"{'instance':24s} {'clauses':>7s} {'reference':>10s} {'pure':>10s}"
          f" {'speedup':>8s}  verdict")
    speedups = []
    for name, cnf in instances:
        want, t_ref = bench(reference_dpll.solve, cnf, args.repeat)
        got, t = bench(_dpll_py.solve, cnf, args.repeat)
        if got != want:  # identical models, or both None
            print(f"{name}: pure kernel disagrees with the reference",
                  file=sys.stderr)
            return 1
        speedups.append(t_ref / t if t > 0 else float("inf"))
        verdict = "UNSAT" if want is None else "SAT"
        print(f"{name:24s} {len(cnf):7d} {t_ref:9.4f}s {t:9.4f}s"
              f" {speedups[-1]:7.1f}x  {verdict}")
    print(f"\nkernel agrees with the reference on all {len(instances)} "
          f"instances; median speedup {statistics.median(speedups):.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
