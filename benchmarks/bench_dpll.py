#!/usr/bin/env python3
"""Benchmark the DPLL kernel against the naive reference solver.

Times the naive reference (tests/reference_dpll.py) and the pure-Python
watched-literal kernel, and prints the kernel's decisions, conflicts and
learned literals.  Instances: seeded random 3-CNF near the satisfiability
phase transition, Tseitin CNFs of first-order corpus sentences, and flat
CNFs (FlatPlan.ground), each also with the domain symmetry broken
(symmetric=True, marked "sym"), as spectrum grounds them.  Both solvers
return the lexicographically greatest model, so assignments are compared
bit for bit; a mismatch exits 1.  The naive reference stalls on the last
flat rows, so those run the kernel alone and check its model, if any,
against every clause.

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
from ebsedp.groundsat import FlatPlan, ground_fixed_universe, tseitin


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
        prop, table = ground_fixed_universe(pf, n, node_cap=10_000_000)
        out.append((name, tseitin(prop, table)))
    return out


def flat_instances():
    """(name, CNF, whether the reference runs too)."""
    from corpus import EVEN_ORDER, QR_STALL
    out = []
    for name, pf, n, with_reference in (("even-order n=5", EVEN_ORDER, 5, True),
                                        ("qr-stall n=3", QR_STALL, 3, False),
                                        ("even-order n=7", EVEN_ORDER, 7, False)):
        plan = FlatPlan(pf)
        out += [(f"flat {name}", plan.ground(n)[0], with_reference),
                (f"flat sym {name}", plan.ground(n, symmetric=True)[0],
                 with_reference)]
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
    instances = [(f"random-3cnf v={v}", random_3cnf(rng, v), True)
                 for v in (40, 60, 80, 100)]
    instances += [(name, cnf, True) for name, cnf in ground_instances()]
    instances += flat_instances()

    print(f"{'instance':24s} {'clauses':>7s} {'reference':>10s} {'pure':>10s}"
          f" {'speedup':>8s} {'decisions':>9s} {'conflicts':>9s}"
          f" {'learned':>8s}  verdict")
    speedups = []
    for name, cnf, with_reference in instances:
        got, t = bench(_dpll_py.solve, cnf, args.repeat)
        if with_reference:
            want, t_ref = bench(reference_dpll.solve, cnf, args.repeat)
            ok = got == want  # identical models, or both None
            speedups.append(t_ref / t if t > 0 else float("inf"))
            ref, speedup = f"{t_ref:9.4f}s", f"{speedups[-1]:7.1f}x"
        else:
            ok = got is None or all(any(got[abs(l)] == (l > 0) for l in c)
                                    for c in cnf)
            ref, speedup = f"{'-':>10s}", f"{'-':>8s}"
        if not ok:
            print(f"{name}: pure kernel disagrees with the reference"
                  if with_reference else f"{name}: kernel model fails a clause",
                  file=sys.stderr)
            return 1
        state = _dpll_py.Dpll(cnf)  # once more, for the work counters
        state.search()
        verdict = "UNSAT" if got is None else "SAT"
        print(f"{name:24s} {len(cnf):7d} {ref} {t:9.4f}s {speedup}"
              f" {state.decisions:9d} {state.conflicts:9d}"
              f" {state.learned_literals:8d}  {verdict}")
    print(f"\nkernel agrees with the reference on all {len(speedups)} "
          f"instances it runs; median speedup "
          f"{statistics.median(speedups):.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
