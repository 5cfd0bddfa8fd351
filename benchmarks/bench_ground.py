#!/usr/bin/env python3
"""Benchmark the flat grounding layer on the EDP_EMPTY corpus.

For each sentence φ of tests/corpus.py's EDP_EMPTY and its equispectral
translation ψ = to_bsr_equispectral(φ, B), with B from edp_bound, grounds
every size n ≤ --nmax.  Prints, per sentence, the clauses and literals of
its matrix beside those of its compiled plan (the minimal clause set, each
plan literal a predicate atom or a selector guard); then the clauses and
literals of each grounding, the median time of a fresh
FlatPlan(pf).ground(n) (compile and emit), and the median time of
plan.ground on one compiled FlatPlan (emit only).  The two must return the
same CNF; a mismatch exits 1.  Beside them it prints the clauses, literals
and emit time of plan.ground(n, symmetric=True), the grounding with the
domain symmetry broken that spectrum solves.

Then, for each φ and its equivalent translation ψ = to_bsr_equivalent(φ, B),
grounds the conjunction φ ∧ ¬ψ that bounded_equiv solves, as one FlatPlan
over φ and the negation of ψ, at n ≤ min(--nmax, 2).  Prints its clauses,
literals and the median time of compiling and emitting it.

Usage: python benchmarks/bench_ground.py [--nmax N] [--repeat N]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from corpus import EDP_EMPTY
from ebsedp import (classify, edp_bound, to_bsr_equispectral,
                    to_bsr_equivalent)
from ebsedp.analysis import _negation
from ebsedp.groundsat import FlatPlan


def median_ms(fn, repeat):
    times = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times) * 1e3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nmax", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)

    print(f"{'sentence':12s} {'n':>2s} {'clauses':>8s} {'literals':>9s}"
          f" {'fresh':>10s} {'emit':>9s} | symmetric: {'clauses':>8s}"
          f" {'literals':>9s} {'emit':>9s}")
    total = total_sym = 0.0
    for i, phi in enumerate(EDP_EMPTY):
        B = edp_bound(classify(phi)).B
        psi = to_bsr_equispectral(phi, B).bsr
        for name, pf in ((f"phi[{i}]", phi), (f"psi[{i}] B={B}", psi)):
            plan = FlatPlan(pf)
            print(f"{name}: matrix {len(pf.matrix)} clauses"
                  f" {sum(map(len, pf.matrix))} literals, plan"
                  f" {len(plan.clauses)} clauses"
                  f" {sum(len(c[3]) for c in plan.clauses)} literals")
            for n in range(1, args.nmax + 1):
                (cnf, _), t = median_ms(lambda: FlatPlan(pf).ground(n),
                                        args.repeat)
                (emitted, _), t_emit = median_ms(lambda: plan.ground(n),
                                                 args.repeat)
                if emitted != cnf:
                    print(f"{name} n={n}: the compiled plan and a fresh one"
                          " disagree", file=sys.stderr)
                    return 1
                (sym, _), t_sym = median_ms(
                    lambda: plan.ground(n, symmetric=True), args.repeat)
                total += t
                total_sym += t_sym
                print(f"{name:12s} {n:2d} {len(cnf):8d}"
                      f" {sum(map(len, cnf)):9d} {t:8.2f}ms {t_emit:7.2f}ms |"
                      f" {'':10s} {len(sym):8d} {sum(map(len, sym)):9d}"
                      f" {t_sym:7.2f}ms")
    print(f"\nfresh total {total:.1f} ms, symmetric emit total"
          f" {total_sym:.1f} ms, over {len(EDP_EMPTY)} sentences, their"
          f" translations and n=1..{args.nmax}")

    print(f"\n{'phi & !psi':12s} {'n':>2s} {'clauses':>8s} {'literals':>9s}"
          f" {'FlatPlan':>12s}")
    for i, phi in enumerate(EDP_EMPTY):
        B = edp_bound(classify(phi)).B
        negation = _negation(to_bsr_equivalent(phi, B).bsr, phi)
        for n in range(1, min(args.nmax, 2) + 1):
            (cnf, _), t = median_ms(
                lambda: FlatPlan(phi, negation).ground(n), args.repeat)
            print(f"{f'[{i}] B={B}':12s} {n:2d} {len(cnf):8d}"
                  f" {sum(map(len, cnf)):9d} {t:10.2f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
