#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ebsedp pipeline
(parse -> prenex CNF -> classify/check -> translate -> ground -> Tseitin ->
DPLL -> evaluate).

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum-psi --seed 1 --seconds 35 --trace 0

Workloads: spectrum-psi, unsat-search, cli-mix (see perfbench/README.md).
With --trace 0 the run repeats the workload's pass, a fixed list of queries
built from the seed, starting no query after --seconds have elapsed, and
reports the end-to-end metrics.  With --trace 1 it runs one pass traced between two
untraced ones, and reports the per-layer metrics.  Every output is checked
against a known answer; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The full result, with the
kernel, Python version and processor count, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("spectrum-psi", "unsat-search", "cli-mix")
SETUP_PROBES = 12
DEADLINE_S = 120  # no query starts later than this after launch
LAUNCH = time.perf_counter()
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def tail_percentile(n: int, cap: float) -> float:
    """The highest percentile of the ladder, up to the workload's cap, with
    at least ten samples beyond it; the maximum when there are fewer than
    twenty samples.  The cap keeps the percentile the same from run to run
    when the number of passes varies."""
    return next((p for p in TAIL_LADDER if p <= cap and n * (100 - p) / 100 >= 10), 100.0)


def run_pass(queries, tracer=None, stop_at=math.inf) -> Tuple[List[float], list, int]:
    """Run the queries in order, none of them starting at or after
    ``stop_at``; returns the seconds of each query run (a prefix of
    ``queries``), the failures and the number of queries attempted.  Checks
    run outside the timed region."""
    times: List[float] = []
    failures: List[Tuple[str, str]] = []
    for i, q in enumerate(queries):
        if time.perf_counter() >= stop_at:
            break
        if time.perf_counter() - LAUNCH > DEADLINE_S:
            failures += [(r.qid, f"not run: {DEADLINE_S} s deadline passed")
                         for r in queries[i:]]
            break
        gc.collect()
        error = None
        t0 = time.perf_counter()
        try:
            out = tracer.run_query(q.qid, q.run) if tracer else q.run()
        except Exception as exc:  # a raising query is a failed query
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        q.last = out
        if error is None:
            try:
                error = q.check(out)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((q.qid, error))
    return times, failures, len(times) + sum(r.startswith("not run") for _, r in failures)


def measure_setup(files: List[Path], probes: int) -> List[float]:
    """Set-up times of ``probes`` fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)] + [str(f) for f in files]
    values = []
    for _ in range(probes):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=60, cwd=ROOT)
        values.append(float(out.stdout.strip()))
    return values


def environment() -> Dict[str, object]:
    import ebsedp
    return {"kernel": getattr(ebsedp, "KERNEL", "python"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def build(workload: str, seed: int, man: dict, workdir: Path):
    """The workload's queries, and the input files a user would hand over."""
    import workloads as W
    if workload == "cli-mix":
        mix = W.CliMix(seed, man, workdir)
        return mix.queries, sorted(mix.files.values())
    maker = W.spectrum_psi if workload == "spectrum-psi" else W.unsat_search
    queries, texts = maker(seed, man)
    files = []
    for key, text in sorted(texts.items()):
        path = workdir / (key.replace("#", "_") + ".fol")
        path.write_text(text, "utf-8")
        files.append(str(path))
    return queries, files


def end_to_end(args, queries, files, man) -> Tuple[dict, dict, list, int]:
    # one warm-up interpreter fills the bytecode cache; the probes are taken
    # half before and half after the timed loop, so that set-up time
    # samples the machine's speed over the whole run
    measure_setup(files, 1)
    setup_values = measure_setup(files, SETUP_PROBES // 2)
    gc.collect()
    gc.freeze()  # keep the benchmark's own data out of the program's collections
    # the first pass runs whole; later ones stop where the time runs out,
    # so every query has at least one sample and a run overshoots
    # --seconds by at most one query
    start = time.perf_counter()
    per_query: List[List[float]] = [[] for _ in queries]
    failures: list = []
    attempted = 0
    stop_at = math.inf
    while time.perf_counter() - start < args.seconds:
        times, fails, tried = run_pass(queries, stop_at=stop_at)
        for i, t in enumerate(times):
            per_query[i].append(t)
        failures += fails
        attempted += tried
        stop_at = start + args.seconds
    setup_values += measure_setup(files, SETUP_PROBES - SETUP_PROBES // 2)
    samples = [t for times in per_query for t in times]
    medians = [statistics.median(times) for times in per_query if times]
    tail_p = tail_percentile(len(samples), man["workloads"][args.workload]["tail_percentile"])
    values = {
        "setup_s": statistics.median(setup_values),
        "wall_s": sum(medians),
        "query_ms_p50": statistics.median(samples) * 1000,
        "query_ms_tail": percentile(samples, tail_p) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"passes": round(len(samples) / len(queries), 2), "queries_per_pass": len(queries),
              "samples": len(samples), "tail_percentile": tail_p,
              "setup_samples": setup_values,
              "query_s": {q.qid: statistics.median(times)
                          for q, times in zip(queries, per_query) if times},
              "fail_share": {"failed": len(failures), "attempted": attempted}}
    return values, detail, failures, attempted


def per_layer(args, queries, man) -> Tuple[dict, dict, list, int]:
    import spans
    import workloads as W
    gc.collect()
    gc.freeze()
    # untraced passes before and after the traced one, so that drift in
    # machine speed does not show up as tracing overhead
    before, failures, attempted = run_pass(queries)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, traced_failures, traced = run_pass(queries, tracer)
    finally:
        tracer.uninstall()
    after, after_failures, tried = run_pass(queries)
    failures += traced_failures + after_failures
    untraced = (sum(before) + sum(after)) / 2
    attempted += traced + tried + 1  # the passes, and the accounting check

    selfs = tracer.self_times()
    counts = tracer.counts
    values: Dict[str, float] = {}
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        for name in spans.COUNTERS.get(layer, ()):
            values[f"{layer}.{name}"] = counts[layer][name]
    nodes = counts["groundsat.ground"]["nodes"]
    values["groundsat.ground.sharing"] = (
        counts["groundsat.ground"]["distinct_nodes"] / nodes if nodes else 0.0)
    values["unattributed_s"] = selfs.get(spans.QUERY, 0.0)
    values["trace.wall_s"] = tracer.wall()
    values["trace.count_s"] = selfs.get(spans.COUNT, 0.0)
    values["trace.overhead_s"] = tracer.wall() - untraced

    # self-time accounting: the layers and the unattributed rest make up
    # the traced wall time
    accounted = sum(selfs.get(layer, 0.0) for layer in spans.LAYERS) + values["unattributed_s"]
    if abs(accounted - values["trace.wall_s"]) > 1e-6 * max(1.0, values["trace.wall_s"]):
        failures.append(("accounting", f"self times sum to {accounted}, "
                                       f"traced wall is {values['trace.wall_s']}"))

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    detail = {"untraced_wall_s": untraced, "spans": len(tracer.spans)}

    if args.workload == "spectrum-psi":
        run, expect = W.crosscheck(man)
        check = spans.Tracer()
        check.install()
        try:
            check.run_query("crosscheck", run)
        finally:
            check.uninstall()
        c = check.counts
        got = {"atoms": c["groundsat.ground"]["atoms"],
               "vars": c["groundsat.ground"]["atoms"] + c["groundsat.encode"]["aux_vars"],
               "clauses": c["groundsat.encode"]["clauses"],
               "literals": c["groundsat.encode"]["literals"],
               "nodes": c["groundsat.ground"]["nodes"],
               "distinct_nodes": c["groundsat.ground"]["distinct_nodes"]}
        detail["crosscheck"] = got
        attempted += 1
        if got != expect:
            failures.append(("crosscheck", f"counts {got}, known {expect}"))
    return values, detail, failures, attempted


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ebsedp" / "__init__.py").is_file():
        print(f"error: no ebsedp sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    import workloads as W
    man = W.manifest()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        queries, files = build(args.workload, args.seed, man, workdir)
        if args.trace:
            values, detail, failures, attempted = per_layer(args, queries, man)
            wanted = spec["per_layer"]
        else:
            values, detail, failures, attempted = end_to_end(args, queries, files, man)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "detail": detail,
              "failures": [{"query": q, "reason": r} for q, r in failures],
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), "utf-8")

    print(f"# {args.workload} seed={args.seed} kernel={env['kernel']} "
          f"python={env['python']} nproc={env['nproc']}")
    for key, value in detail.items():
        if key not in ("setup_samples", "query_s"):
            print(f"# {key}: {value}")
    for qid, reason in failures[:20]:
        print(f"# FAILED {qid}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
