"""Per-layer tracing from outside the library.

Each public function of an ``ebsedp`` module is replaced, in every
``ebsedp.*`` module that binds the same function object, by a wrapper that
records a span.  A span is ``(layer, start, end, parent, query)``; spans live
in memory and are written out when the run ends.  A layer's self time is the
duration of its spans minus the time their child spans cover.  Counts come
from the return values, computed inside ``trace.count`` spans so that their
cost is kept apart from every layer and from the traced wall time.

Outside a query the wrappers call straight through, so the benchmark's own
checks are never traced.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

QUERY = "query"
COUNT = "trace.count"
GROUND = "ground_fixed_universe"

# layer -> public functions of the module, by name
LAYERS = {
    "parse": ("parse", ("parse_problem", "parse_formula_text", "render",
                        "render_formula")),
    "syntax": ("syntax", ("to_pcnf",)),
    "edp": ("edp", ("classify", "edp_check", "edp_bound", "edp_simple_sigma",
                    "combine_and", "combine_or")),
    "translate": ("translate", ("to_bsr_equivalent", "to_bsr_equispectral",
                                "spectrum_to_bsr")),
    "groundsat.ground": ("groundsat", ("ground_fixed_universe",)),
    "groundsat.encode": ("groundsat", ("tseitin",)),
    "groundsat.solve": ("groundsat", ("dpll_solve",)),
    "groundsat.enum": ("groundsat", ("all_models",)),
    "groundsat.bsr": ("groundsat", ("bsr_ground",)),
    "groundsat.dimacs": ("groundsat", ("export_dimacs",)),
    "structures": ("structures", ("evaluate", "enumerate_structures",
                                  "generated_substructure", "restrict_eq",
                                  "count_structures")),
    "analysis": ("analysis", ("decide_sat_bounded", "interleaved_sat",
                              "spectrum", "bounded_equiv", "ebs_oracle",
                              "find_bound_bounded", "edp_nexptime_note")),
    "repair": ("repair", ("edp_core", "edp_extend")),
    "bmc": ("bmc", ("bmc_solve", "unroll_bmc", "unroll_ind")),
    "cli": ("cli", ("main",)),
}

# counters each layer reports, besides its self time
COUNTERS = {
    "parse": ("calls",),
    "syntax": ("pcnf_clauses",),
    "translate": ("out_clauses", "out_prefix_len"),
    "groundsat.ground": ("calls", "atoms", "nodes", "distinct_nodes"),
    "groundsat.encode": ("aux_vars", "clauses", "literals"),
    "groundsat.solve": ("calls", "sat", "unsat", "clauses_in"),
    "groundsat.enum": ("models",),
    "groundsat.bsr": ("clauses",),
    "structures": ("evaluate_calls",),
    "repair": ("extensions",),
}


def prop_nodes(root) -> tuple:
    """(AND/OR nodes as Tseitin meets them, structurally distinct ones)."""
    from ebsedp.groundsat import PAnd, PConst, PLit, PNot
    ids: Dict[tuple, int] = {}
    total = 0
    stack = [(root, False)]
    done: List[int] = []
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, PLit):
            done.append(ids.setdefault(("l", node.lit), len(ids)))
        elif isinstance(node, PConst):
            done.append(ids.setdefault(("c", node.value), len(ids)))
        elif isinstance(node, PNot):
            if expanded:
                done.append(ids.setdefault(("n", done.pop()), len(ids)))
            else:
                stack.append((node, True))
                stack.append((node.sub, False))
        elif expanded:
            k = len(node.args)
            key = ("a" if isinstance(node, PAnd) else "o", tuple(done[-k:]))
            del done[-k:]
            done.append(ids.setdefault(key, len(ids)))
            total += 1
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
    distinct = sum(1 for key in ids if key[0] in "ao")
    return total, distinct


def _count_ground(c, bound, before, out):
    prop, table = out
    c["calls"] += 1
    c["atoms"] += len(table) - before
    nodes, distinct = prop_nodes(prop)
    c["nodes"] += nodes
    c["distinct_nodes"] += distinct


def _count_encode(c, bound, before, cnf):
    table = bound.arguments.get("table")
    if table is not None:
        atoms = len(table)
    else:
        from ebsedp.groundsat import _max_atom
        atoms = _max_atom(bound.arguments["p"])
    top = max((abs(lit) for clause in cnf for lit in clause), default=0)
    c["aux_vars"] += max(top - atoms, 0)
    c["clauses"] += len(cnf)
    c["literals"] += sum(len(clause) for clause in cnf)


def _count_solve(c, bound, before, out):
    c["calls"] += 1
    c["sat" if out is not None else "unsat"] += 1
    c["clauses_in"] += len(bound.arguments["cnf"])


def _count_translate(c, bound, before, out):
    c["out_clauses"] += len(out.bsr.matrix)
    c["out_prefix_len"] += len(out.bsr.prefix)


def _bump(key: str, amount: Callable = lambda out: 1) -> Callable:
    def count(c, bound, before, out):
        c[key] += amount(out)
    return count


# function name -> counter, called with (counts, bound arguments,
# table size before the call, return value)
COUNT_BY_NAME = {
    "parse_problem": _bump("calls"),
    "parse_formula_text": _bump("calls"),
    "to_pcnf": _bump("pcnf_clauses", lambda out: len(out.matrix)),
    "to_bsr_equivalent": _count_translate,
    "to_bsr_equispectral": _count_translate,
    GROUND: _count_ground,
    "tseitin": _count_encode,
    "dpll_solve": _count_solve,
    "bsr_ground": _bump("clauses", lambda out: len(out[0])),
    "evaluate": _bump("evaluate_calls"),
    "edp_extend": _bump("extensions"),
}


def _table_len(bound) -> int:
    table = bound.arguments.get("table")
    return len(table) if table is not None else 0


class Tracer:
    """Span recorder.  ``install`` swaps the wrappers in; ``uninstall``
    restores the original functions."""

    def __init__(self):
        self.spans: List[list] = []  # [layer, start, end, parent, query]
        self.stack: List[int] = []
        self.query: Optional[str] = None
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._swapped: List[tuple] = []

    # -- spans -------------------------------------------------------------
    def _open(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.query])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        if self.stack.pop() != i:
            raise RuntimeError("span closed out of order")

    def run_query(self, qid: str, fn: Callable, *args):
        """Run fn(*args) as one query: the root span of its call tree."""
        if self.stack:
            raise RuntimeError("queries do not nest")
        self.query = qid
        i = self._open(QUERY)
        try:
            return fn(*args)
        finally:
            self._close(i)
            self.query = None

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        counter = COUNT_BY_NAME.get(name)
        sig = inspect.signature(fn)
        counts = self.counts[layer]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.stack:
                    return it
                return tracer._timed_iter(layer, it, counts)
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            before = _table_len(sig.bind(*args, **kwargs)) if name == GROUND else 0
            i = tracer._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if counter is not None:
                j = tracer._open(COUNT)
                try:
                    counter(counts, sig.bind(*args, **kwargs), before, out)
                finally:
                    tracer._close(j)
            return out
        traced.__wrapped__ = fn
        return traced

    def _timed_iter(self, layer, it, counts):
        while True:
            i = self._open(layer)
            try:
                item = next(it)
            except StopIteration:
                self._close(i)
                return
            except BaseException:
                self._close(i)
                raise
            self._close(i)
            if layer == "groundsat.enum":
                counts["models"] += 1
            yield item

    def install(self) -> None:
        for modname, _ in LAYERS.values():
            importlib.import_module(f"ebsedp.{modname}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ebsedp" or name.startswith("ebsedp."))]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[f"ebsedp.{modname}"]
            for name in names:
                fn = getattr(home, name)
                wrapped = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._swapped.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._swapped):
            setattr(mod, attr, fn)
        self._swapped.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (layer, start, end, _, _), cov in zip(self.spans, covered):
            out[layer] += (end - start) - cov
        return out

    def wall(self) -> float:
        """Traced wall time: every query's span, less the counting spans."""
        total = 0.0
        for layer, start, end, _, _ in self.spans:
            if layer == QUERY:
                total += end - start
            elif layer == COUNT:
                total -= end - start
        return total

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("layer\tstart\tend\tparent\tquery\n")
            for layer, start, end, parent, query in self.spans:
                fh.write(f"{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")
