"""Reference oracles for the SAT kernel: a naive DPLL solver that rescans
every clause on each propagation round, and a model enumerator that
rebuilds the residual CNF at every node.  Tests require the library to
return exactly what these return, model for model and in the same order."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence


def solve(clauses: Sequence[Sequence[int]]) -> Optional[Dict[int, bool]]:
    """Return a total satisfying assignment over mentioned variables, or None.

    Unit propagation rescans every clause until nothing changes, then the
    smallest unassigned variable is tried true before false, with
    chronological backtracking."""
    for c in clauses:
        if not c:
            return None
    variables = sorted({abs(l) for c in clauses for l in c})
    if not variables:
        return {}
    assign: Dict[int, bool] = {}
    trail: List[int] = []  # assigned vars in order; decisions tracked separately
    decisions: List[List[int]] = []  # [var, tried_false]

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                satisfied = False
                unit = 0
                unassigned = 0
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        unassigned += 1
                        if unassigned > 1:
                            break
                        unit = lit
                    elif (lit > 0) == val:
                        satisfied = True
                        break
                if satisfied or unassigned > 1:
                    continue
                if unassigned == 0:
                    return False
                assign[abs(unit)] = unit > 0
                trail.append(abs(unit))
                changed = True
        return True

    while True:
        if propagate():
            var = next((v for v in variables if v not in assign), None)
            if var is None:
                return dict(assign)
            assign[var] = True
            trail.append(var)
            decisions.append([var, 0])
            continue
        # conflict: undo to the most recent decision with an untried branch
        while decisions:
            dvar, tried_false = decisions[-1]
            while True:
                v = trail.pop()
                del assign[v]
                if v == dvar:
                    break
            if tried_false:
                decisions.pop()
                continue
            decisions[-1][1] = 1
            assign[dvar] = False
            trail.append(dvar)
            break
        else:
            return None


def all_models(cnf: Sequence[Sequence[int]],
               projection: Iterable[int]) -> Iterator[Dict[int, bool]]:
    """Every satisfying assignment restricted to projection, exactly once.

    Depth-first over the projection variables in ascending order (false
    branch first).  Every node rebuilds the residual clauses and prunes on
    an emptied one; every leaf solves the residual from scratch."""
    proj = sorted(set(projection))
    assign: Dict[int, bool] = {}

    def residual_ok() -> Optional[List[List[int]]]:
        rest: List[List[int]] = []
        for clause in cnf:
            keep = []
            satisfied = False
            for lit in clause:
                val = assign.get(abs(lit))
                if val is None:
                    keep.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not keep:
                return None
            rest.append(keep)
        return rest

    def rec(i: int) -> Iterator[Dict[int, bool]]:
        rest = residual_ok()
        if rest is None:
            return
        if i == len(proj):
            if solve(rest) is not None:
                yield dict(assign)
            return
        v = proj[i]
        for value in (False, True):
            assign[v] = value
            yield from rec(i + 1)
        del assign[v]

    yield from rec(0)
