"""Pure-Python DPLL kernel with two watched literals, the package's SAT solver.

Propagate to fixpoint, branch on the smallest unassigned variable, true
first, backtrack chronologically.  It returns the lexicographically greatest
model (variables ascending, true above false) whatever order clauses
propagate in, so its models match the naive reference solver's bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


class Dpll:
    """Kernel state for one CNF, driven by assume(), undo() and search().

    Literals index lists (negative ones wrap): val[lit] is True, False or
    None; once lit is true, imp[lit] lists what binary clauses force and
    watch[lit] the longer clauses, watched at positions 0 and 1, to visit.
    """

    def __init__(self, clauses: Sequence[Sequence[int]]):
        self.ids = self.variables = ids = sorted(set(map(abs, set().union(*clauses))))
        if ids and ids[-1] > 2 * len(ids):  # sparse ids: relabel them 1..n
            self.variables = list(range(1, len(ids) + 1))
            new = dict(zip(ids, self.variables))
            clauses = [[new[l] if l > 0 else -new[-l] for l in c] for c in clauses]
        size = 2 * (self.variables[-1] if ids else 0) + 1
        self.val = [None] * size
        self.imp = imp = [[] for _ in range(size)]
        self.watch = watch = [[] for _ in range(size)]
        self.trail, self.qhead, self.ok = [], 0, True
        units = []
        for c in clauses:
            if len(c) > 2:
                c = list(c)
                watch[-c[0]].append(c)
                watch[-c[1]].append(c)
            elif len(c) == 2:
                imp[-c[0]].append(c[1])
                imp[-c[1]].append(c[0])
            elif c:
                units.append(c[0])
            else:
                self.ok = False
        self.ok = self.ok and all(map(self.assume, units))

    def assume(self, lit: int) -> bool:
        """Make lit, over a variable in self.variables, true and propagate.
        False on conflict; the state is then inconsistent until undo()."""
        trail, val, imp, watch = self.trail, self.val, self.imp, self.watch
        if val[lit] is not None:
            return val[lit]
        val[lit], val[-lit] = True, False
        trail.append(lit)
        i = self.qhead
        while i < len(trail):
            p = trail[i]
            i += 1
            for q in imp[p]:
                if val[q] is None:
                    val[q], val[-q] = True, False
                    trail.append(q)
                elif not val[q]:
                    return False
            if not watch[p]:
                continue
            false, keep, it = -p, [], iter(watch[p])
            watch[p] = keep
            for c in it:
                if c[0] == false:
                    c[0], c[1] = c[1], false
                other = c[0]
                if val[other]:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    alt = c[k]
                    if val[alt] is not False:
                        c[1], c[k] = alt, false
                        watch[-alt].append(c)
                        break
                else:
                    keep.append(c)
                    if val[other] is not None:
                        keep.extend(it)
                        return False
                    val[other], val[-other] = True, False
                    trail.append(other)
        self.qhead = i
        return True

    def undo(self, trail_len: int) -> None:
        """Unassign every literal after the first trail_len on the trail."""
        val = self.val
        for lit in self.trail[trail_len:]:
            val[lit] = val[-lit] = None
        del self.trail[trail_len:]
        self.qhead = trail_len

    def search(self) -> bool:
        """Decide the unassigned variables.  True leaves a model on the
        trail; False, for no model under the current assignment, restores
        the state search started from."""
        if not self.ok:
            return False
        variables, val, n = self.variables, self.val, len(self.variables)
        stack = []  # (trail length before a decision, its variable's index)
        i = 0
        while len(self.trail) < n:  # the trail holds only mentioned variables
            while val[variables[i]] is not None:
                i += 1
            stack.append((len(self.trail), i))
            if self.assume(variables[i]):
                continue
            while stack:  # chronological backtracking; ~i marks false tried
                mark, i = stack.pop()
                self.undo(mark)
                if i >= 0:
                    stack.append((mark, ~i))
                    if self.assume(-variables[i]):
                        break
            else:
                return False
        return True


def solve(clauses: Sequence[Sequence[int]]) -> Optional[Dict[int, bool]]:
    """Return a total satisfying assignment over mentioned variables, or None."""
    state = Dpll(clauses)
    if not state.search():
        return None
    return {v: state.val[x] for v, x in zip(state.ids, state.variables)}
