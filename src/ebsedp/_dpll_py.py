"""Pure-Python DPLL kernel with two watched literals and clause learning, the
package's SAT solver.

Propagate to fixpoint and branch on the smallest unassigned variable, true
first.  A conflict yields its first-UIP clause (Marques-Silva & Sakallah
1999, GRASP): the kernel keeps it, backjumps to the highest level among its
other literals and asserts the UIP literal there, never below the trail
search() started from (Nadel & Ryvchin 2018).  Literals fixed when the
kernel is built are dropped from learned clauses, and literals assumed
before search() are kept, so every learned clause follows from the CNF
alone and stays valid across undo().

The model is still the lexicographically greatest one (variables ascending,
true above false), so it matches the naive reference solver's bit for bit.
Let v be the first variable where it differs from the greatest model m*.
Each literal on the trail up to v's is a decision, which sets the smallest
unassigned variable true and so one below v, true in m*; or an assumption,
true in m* by definition; or forced by a clause that follows from the CNF,
whose other literals are earlier and so false in m*.  By induction v's
literal is true in m* too, a contradiction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class Dpll:
    """Kernel state for one CNF, driven by assume(), undo() and search().

    Literals index lists (negative ones wrap): val[lit] is None while lit
    is unassigned, False while it is false, and while it is true its
    reason: True for a decision or an assumption, else the true literal of
    the binary clause that forced it, or the longer clause.  Once lit is
    true, imp[lit] lists what binary clauses force and watch[lit] the longer
    clauses, watched at positions 0 and 1, to visit.  decisions, conflicts
    and learned_literals count search's work.
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
        self.conflict = None  # the clause the last failed assume() falsified
        self.decisions = self.conflicts = self.learned_literals = 0
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
        self.fixed = set(self.trail)  # true for good: learned clauses omit them

    def assume(self, lit: int, why: object = True) -> bool:
        """Make lit, over a variable in self.variables, true for the reason
        why and propagate.  False on conflict, with the falsified clause in
        self.conflict; the state is then inconsistent until undo()."""
        trail, val, imp, watch = self.trail, self.val, self.imp, self.watch
        if val[lit] is not None:
            return val[lit] is not False
        val[lit], val[-lit] = why, False
        trail.append(lit)
        i = self.qhead
        while i < len(trail):
            p = trail[i]
            i += 1
            for q in imp[p]:
                if val[q] is None:
                    val[q], val[-q] = p, False
                    trail.append(q)
                elif not val[q]:
                    self.conflict = [-p, q]
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
                        self.conflict = c
                        return False
                    val[other], val[-other] = c, False
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
        """Decide the unassigned variables, learning a clause from each
        conflict.  True leaves a model on the trail; False, for no model
        under the current assignment, restores the trail search started
        from.  Learned clauses stay either way."""
        if not self.ok:
            return False
        variables, val, trail = self.variables, self.val, self.trail
        n, start, decisions = len(variables), len(trail), 0
        stack = []  # (trail length before a decision, its variable's index)
        i = 0
        while len(trail) < n:  # the trail holds only mentioned variables
            while val[variables[i]] is not None:
                i += 1
            stack.append((len(trail), i))
            decisions += 1
            lit, why = variables[i], True
            while not self.assume(lit, why):
                self.conflicts += 1
                if not stack:  # no decision to undo: no model
                    self.undo(start)
                    self.decisions += decisions
                    return False
                lit, why, level = self._learn(stack)
                # every variable below the first undone decision's is set
                mark, i = stack[level]
                del stack[level:]
                self.undo(mark)
        self.decisions += decisions
        return True

    def _learn(self, stack: List[Tuple[int, int]]) -> Tuple[int, object, int]:
        """Learn the first-UIP clause of self.conflict, which falsifies a
        literal set after the last decision on stack.  Return the literal
        the clause asserts, its reason and the level it asserts at."""
        trail, val, fixed = self.trail, self.val, self.fixed
        top = stack[-1][0]
        current = set(trail[top:])
        # seen: the trail literals the resolvent negates; lower: those set
        # before the last decision and not fixed, which the clause keeps
        seen, lower = set(), []
        count, k, p, why = 0, len(trail), 0, self.conflict
        while True:
            for t in (why,) if type(why) is int else [-l for l in why if l != p]:
                if t not in seen:
                    seen.add(t)
                    if t in current:
                        count += 1
                    elif t not in fixed:
                        lower.append(t)
            k -= 1
            while trail[k] not in seen:
                k -= 1
            p = trail[k]
            count -= 1
            if not count:
                break
            why = val[p]
        self.learned_literals += 1 + len(lower)
        if not lower:  # a unit clause: assert it after the start trail
            return -p, True, 0
        # the lower literal latest on the trail fixes the level
        level, k = len(stack) - 1, top
        while True:
            k -= 1
            if level and k < stack[level - 1][0]:
                level -= 1
            if trail[k] in seen:
                break
        w = trail[k]
        if len(lower) == 1:
            self.imp[p].append(-w)
            self.imp[w].append(-p)
            return -p, w, level
        # watched on the asserted literal and on -w, the last of the others
        # that an undo unassigns
        clause = [-p, -w] + [-t for t in lower if t != w]
        self.watch[p].append(clause)
        self.watch[w].append(clause)
        return -p, clause, level


def solve(clauses: Sequence[Sequence[int]]) -> Optional[Dict[int, bool]]:
    """Return a total satisfying assignment over mentioned variables, or None."""
    state = Dpll(clauses)
    if not state.search():
        return None
    return {v: state.val[x] is not False for v, x in zip(state.ids, state.variables)}
