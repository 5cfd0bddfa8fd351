"""Propositional layer: flat (MACE-style) grounding straight to CNF for
model search, fixed-universe grounding to a formula tree with Tseitin
conversion for equivalence checks and model enumeration, DPLL, Herbrand-style
BSR grounding, and DIMACS export."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from . import _dpll_py
from .errors import CapExceeded
from .syntax import EXISTS, FORALL, Const, Eq, Literal, PrenexForm, Term, Var

DEFAULT_NODE_CAP = 1_000_000
DEFAULT_CLAUSE_CAP = 1_000_000

GroundCnf = List[List[int]]
AtomKey = Tuple[str, Tuple]  # (predicate or "=", argument tuple)


class AtomTable:
    """Bidirectional ground-atom <-> id registry; ids dense from 1."""

    def __init__(self):
        self._by_key: Dict[AtomKey, int] = {}
        self._by_id: List[AtomKey] = []

    def id_of(self, key: AtomKey) -> int:
        got = self._by_key.get(key)
        if got is None:
            self._by_id.append(key)
            got = len(self._by_id)
            self._by_key[key] = got
        return got

    def lookup(self, key: AtomKey) -> Optional[int]:
        return self._by_key.get(key)

    def key_of(self, atom_id: int) -> AtomKey:
        return self._by_id[atom_id - 1]

    def name_of(self, atom_id: int) -> str:
        pred, args = self.key_of(atom_id)
        if pred == "=":
            return f"{args[0]}={args[1]}"
        return f"{pred}({','.join(str(a) for a in args)})"

    def __len__(self) -> int:
        return len(self._by_id)

    def items(self) -> Iterator[Tuple[int, AtomKey]]:
        for i, key in enumerate(self._by_id, start=1):
            yield i, key


# ---------------------------------------------------------------------------
# Propositional formulas

@dataclass(frozen=True)
class PropFormula:
    pass


@dataclass(frozen=True)
class PConst(PropFormula):
    value: bool


@dataclass(frozen=True)
class PLit(PropFormula):
    lit: int  # signed atom id, never 0


@dataclass(frozen=True)
class PNot(PropFormula):
    sub: PropFormula


@dataclass(frozen=True)
class PAnd(PropFormula):
    args: Tuple[PropFormula, ...]


@dataclass(frozen=True)
class POr(PropFormula):
    args: Tuple[PropFormula, ...]


def p_and(parts: Iterable[PropFormula]) -> PropFormula:
    out = []
    for p in parts:
        if isinstance(p, PConst):
            if not p.value:
                return PConst(False)
        else:
            out.append(p)
    if not out:
        return PConst(True)
    return out[0] if len(out) == 1 else PAnd(tuple(out))


def p_or(parts: Iterable[PropFormula]) -> PropFormula:
    out = []
    for p in parts:
        if isinstance(p, PConst):
            if p.value:
                return PConst(True)
        else:
            out.append(p)
    if not out:
        return PConst(False)
    return out[0] if len(out) == 1 else POr(tuple(out))


def p_not(p: PropFormula) -> PropFormula:
    if isinstance(p, PConst):
        return PConst(not p.value)
    if isinstance(p, PLit):
        return PLit(-p.lit)
    if isinstance(p, PNot):
        return p.sub
    return PNot(p)


# ---------------------------------------------------------------------------
# Fixed-universe grounding

def ground_fixed_universe(pf: PrenexForm, n: int,
                          fixed: Optional[Mapping[Tuple[str, Tuple[int, ...]], bool]] = None,
                          const_values: Optional[Mapping[str, int]] = None,
                          table: Optional[AtomTable] = None,
                          node_cap: int = DEFAULT_NODE_CAP) -> Tuple[PropFormula, AtomTable]:
    """Expand a PCNF sentence over the universe {0..n-1}: ∀ to conjunction,
    ∃ to disjunction.  Ground equalities between concrete elements evaluate
    at grounding time; atoms pinned by `fixed` become constants.  Constant
    symbols require concrete values via const_values."""
    if n < 1:
        raise ValueError("universe must be nonempty")
    if not pf.is_sentence():
        raise ValueError("grounding requires a sentence")
    const_values = dict(const_values or {})
    missing = [c for c in pf.vocabulary.constants if c not in const_values]
    if missing:
        raise ValueError(f"no value for constant(s) {missing}")
    fixed = dict(fixed or {})
    if table is None:
        table = AtomTable()
    budget = [node_cap]

    def charge(k: int = 1) -> None:
        budget[0] -= k
        if budget[0] < 0:
            raise CapExceeded("grounding node cap", node_cap - budget[0], node_cap)

    def term_value(t: Term, a: Dict[str, int]) -> int:
        return a[t.name] if isinstance(t, Var) else const_values[t.name]

    def ground_matrix(a: Dict[str, int]) -> PropFormula:
        clauses = []
        for clause in pf.matrix:
            lits = []
            for lit in clause:
                atom = lit.atom
                if isinstance(atom, Eq):
                    value = term_value(atom.left, a) == term_value(atom.right, a)
                    lits.append(PConst(value == lit.positive))
                else:
                    args = tuple(term_value(t, a) for t in atom.args)
                    pin = fixed.get((atom.predicate, args))
                    if pin is not None:
                        lits.append(PConst(pin == lit.positive))
                    else:
                        aid = table.id_of((atom.predicate, args))
                        lits.append(PLit(aid if lit.positive else -aid))
                charge()
            clauses.append(p_or(lits))
        return p_and(clauses)

    def expand(i: int, a: Dict[str, int]) -> PropFormula:
        if i == len(pf.prefix):
            return ground_matrix(a)
        q, v = pf.prefix[i]
        parts = []
        for e in range(n):
            a[v] = e
            part = expand(i + 1, a)
            charge()
            parts.append(part)
            # prune on dominating constants
            if q == FORALL and part == PConst(False):
                break
            if q == EXISTS and part == PConst(True):
                break
        del a[v]
        return p_and(parts) if q == FORALL else p_or(parts)

    return expand(0, {}), table


# ---------------------------------------------------------------------------
# Flat grounding (MACE-style: Claessen & Sörensson 2003; McCune 2003)

def ground_flat(pf: PrenexForm, n: int,
                node_cap: int = DEFAULT_NODE_CAP) -> Tuple[GroundCnf, AtomTable]:
    """An equisatisfiable CNF for a PCNF sentence over the universe
    {0..n-1}, grounded clause by clause with no formula tree.

    Every predicate atom is registered first, in vocabulary order and
    argument tuples ascending, so ids 1..A are exactly the predicate atoms.
    An existential v whose preceding universals are D becomes a Skolem
    table of selector atoms (Var(v), ē + (d,)), "v is d at ē", with one
    at-least-one clause per ē ∈ nᴰ; each constant c is a 0-ary table
    (Const(c), (d,)) with exactly-one clauses.  A matrix clause is grounded
    over only the universals it mentions and the D of each symbol it
    selects, guarded by one ¬selector per existential or constant, and
    ground equalities fold.  node_cap bounds the literals emitted."""
    if n < 1:
        raise ValueError("universe must be nonempty")
    if not pf.is_sentence():
        raise ValueError("grounding requires a sentence")
    table = AtomTable()
    start: Dict[object, int] = {}  # symbol -> id of its first atom, minus 1
    for name, arity in pf.vocabulary.predicates:
        start[name] = len(table)
        for args in itertools.product(range(n), repeat=arity):
            table.id_of((name, args))

    clause_terms = [{t for lit in clause for t in
                     ((lit.atom.left, lit.atom.right)
                      if isinstance(lit.atom, Eq) else lit.atom.args)}
                    for clause in pf.matrix]
    mentioned = set().union(*clause_terms)
    deps: Dict[Term, Tuple[str, ...]] = {Const(c): () for c in pf.vocabulary.constants}
    universals: List[str] = []
    for q, v in pf.prefix:
        if q == FORALL:
            universals.append(v)
        elif Var(v) in mentioned:
            deps[Var(v)] = tuple(universals)
    cnf: GroundCnf = []
    emitted = [0]

    def charge(literals: int) -> None:
        emitted[0] += literals
        if emitted[0] > node_cap:
            raise CapExceeded("ground_flat literal cap", emitted[0], node_cap)

    for sym, dep in deps.items():
        start[sym] = first = len(table)
        for e in itertools.product(range(n), repeat=len(dep)):
            for d in range(n):
                table.id_of((sym, e + (d,)))
        rows = range(first + 1, len(table) + 1, n)
        charge(len(rows) * (n + (n * (n - 1) if isinstance(sym, Const) else 0)))
        for row in rows:
            cnf.append(list(range(row, row + n)))
            if isinstance(sym, Const):  # at most one value
                cnf.extend([-a, -b] for a, b in
                           itertools.combinations(range(row, row + n), 2))

    def column(base: int, weights: Sequence[int]) -> List[int]:
        # base + Σ weights[i]·values[i] for every values ∈ nˢ, in product order
        col = [base]
        for w in weights:
            steps = [w * v for v in range(n)]
            col = [x + s for x in col for s in steps]
        return col

    for clause, terms in zip(pf.matrix, clause_terms):
        chosen = [s for s in deps if s in terms]
        need = {t.name for t in terms if isinstance(t, Var) and t not in deps}
        need.update(u for s in chosen for u in deps[s])
        # one slot per universal in prefix order, then one per chosen symbol
        slots = [Var(u) for u in universals if u in need] + chosen
        slot = {t: i for i, t in enumerate(slots)}

        def weights(args: Sequence[Term], sign: int) -> List[int]:
            # the rank of the argument tuple, as a linear form in the slots
            w = [0] * len(slots)
            for j, t in enumerate(reversed(args)):
                w[slot[t]] += sign * n ** j
            return w

        keep = [True] * n ** len(slots)
        for lit in clause:
            if isinstance(lit.atom, Eq):  # keep instances where it is false
                w = weights([lit.atom.left], 1)
                w[slot[lit.atom.right]] -= 1
                keep = [k and (d != 0) == lit.positive
                        for k, d in zip(keep, column(0, w))]
        # (sign, predicate or selected symbol, arguments): atoms, then guards
        signed = [(1 if lit.positive else -1, lit.atom.predicate, lit.atom.args)
                  for lit in clause if not isinstance(lit.atom, Eq)]
        signed += [(-1, s, [Var(u) for u in deps[s]] + [s]) for s in chosen]
        charge(sum(keep) * len(signed))
        cols = [column(sign * (start[sym] + 1), weights(args, sign))
                for sign, sym, args in signed]
        rows = zip(*cols) if cols else itertools.repeat((), len(keep))
        cnf.extend(map(list, itertools.compress(rows, keep)))
    return cnf, table


# ---------------------------------------------------------------------------
# Tseitin

def tseitin(p: PropFormula, table: Optional[AtomTable] = None) -> GroundCnf:
    """Equisatisfiable CNF; a model restricted to original atoms models p.
    Auxiliary variables are numbered after the table's atoms (or after the
    largest mentioned atom when no table is given)."""
    if isinstance(p, PConst):
        return [] if p.value else [[]]
    if table is not None:
        next_aux = [len(table) + 1]
    else:
        next_aux = [_max_atom(p) + 1]
    clauses: GroundCnf = []

    def encode(node: PropFormula) -> int:
        if isinstance(node, PLit):
            return node.lit
        if isinstance(node, PNot):
            return -encode(node.sub)
        if isinstance(node, PConst):
            # constants are folded away by p_and/p_or; a raw one gets a pinned aux
            t = next_aux[0]
            next_aux[0] += 1
            clauses.append([t] if node.value else [-t])
            return t if node.value else -t
        sub = [encode(a) for a in node.args]
        t = next_aux[0]
        next_aux[0] += 1
        if isinstance(node, PAnd):
            for s in sub:
                clauses.append([-t, s])
            clauses.append([t] + [-s for s in sub])
        else:
            clauses.append([-t] + sub)
            for s in sub:
                clauses.append([-s, t])
        return t

    root = encode(p)
    clauses.append([root])
    return clauses


def _max_atom(p: PropFormula) -> int:
    if isinstance(p, PLit):
        return abs(p.lit)
    if isinstance(p, PNot):
        return _max_atom(p.sub)
    if isinstance(p, (PAnd, POr)):
        return max(_max_atom(a) for a in p.args)
    return 0


# ---------------------------------------------------------------------------
# Solving and model enumeration

def dpll_solve(cnf: Sequence[Sequence[int]]) -> Optional[Dict[int, bool]]:
    """SAT: total assignment over mentioned atoms; UNSAT: None."""
    return _dpll_py.solve(cnf)


def all_models(cnf: Sequence[Sequence[int]],
               projection: Iterable[int]) -> Iterator[Dict[int, bool]]:
    """Every satisfying assignment restricted to projection, exactly once.

    Deterministic depth-first search over the projection variables in
    ascending order, false first, on one pure-kernel state: each branch
    assumes and propagates (a conflict prunes only model-free subtrees),
    each leaf searches for an extension.  Variables outside cnf take both
    values."""
    state = _dpll_py.Dpll(cnf)
    if state.ok:
        index = dict(zip(state.ids, state.variables))
        yield from _extend(state, sorted(set(projection)), index, {}, 0)


def _extend(state: _dpll_py.Dpll, proj: List[int], index: Dict[int, int],
            assign: Dict[int, bool], i: int) -> Iterator[Dict[int, bool]]:
    # a module-level generator, not a closure, so that no reference cycle
    # keeps the kernel state alive after enumeration ends
    if i == len(proj):
        if state.search():
            yield dict(assign)
        return
    v = proj[i]
    mark = len(state.trail)
    for value in (False, True):
        if v not in index or state.assume(index[v] if value else -index[v]):
            assign[v] = value
            yield from _extend(state, proj, index, assign, i + 1)
        state.undo(mark)
    assign.pop(v, None)


# ---------------------------------------------------------------------------
# Grounding clauses over a domain, with equality axioms

# a literal as (positive, predicate or "=", argument terms)
GroundLiteral = Tuple[bool, str, Tuple]


def literal_triples(matrix: Sequence[Sequence[Literal]],
                    conv: Callable[[Term], object]) -> List[List[GroundLiteral]]:
    """The matrix as (positive, predicate or "=", args) literals, with
    every term mapped through conv."""
    return [[(lit.positive, "=", (conv(lit.atom.left), conv(lit.atom.right)))
             if isinstance(lit.atom, Eq) else
             (lit.positive, lit.atom.predicate, tuple(conv(t) for t in lit.atom.args))
             for lit in clause]
            for clause in matrix]


def ground_over_domain(clauses: Sequence[Sequence[GroundLiteral]],
                       variables: Sequence[str], domain: Sequence,
                       subst: Callable[[object, Mapping[str, object]], object],
                       key: Callable[[object], object],
                       cap: int, cap_name: str) -> Tuple[GroundCnf, AtomTable]:
    """Instantiate clauses under every assignment of domain elements to
    variables (subst applies one to a term, key names a ground term in the
    atom table).  Equalities between equal terms fold to true; distinct ones
    are atoms symmetric by sorted keys.  When "=" occurs, transitivity over
    the domain and congruence for every predicate used are added."""
    table = AtomTable()
    cnf: GroundCnf = []

    def add(clause: List[int]) -> None:
        cnf.append(clause)
        if len(cnf) > cap:
            raise CapExceeded(cap_name, len(cnf), cap)

    def eq_lit(x, y) -> Optional[int]:
        if x == y:
            return None  # reflexivity: true
        return table.id_of(("=", tuple(sorted((key(x), key(y))))))

    for values in itertools.product(domain, repeat=len(variables)):
        a = dict(zip(variables, values))
        for clause in clauses:
            out: List[int] = []
            satisfied = False
            for positive, pred, args in clause:
                gargs = tuple(subst(t, a) for t in args)
                if pred == "=":
                    e = eq_lit(gargs[0], gargs[1])
                    if e is None:
                        if positive:
                            satisfied = True
                            break
                        continue  # a trivially-false literal drops out
                    out.append(e if positive else -e)
                else:
                    aid = table.id_of((pred, tuple(key(g) for g in gargs)))
                    out.append(aid if positive else -aid)
            if not satisfied:
                add(out)

    if any(pred == "=" for clause in clauses for _, pred, _ in clause):
        for x, y, z in itertools.permutations(domain, 3):
            add([-eq_lit(x, y), -eq_lit(y, z), eq_lit(x, z)])
        preds = sorted({(pred, len(args)) for clause in clauses
                        for _, pred, args in clause if pred != "=" and args})
        for pred, arity in preds:
            for t in itertools.product(domain, repeat=arity):
                for u in itertools.product(domain, repeat=arity):
                    if t == u:
                        continue
                    body = [-e for e in map(eq_lit, t, u) if e is not None]
                    pa = table.id_of((pred, tuple(key(g) for g in t)))
                    pb = table.id_of((pred, tuple(key(g) for g in u)))
                    add(body + [-pa, pb])
    return cnf, table


def bsr_ground(pf: PrenexForm,
               clause_cap: int = DEFAULT_CLAUSE_CAP) -> Tuple[GroundCnf, AtomTable]:
    """Ground an ∃*∀* sentence over a constant universe: existentials become
    fresh constants, universals range over all constants, and constant-level
    equality atoms are axiomatized (symmetry/reflexivity by normalization,
    plus transitivity and per-predicate congruence).  Equisatisfiable."""
    if not pf.is_bsr():
        raise ValueError("prefix is not in the shape exists*forall*")
    if not pf.is_sentence():
        raise ValueError("bsr_ground requires a sentence")
    exist_vars = [v for q, v in pf.prefix if q == EXISTS]
    univ_vars = [v for q, v in pf.prefix if q == FORALL]
    domain: List[str] = list(pf.vocabulary.constants)
    var_const: Dict[str, str] = {}
    for v in exist_vars:
        name = f"c_{v}"
        while name in domain:
            name += "_"
        var_const[v] = name
        domain.append(name)
    if not domain:
        domain.append("c_0")

    def conv(t: Term):
        # a universal stays a variable; the rest become constant names
        if isinstance(t, Const):
            return t.name
        return t if t.name in univ_vars else var_const[t.name]

    return ground_over_domain(literal_triples(pf.matrix, conv), univ_vars, domain,
                              lambda t, a: a[t.name] if isinstance(t, Var) else t,
                              str, clause_cap, "BSR grounding clause cap")


# ---------------------------------------------------------------------------
# DIMACS

def export_dimacs(cnf: Sequence[Sequence[int]], table: Optional[AtomTable] = None) -> str:
    nvars = max((abs(l) for clause in cnf for l in clause), default=0)
    lines = []
    if table is not None:
        for atom_id, _ in table.items():
            if atom_id <= nvars:
                lines.append(f"c {atom_id} {table.name_of(atom_id)}")
    lines.append(f"p cnf {nvars} {len(cnf)}")
    for clause in cnf:
        lines.append(" ".join(str(l) for l in clause) + " 0" if clause else "0")
    return "\n".join(lines) + "\n"
