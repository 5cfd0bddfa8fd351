"""Propositional layer: flat (MACE-style) grounding straight to CNF for
every satisfiability query, compiled once per conjunction of sentences into
slot-indexed clause plans and emitted per universe size by column arithmetic;
fixed-universe grounding to a formula tree with Tseitin conversion, used
only to enumerate models; DPLL; Herbrand-style BSR grounding; and DIMACS
export."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, Iterator,
                    List, Mapping, Optional, Sequence, Tuple)

from . import _dpll_py
from .errors import CapExceeded
from .syntax import EXISTS, FORALL, Const, Eq, Literal, PrenexForm, Term, Var

DEFAULT_NODE_CAP = 1_000_000
DEFAULT_CLAUSE_CAP = 1_000_000

GroundCnf = List[List[int]]
AtomKey = Tuple[str, Tuple]  # (predicate or "=", argument tuple)


class AtomTable:
    """Bidirectional ground-atom <-> id registry; ids dense from 1.  The
    given keys, which must be distinct, take ids 1, 2, ... in order."""

    def __init__(self, keys: Iterable[AtomKey] = ()):
        self._by_id: List[AtomKey] = list(keys)
        self._by_key: Dict[AtomKey, int] = {
            key: i for i, key in enumerate(self._by_id, start=1)}

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
        return enumerate(self._by_id, start=1)


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


# ---------------------------------------------------------------------------
# Fixed-universe grounding

def ground_fixed_universe(pf: PrenexForm, n: int,
                          const_values: Optional[Mapping[str, int]] = None,
                          node_cap: int = DEFAULT_NODE_CAP) -> Tuple[PropFormula, AtomTable]:
    """Expand a PCNF sentence over the universe {0..n-1}: ∀ to conjunction,
    ∃ to disjunction.  Ground equalities between concrete elements evaluate
    at grounding time.  Constant symbols require concrete values via
    const_values."""
    if n < 1:
        raise ValueError("universe must be nonempty")
    if not pf.is_sentence():
        raise ValueError("grounding requires a sentence")
    const_values = dict(const_values or {})
    missing = [c for c in pf.vocabulary.constants if c not in const_values]
    if missing:
        raise ValueError(f"no value for constant(s) {missing}")
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

def minimal_clauses(clauses: Iterable[Iterable[Hashable]]) -> List[Tuple]:
    """The clauses, each with its repeated literals merged into the first
    occurrence, less every clause that holds all the literals of another
    (subsumption: Eén & Biere 2005); of equal clauses the first stays, and
    the survivors keep their order.  An equivalent CNF."""
    merged = [tuple(dict.fromkeys(c)) for c in clauses]
    kept: Dict[Hashable, List[FrozenSet]] = {}  # by one of their literals
    keep = []
    # shorter first, so that a clause meets every clause it could hold
    for i in sorted(range(len(merged)), key=lambda i: len(merged[i])):
        s = frozenset(merged[i])
        if not s:  # the empty clause holds in every other
            return [()]
        if not any(t <= s for lit in s for t in kept.get(lit, ())):
            kept.setdefault(merged[i][0], []).append(s)
            keep.append(i)
    return [merged[i] for i in sorted(keep)]


class FlatPlan:
    """The flat grounding of a conjunction of PCNF sentences that share
    predicates and constants, compiled once for every universe size;
    ground(n, node_cap) emits the CNF for size n, in one id space.

    Each sentence's matrix is first compiled to its minimal clause set
    (minimal_clauses): a repeated literal is merged and a clause that holds
    all the literals of another is dropped, which leaves an equivalent
    matrix; only what that set mentions gets a table or a plan.

    Symbols are numbered sentence by sentence: first its predicates not yet
    numbered, in vocabulary order; then its constants not yet numbered,
    each a 0-ary table (Const(c), (d,)) with exactly-one clauses; then its
    Skolem tables, in prefix order: an existential v whose preceding
    universals in its own sentence are D is a table of selector atoms
    (Var(v), ē + (d,)), "v is d at ē", with one at-least-one clause per
    ē ∈ nᴰ.  A bound variable named like a predicate, a constant or another
    sentence's existential is a ValueError.  A matrix clause becomes a plan
    over integer slots: the universals it mentions, in prefix order, then
    the tables it selects, each ranging over {0..n-1}; its instances are
    the slot tuples in lexicographic order.  A disequality literal ¬(s=t)
    keeps only instances with s=t, so the later slot is merged into the
    earlier one, which keeps that order; an equality literal s=t keeps only
    instances with s≠t.  The plan's literals are the clause's predicate
    atoms, then one ¬selector guard per table it selects.  A literal is
    (symbol, slot count, sign, argument slots...); the clauses that share
    one share its id column.

    ground(n, symmetric=True) breaks the symmetry of the universe (the
    constant ordering of Claessen & Sörensson 2003, Mace4's least-number
    rule in McCune 2003).  The 0-ary tables, the constants and the
    existentials with no universal before them, are ordered across the
    sentences in symbol order, and the j-th of them (from 0) gets only the
    values {0..min(j, n-1)}: its at-least-one clause, and a constant's
    at-most-one clauses, cover only that range, and a clause instance that
    puts a restricted slot past its range is not emitted, since the false
    selector it guards on satisfies it.  So a model of the restricted CNF,
    with the cut selectors false, is a model of the full one.  Conversely,
    relabel any model by first occurrence: walk the 0-ary tables in order
    and send each value not met before to the least element not yet used.
    The j-th table's value then goes to one of at most j + 1 elements,
    {0..j}; the permutation carries the predicates and every Skolem table
    with it, so the relabelled structure is a model in range.  Every atom
    is still registered, so ids do not change; the cut selectors occur in
    no clause.  This holds only where every element is interchangeable,
    not where atoms are pinned."""

    def __init__(self, *sentences: PrenexForm):
        if not all(pf.is_sentence() for pf in sentences):
            raise ValueError("grounding requires a sentence")
        self.sentences = sentences
        for (i, pf), (j, g) in itertools.product(enumerate(sentences), repeat=2):
            for _, v in pf.prefix:
                if (g.vocabulary.is_predicate(v) or g.vocabulary.is_constant(v)
                        or i != j and (EXISTS, v) in g.prefix):
                    raise ValueError(f"bound variable {v!r} names a symbol")
        # (atom key head: a predicate's name, Const(c) or Var(v); arity)
        self.symbols: List[Tuple[object, int]] = []
        # the symbol of a predicate's name, a Const or an existential's name
        symbol: Dict[object, int] = {}
        # a 0-ary table's symbol -> its place among the 0-ary tables
        self.rank: Dict[int, int] = {}
        literals: Dict[Tuple[int, ...], int] = {}  # literal -> its number
        # (slot count, slot pairs that must differ, (the slots those pairs
        #  mention, the pairs renumbered over only those slots), literal
        #  numbers, (rank, slot) pairs of the 0-ary tables it selects,
        #  ascending)
        self.clauses: List[Tuple] = []
        for pf in sentences:
            # (sign, predicate name or None for "=", argument terms), a
            # variable keyed by its name; the minimal clause set
            matrix = minimal_clauses([_plan_literal(lit) for lit in clause]
                                     for clause in pf.matrix)
            mentioned = {k for c in matrix for _, _, ks in c for k in ks}
            deps: Dict[object, Tuple[str, ...]] = {
                Const(c): () for c in pf.vocabulary.constants}
            universals: List[str] = []
            for q, v in pf.prefix:
                if q == FORALL:
                    universals.append(v)
                elif v in mentioned:
                    deps[v] = tuple(universals)
            for k, arity in [*pf.vocabulary.predicates,
                             *[(k, len(dep) + 1) for k, dep in deps.items()]]:
                if k not in symbol:
                    symbol[k] = len(self.symbols)
                    head = Var(k) if k in deps and isinstance(k, str) else k
                    self.symbols.append((head, arity))
                    if k in deps and not deps[k]:
                        self.rank[symbol[k]] = len(self.rank)
            # a table's selector arguments: its universals, itself
            guard = {k: dep + (k,) for k, dep in deps.items()}
            for clause in matrix:
                terms = set().union(*[ks for _, _, ks in clause])
                chosen = [k for k in deps if k in terms]
                need = terms.difference(deps)
                need.update(*[deps[k] for k in chosen])
                slots: List[object] = [u for u in universals if u in need]
                slots += chosen
                index = {k: i for i, k in enumerate(slots)}
                eqs = [(sign, ks) for sign, sym, ks in clause if sym is None]
                rep = list(range(len(slots)))  # the earliest slot equal to each
                for sign, (s, t) in eqs:
                    if sign < 0:
                        a, b = sorted((rep[index[s]], rep[index[t]]))
                        rep = [a if r == b else r for r in rep]
                free = sorted(set(rep))
                if len(free) < len(slots):
                    index = {k: free.index(rep[i]) for k, i in index.items()}
                diffs = tuple(sorted({tuple(sorted((index[s], index[t])))
                                      for sign, (s, t) in eqs if sign > 0}))
                seen = sorted({s for pair in diffs for s in pair})
                local = tuple((seen.index(a), seen.index(b)) for a, b in diffs)
                width, at = len(free), index.__getitem__
                signed = [(sign, symbol[sym], ks) for sign, sym, ks in clause
                          if sym is not None]
                signed += [(-1, symbol[k], guard[k]) for k in chosen]
                lits = [literals.setdefault((sym, width, sign, *map(at, ks)),
                                            len(literals))
                        for sign, sym, ks in signed]
                ranks = sorted([(self.rank[symbol[k]], index[k])
                                for k in chosen if symbol[k] in self.rank])
                self.clauses.append((width, diffs, (seen, local), lits, ranks))
        self.literals = list(literals)

    def ground(self, n: int, node_cap: int = DEFAULT_NODE_CAP,
               symmetric: bool = False) -> Tuple[GroundCnf, AtomTable]:
        """The CNF over the universe {0..n-1} and its atom table.  Each
        symbol's atoms take consecutive ids, argument tuples ascending, so
        over one sentence ids 1..A are exactly the predicate atoms.
        node_cap bounds the literals emitted, each charge made before its
        lists are built, and then, separately, the predicate atoms of every
        sentence, checked before any atom is registered.  symmetric
        restricts the 0-ary tables' values (see the class), which leaves
        the CNF equisatisfiable, not equivalent."""
        if n < 1:
            raise ValueError("universe must be nonempty")
        # symbol -> id of its first atom, minus 1; a symbol of arity r has
        # nʳ atoms, so a table has n values in each of its nʳ⁻¹ rows
        start = [0, *itertools.accumulate(n ** arity
                                          for _, arity in self.symbols)]
        cnf: GroundCnf = []
        emitted = 0

        def charge(literals: int) -> None:
            nonlocal emitted
            emitted += literals
            if emitted > node_cap:
                raise CapExceeded("flat grounding literal cap", emitted, node_cap)

        atoms = 0  # predicate atoms, registered only after the caps
        for sym, (key, arity) in enumerate(self.symbols):
            if isinstance(key, str):  # a predicate
                atoms += n ** arity
                continue
            is_const = isinstance(key, Const)
            values = n
            if symmetric and sym in self.rank:
                values = min(self.rank[sym] + 1, n)
            charge(n ** (arity - 1)
                   * (values + (values * (values - 1) if is_const else 0)))
            for row in range(start[sym] + 1, start[sym + 1] + 1, n):
                allowed = range(row, row + values)
                cnf.append(list(allowed))
                if is_const:  # at most one value
                    cnf.extend([-a, -b] for a, b in
                               itertools.combinations(allowed, 2))

        # columns and masks over the instances of slots with the given
        # ranges (a shape), each built once.  Without symmetric every slot
        # ranges over n values; with it a slot of the j-th 0-ary table ranges
        # over min(j + 1, n)
        digits: Dict[Tuple[Tuple[int, ...], int, int], List[int]] = {}
        columns: Dict[Tuple[int, ...], List[Optional[List[int]]]] = {}
        masks: Dict[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]],
                    List[bool]] = {}

        def digit(shape: Tuple[int, ...], i: int, w: int = 1) -> List[int]:
            # w · (the value of slot i), instances in lexicographic order
            key = (shape, i, w)
            got = digits.get(key)
            if got is None:
                inner, outer = math.prod(shape[i + 1:]), math.prod(shape[:i])
                got = digits[key] = list(itertools.chain.from_iterable(
                    itertools.repeat(w * d, inner)
                    for d in range(shape[i]))) * outer
            return got

        def column(lit: int, shape: Tuple[int, ...], size: int,
                   cache: List[Optional[List[int]]]) -> List[int]:
            # the literal's signed atom id: its symbol's first id plus the
            # values of the argument slots read as a base-n numeral
            sym, _, sign, *args = self.literals[lit]
            weights: Dict[int, int] = {}
            w = sign
            for s in reversed(args):
                weights[s] = weights.get(s, 0) + w
                w *= n
            col = [sign * (start[sym] + 1)] * size
            for s, w in weights.items():
                col = list(map(operator.add, col, digit(shape, s, w)))
            cache[lit] = col
            return col

        def differ(shape: Tuple[int, ...],
                   pairs: Tuple[Tuple[int, int], ...]) -> List[bool]:
            # whether every pair of slots differs
            if (shape, pairs) not in masks:
                keep: Iterable[bool] = itertools.repeat(True, math.prod(shape))
                for a, b in pairs:
                    keep = map(operator.and_, keep, map(
                        operator.ne, digit(shape, a), digit(shape, b)))
                masks[(shape, pairs)] = list(keep)
            return masks[(shape, pairs)]

        for width, diffs, (seen, local), lits, ranks in self.clauses:
            shape = (n,) * width
            if symmetric and ranks:
                radices = list(shape)
                for j, s in ranks:  # ¬(c=d) puts two tables in one slot
                    radices[s] = min(radices[s], j + 1)
                shape = tuple(radices)
            count = size = math.prod(shape)
            if diffs:  # counted over only the slots that they mention
                sub = tuple([shape[s] for s in seen])
                count = sum(differ(sub, local)) * size // math.prod(sub)
            charge(count * len(lits))
            if not count:
                continue
            cache = columns.get(shape)
            if cache is None:
                cache = columns[shape] = [None] * len(self.literals)
            cols = [cache[lit] or column(lit, shape, size, cache)
                    for lit in lits]
            rows = zip(*cols) if cols else itertools.repeat((), size)
            if diffs:
                rows = itertools.compress(rows, differ(shape, diffs))
            cnf.extend(map(list, rows))

        if atoms > node_cap:
            raise CapExceeded("flat grounding atom registration cap", atoms,
                              node_cap)
        return cnf, AtomTable(
            (key, args) for key, arity in self.symbols
            for args in itertools.product(range(n), repeat=arity))


def _plan_literal(lit: Literal) -> Tuple[int, Optional[str], Tuple]:
    atom = lit.atom
    if isinstance(atom, Eq):
        pred, args = None, (atom.left, atom.right)
    else:
        pred, args = atom.predicate, atom.args
    keys = tuple([t.name if isinstance(t, Var) else t for t in args])
    return 1 if lit.positive else -1, pred, keys


# ---------------------------------------------------------------------------
# Tseitin

def tseitin(p: PropFormula, table: Optional[AtomTable] = None) -> GroundCnf:
    """Equisatisfiable CNF; a model restricted to original atoms models p.
    Auxiliary variables are numbered after the table's atoms (or after the
    largest mentioned atom when no table is given).

    A constant tree gives [] when true and [[]] when false.  Otherwise the
    last clause is the unit [root], root being a literal, and the clauses
    before it define every auxiliary variable from the atoms, both ways,
    so that they propagate to one value of each under every assignment of
    the atoms."""
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
            return t
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
    """SAT: total assignment over mentioned atoms, the lexicographically
    greatest model of cnf (variables ascending, true above false); UNSAT:
    None.  On a grounding with the domain symmetry broken
    (FlatPlan.ground(n, symmetric=True)) that is the greatest model of the
    restricted CNF, which need not be the greatest of the full one."""
    return _dpll_py.solve(cnf)


def all_models(cnf: Sequence[Sequence[int]],
               projection: Iterable[int]) -> Iterator[Dict[int, bool]]:
    """Every satisfying assignment restricted to projection, exactly once.

    Deterministic depth-first search over the projection variables in
    ascending order, false first, on one pure-kernel state: each branch
    assumes and propagates (a conflict prunes only model-free subtrees),
    each leaf searches for an extension.  A leaf's search learns clauses
    that follow from cnf alone, so later leaves keep them.  Variables
    outside cnf take both values.  This is model_blocks with no root and
    nothing settled."""
    for model, _ in model_blocks(cnf, projection):
        yield model


def model_blocks(cnf: Sequence[Sequence[int]], projection: Iterable[int],
                 root: Optional[int] = None,
                 settled: Optional[Callable[[Dict[int, bool], int], bool]] = None
                 ) -> Iterator[Tuple[Dict[int, bool], int]]:
    """all_models' walk over the models of cnf ∧ root, in blocks: pairs
    (assignment, k), where the assignment sets the first len(projection) - k
    projection variables and every one of its 2^k extensions is a model.

    With no root and no settled test every block is one model, k = 0.  A
    root is a literal kept out of cnf and read off the walk: a subtree where
    it is false is skipped.  A subtree where it is true (always, when root
    is None) and settled(assignment, depth) holds is one block.  The block
    rule needs cnf to define every other variable from the projection, as
    tseitin's definitions do, so that each extension of the projection
    extends to exactly one model of cnf, by propagation alone."""
    proj = sorted(set(projection))
    state = _dpll_py.Dpll(cnf)
    index = dict(zip(state.ids, state.variables))
    if root is not None and abs(root) not in index:
        # a root the clauses never mention: define a fresh variable as it,
        # so that the kernel reads the root
        r = max(proj + state.ids + [abs(root)]) + 1
        yield from model_blocks([*cnf, [-r, root], [r, -root]], proj, r,
                                settled)
    elif state.ok:
        if root is not None:
            root = index[root] if root > 0 else -index[-root]
        yield from _extend(state, proj, index, {}, 0, root, settled)


def _extend(state: _dpll_py.Dpll, proj: List[int], index: Dict[int, int],
            assign: Dict[int, bool], i: int, root: Optional[int],
            settled: Optional[Callable[[Dict[int, bool], int], bool]]
            ) -> Iterator[Tuple[Dict[int, bool], int]]:
    # a module-level generator, not a closure, so that no reference cycle
    # keeps the kernel state alive after enumeration ends; root is a kernel
    # literal, and its val entry is truthy while it is true
    value = True if root is None else state.val[root]
    if value is False:
        return
    if value and settled is not None and settled(assign, i):
        yield dict(assign), len(proj) - i
        return
    if i == len(proj):
        if state.search():
            yield dict(assign), 0
        return
    v = proj[i]
    mark = len(state.trail)
    for value in (False, True):
        if v not in index or state.assume(index[v] if value else -index[v]):
            assign[v] = value
            yield from _extend(state, proj, index, assign, i + 1, root, settled)
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
