"""Decision procedures and semantic oracles: bounded SAT, the interleaved
semi-decision procedure, spectra, bounded equivalence, the extensible
bounded-submodel oracle, and bounded search for the least translation bound."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Mapping, Optional, Set, Tuple)

from ._dpll_py import Dpll
from .edp import BoundReport
from .errors import CapExceeded
from .groundsat import (DEFAULT_NODE_CAP, AtomKey, AtomTable, FlatPlan,
                        GroundLiteral, dpll_solve, ground_fixed_universe,
                        ground_over_domain, literal_triples, model_blocks,
                        tseitin)
from .structures import FiniteStructure, count_structures, evaluate
from .syntax import (EXISTS, FORALL, Atom, Const, Literal, PrenexForm, Term,
                     Var, Vocabulary, free_vars, substitute)

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SatOutcome:
    verdict: str  # SAT | UNSAT | UNKNOWN
    model: Optional[FiniteStructure] = None
    effort: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == SAT and self.model is None:
            raise ValueError("SAT verdict requires a model")

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict, "effort": dict(sorted(self.effort.items()))}
        if self.model is not None:
            out["model"] = self.model.to_json_dict()
        return out


@dataclass(frozen=True)
class SpectrumResult:
    nMax: int
    realizable: Tuple[bool, ...]  # index i: size i+1
    witnesses: Mapping[int, FiniteStructure] = field(default_factory=dict)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(i + 1 for i, ok in enumerate(self.realizable) if ok)

    def to_json_dict(self) -> dict:
        return {"nMax": self.nMax, "sizes": list(self.sizes())}


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    nCap: int
    countermodel: Optional[FiniteStructure] = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


@dataclass(frozen=True)
class EbsVerdict:
    passed: bool
    sigma: Tuple[str, ...]
    B: int
    nMax: int
    models_checked: int
    fail_model: Optional[FiniteStructure] = None
    fail_extension: Optional[Tuple[int, ...]] = None
    # per candidate core: one extension whose completion query is UNSAT
    core_evidence: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...] = ()

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        out = {"pass": self.passed, "sigma": list(self.sigma), "B": self.B,
               "nMax": self.nMax, "modelsChecked": self.models_checked}
        if self.fail_model is not None:
            out["failModel"] = self.fail_model.to_json_dict()
            out["failExtension"] = list(self.fail_extension or ())
            out["coreEvidence"] = [
                {"core": list(core), "extension": list(ext)}
                for core, ext in self.core_evidence]
        return out


# ---------------------------------------------------------------------------
# Per-size SAT

def _model_to_structure(pf: PrenexForm, n: int, table: AtomTable,
                        assignment: Mapping[int, bool],
                        const_values: Mapping[str, int]) -> FiniteStructure:
    """The structure whose true atoms are the predicate atoms of table true
    in assignment."""
    interp: Dict[str, set] = {name: set() for name, _ in pf.vocabulary.predicates}
    for atom_id, (pred, args) in table.items():
        if pred in interp and assignment.get(atom_id, False):
            interp[pred].add(args)
    return FiniteStructure(pf.vocabulary, n, interp, const_values)


def _flat_model(pf: PrenexForm, n: int, table: AtomTable,
                assignment: Mapping[int, bool]) -> FiniteStructure:
    """The structure a satisfying assignment of a flat grounding of pf
    describes: each constant's value is its one true selector.  A
    selector that a restricted grounding cuts is in no clause, so not in
    the assignment, and reads false."""
    consts = {c: next(d for d in range(n)
                      if assignment.get(table.lookup((Const(c), (d,))), False))
              for c in pf.vocabulary.constants}
    return _model_to_structure(pf, n, table, assignment, consts)


def _sat_at_size(plan: FlatPlan, n: int,
                 node_cap: int = DEFAULT_NODE_CAP) -> Optional[FiniteStructure]:
    """A model of the plan's sentence with universe exactly {0..n-1}, or
    None: the greatest model (see dpll_solve) of the grounding with the
    domain symmetry broken, since every element is interchangeable here."""
    pf, = plan.sentences
    cnf, table = plan.ground(n, node_cap, symmetric=True)
    assignment = dpll_solve(cnf)
    if assignment is None:
        return None
    M = _flat_model(pf, n, table, assignment)
    if not evaluate(M, pf):
        raise AssertionError("grounding returned an unverifiable model")
    return M


def decide_sat_bounded(pf: PrenexForm, B: int,
                       node_cap: int = DEFAULT_NODE_CAP) -> SatOutcome:
    """SAT iff some structure of size ≤ max(B,1) models pf.  Complete only
    under a bounded-model guarantee for pf (e.g. a membership bound B).
    node_cap bounds the ground literals of each size's flat grounding,
    with the domain symmetry broken as in spectrum;
    CapExceeded ("flat grounding literal cap") when one needs more."""
    if B < 0:
        raise ValueError("bound must be nonnegative")
    if not pf.is_sentence():
        raise ValueError("satisfiability is for sentences")
    plan = FlatPlan(pf)
    for n in range(1, max(B, 1) + 1):
        M = _sat_at_size(plan, n, node_cap)
        if M is not None:
            return SatOutcome(SAT, M, {"sizes_tried": n})
    return SatOutcome(UNSAT, None, {"sizes_tried": max(B, 1)})


# ---------------------------------------------------------------------------
# Interleaved model search / refutation search

# private skolem term language: ("c", name) or ("f", name, (args...))
_STerm = Tuple


def _skolemize(pf: PrenexForm) -> Tuple[List[List[GroundLiteral]],
                                        List[Tuple[str, int]], List[str]]:
    """CNF clauses over skolem terms, the skolem function signatures, and the
    base constants of the Herbrand universe."""
    env: Dict[str, _STerm] = {}
    universal: List[str] = []
    funcs: List[Tuple[str, int]] = []
    for i, (q, v) in enumerate(pf.prefix):
        if q == FORALL:
            universal.append(v)
            env[v] = ("v", v)
        else:
            fname = f"sk{i}_{v}"
            funcs.append((fname, len(universal)))
            env[v] = ("f", fname, tuple(("v", u) for u in universal))

    def conv(t: Term) -> _STerm:
        if isinstance(t, Const):
            return ("c", t.name)
        return env[t.name]

    clauses = literal_triples(pf.matrix, conv)
    base = list(pf.vocabulary.constants)
    if not base and not any(a == 0 for _, a in funcs):
        base = ["h0"]
    return clauses, funcs, base


def _subst_sterm(t: _STerm, a: Mapping[str, _STerm]) -> _STerm:
    if t[0] == "v":
        return a[t[1]]
    if t[0] == "f":
        return ("f", t[1], tuple(_subst_sterm(s, a) for s in t[2]))
    return t


def _herbrand_terms(funcs: List[Tuple[str, int]], base: List[str],
                    depth: int, cap: int) -> List[_STerm]:
    terms: List[_STerm] = [("c", c) for c in base]
    seen = set(terms)
    for _ in range(depth):
        new = []
        for fname, arity in funcs:
            for args in itertools.product(terms, repeat=arity):
                t = ("f", fname, args)
                if t not in seen:
                    seen.add(t)
                    new.append(t)
                if len(seen) > cap:
                    raise CapExceeded("herbrand term cap", len(seen), cap)
        terms.extend(new)
    # zero-arity skolem functions are terms at depth 0 already
    for fname, arity in funcs:
        if arity == 0:
            t = ("f", fname, ())
            if t not in seen:
                seen.add(t)
                terms.append(t)
    return terms


def _refute_at_depth(pf: PrenexForm, depth: int, step_cap: int) -> bool:
    """True iff the ground instances up to this term depth are already
    propositionally unsatisfiable (hence pf is unsatisfiable)."""
    clauses, funcs, base = _skolemize(pf)
    univ = sorted({t[1] for cl in clauses for _, _, args in cl
                   for t0 in args for t in _walk_vars(t0)})
    terms = _herbrand_terms(funcs, base, depth, step_cap)
    cnf, _ = ground_over_domain(clauses, univ, terms, _subst_sterm, repr,
                                step_cap, "refutation step cap")
    return dpll_solve(cnf) is None


def _walk_vars(t: _STerm) -> Iterator[_STerm]:
    if t[0] == "v":
        yield t
    elif t[0] == "f":
        for s in t[2]:
            yield from _walk_vars(s)


def interleaved_sat(pf: PrenexForm,
                    budget: Tuple[int, int, int]) -> SatOutcome:
    """Alternate finite-model search at growing sizes with Herbrand-style
    refutation search at growing term depths; budget = (max model size, max
    ground-term depth, max steps).  Steps cap the ground literals of each
    model-search size, grounded with the domain symmetry broken as in
    spectrum, and the ground clauses and terms of each refutation depth.
    UNKNOWN absorbs every exhaustion."""
    n_max, depth_max, step_max = budget
    # only model search needs the plan, and only it requires a sentence
    plan = FlatPlan(pf) if n_max > 0 else None
    sizes_tried = depth_reached = 0
    for stage in range(max(n_max, depth_max + 1)):
        if stage < n_max:
            try:
                M = _sat_at_size(plan, stage + 1,  # type: ignore[arg-type]
                                 node_cap=step_max)
                sizes_tried += 1
                if M is not None:
                    return SatOutcome(SAT, M, {"sizes_tried": sizes_tried,
                                               "ground_depth": depth_reached})
            except CapExceeded:
                pass
        if stage <= depth_max:
            try:
                if _refute_at_depth(pf, stage, step_max):
                    return SatOutcome(UNSAT, None,
                                      {"sizes_tried": sizes_tried,
                                       "ground_depth": stage})
                depth_reached = stage
            except CapExceeded:
                pass
    return SatOutcome(UNKNOWN, None, {"sizes_tried": sizes_tried,
                                      "ground_depth": depth_reached})


# ---------------------------------------------------------------------------
# Spectra

def spectrum(pf: PrenexForm, nMax: int,
             node_cap: int = DEFAULT_NODE_CAP) -> SpectrumResult:
    """Which sizes 1..nMax have a model, with one witness per size: the
    greatest model of the size's flat grounding with the domain symmetry
    broken (FlatPlan.ground(n, symmetric=True)), so the j-th constant or
    leading existential takes a value ≤ j.  node_cap bounds the ground
    literals of that grounding; CapExceeded ("flat grounding literal cap")
    when one needs more."""
    if nMax < 1:
        raise ValueError("nMax must be positive")
    plan = FlatPlan(pf)
    realizable: List[bool] = []
    witnesses: Dict[int, FiniteStructure] = {}
    for n in range(1, nMax + 1):
        M = _sat_at_size(plan, n, node_cap)
        realizable.append(M is not None)
        if M is not None:
            witnesses[n] = M
    return SpectrumResult(nMax, tuple(realizable), witnesses)


# ---------------------------------------------------------------------------
# Bounded equivalence

NCAP_NOTE = "equivalence verified up to size nCap only"


def _negation(pf: PrenexForm, other: PrenexForm) -> PrenexForm:
    """A sentence whose models are the models of ¬pf, each expanded by
    fresh predicates (one-sided definitions: Plaisted & Greenbaum 1986):
    under pf's dual prefix, the clause ∨ᵢ Dᵢ, with a fresh Dᵢ on the
    variables of each matrix clause Cᵢ; and ¬Dᵢ ∨ ¬l for each literal l of
    Cᵢ.  These definitions hold at every tuple, so they range over a
    universal copy of the variables placed after the prefix, where they
    select no Skolem table.  pf's variables are renamed apart from other's,
    and each new name is fresh against the vocabulary and both sentences'
    variables, so FlatPlan(other, _negation(pf, other)) grounds the
    conjunction."""
    voc = pf.vocabulary
    order = {v: i for i, (_, v) in enumerate(pf.prefix)}
    used = {*voc.predicate_names, *voc.constants, *(v for _, v in other.prefix)}

    def fresh(name: str) -> str:
        while name in used:
            name += "_"
        used.add(name)
        return name

    own = {v: Var(fresh(v)) for v in order}
    copy = {v: Var(fresh(w.name + "_")) for v, w in own.items()}
    fresh_preds: List[Tuple[str, int]] = []
    some: List[Literal] = []  # ∨ᵢ Dᵢ
    matrix = []
    for i, clause in enumerate(pf.matrix):
        name = fresh(f"D{i}")
        xs = sorted(set().union(*[free_vars(lit.atom) for lit in clause]),
                    key=order.__getitem__)
        fresh_preds.append((name, len(xs)))
        some.append(Literal(True, Atom(name, tuple(own[x] for x in xs))))
        d = Literal(False, Atom(name, tuple(copy[x] for x in xs)))
        matrix += [(d, Literal(not lit.positive, substitute(lit.atom, copy)))
                   for lit in clause]
    matrix.append(tuple(some))
    return PrenexForm(Vocabulary(voc.predicates + tuple(fresh_preds),
                                 voc.constants),
                      tuple((EXISTS if q == FORALL else FORALL, own[v].name)
                            for q, v in pf.prefix)
                      + tuple((FORALL, t.name) for t in copy.values()),
                      tuple(matrix))


def bounded_equiv(f: PrenexForm, g: PrenexForm, nCap: int,
                  node_cap: int = DEFAULT_NODE_CAP) -> EquivResult:
    """True iff no structure of size ≤ nCap distinguishes the two sentences
    (bounded stand-in for full validity of f ↔ g, which is undecidable).
    Each size solves f ∧ ¬g, then g ∧ ¬f, each one FlatPlan over both
    sentences; node_cap bounds each conjunction's grounding (CapExceeded,
    "flat grounding ... cap")."""
    if f.vocabulary != g.vocabulary:
        raise ValueError("sentences must share a vocabulary")
    sides = [FlatPlan(f, _negation(g, f)), FlatPlan(g, _negation(f, g))]
    for n in range(1, nCap + 1):
        for plan in sides:
            cnf, table = plan.ground(n, node_cap)
            assignment = dpll_solve(cnf)
            if assignment is None:
                continue
            M = _flat_model(f, n, table, assignment)
            if evaluate(M, f) == evaluate(M, g):
                raise AssertionError("difference model does not distinguish")
            return EquivResult(False, nCap, M, NCAP_NOTE)
    return EquivResult(True, nCap, None, NCAP_NOTE)


# ---------------------------------------------------------------------------
# Extensible bounded-submodel oracle

# a model's σ-reduct: (n, constant values, true σ-atoms)
Reduct = Tuple[int, Tuple[Tuple[str, int], ...], FrozenSet[AtomKey]]


def _model_stream(pf: PrenexForm, n: int, node_cap: int,
                  sigma: Iterable[str] = (),
                  passed: Optional[Set[Reduct]] = None
                  ) -> Iterator[Tuple[Reduct, int,
                                      Optional[Callable[[], FiniteStructure]]]]:
    """Every model of pf with universe {0..n-1}, deterministically, in
    blocks (σ-reduct, count, builder): the reduct is read straight from the
    solver's assignment, and builder() makes the structure of a block of
    one model.

    The models are enumerated once per constant valuation on the formula
    tree's Tseitin CNF, with the root's unit left out: the walk reads the
    root off the kernel instead.  Every auxiliary variable is a function
    of the atoms, so a subtree where propagation has made the root true
    holds exactly 2^k models, k the atoms left to branch on (the counting
    rule of Birnbaum & Lozinskii 1999).  Given passed, the reducts that
    already have a good core (read live, so it may grow between blocks),
    such a subtree is one block of count 2^k, with no builder for k > 0,
    once its reduct is fixed, with no σ-atom left to branch on, and in
    passed.  Every other model is a block of its own.  The blocks follow
    the order of the models, each one a contiguous run of them."""
    keep = set(sigma)
    constants = pf.vocabulary.constants
    for chosen in itertools.product(range(n), repeat=len(constants)):
        consts = dict(zip(constants, chosen))
        values = tuple(sorted(consts.items()))
        prop, table = ground_fixed_universe(pf, n, const_values=consts,
                                            node_cap=node_cap)
        # atoms the grounding never mentions are registered after it, so
        # the walk gives them both values, innermost
        for name, arity in pf.vocabulary.predicates:
            for args in itertools.product(range(n), repeat=arity):
                table.id_of((name, args))
        cnf = tseitin(prop, table)
        # the walk reads the root instead of asserting it.  A true tree's
        # [] has no root, and a false tree's [[]] no model
        root = cnf.pop()[0] if cnf and cnf[-1] else None
        sigma_atoms = [(i, key) for i, key in table.items() if key[0] in keep]
        # atoms are branched on by id, so the reduct is fixed from this depth
        fixed = max((i for i, _ in sigma_atoms), default=0)

        def reduct(assignment: Mapping[int, bool]) -> Reduct:
            return (n, values, frozenset(
                key for i, key in sigma_atoms if assignment[i]))

        def settled(assignment: Mapping[int, bool], depth: int) -> bool:
            return depth >= fixed and reduct(assignment) in passed

        for assignment, k in model_blocks(cnf, range(1, len(table) + 1), root,
                                          None if passed is None else settled):
            yield reduct(assignment), 2 ** k, None if k else functools.partial(
                _model_to_structure, pf, n, table, assignment, consts)


def _all_structure_models(pf: PrenexForm, n: int,
                          node_cap: int) -> Iterator[FiniteStructure]:
    """Every model of pf with universe {0..n-1}, deterministically."""
    for _, _, build in _model_stream(pf, n, node_cap):
        yield build()


def ebs_oracle(pf: PrenexForm, sigma: Iterable[str], B: int, nMax: int,
               node_cap: int = DEFAULT_NODE_CAP,
               model_cap: int = 200_000) -> EbsVerdict:
    """Bounded refuter/confirmer for the extensible bounded-submodel
    property: for every model M of size ≤ nMax, search a core M1 of size ≤ B
    (containing the constant values) such that every extension M2 with
    M1 ⊆ M2 ⊆ M admits a completion M2′ on M2's universe that agrees with
    M2 on the σ-predicates and models pf.  Quantifier order is fixed:
    the core may depend on M but not on M2.

    The test reads M only through its σ-reduct (universe size, constant
    values, σ-interpretations): the candidate extensions and cores depend
    on the size and the constant values, and each completion query on the
    σ-atoms inside its extension.  So each reduct is tested once, at its
    first model; a later model with a reduct that already has a good core
    is counted toward models_checked and model_cap and is not built, and
    the model stream counts a whole subtree of such models as one block
    without walking it.  A failing reduct returns at its first model, so
    the verdict, the failing model and the evidence are those of testing
    every model in turn."""
    sigma = tuple(sorted(set(sigma)))
    for p in sigma:
        if not pf.vocabulary.is_predicate(p):
            raise ValueError(f"sigma mentions undeclared predicate {p!r}")
    plan = FlatPlan(pf)
    # by size: table, kernel on its CNF, atom id -> variable, start trail
    kernels: Dict[int, Tuple[AtomTable, Dpll, Dict[int, int], int]] = {}
    query_cache: Dict[Tuple, bool] = {}

    def completion_query(M: FiniteStructure, s: Tuple[int, ...]) -> bool:
        # cache key built without materializing the substructure
        relabel = {e: i for i, e in enumerate(s)}
        keep = set(s)
        consts = tuple(sorted((c, relabel[v]) for c, v in M.constant_values.items()))
        sig = tuple((p, tuple(sorted(tuple(relabel[e] for e in t)
                                     for t in M.interpretation[p]
                                     if set(t) <= keep)))
                    for p in sigma)
        key = (len(s), consts, sig)
        hit = query_cache.get(key)
        if hit is not None:
            return hit
        # the size's flat grounding, with the constants and σ-atoms that
        # its CNF mentions assumed, then undone
        if len(s) not in kernels:
            cnf, table = plan.ground(len(s), node_cap)
            state = Dpll(cnf)
            index = dict(zip(state.ids, state.variables))
            kernels[len(s)] = (table, state, index, len(state.trail))
        table, state, index, start = kernels[len(s)]
        pins = {table.lookup((Const(c), (v,))): True for c, v in consts}
        for p, tuples in sig:
            for args in itertools.product(range(len(s)),
                                          repeat=pf.vocabulary.arity(p)):
                pins[table.lookup((p, args))] = args in tuples
        ok = state.ok and all(
            state.assume(index[a] if value else -index[a])
            for a, value in pins.items() if a in index) and state.search()
        state.undo(start)
        query_cache[key] = ok
        return ok

    passed: Set[Reduct] = set()
    checked = 0
    for n in range(1, nMax + 1):
        for reduct, count, build in _model_stream(pf, n, node_cap, sigma,
                                                  passed):
            checked += count
            if checked > model_cap:
                # the (cap + 1)-th model lies in this block
                raise CapExceeded("oracle model cap", model_cap + 1, model_cap)
            if reduct in passed:
                continue
            M = build()
            const_vals = set(M.constant_values.values())
            universe = range(M.n)
            # all candidate extensions, smallest first
            subsets = [tuple(s) for size in range(1, M.n + 1)
                       for s in itertools.combinations(universe, size)
                       if const_vals <= set(s)]
            failing = [s for s in subsets if not completion_query(M, s)]
            cores = [s for s in subsets if len(s) <= B]
            good_core = next(
                (c for c in cores
                 if not any(set(c) <= set(t) for t in failing)), None)
            if good_core is None:
                evidence = tuple(
                    (c, next(t for t in failing if set(c) <= set(t)))
                    for c in cores)
                return EbsVerdict(False, sigma, B, nMax, checked,
                                  fail_model=M,
                                  fail_extension=failing[0] if failing else None,
                                  core_evidence=evidence)
            passed.add(reduct)
    return EbsVerdict(True, sigma, B, nMax, checked)


# ---------------------------------------------------------------------------
# Bounded B-search

@dataclass(frozen=True)
class FindBoundResult:
    B: int
    translation: "TranslationResult"  # type: ignore[name-defined]
    nCap: int
    note: str = NCAP_NOTE


def find_bound_bounded(pf: PrenexForm, bMax: int, nCap: int) -> Optional[FindBoundResult]:
    """The least B ≤ bMax whose equivalent translation is indistinguishable
    from pf on all structures of size ≤ nCap, with that translation."""
    from .translate import to_bsr_equivalent
    for B in range(bMax + 1):
        try:
            result = to_bsr_equivalent(pf, B)
        except (ValueError, CapExceeded):
            continue
        try:
            if bounded_equiv(pf, result.bsr, nCap):
                return FindBoundResult(B, result, nCap)
        except CapExceeded:
            continue
    return None


# ---------------------------------------------------------------------------
# Complexity note

def edp_nexptime_note(vocab: Vocabulary, report: BoundReport) -> Dict[str, object]:
    """Search-space figures for the bounded decision procedure: structure
    counts for each size up to max(B,1).  Report enrichment only."""
    sizes = list(range(1, max(report.B, 1) + 1))
    counts = {n: count_structures(vocab, n) for n in sizes}
    return {"B": report.B, "sizes": sizes,
            "structuresPerSize": counts, "total": sum(counts.values())}
