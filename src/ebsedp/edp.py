"""EDP analysis: instance/predicate classification, EDP_σ membership checks
(base and widened variants), bound computation, and closure combinators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .syntax import (And, Const, Eq, Formula, Or, PrenexForm, Term, Var,
                     Vocabulary)

FREE = "free"
UNIVERSAL = "universal"
EXISTENTIAL = "existential"

CHECK_VARIANTS = ("base", "relaxed-distinguishability", "eq-free-EU",
                  "eq-EU-EU", "experimental")
BOUND_VARIANTS = ("base", "relaxed-distinguishability", "eq-free-EU",
                  "eq-EU-EU", "lowenheim", "lowenheim-eq", "lowenheim-eq-EU-EU")


@dataclass(frozen=True)
class Instance:
    """One predicate or equality occurrence in the CNF matrix."""

    predicate: str  # predicate name, or "=" for equality
    clause_index: int
    literal_index: int
    positive: bool
    args: Tuple[Term, ...]
    roles: Tuple[str, ...]  # per argument position: free/universal/existential

    @property
    def universal_support(self) -> FrozenSet[str]:
        return frozenset(t.name for t, r in zip(self.args, self.roles) if r == UNIVERSAL)

    @property
    def existential_support(self) -> FrozenSet[str]:
        return frozenset(t.name for t, r in zip(self.args, self.roles) if r == EXISTENTIAL)

    @property
    def instance_class(self) -> str:
        if self.existential_support:
            return EXISTENTIAL
        if self.universal_support:
            return UNIVERSAL
        return FREE

    def describe(self) -> str:
        sign = "" if self.positive else "!"
        args = ",".join(str(t) for t in self.args)
        return f"{sign}{self.predicate}({args})@clause{self.clause_index}"


@dataclass(frozen=True)
class Classification:
    prenex: PrenexForm
    V: Tuple[str, ...]
    EV: Tuple[str, ...]
    AV: Tuple[str, ...]
    EU: Tuple[str, ...]
    EUbar: Tuple[str, ...]
    instances: Tuple[Instance, ...]  # predicate occurrences
    eq_instances: Tuple[Instance, ...]  # equality occurrences
    predicate_class: Dict[str, str]

    @property
    def vocabulary(self) -> Vocabulary:
        return self.prenex.vocabulary

    @property
    def U(self) -> Tuple[str, ...]:
        return self.vocabulary.unary_predicates

    @property
    def free_predicates(self) -> Tuple[str, ...]:
        return tuple(p for p, c in sorted(self.predicate_class.items()) if c == FREE)

    @property
    def universal_predicates(self) -> Tuple[str, ...]:
        return tuple(p for p, c in sorted(self.predicate_class.items()) if c == UNIVERSAL)

    @property
    def existential_predicates(self) -> Tuple[str, ...]:
        return tuple(p for p, c in sorted(self.predicate_class.items()) if c == EXISTENTIAL)

    @property
    def k(self) -> int:
        return len(self.U)

    @property
    def m(self) -> int:
        return len(self.vocabulary.constants)

    @property
    def r(self) -> int:
        return len(self.EV)

    @property
    def q(self) -> int:
        return len(self.prenex.prefix)

    def pairwise_distinguishable(self, i: Instance, j: Instance, v: str) -> bool:
        """Some argument position is non-universal in both instances and
        holds v in exactly one of them."""
        for p in range(len(i.args)):
            if i.roles[p] == UNIVERSAL or j.roles[p] == UNIVERSAL:
                continue
            has_i = isinstance(i.args[p], Var) and i.args[p].name == v
            has_j = isinstance(j.args[p], Var) and j.args[p].name == v
            if has_i != has_j:
                return True
        return False

    def to_json_dict(self) -> dict:
        return {
            "V": list(self.V),
            "EV": list(self.EV),
            "AV": list(self.AV),
            "EU": list(self.EU),
            "EUbar": list(self.EUbar),
            "predicates": {p: self.predicate_class[p]
                           for p in sorted(self.predicate_class)},
            "instances": [
                {"predicate": i.predicate, "clause": i.clause_index,
                 "literal": i.literal_index,
                 "polarity": "+" if i.positive else "-",
                 "roles": list(i.roles), "class": i.instance_class}
                for i in self.instances + self.eq_instances],
        }


def classify(pf: PrenexForm) -> Classification:
    V = pf.leftmost_exists
    EV = pf.inner_exists
    AV = pf.universals
    v_set, ev_set, av_set = set(V), set(EV), set(AV)
    free_set = set(pf.free_variables)

    def role_of(t: Term) -> str:
        if isinstance(t, Const):
            return FREE
        if t.name in av_set:
            return UNIVERSAL
        if t.name in ev_set:
            return EXISTENTIAL
        if t.name in v_set or t.name in free_set:
            return FREE
        raise ValueError(f"variable {t.name!r} is neither bound nor declared free")

    instances: List[Instance] = []
    eq_instances: List[Instance] = []
    for ci, clause in enumerate(pf.matrix):
        for li, lit in enumerate(clause):
            atom = lit.atom
            if isinstance(atom, Eq):
                args = (atom.left, atom.right)
                eq_instances.append(Instance("=", ci, li, lit.positive, args,
                                             tuple(role_of(t) for t in args)))
            else:
                instances.append(Instance(atom.predicate, ci, li, lit.positive,
                                          atom.args,
                                          tuple(role_of(t) for t in atom.args)))

    EU = tuple(v for v in EV if any(
        i.predicate in pf.vocabulary.unary_predicates
        and isinstance(i.args[0], Var) and i.args[0].name == v
        for i in instances))
    EUbar = tuple(v for v in EV if v not in EU)

    predicate_class: Dict[str, str] = {}
    for pred, _ in pf.vocabulary.predicates:
        classes = [i.instance_class for i in instances if i.predicate == pred]
        if any(c == EXISTENTIAL for c in classes):
            predicate_class[pred] = EXISTENTIAL
        elif any(c == UNIVERSAL for c in classes):
            predicate_class[pred] = UNIVERSAL
        else:
            predicate_class[pred] = FREE

    return Classification(pf, V, EV, AV, EU, EUbar,
                          tuple(instances), tuple(eq_instances), predicate_class)


# ---------------------------------------------------------------------------
# Membership checks

@dataclass(frozen=True)
class EdpResult:
    ok: bool
    variant: str
    sigma: Tuple[str, ...]
    diagnostics: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _eq_violations(c: Classification, variant: str) -> List[str]:
    """Equality-placement condition per variant."""
    allow_free_eu = variant in ("eq-free-EU", "eq-EU-EU", "experimental")
    allow_eu_eu = variant in ("eq-EU-EU", "experimental")
    eu = set(c.EU)
    out = []
    for inst in c.eq_instances:
        if inst.instance_class in (FREE, UNIVERSAL):
            continue
        kinds = []
        for t, r in zip(inst.args, inst.roles):
            if r != EXISTENTIAL:
                kinds.append(r)
            elif isinstance(t, Var) and t.name in eu:
                kinds.append("EU")
            else:
                kinds.append("EUbar")
        if "EUbar" in kinds:
            out.append(f"equality {inst.describe()} touches an E_U-complement variable")
        elif sorted(kinds) == ["EU", "free"] and allow_free_eu:
            continue
        elif kinds == ["EU", "EU"] and allow_eu_eu:
            continue
        else:
            out.append(f"equality {inst.describe()} has existential arguments "
                       f"not allowed by variant {variant!r}")
    return out


def _base_pairs(c: Classification, pred: str) -> List[Tuple[Instance, Instance]]:
    """Instance pairs of pred in different clauses with different polarities."""
    insts = [i for i in c.instances if i.predicate == pred]
    return [(a, b) for ai, a in enumerate(insts) for b in insts[ai + 1:]
            if a.clause_index != b.clause_index and a.positive != b.positive]


def _dist_violations_base(c: Classification) -> List[str]:
    out = []
    for pred in c.existential_predicates:
        if c.vocabulary.arity(pred) < 2:
            continue
        for a, b in _base_pairs(c, pred):
            if not any(c.pairwise_distinguishable(a, b, v) for v in c.EUbar):
                out.append(f"instances {a.describe()} and {b.describe()} are not "
                           "existentially distinguishable by any E_U-complement variable")
    return out


def _dist_violations_relaxed(c: Classification) -> List[str]:
    """Widened condition: over all pairs of distinct instances with at least
    one existential, each pair must be distinguishable by some E_U-complement
    variable or by every shared-argument E_U variable (nonempty)."""
    out = []
    eu = set(c.EU)
    for pred in c.existential_predicates:
        if c.vocabulary.arity(pred) < 2:
            continue
        insts = [i for i in c.instances if i.predicate == pred]
        for ai, a in enumerate(insts):
            for b in insts[ai + 1:]:
                if a.instance_class != EXISTENTIAL and b.instance_class != EXISTENTIAL:
                    continue
                if any(c.pairwise_distinguishable(a, b, v) for v in c.EUbar):
                    continue
                shared = sorted((set(t.name for t in a.args if isinstance(t, Var))
                                 | set(t.name for t in b.args if isinstance(t, Var)))
                                & eu)
                if shared and all(c.pairwise_distinguishable(a, b, v) for v in shared):
                    continue
                out.append(f"instances {a.describe()} and {b.describe()} fail the "
                           "relaxed distinguishability condition")
    return out


def edp_check(pf: PrenexForm, sigma: Iterable[str], variant: str = "base") -> EdpResult:
    """Check the σ-membership conditions: (1) σ avoids arity-≥2 existential
    predicates, (2) equality placement, (3) cross-clause opposite-polarity
    instances of arity-≥2 existential predicates are distinguishable."""
    if variant not in CHECK_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    c = classify(pf)
    sigma = tuple(sorted(set(sigma)))
    for p in sigma:
        if not c.vocabulary.is_predicate(p):
            raise ValueError(f"sigma mentions undeclared predicate {p!r}")
    diags: List[str] = []
    allowed = set(c.U) | set(c.free_predicates) | set(c.universal_predicates)
    for p in sigma:
        if p not in allowed:
            diags.append(f"sigma predicate {p} is existential of arity "
                         f"{c.vocabulary.arity(p)}")
    diags.extend(_eq_violations(c, variant))
    base_viol = _dist_violations_base(c)
    if variant in ("relaxed-distinguishability", "experimental"):
        if base_viol:
            relaxed_viol = _dist_violations_relaxed(c)
            if relaxed_viol:
                diags.extend(relaxed_viol)
    else:
        diags.extend(base_viol)
    return EdpResult(not diags, variant, sigma, tuple(diags))


def edp_simple_sigma(pf: PrenexForm) -> Optional[Tuple[str, ...]]:
    """Fast path: if every arity-≥2 existential predicate has all instances
    same-polarity or single-clause, and equality arguments are free or
    universal only, return σ = unary ∪ free ∪ universal predicates."""
    c = classify(pf)
    if any(i.instance_class == EXISTENTIAL for i in c.eq_instances):
        return None
    for pred in c.existential_predicates:
        if c.vocabulary.arity(pred) < 2:
            continue
        insts = [i for i in c.instances if i.predicate == pred]
        same_polarity = len({i.positive for i in insts}) <= 1
        single_clause = len({i.clause_index for i in insts}) <= 1
        if not (same_polarity or single_clause):
            return None
    return tuple(sorted(set(c.U) | set(c.free_predicates)
                        | set(c.universal_predicates)))


# ---------------------------------------------------------------------------
# Bounds

@dataclass(frozen=True)
class BoundReport:
    variant: str
    B: int
    terms: Dict[str, int]

    def to_json_dict(self) -> dict:
        return {"variant": self.variant, "B": self.B,
                "terms": dict(sorted(self.terms.items()))}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def edp_bound(c: Classification, variant: str = "base") -> BoundReport:
    """B per variant; the constant count m contributes whenever constants
    are present.  Raises if the formula fails the variant's check (with the
    most permissive σ, since B does not depend on σ)."""
    if variant == "experimental":
        raise ValueError("the combined experimental variant has no proven bound")
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    terms = {"V": len(c.V), "EUbar": len(c.EUbar), "EU": len(c.EU),
             "2^k": 2 ** c.k, "m": c.m, "q": c.q}
    if variant.startswith("lowenheim"):
        _require(all(a <= 1 for _, a in c.vocabulary.predicates),
                 f"variant {variant!r} needs a monadic vocabulary")
    eq_variant = {"base": "base", "relaxed-distinguishability": "relaxed-distinguishability",
                  "eq-free-EU": "eq-free-EU", "eq-EU-EU": "eq-EU-EU",
                  "lowenheim": None, "lowenheim-eq": "eq-free-EU",
                  "lowenheim-eq-EU-EU": "eq-EU-EU"}[variant]
    if eq_variant is not None:
        _require(not _eq_violations(c, eq_variant),
                 f"equality placement fails the {variant!r} check")
    if variant == "base" or variant == "eq-free-EU":
        _require(not _dist_violations_base(c),
                 "distinguishability condition fails (base check)")
        B = terms["m"] + terms["V"] + terms["EUbar"] + terms["2^k"]
    elif variant in ("relaxed-distinguishability", "eq-EU-EU"):
        if variant == "relaxed-distinguishability":
            _require(not _dist_violations_base(c) or not _dist_violations_relaxed(c),
                     "distinguishability condition fails (relaxed check)")
        else:
            _require(not _dist_violations_base(c),
                     "distinguishability condition fails (base check)")
        B = terms["m"] + terms["V"] + terms["EUbar"] + terms["EU"] * terms["2^k"]
    elif variant == "lowenheim":
        B = terms["q"] * terms["2^k"]
    elif variant == "lowenheim-eq":
        B = terms["m"] + terms["V"] + terms["2^k"]
    else:  # lowenheim-eq-EU-EU
        B = terms["m"] + terms["V"] + terms["EU"] * terms["2^k"]
    return BoundReport(variant, B, terms)


# ---------------------------------------------------------------------------
# Closure combinators

def combine_and(f1: Formula, b1: int, sigma1: Iterable[str],
                f2: Formula, b2: int, sigma2: Iterable[str],
                vocab: Vocabulary) -> Tuple[Formula, BoundReport, Tuple[str, ...]]:
    """Conjunction closure: only valid when both σ are the full predicate
    set; bound B1+B2."""
    s1, s2 = set(sigma1), set(sigma2)
    full = set(vocab.predicate_names)
    if s1 != full or s2 != full:
        raise ValueError("conjunction closure requires sigma = full predicate set "
                         "on both sides")
    report = BoundReport("combine-and", b1 + b2, {"B1": b1, "B2": b2})
    return And((f1, f2)), report, tuple(sorted(full))


def combine_or(f1: Formula, b1: int, sigma1: Iterable[str],
               f2: Formula, b2: int, sigma2: Iterable[str],
               vocab: Vocabulary) -> Tuple[Formula, BoundReport, Tuple[str, ...]]:
    """Disjunction closure: bound max(B1,B2), σ = σ1 ∩ σ2."""
    report = BoundReport("combine-or", max(b1, b2), {"B1": b1, "B2": b2})
    sigma = tuple(sorted(set(sigma1) & set(sigma2)))
    return Or((f1, f2)), report, sigma
