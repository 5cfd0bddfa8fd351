"""Constructive translations into ∃*∀* (BSR) shape, and synthesis of BSR
sentences with a prescribed spectrum."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded
from .syntax import (DEFAULT_CLAUSE_CAP, EXISTS, FORALL, And, Atom, Eq, Exists,
                     Forall, Formula, Literal, Not, PrenexForm, Var, Vocabulary,
                     and_, or_, substitute)

DEFAULT_DISJUNCT_CAP = 10_000


@dataclass(frozen=True)
class TranslationResult:
    bsr: PrenexForm
    fresh_existentials: Tuple[str, ...]
    mode: str  # "equivalent" | "equispectral"
    size_stats: Dict[str, int]


def _translate(pf: PrenexForm, B: int, mode: str,
               disjunct_cap: int, clause_cap: int) -> TranslationResult:
    if B < 0:
        raise ValueError("bound must be nonnegative")
    V = pf.leftmost_exists
    if B < len(V):
        raise ValueError(f"bound {B} is smaller than the leftmost existential "
                         f"block ({len(V)} variables)")
    EV = pf.inner_exists
    AV = pf.universals

    # the leftmost ∃-block is absorbed: its variables head the x-pool
    used = (set(pf.free_variables) | {v for _, v in pf.prefix}
            | set(pf.vocabulary.constants) | set(pf.vocabulary.predicate_names))
    pool: List[str] = list(V)
    i = 1
    while len(pool) < B:
        name = f"x{i}"
        i += 1
        if name in used:
            continue
        used.add(name)
        pool.append(name)

    candidates = pool + list(AV) if mode == "equivalent" else list(pool)
    r = len(EV)
    disjuncts = len(candidates) ** r if r else 1
    if disjuncts > disjunct_cap:
        raise CapExceeded("translation disjunct cap", disjuncts, disjunct_cap)

    # χ = OR over candidate substitutions of the matrix; back to CNF by
    # distribution (product of one clause per disjunct)
    disjunct_clauses: List[Tuple[Tuple[Literal, ...], ...]] = []
    if r == 0:
        disjunct_clauses.append(pf.matrix)
    else:
        for combo in itertools.product(candidates, repeat=r):
            mapping = {v: Var(u) for v, u in zip(EV, combo)}
            clauses = tuple(
                tuple(Literal(lit.positive, substitute(lit.atom, mapping))
                      for lit in clause)
                for clause in pf.matrix)
            disjunct_clauses.append(clauses)

    if not disjunct_clauses or any(len(d) == 0 for d in disjunct_clauses):
        matrix: Tuple[Tuple[Literal, ...], ...] = ()
    else:
        rows: List[Tuple[Literal, ...]] = [()]
        for clauses in disjunct_clauses:
            needed = len(rows) * len(clauses)
            if needed > clause_cap:
                raise CapExceeded("translation clause cap", needed, clause_cap)
            rows = [row + clause for row in rows for clause in clauses]
        matrix = tuple(rows)
    if disjuncts == 0:
        matrix = ((),)  # empty disjunction: the canonical contradiction

    prefix = tuple((EXISTS, x) for x in pool) + tuple((FORALL, z) for z in AV)
    bsr = PrenexForm(pf.vocabulary, prefix, matrix, pf.free_variables)
    stats = {"disjuncts": disjuncts if r else 1,
             "matrix_clauses": len(matrix),
             "pool": len(pool)}
    if r and mode == "equispectral" and not pool:
        stats["disjuncts"] = 0
    return TranslationResult(bsr, tuple(pool), mode, stats)


def to_bsr_equivalent(pf: PrenexForm, B: int,
                      disjunct_cap: int = DEFAULT_DISJUNCT_CAP,
                      clause_cap: int = DEFAULT_CLAUSE_CAP) -> TranslationResult:
    """ψ = ∃x₁..x_B ∀z (⋁ matrix substitutions), inner existentials replaced
    by every candidate in {x-pool} ∪ {universal variables}.  Every model of
    ψ models pf; equivalence holds when pf has the bounded-submodel property
    with bound ≤ B (checked externally)."""
    return _translate(pf, B, "equivalent", disjunct_cap, clause_cap)


def to_bsr_equispectral(pf: PrenexForm, B: int,
                        disjunct_cap: int = DEFAULT_DISJUNCT_CAP,
                        clause_cap: int = DEFAULT_CLAUSE_CAP) -> TranslationResult:
    """Same construction, but candidates range over the x-pool only; the
    result has the same spectrum as pf when pf is in the σ=∅ fragment with
    bound B (caller-checked)."""
    return _translate(pf, B, "equispectral", disjunct_cap, clause_cap)


def _distinct(names: Sequence[str]) -> List[Formula]:
    return [Not(Eq(Var(a), Var(b)))
            for i, a in enumerate(names) for b in names[i + 1:]]


def spectrum_to_bsr(sizes: Iterable[int], vocab: Vocabulary,
                    cofinite_from: Optional[int] = None) -> Formula:
    """A BSR sentence whose spectrum is the given finite set, optionally
    union all sizes ≥ cofinite_from; over a nonempty vocabulary each
    predicate is forced total so the spectrum is preserved.

    Built directly in ∃*∀* order.  One universal variable per disjunct keeps
    the exists-first prenex equivalent to the disjunction of the per-size
    sentences (each disjunct only constrains its own universal)."""
    sizes = sorted(set(sizes))
    if any(k < 1 for k in sizes):
        raise ValueError("model sizes must be at least 1")
    if not sizes and cofinite_from is None:
        raise ValueError("empty spectrum request")

    exists_vars: List[str] = []
    forall_vars: List[str] = []
    bodies: List[Formula] = []
    for p, k in enumerate(sizes):
        xs = [f"x{p}_{i}" for i in range(1, k + 1)]
        y = f"y{p}"
        exists_vars.extend(xs)
        forall_vars.append(y)
        bodies.append(and_(*(_distinct(xs)
                             + [or_(*[Eq(Var(y), Var(x)) for x in xs])])))
    if cofinite_from is not None:
        b = cofinite_from
        p = len(sizes)
        if b == 0:
            y = f"y{p}"
            forall_vars.append(y)
            bodies.append(Eq(Var(y), Var(y)))  # true in every structure
        else:
            xs = [f"x{p}_{i}" for i in range(1, b + 1)]
            exists_vars.extend(xs)
            bodies.append(and_(*(_distinct(xs)
                                 or [Eq(Var(xs[0]), Var(xs[0]))])))

    matrix: Formula = or_(*bodies)
    for name, arity in vocab.predicates:
        if arity == 0:
            conjunct: Formula = Atom(name, ())
        else:
            zs = [f"z{name}_{i}" for i in range(1, arity + 1)]
            forall_vars.extend(zs)
            conjunct = Atom(name, tuple(Var(z) for z in zs))
        matrix = And((matrix, conjunct))
    out = matrix
    for v in reversed(forall_vars):
        out = Forall(v, out)
    for v in reversed(exists_vars):
        out = Exists(v, out)
    return out
