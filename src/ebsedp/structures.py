"""Finite Σ-structures: evaluation, substructures, σ-comparison, enumeration."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from .errors import CapExceeded
from .syntax import (FORALL, Atom, Eq, Exists, Forall, Formula, And, Or, Not,
                     Implies, Iff, PrenexForm, Term, Var, Vocabulary)

DEFAULT_ENUM_CAP = 10_000_000


@dataclass(frozen=True)
class FiniteStructure:
    """A finite Σ-structure with universe {0..n-1}.

    Equality is never stored; it is always the identity relation.
    """

    vocabulary: Vocabulary
    n: int
    interpretation: Mapping[str, FrozenSet[Tuple[int, ...]]]
    constant_values: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe must be nonempty")
        interp = {}
        for name, arity in self.vocabulary.predicates:
            tuples = frozenset(tuple(t) for t in self.interpretation.get(name, ()))
            for t in tuples:
                if len(t) != arity or any(not (0 <= e < self.n) for e in t):
                    raise ValueError(f"bad tuple {t} for {name}/{arity}")
            interp[name] = tuples
        object.__setattr__(self, "interpretation", interp)
        consts = dict(self.constant_values)
        for c in self.vocabulary.constants:
            if c not in consts:
                raise ValueError(f"constant {c!r} has no value")
            if not (0 <= consts[c] < self.n):
                raise ValueError(f"constant {c!r} value out of range")
        object.__setattr__(self, "constant_values", consts)

    def holds(self, predicate: str, args: Tuple[int, ...]) -> bool:
        return tuple(args) in self.interpretation[predicate]

    def universe(self) -> range:
        return range(self.n)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pred": {name: sorted(list(t) for t in tuples)
                     for name, tuples in sorted(self.interpretation.items())},
            "const": dict(sorted(self.constant_values.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str, vocab: Vocabulary) -> "FiniteStructure":
        obj = json.loads(text)
        interp = {name: frozenset(tuple(t) for t in tuples)
                  for name, tuples in obj.get("pred", {}).items()}
        return FiniteStructure(vocab, obj["n"], interp, obj.get("const", {}))


@dataclass(frozen=True)
class SubsetWitness:
    """A subset of a parent structure's universe that generates a
    substructure (nonempty and containing every constant value)."""

    parent: FiniteStructure
    elements: Tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("subset must be nonempty")
        if any(not (0 <= e < self.parent.n) for e in elems):
            raise ValueError("subset element outside universe")
        missing = [c for c, v in self.parent.constant_values.items() if v not in elems]
        if missing:
            raise ValueError(f"subset omits value of constant(s) {missing}")


def _eval_term(t: Term, M: FiniteStructure, assignment: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in assignment:
            raise ValueError(f"no value for free variable {t.name!r}")
        return assignment[t.name]
    return M.constant_values[t.name]


def evaluate(M: FiniteStructure, s, assignment: Optional[Mapping[str, int]] = None) -> bool:
    """Tarskian truth of a Formula or PrenexForm in M under an assignment."""
    assignment = dict(assignment or {})
    if isinstance(s, PrenexForm):
        return _eval_prenex(M, s, 0, assignment)
    return _eval_formula(M, s, assignment)


def _eval_formula(M: FiniteStructure, f: Formula, a: Dict[str, int]) -> bool:
    if isinstance(f, Atom):
        return M.holds(f.predicate, tuple(_eval_term(t, M, a) for t in f.args))
    if isinstance(f, Eq):
        return _eval_term(f.left, M, a) == _eval_term(f.right, M, a)
    if isinstance(f, Not):
        return not _eval_formula(M, f.sub, a)
    if isinstance(f, And):
        return all(_eval_formula(M, x, a) for x in f.args)
    if isinstance(f, Or):
        return any(_eval_formula(M, x, a) for x in f.args)
    if isinstance(f, Implies):
        return (not _eval_formula(M, f.left, a)) or _eval_formula(M, f.right, a)
    if isinstance(f, Iff):
        return _eval_formula(M, f.left, a) == _eval_formula(M, f.right, a)
    if isinstance(f, (Forall, Exists)):
        saved = a.get(f.var)
        hit = f.var in a
        results = []
        for e in range(M.n):
            a[f.var] = e
            results.append(_eval_formula(M, f.body, a))
            if isinstance(f, Forall) and not results[-1]:
                break
            if isinstance(f, Exists) and results[-1]:
                break
        if hit:
            a[f.var] = saved
        else:
            a.pop(f.var, None)
        return all(results) if isinstance(f, Forall) else any(results)
    raise TypeError(f"not a formula: {f!r}")


def _eval_prenex(M: FiniteStructure, pf: PrenexForm, i: int, a: Dict[str, int]) -> bool:
    """Truth of pf's prefix from position i on, with its matrix, under a.
    Binds each prefix variable in a in place and removes it again."""
    if i == len(pf.prefix):
        return all(any(_eval_formula(M, lit.atom, a) == lit.positive for lit in clause)
                   for clause in pf.matrix)
    q, v = pf.prefix[i]
    want = q == FORALL
    result = want
    for e in range(M.n):
        a[v] = e
        if _eval_prenex(M, pf, i + 1, a) != want:
            result = not want
            break
    del a[v]
    return result


def generated_substructure(M: FiniteStructure, subset: Iterable[int]
                           ) -> Tuple[FiniteStructure, Dict[int, int]]:
    """Substructure generated by subset, universe relabeled 0..|subset|-1 by
    sorted order.  Returns (structure, old-element -> new-element mapping)."""
    elems = sorted(set(subset))
    witness = SubsetWitness(M, tuple(elems))  # validates
    relabel = {old: new for new, old in enumerate(witness.elements)}
    keep = set(witness.elements)
    interp = {
        name: frozenset(tuple(relabel[e] for e in t)
                        for t in tuples if set(t) <= keep)
        for name, tuples in M.interpretation.items()}
    consts = {c: relabel[v] for c, v in M.constant_values.items()}
    return FiniteStructure(M.vocabulary, len(elems), interp, consts), relabel


def restrict_eq(M1: FiniteStructure, M2: FiniteStructure, sigma: Iterable[str]) -> bool:
    """True iff the interpretations of all σ-predicates coincide."""
    if M1.vocabulary != M2.vocabulary:
        raise ValueError("vocabulary mismatch")
    if M1.n != M2.n:
        raise ValueError("universe size mismatch")
    return all(M1.interpretation[p] == M2.interpretation[p] for p in sigma)


def count_structures(vocab: Vocabulary, n: int) -> int:
    total = 1
    for _, arity in vocab.predicates:
        total *= 2 ** (n ** arity)
    return total * n ** len(vocab.constants)


def enumerate_structures(vocab: Vocabulary, n: int,
                         cap: int = DEFAULT_ENUM_CAP) -> Iterator[FiniteStructure]:
    """All structures of size n, lexicographic over tuple-set bitmaps then
    constant valuations; exhaustive, no duplicates, deterministic."""
    if n < 1:
        raise ValueError("universe must be nonempty")
    total = count_structures(vocab, n)
    if total > cap:
        raise CapExceeded("structure enumeration", total, cap)
    per_pred = []
    for name, arity in vocab.predicates:
        all_tuples = sorted(itertools.product(range(n), repeat=arity))
        subsets = []
        for bits in range(2 ** len(all_tuples)):
            subsets.append(frozenset(
                t for i, t in enumerate(all_tuples) if bits >> i & 1))
        per_pred.append((name, subsets))
    names = [name for name, _ in per_pred]
    for combo in itertools.product(*(subsets for _, subsets in per_pred)):
        interp = dict(zip(names, combo))
        for values in itertools.product(range(n), repeat=len(vocab.constants)):
            consts = dict(zip(vocab.constants, values))
            yield FiniteStructure(vocab, n, interp, consts)
