"""Relational first-order syntax with equality and constants, plus
equivalence-preserving normalization to prenex CNF."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

from .errors import CapExceeded

FORALL = "forall"
EXISTS = "exists"

DEFAULT_CLAUSE_CAP = 10_000


# ---------------------------------------------------------------------------
# Vocabulary

@dataclass(frozen=True)
class Vocabulary:
    """A relational vocabulary: predicate name/arity pairs and constants.

    "=" is built in and never declared; predicates and constants share a
    namespace.
    """

    predicates: Tuple[Tuple[str, int], ...] = ()
    constants: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple((str(n), int(a)) for n, a in self.predicates))
        object.__setattr__(self, "constants", tuple(self.constants))
        names = [n for n, _ in self.predicates] + list(self.constants)
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol name in vocabulary")
        if "=" in names:
            raise ValueError('"=" is reserved and cannot be declared')
        for _, a in self.predicates:
            if a < 0:
                raise ValueError("negative arity")

    def arity(self, name: str) -> int:
        for n, a in self.predicates:
            if n == name:
                return a
        raise KeyError(f"undeclared predicate {name!r}")

    def is_predicate(self, name: str) -> bool:
        return any(n == name for n, _ in self.predicates)

    def is_constant(self, name: str) -> bool:
        return name in self.constants

    @property
    def unary_predicates(self) -> Tuple[str, ...]:
        return tuple(n for n, a in self.predicates if a == 1)

    @property
    def predicate_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.predicates)


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const(Term):
    name: str

    def __str__(self):
        return self.name


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    args: Tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    args: Tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("empty conjunction")


@dataclass(frozen=True)
class Or(Formula):
    args: Tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("empty disjunction")


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


def and_(*args: Formula) -> Formula:
    return args[0] if len(args) == 1 else And(tuple(args))


def or_(*args: Formula) -> Formula:
    return args[0] if len(args) == 1 else Or(tuple(args))


# ---------------------------------------------------------------------------
# Well-formedness

def check_well_formed(f: Formula, vocab: Vocabulary, declared_free: Iterable[str] = ()) -> None:
    """Raise ValueError unless every atom matches its declared arity, every
    constant is declared, and every free variable is in declared_free."""
    extra = set(free_vars(f)) - set(declared_free)
    if extra:
        raise ValueError(f"unbound variables not declared free: {sorted(extra)}")
    for sub in walk(f):
        if isinstance(sub, Atom):
            if len(sub.args) != vocab.arity(sub.predicate):
                raise ValueError(
                    f"arity mismatch: {sub.predicate} expects "
                    f"{vocab.arity(sub.predicate)} arguments, got {len(sub.args)}")
        if isinstance(sub, (Atom, Eq)):
            terms = sub.args if isinstance(sub, Atom) else (sub.left, sub.right)
            for t in terms:
                if isinstance(t, Const) and not vocab.is_constant(t.name):
                    raise ValueError(f"undeclared constant {t.name!r}")


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from walk(f.sub)
    elif isinstance(f, (And, Or)):
        for a in f.args:
            yield from walk(a)
    elif isinstance(f, (Implies, Iff)):
        yield from walk(f.left)
        yield from walk(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from walk(f.body)


# ---------------------------------------------------------------------------
# Free variables and substitution

def _term_vars(t: Term) -> Set[str]:
    return {t.name} if isinstance(t, Var) else set()


def free_vars(f: Formula) -> Set[str]:
    if isinstance(f, Atom):
        out: Set[str] = set()
        for t in f.args:
            out |= _term_vars(t)
        return out
    if isinstance(f, Eq):
        return _term_vars(f.left) | _term_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, (And, Or)):
        out = set()
        for a in f.args:
            out |= free_vars(a)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def all_var_names(f: Formula) -> Set[str]:
    """All variable names occurring in f, bound or free."""
    out: Set[str] = set()
    for sub in walk(f):
        if isinstance(sub, Atom):
            for t in sub.args:
                out |= _term_vars(t)
        elif isinstance(sub, Eq):
            out |= _term_vars(sub.left) | _term_vars(sub.right)
        elif isinstance(sub, (Forall, Exists)):
            out.add(sub.var)
    return out


def _fresh_name(base: str, used: Set[str], counter: List[int]) -> str:
    while True:
        counter[0] += 1
        cand = f"{base}_{counter[0]}"
        if cand not in used:
            return cand


def _subst_term(t: Term, m: Mapping[str, Term]) -> Term:
    if isinstance(t, Var) and t.name in m:
        return m[t.name]
    return t


def substitute(f: Formula, m: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of free variable occurrences."""
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(_subst_term(t, m) for t in f.args))
    if isinstance(f, Eq):
        return Eq(_subst_term(f.left, m), _subst_term(f.right, m))
    if isinstance(f, Not):
        return Not(substitute(f.sub, m))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(substitute(a, m) for a in f.args))
    if isinstance(f, (Implies, Iff)):
        return type(f)(substitute(f.left, m), substitute(f.right, m))
    if isinstance(f, (Forall, Exists)):
        inner = {k: v for k, v in m.items() if k != f.var}
        inner = {k: v for k, v in inner.items() if k in free_vars(f.body)}
        if not inner:
            return f
        clash = any(f.var in _term_vars(v) for v in inner.values())
        var, body = f.var, f.body
        if clash:
            used = all_var_names(body) | set(inner) | {
                n for v in inner.values() for n in _term_vars(v)}
            new = f.var + "'"
            counter = [0]
            while new in used:
                new = _fresh_name(f.var, used, counter)
            body = substitute(body, {var: Var(new)})
            var = new
        return type(f)(var, substitute(body, inner))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# NNF

def to_nnf(f: Formula) -> Formula:
    """Eliminate ->/<-> and push negations down to atoms/equalities."""
    return _nnf(f, False)


def _nnf(f: Formula, neg: bool) -> Formula:
    if isinstance(f, (Atom, Eq)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if isinstance(f, And):
        parts = tuple(_nnf(a, neg) for a in f.args)
        return Or(parts) if neg else And(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(a, neg) for a in f.args)
        return And(parts) if neg else Or(parts)
    if isinstance(f, Implies):
        if neg:
            return And((_nnf(f.left, False), _nnf(f.right, True)))
        return Or((_nnf(f.left, True), _nnf(f.right, False)))
    if isinstance(f, Iff):
        if neg:
            # ¬(A↔B) = (A ∧ ¬B) ∨ (¬A ∧ B)
            return Or((And((_nnf(f.left, False), _nnf(f.right, True))),
                       And((_nnf(f.left, True), _nnf(f.right, False)))))
        # A↔B = (¬A ∨ B) ∧ (¬B ∨ A)
        return And((Or((_nnf(f.left, True), _nnf(f.right, False))),
                    Or((_nnf(f.right, True), _nnf(f.left, False)))))
    if isinstance(f, Forall):
        body = _nnf(f.body, neg)
        return Exists(f.var, body) if neg else Forall(f.var, body)
    if isinstance(f, Exists):
        body = _nnf(f.body, neg)
        return Forall(f.var, body) if neg else Exists(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Prenex CNF

@dataclass(frozen=True)
class Literal:
    positive: bool
    atom: Formula  # Atom or Eq

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.atom)


Clause = Tuple[Literal, ...]


@dataclass(frozen=True)
class PrenexForm:
    """Quantifier prefix + CNF matrix over a vocabulary.

    prefix entries are (FORALL|EXISTS, variable); variables are pairwise
    distinct and distinct from the declared free variables.
    """

    vocabulary: Vocabulary
    prefix: Tuple[Tuple[str, str], ...]
    matrix: Tuple[Clause, ...]
    free_variables: Tuple[str, ...] = ()

    def __post_init__(self):
        seen = set(self.free_variables)
        for q, v in self.prefix:
            if q not in (FORALL, EXISTS):
                raise ValueError(f"bad quantifier {q!r}")
            if v in seen:
                raise ValueError(f"prefix variable {v!r} not distinct")
            seen.add(v)

    @property
    def leftmost_exists(self) -> Tuple[str, ...]:
        """V(φ): variables of the maximal leftmost ∃-block."""
        out = []
        for q, v in self.prefix:
            if q != EXISTS:
                break
            out.append(v)
        return tuple(out)

    @property
    def inner_exists(self) -> Tuple[str, ...]:
        """EV(φ): existential variables after the first universal."""
        v0 = set(self.leftmost_exists)
        return tuple(v for q, v in self.prefix if q == EXISTS and v not in v0)

    @property
    def universals(self) -> Tuple[str, ...]:
        """AV(φ): the universally quantified variables."""
        return tuple(v for q, v in self.prefix if q == FORALL)

    def is_sentence(self) -> bool:
        return not self.free_variables

    def is_bsr(self) -> bool:
        """True iff the prefix matches ∃*∀*."""
        seen_forall = False
        for q, _ in self.prefix:
            if q == FORALL:
                seen_forall = True
            elif seen_forall:
                return False
        return True

    def matrix_formula(self) -> Formula:
        clauses = []
        for clause in self.matrix:
            lits = [lit.atom if lit.positive else Not(lit.atom) for lit in clause]
            clauses.append(or_(*lits))
        return and_(*clauses)

    def to_formula(self) -> Formula:
        f = self.matrix_formula()
        for q, v in reversed(self.prefix):
            f = Forall(v, f) if q == FORALL else Exists(v, f)
        return f


def to_pcnf(f: Formula, vocab: Vocabulary, free_variables: Iterable[str] = (),
            clause_cap: int = DEFAULT_CLAUSE_CAP) -> PrenexForm:
    """Equivalence-preserving prenex-CNF normalization.

    Quantifiers are pulled by a deterministic left-to-right tree traversal
    (child prefixes concatenated in child order, so an existential is never
    reordered past a universal it was under); the matrix is put in CNF by
    full distribution, capped at clause_cap.  Bound variables keep their
    names unless standardizing apart forces a rename, in which case the new
    name is original + "_" + counter with one counter for the whole call.
    """
    free_variables = tuple(free_variables)
    nnf = to_nnf(f)
    used = set(free_variables) | set(vocab.constants) | {n for n, _ in vocab.predicates}
    counter = [0]
    renamed = _standardize(nnf, {}, used, counter)
    prefix, body = _pull(renamed)
    clauses = _distribute(body, clause_cap)
    return PrenexForm(vocab, tuple(prefix), tuple(clauses), free_variables)


def _standardize(f: Formula, ren: Dict[str, str], used: Set[str], counter: List[int]) -> Formula:
    if isinstance(f, (Atom, Eq)):
        m = {k: Var(v) for k, v in ren.items()}
        return substitute(f, m) if m else f
    if isinstance(f, Not):
        return Not(_standardize(f.sub, ren, used, counter))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_standardize(a, ren, used, counter) for a in f.args))
    if isinstance(f, (Forall, Exists)):
        if f.var in used:
            new = _fresh_name(f.var, used, counter)
        else:
            new = f.var
        used.add(new)
        inner = dict(ren)
        inner[f.var] = new
        return type(f)(new, _standardize(f.body, inner, used, counter))
    raise TypeError(f"unexpected node in NNF: {f!r}")


def _pull(f: Formula) -> Tuple[List[Tuple[str, str]], Formula]:
    if isinstance(f, Forall):
        prefix, body = _pull(f.body)
        return [(FORALL, f.var)] + prefix, body
    if isinstance(f, Exists):
        prefix, body = _pull(f.body)
        return [(EXISTS, f.var)] + prefix, body
    if isinstance(f, (And, Or)):
        prefix: List[Tuple[str, str]] = []
        bodies = []
        for a in f.args:
            p, b = _pull(a)
            prefix.extend(p)
            bodies.append(b)
        return prefix, type(f)(tuple(bodies))
    return [], f


def _distribute(f: Formula, cap: int) -> List[Clause]:
    """Quantifier-free NNF to CNF clauses by distribution (no simplification
    beyond literal identity, so the clause structure is predictable)."""
    if isinstance(f, (Atom, Eq)):
        return [(Literal(True, f),)]
    if isinstance(f, Not):
        return [(Literal(False, f.sub),)]
    if isinstance(f, And):
        out: List[Clause] = []
        for a in f.args:
            out.extend(_distribute(a, cap))
            if len(out) > cap:
                raise CapExceeded("CNF clause cap", len(out), cap)
        return out
    if isinstance(f, Or):
        parts = [_distribute(a, cap) for a in f.args]
        out = [()]
        for part in parts:
            needed = len(out) * len(part)
            if needed > cap:
                raise CapExceeded("CNF clause cap", needed, cap)
            out = [c1 + c2 for c1 in out for c2 in part]
        return out
    raise TypeError(f"unexpected node in matrix: {f!r}")
