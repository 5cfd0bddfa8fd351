"""Shared sentence corpus for the test suite.

Everything is built programmatically so tests can freeze expected values
next to the construction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ebsedp.syntax import (And, Atom, Const, Eq, Exists, Forall, Formula,
                           Implies, Literal, Not, Or, PrenexForm, Var,
                           Vocabulary, to_pcnf)

# Common vocabularies
VOC_P2 = Vocabulary((("P", 2),))
VOC_P2Q1 = Vocabulary((("P", 2), ("Q", 1)))
VOC_P2R2 = Vocabulary((("P", 2), ("R", 2)))
VOC_P2Q2R2 = Vocabulary((("P", 2), ("Q", 2), ("R", 2)))
VOC_P2_C = Vocabulary((("P", 2),), ("c",))
VOC_E2 = Vocabulary((("E", 2),))
VOC_P1 = Vocabulary((("P", 1),))
VOC_U1 = Vocabulary((("U1", 1),))
VOC_U2 = Vocabulary((("U1", 1), ("U2", 1)))
VOC_LE = Vocabulary((("Le", 2), ("C", 1)))


def _v(*names: str) -> Tuple[Var, ...]:
    return tuple(Var(n) for n in names)


def P(a, b) -> Formula:
    return Atom("P", (a, b))


def Q1(a) -> Formula:
    return Atom("Q", (a,))


def R(a, b) -> Formula:
    return Atom("R", (a, b))


x, y, z, u, v, w = _v("x", "y", "z", "u", "v", "w")


# ---------------------------------------------------------------------------
# Worked classification/membership examples

# P free, Q universal, R existential; the R pair is distinguishable via w
EXAMPLE_A = to_pcnf(
    Exists("y", Exists("u", Forall("v", Exists("w",
        And((Or((P(y, y), Not(Atom("Q", (u, y))), R(y, v))),
             Or((Atom("Q", (v, u)), And((P(y, u), Not(R(w, v)))))))))))),
    VOC_P2Q2R2)

# in the fragment exactly when P stays outside sigma; bound 4
EXAMPLE_B = to_pcnf(
    Exists("x", Exists("y", Forall("z", Exists("v",
        And((Or((P(x, z), R(y, z))),
             Or((Not(P(v, y)), P(z, y))),
             Or((Not(R(x, z)), Eq(z, x))))))))),
    VOC_P2R2)

# in the fragment for sigma={Q} but not sigma={P,Q}; bound 3
EXAMPLE_C = to_pcnf(
    Exists("x", Forall("z", Exists("v",
        And((Or((P(v, z), Q1(z))),
             Or((P(x, v), Not(Q1(v))))))))),
    VOC_P2Q1)

# every element has a successor; bound 2
TOTAL_RELATION = to_pcnf(Forall("x", Exists("y", P(x, y))), VOC_P2)

# satisfiable, but only by infinite structures
DAG = to_pcnf(
    Forall("x", Forall("y", Forall("z", Exists("w",
        And((Not(Atom("E", (x, x))),
             Or((Not(Atom("E", (x, y))), Not(Atom("E", (y, z))),
                 Atom("E", (x, z)))),
             Atom("E", (x, w)))))))),
    VOC_E2)

CONTRADICTION = to_pcnf(Exists("x", And((P(x, x), Not(P(x, x))))), VOC_P2)

TWO_ELEMENTS = to_pcnf(Exists("x1", Exists("x2",
                                           Not(Eq(Var("x1"), Var("x2"))))),
                       VOC_P1)

ALL_EQUAL = to_pcnf(Forall("x", Forall("y", Eq(x, y))), VOC_P1)

# unsatisfiable only through the congruence and the transitivity axioms
EQ_CONGRUENCE = to_pcnf(Exists("a", Exists("b", And((
    Eq(Var("a"), Var("b")), Atom("P", (Var("a"),)), Not(Atom("P", (Var("b"),))))))),
    VOC_P1)
EQ_TRANSITIVITY = to_pcnf(Exists("a", Exists("b", Exists("c", And((
    Eq(Var("a"), Var("b")), Eq(Var("b"), Var("c")), Not(Eq(Var("a"), Var("c")))))))),
    VOC_P1)

# P is a total, irreflexive, symmetric, functional relation: a perfect
# matching, so exactly the even sizes are realizable
EVEN_MATCHING = to_pcnf(
    Forall("x", Forall("y", Forall("z", Exists("w",
        And((P(x, w),
             Not(P(x, x)),
             Or((Not(P(x, y)), P(y, x))),
             Or((Not(P(x, y)), Not(P(x, z)), Eq(y, z))))))))),
    VOC_P2)

# alternating-colour linear order: Le is a total order, colours alternate
# along successors, the first element is coloured and the last is not;
# finite models have even cardinality only
_le = lambda a, b: Atom("Le", (a, b))
_c = lambda a: Atom("C", (a,))
EVEN_ORDER = PrenexForm(
    VOC_LE,
    (("exists", "u"), ("exists", "v"),
     ("forall", "x"), ("forall", "y"), ("forall", "w"), ("exists", "z")),
    (
        (Literal(True, Atom("Le", (u, x))),),                       # u first
        (Literal(True, Atom("C", (u,))),),
        (Literal(True, Atom("Le", (x, v))),),                       # v last
        (Literal(False, Atom("C", (v,))),),
        (Literal(True, Atom("Le", (x, x))),),                       # reflexive
        (Literal(False, Atom("Le", (x, y))), Literal(False, Atom("Le", (y, x))),
         Literal(True, Eq(x, y))),                                  # antisym
        (Literal(True, Atom("Le", (x, y))), Literal(True, Atom("Le", (y, x)))),
        (Literal(False, Atom("Le", (x, y))), Literal(False, Atom("Le", (y, w))),
         Literal(True, Atom("Le", (x, w)))),                        # transitive
        # succ(x,y) -> (C(x) <-> !C(y)), succ refuted by a z between x and y
        (Literal(False, Atom("Le", (x, y))), Literal(True, Atom("Le", (y, x))),
         Literal(False, Atom("Le", (z, x))), Literal(False, Atom("C", (x,))),
         Literal(False, Atom("C", (y,)))),
        (Literal(False, Atom("Le", (x, y))), Literal(True, Atom("Le", (y, x))),
         Literal(False, Atom("Le", (z, x))), Literal(True, Atom("C", (x,))),
         Literal(True, Atom("C", (y,)))),
        (Literal(False, Atom("Le", (x, y))), Literal(True, Atom("Le", (y, x))),
         Literal(False, Atom("Le", (y, z))), Literal(False, Atom("C", (x,))),
         Literal(False, Atom("C", (y,)))),
        (Literal(False, Atom("Le", (x, y))), Literal(True, Atom("Le", (y, x))),
         Literal(False, Atom("Le", (y, z))), Literal(True, Atom("C", (x,))),
         Literal(True, Atom("C", (y,)))),
    ))

# every size is realizable, but the flat CNF leaves most of the n³ R atoms
# free, and a kernel that backtracks chronologically over them stalls at n=3
QR_STALL = to_pcnf(
    Exists("x", Exists("y", Exists("z", Exists("w", And((
        Or((Not(Q1(y)), Atom("R", (y, z, x)))),
        Or((Not(Q1(z)), Not(Q1(w)), Not(Q1(x)))))))))),
    Vocabulary((("Q", 1), ("R", 3))))


# ---------------------------------------------------------------------------
# Fragment corpus: sentences passing the base check with sigma = {}

EDP_EMPTY: List[PrenexForm] = [
    EXAMPLE_A,
    EXAMPLE_B,
    EXAMPLE_C,
    TOTAL_RELATION,
    to_pcnf(Exists("x", Forall("z", Or((P(x, z), Q1(z))))), VOC_P2Q1),
    to_pcnf(Forall("z", Exists("v", Or((Q1(v), Not(Q1(z)))))), VOC_P2Q1),
    to_pcnf(Exists("x", Exists("y", Forall("z", Or((P(x, z), P(z, y)))))),
            VOC_P2),
    to_pcnf(Forall("x", Forall("y", Exists("v",
                                           Or((Not(P(x, y)), P(x, v)))))),
            VOC_P2),
    to_pcnf(Exists("x", Forall("y", Or((Eq(y, x), P(x, y))))), VOC_P2),
    to_pcnf(Exists("x1", Exists("x2", Not(Eq(Var("x1"), Var("x2"))))),
            VOC_P1),
]


# ---------------------------------------------------------------------------
# Syntactic BSR corpus (prefix exists*forall*, no constants)

BSR: List[PrenexForm] = [
    to_pcnf(Exists("x", Forall("y", Or((P(x, y), Not(P(y, y)))))), VOC_P2),
    to_pcnf(Exists("x", Exists("y", Forall("z",
                                           Or((P(x, z), P(z, y)))))), VOC_P2),
    to_pcnf(Forall("x", Forall("y", Or((Not(P(x, y)), P(y, x))))), VOC_P2),
    to_pcnf(Exists("x", P(x, x)), VOC_P2),
    to_pcnf(Exists("x", Forall("y", Eq(x, y))), VOC_P1),
    to_pcnf(Exists("x1", Exists("x2", Not(Eq(Var("x1"), Var("x2"))))),
            VOC_P1),
    to_pcnf(Forall("x", Or((Atom("P", (x,)), Not(Atom("P", (x,)))))), VOC_P1),
    to_pcnf(Exists("x", Forall("y", And((Atom("P", (x,)),
                                         Or((Eq(x, y), Not(Atom("P", (y,))))))))),
            VOC_P1),
    to_pcnf(Exists("x", Exists("y", And((P(x, y), Not(P(y, x)))))), VOC_P2),
    to_pcnf(Forall("x", Forall("y", Forall("z",
        Or((Not(P(x, y)), Not(P(y, z)), P(x, z)))))), VOC_P2),
]


# the vocabulary random sentences draw on; each sentence declares a subset
VOC_WIDE = Vocabulary((("P", 2), ("Q", 1), ("R", 3)), ("c", "d"))


def random_sentence(rng):
    """Up to four variables under a random prefix (so Skolem tables over up
    to three universals), one to three predicates of arity 1-3, zero to two
    constants, and equalities between any terms, in mixed clauses and in
    clauses of equalities alone."""
    names = ["x", "y", "z", "w"][:rng.randint(1, 4)]
    preds = tuple(p for p in VOC_WIDE.predicates if rng.random() < 0.6) \
        or (rng.choice(VOC_WIDE.predicates),)
    consts = tuple(c for c in VOC_WIDE.constants if rng.random() < 0.4)
    voc = Vocabulary(preds, consts)
    terms = [Var(v) for v in names] + [Const(c) for c in consts]

    def lit(eq_only):
        if eq_only or rng.random() < 0.3:
            a = Eq(rng.choice(terms), rng.choice(terms))
        else:
            name, arity = rng.choice(preds)
            a = Atom(name, tuple(rng.choice(terms) for _ in range(arity)))
        return Not(a) if rng.random() < 0.5 else a

    def clause():
        eq_only = rng.random() < 0.15
        return Or(tuple(lit(eq_only) for _ in range(rng.randint(1, 3))))

    f = And(tuple(clause() for _ in range(rng.randint(1, 3))))
    for v in reversed(names):
        f = (Forall if rng.random() < 0.5 else Exists)(v, f)
    return to_pcnf(f, voc)


def bsr_exists_count(pf: PrenexForm) -> int:
    return sum(1 for q, _ in pf.prefix if q == "exists")


# ---------------------------------------------------------------------------
# Translation corpus: (sentence, bound) pairs for the soundness direction

TRANSLATE: List[Tuple[PrenexForm, int]] = [
    (TOTAL_RELATION, 2),
    (EXAMPLE_C, 3),
    (EXAMPLE_B, 4),
    (EXAMPLE_A, 4),
    (to_pcnf(Forall("x", Exists("y", Or((Q1(y), Not(Q1(x)))))), VOC_P2Q1), 0),
    (to_pcnf(Forall("x", Exists("y", Or((Q1(y), Not(Q1(x)))))), VOC_P2Q1), 2),
    (to_pcnf(Forall("x", Forall("y", Exists("v",
                                            Or((Not(P(x, y)), P(x, v)))))),
             VOC_P2), 2),
    (to_pcnf(Exists("x", Forall("z", Or((P(x, z), Q1(z))))), VOC_P2Q1), 1),
    (to_pcnf(Forall("z", Exists("v", Or((Q1(v), Not(Q1(z)))))), VOC_P2Q1), 3),
    (to_pcnf(Exists("x", Exists("y", Forall("z", Or((P(x, z), P(z, y)))))),
             VOC_P2), 2),
    (to_pcnf(Exists("x", Forall("y", Or((Eq(y, x), P(x, y))))), VOC_P2), 2),
    (to_pcnf(Forall("x", Exists("y", P(x, y))), VOC_P2), 3),
    (to_pcnf(Forall("x", Exists("y", P(y, x))), VOC_P2), 2),
    (to_pcnf(Forall("x", Exists("y", And((P(x, y), Not(P(y, x)))))), VOC_P2), 2),
    (to_pcnf(Exists("x", P(x, x)), VOC_P2), 1),
    (to_pcnf(Forall("x", Forall("y", Or((Not(P(x, y)), P(y, x))))), VOC_P2), 0),
    (to_pcnf(Forall("x", Exists("y", Or((P(x, y), Eq(x, y))))), VOC_P2), 2),
    (to_pcnf(Exists("x", Forall("y", Exists("v", Or((P(y, v), P(x, y)))))),
             VOC_P2), 2),
    (to_pcnf(Forall("x", Exists("y", Not(P(x, y)))), VOC_P2), 2),
    (to_pcnf(Forall("z", Exists("v", Or((P(v, z), Q1(v))))), VOC_P2Q1), 2),
]

assert len(TRANSLATE) == 20
assert len(EDP_EMPTY) == 10
assert len(BSR) == 10
