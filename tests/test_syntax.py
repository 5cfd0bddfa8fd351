import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ebsedp.errors import CapExceeded
from ebsedp.structures import FiniteStructure, enumerate_structures, evaluate
from ebsedp.syntax import (And, Atom, Const, Eq, Exists, Forall, Iff, Implies,
                           Literal, Not, Or, PrenexForm, Var, Vocabulary,
                           all_var_names,
                           check_well_formed, free_vars, substitute, to_nnf,
                           to_pcnf)

VOC = Vocabulary((("P", 2), ("Q", 1)))
x, y, z = Var("x"), Var("y"), Var("z")


def test_vocabulary_rejects_duplicates_and_reserved():
    with pytest.raises(ValueError):
        Vocabulary((("P", 1), ("P", 2)))
    with pytest.raises(ValueError):
        Vocabulary((("=", 2),))
    with pytest.raises(ValueError):
        Vocabulary((("P", 1),), ("P",))


def test_free_vars_and_substitute():
    f = Forall("x", Or((Atom("P", (x, y)), Eq(x, z))))
    assert free_vars(f) == {"y", "z"}
    g = substitute(f, {"y": Var("w")})
    assert free_vars(g) == {"w", "z"}
    # capture avoidance: substituting x under forall x is a no-op
    assert substitute(f, {"x": Var("q")}) == f


def test_substitute_renames_on_capture():
    f = Forall("x", Atom("P", (x, y)))
    g = substitute(f, {"y": Var("x")})
    assert isinstance(g, Forall)
    assert g.var != "x"
    assert free_vars(g) == {"x"}


def test_nnf_shapes():
    f = Not(Implies(Atom("Q", (x,)), Atom("Q", (y,))))
    assert to_nnf(f) == And((Atom("Q", (x,)), Not(Atom("Q", (y,)))))
    f2 = Not(Forall("x", Atom("Q", (x,))))
    assert to_nnf(f2) == Exists("x", Not(Atom("Q", (x,))))


def test_pcnf_basic():
    f = Forall("x", Exists("y", Atom("P", (x, y))))
    pf = to_pcnf(f, VOC)
    assert pf.prefix == (("forall", "x"), ("exists", "y"))
    assert pf.matrix == ((Literal(True, Atom("P", (x, y))),),)
    assert pf.leftmost_exists == ()
    assert pf.inner_exists == ("y",)
    assert pf.universals == ("x",)
    assert pf.is_sentence() and not pf.is_bsr()


def test_pcnf_distribution():
    f = Or((And((Atom("Q", (x,)), Atom("Q", (y,)))),
            And((Atom("Q", (z,)), Atom("P", (x, y))))))
    pf = to_pcnf(f, VOC, free_variables=("x", "y", "z"))
    assert len(pf.matrix) == 4


def test_pcnf_cap():
    parts = [And((Atom("Q", (Var(f"a{i}"),)), Atom("Q", (Var(f"b{i}"),))))
             for i in range(20)]
    with pytest.raises(CapExceeded):
        to_pcnf(Or(tuple(parts)), VOC,
                free_variables=tuple(f"{c}{i}" for c in "ab" for i in range(20)),
                clause_cap=1000)


def test_matrix_formula_renders_empty_clauses():
    forall_x = (("forall", "x"),)
    assert PrenexForm(VOC, forall_x, ((),)).to_formula() == \
        Forall("x", Not(Eq(x, x)))
    assert PrenexForm(VOC, forall_x, ()).to_formula() == Forall("x", Eq(x, x))
    c = Const("c")
    with_c = Vocabulary(VOC.predicates, ("c",))
    assert PrenexForm(with_c, (), ((), ())).matrix_formula() == \
        And((Not(Eq(c, c)), Not(Eq(c, c))))
    with pytest.raises(ValueError):  # no term to write t = t with
        PrenexForm(VOC, (), ()).matrix_formula()


def test_pcnf_standardize_apart():
    f = And((Forall("x", Atom("Q", (x,))), Exists("x", Atom("Q", (x,)))))
    pf = to_pcnf(f, VOC)
    names = [v for _, v in pf.prefix]
    assert len(set(names)) == 2


def test_check_well_formed():
    with pytest.raises(ValueError):
        check_well_formed(Atom("P", (x,)), VOC, ("x",))
    with pytest.raises(ValueError):
        check_well_formed(Atom("Q", (Const("c"),)), VOC)
    check_well_formed(Forall("x", Atom("Q", (x,))), VOC)


# -- semantic oracle: to_pcnf preserves truth ------------------------------

def _formulas(depth):
    terms = st.sampled_from([x, y, z])
    atoms = st.one_of(
        st.tuples(terms, terms).map(lambda t: Atom("P", t)),
        terms.map(lambda t: Atom("Q", (t,))),
        st.tuples(terms, terms).map(lambda t: Eq(*t)))
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(p)),
            st.tuples(sub, sub).map(lambda p: Or(p)),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: Iff(*p)),
            st.tuples(st.sampled_from(["x", "y", "z"]), sub).map(
                lambda p: Forall(*p)),
            st.tuples(st.sampled_from(["x", "y", "z"]), sub).map(
                lambda p: Exists(*p))),
        max_leaves=depth)


@settings(max_examples=60, deadline=None)
@given(f=_formulas(8), data=st.data())
def test_pcnf_preserves_truth(f, data):
    fv = tuple(sorted(free_vars(f)))
    pf = to_pcnf(f, VOC, fv, clause_cap=5000)
    n = data.draw(st.integers(1, 3))
    p_tuples = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1))))
    q_tuples = data.draw(st.sets(st.integers(0, n - 1)))
    M = FiniteStructure(VOC, n, {
        "P": frozenset(p_tuples),
        "Q": frozenset((e,) for e in q_tuples)})
    a = {v: data.draw(st.integers(0, n - 1)) for v in fv}
    assert evaluate(M, f, a) == evaluate(M, pf, a)
