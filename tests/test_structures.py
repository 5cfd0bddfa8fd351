import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from ebsedp.errors import CapExceeded
from ebsedp.structures import (FiniteStructure, SubsetWitness,
                               count_structures, enumerate_structures,
                               evaluate, generated_substructure, restrict_eq)
from ebsedp.syntax import (Atom, Const, Eq, Exists, Forall, Not, Or, Var,
                           Vocabulary)

from corpus import BSR, EDP_EMPTY

VOC = Vocabulary((("P", 2), ("Q", 1)))
VOC_C = Vocabulary((("P", 2),), ("c",))

M_CYCLE = FiniteStructure(VOC, 3, {"P": frozenset({(0, 1), (1, 2), (2, 0)}),
                                   "Q": frozenset({(0,)})})


def test_structure_validation():
    with pytest.raises(ValueError):
        FiniteStructure(VOC, 0, {})
    with pytest.raises(ValueError):
        FiniteStructure(VOC, 2, {"P": frozenset({(0, 2)})})
    with pytest.raises(ValueError):
        FiniteStructure(VOC, 2, {"P": frozenset({(0,)})})  # arity
    with pytest.raises(ValueError):
        FiniteStructure(VOC_C, 2, {})  # constant c has no value
    with pytest.raises(ValueError):
        FiniteStructure(VOC_C, 2, {}, {"c": 5})


def test_holds_and_json_round_trip():
    assert M_CYCLE.holds("P", (0, 1)) and not M_CYCLE.holds("P", (1, 0))
    again = FiniteStructure.from_json(M_CYCLE.to_json(), VOC)
    assert again == M_CYCLE
    assert M_CYCLE.to_json() == M_CYCLE.to_json()  # deterministic
    assert json.loads(M_CYCLE.to_json()) == M_CYCLE.to_json_dict() == {
        "n": 3, "pred": {"P": [[0, 1], [1, 2], [2, 0]], "Q": [[0]]}, "const": {}}


def test_evaluate_formula_and_prenex():
    x, y = Var("x"), Var("y")
    f = Forall("x", Exists("y", Atom("P", (x, y))))
    assert evaluate(M_CYCLE, f)
    assert evaluate(M_CYCLE, Exists("x", Atom("Q", (x,))))
    assert not evaluate(M_CYCLE, Forall("x", Atom("Q", (x,))))
    assert evaluate(M_CYCLE, Atom("P", (x, y)), {"x": 0, "y": 1})
    with pytest.raises(ValueError):
        evaluate(M_CYCLE, Atom("Q", (x,)))  # missing assignment
    from ebsedp.syntax import to_pcnf
    pf = to_pcnf(f, VOC)
    assert evaluate(M_CYCLE, pf)


@pytest.mark.parametrize("pf", EDP_EMPTY + BSR)
def test_prenex_evaluation_matches_formula_evaluation(pf):
    f = pf.to_formula()
    for n in (1, 2):
        for M in enumerate_structures(pf.vocabulary, n):
            assert evaluate(M, pf) == evaluate(M, f), M.to_json()


def test_evaluate_constants():
    M = FiniteStructure(VOC_C, 2, {"P": frozenset({(1, 0)})}, {"c": 1})
    assert evaluate(M, Atom("P", (Const("c"), Var("x"))), {"x": 0})
    assert evaluate(M, Eq(Const("c"), Var("x")), {"x": 1})


def test_subset_witness_validation():
    with pytest.raises(ValueError):
        SubsetWitness(M_CYCLE, ())
    with pytest.raises(ValueError):
        SubsetWitness(M_CYCLE, (0, 7))
    M = FiniteStructure(VOC_C, 3, {"P": frozenset()}, {"c": 2})
    with pytest.raises(ValueError):
        SubsetWitness(M, (0, 1))  # omits the value of c
    assert SubsetWitness(M, (2, 0)).elements == (0, 2)  # sorted, deduped


def test_generated_substructure():
    sub, relabel = generated_substructure(M_CYCLE, [2, 0])
    assert relabel == {0: 0, 2: 1}
    assert sub.n == 2
    # only the 2->0 edge survives; (0,1) and (1,2) leave the subset
    assert sub.interpretation["P"] == frozenset({(1, 0)})
    assert sub.interpretation["Q"] == frozenset({(0,)})


def test_restrict_eq():
    M2 = FiniteStructure(VOC, 3, {"P": frozenset({(0, 1), (1, 2), (2, 0)}),
                                  "Q": frozenset({(1,)})})
    assert restrict_eq(M_CYCLE, M2, ["P"])
    assert not restrict_eq(M_CYCLE, M2, ["P", "Q"])
    assert restrict_eq(M_CYCLE, M2, [])
    with pytest.raises(ValueError):
        restrict_eq(M_CYCLE, FiniteStructure(VOC, 2, {}), ["P"])


@pytest.mark.parametrize("vocab,n,expected", [
    (VOC, 1, 2 ** 1 * 2 ** 1),
    (VOC, 2, 2 ** 4 * 2 ** 2),
    (VOC_C, 2, 2 ** 4 * 2),
    (Vocabulary((("R", 3),)), 2, 2 ** 8),
    (Vocabulary((), ("a", "b")), 3, 9),
])
def test_count_structures(vocab, n, expected):
    assert count_structures(vocab, n) == expected


def test_enumerate_structures_complete_and_distinct():
    out = list(enumerate_structures(VOC, 2))
    assert len(out) == count_structures(VOC, 2) == 64
    assert len({M.to_json() for M in out}) == 64
    out_c = list(enumerate_structures(VOC_C, 2))
    assert len(out_c) == count_structures(VOC_C, 2) == 32  # 2^4 interps x 2 c-values
    assert {M.constant_values["c"] for M in out_c} == {0, 1}


def test_enumerate_structures_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_structures(VOC, 4, cap=1000))


def test_enumerate_deterministic_order():
    a = [M.to_json() for M in enumerate_structures(VOC, 2)]
    b = [M.to_json() for M in enumerate_structures(VOC, 2)]
    assert a == b


# -- substructures preserve quantifier-free truth --------------------------

@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_substructure_preserves_quantifier_free_truth(data):
    n = data.draw(st.integers(2, 4))
    p_tuples = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1))))
    q_elems = data.draw(st.sets(st.integers(0, n - 1)))
    M = FiniteStructure(VOC, n, {"P": frozenset(p_tuples),
                                 "Q": frozenset((e,) for e in q_elems)})
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    sub, relabel = generated_substructure(M, subset)
    x, y = Var("x"), Var("y")
    f = data.draw(st.sampled_from([
        Atom("P", (x, y)), Atom("Q", (x,)), Eq(x, y),
        Or((Atom("P", (x, y)), Not(Atom("Q", (y,)))))]))
    a = data.draw(st.integers(0, n - 1).filter(lambda e: e in relabel))
    b = data.draw(st.integers(0, n - 1).filter(lambda e: e in relabel))
    assert (evaluate(M, f, {"x": a, "y": b})
            == evaluate(sub, f, {"x": relabel[a], "y": relabel[b]}))
