import dataclasses
import itertools

import pytest

from ebsedp.analysis import _all_structure_models
from ebsedp.edp import classify, edp_bound
from ebsedp.errors import RepairInternalError
from ebsedp.parse import parse_problem
from ebsedp.repair import CoreWitness, colour_of, edp_core, edp_extend
from ebsedp.structures import (FiniteStructure, evaluate,
                               generated_substructure, restrict_eq)
from ebsedp.syntax import to_pcnf

from corpus import (EXAMPLE_B, EXAMPLE_C, TOTAL_RELATION, VOC_P2, VOC_P2Q1)


def _witnesses(pf, M):
    V = pf.leftmost_exists
    for vals in itertools.product(range(M.n), repeat=len(V)):
        try:
            yield edp_core(pf, _SIGMA[id(pf)], M, vals)
        except ValueError:
            continue


_SIGMA = {id(EXAMPLE_C): ("Q",), id(TOTAL_RELATION): (), id(EXAMPLE_B): ("R",)}


def _first_core(pf, M):
    for core in _witnesses(pf, M):
        return core
    raise AssertionError("model has no witness")


def _check_repair(pf, sigma, M, B):
    """The contract: core is small, and every extension of it repairs."""
    core = _first_core(pf, M)
    if not core.vacuous:
        assert len(core.elements) <= B, (M.to_json(), core.elements)
    rest = [e for e in range(M.n) if e not in core.elements]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            mid = tuple(sorted(core.elements + extra))
            M2p = edp_extend(pf, sigma, M, core, mid)
            assert evaluate(M2p, pf), (M.to_json(), mid)
            M2, _ = generated_substructure(M, mid)
            assert restrict_eq(M2, M2p, sigma), (M.to_json(), mid)


def test_colour_of():
    M = FiniteStructure(VOC_P2Q1, 2, {"P": frozenset(),
                                      "Q": frozenset({(1,)})})
    assert colour_of(M, 0) == (False,)
    assert colour_of(M, 1) == (True,)


@pytest.mark.parametrize("pf,sigma,nmax", [
    (EXAMPLE_C, ("Q",), 3),
    (TOTAL_RELATION, (), 3),
])
def test_repair_contract_exhaustive_small(pf, sigma, nmax):
    B = edp_bound(classify(pf)).B
    for n in range(1, nmax + 1):
        for M in _all_structure_models(pf, n, node_cap=10_000_000):
            _check_repair(pf, sigma, M, B)


def test_repair_contract_sampled_larger():
    # deterministic prefix of the model stream at sizes past the exhaustive
    # range; the full sweep is too large for the suite
    B = edp_bound(classify(EXAMPLE_C)).B
    sample = itertools.islice(
        _all_structure_models(EXAMPLE_C, 4, node_cap=10_000_000), 120)
    for M in sample:
        _check_repair(EXAMPLE_C, ("Q",), M, B)
    Bb = edp_bound(classify(EXAMPLE_B)).B
    sample_b = itertools.islice(
        _all_structure_models(EXAMPLE_B, 3, node_cap=10_000_000), 80)
    for M in sample_b:
        _check_repair(EXAMPLE_B, ("R",), M, Bb)


def test_core_rejects_bad_witness():
    M = FiniteStructure(VOC_P2Q1, 2, {"P": frozenset({(0, 0), (0, 1)}),
                                      "Q": frozenset({(0,)})})
    assert evaluate(M, EXAMPLE_C)
    with pytest.raises(ValueError):
        edp_core(EXAMPLE_C, ("Q",), M, (0, 1))  # wrong witness length
    edp_core(EXAMPLE_C, ("Q",), M, (0,))
    with pytest.raises(ValueError, match="given witness"):
        edp_core(EXAMPLE_C, ("Q",), M, (1,))  # the suffix is false for it


def test_core_rejects_nonmember():
    from corpus import DAG
    M = FiniteStructure(DAG.vocabulary, 1, {"E": frozenset()})
    with pytest.raises(ValueError):
        edp_core(DAG, (), M, ())  # fails the base membership check


def test_extend_input_validation():
    M = FiniteStructure(VOC_P2, 3,
                        {"P": frozenset({(0, 1), (1, 2), (2, 0)})})
    core = _first_core(TOTAL_RELATION, M)
    with pytest.raises(ValueError):
        edp_extend(TOTAL_RELATION, (), M, core, ())  # misses the core
    with pytest.raises(ValueError):
        edp_extend(TOTAL_RELATION, (), M, "not a core", (0, 1, 2))
    other = FiniteStructure(VOC_P2, 3, {"P": frozenset({(0, 0), (1, 1), (2, 2)})})
    with pytest.raises(ValueError):
        edp_extend(TOTAL_RELATION, (), other, core, (0, 1, 2))


def test_vacuous_core_small_universe():
    # a universe too small for disjoint fresh elements falls back to the
    # whole structure, which trivially extends to itself
    M = FiniteStructure(VOC_P2, 1, {"P": frozenset({(0, 0)})})
    core = edp_core(TOTAL_RELATION, (), M, ())
    assert core.vacuous or len(core.elements) >= 1
    M2p = edp_extend(TOTAL_RELATION, (), M, core, (0,))
    assert evaluate(M2p, TOTAL_RELATION)


def test_extend_cures_same_clause_conflict():
    # P(w, z) and !P(w, w) share a clause; at z = w they copy opposite truth
    # values onto one atom, which the cure fixes true
    p = parse_problem("vocab P/2, Q/1; forall z. exists v. exists w. "
                      "((!Q(v) | P(w, z) | !P(w, w)) & P(w, v) & "
                      "(P(v, v) | !Q(v)))")
    pf = to_pcnf(p.formula, p.vocabulary)
    M = FiniteStructure(p.vocabulary, 3, {"P": frozenset({(1, 2)}),
                                          "Q": frozenset()})
    core = edp_core(pf, (), M, ())
    assert core.elements == (0, 1)
    M2p = edp_extend(pf, (), M, core, core.elements)
    # curing to false would give {(0, 0), (1, 0)}, which models pf too
    assert M2p.interpretation["P"] == {(0, 0), (1, 0), (1, 1)}
    assert M2p.interpretation["Q"] == frozenset()


def test_extend_rejects_undeclared_sigma():
    M = FiniteStructure(VOC_P2Q1, 3, {"P": frozenset({(0, 2)}),
                                      "Q": frozenset({(0,), (1,), (2,)})})
    core = edp_core(EXAMPLE_C, ("Q",), M, (0,))
    with pytest.raises(ValueError, match="sigma mentions undeclared"):
        edp_extend(EXAMPLE_C, ("Nope",), M, core, core.elements)


def test_extend_checks_sigma_agreement():
    # the cure above rewrites P on the core; with P in σ the result would
    # disagree with M's substructure, where P is empty
    p = parse_problem("vocab P/2, Q/1; forall z. exists v. exists w. "
                      "((!Q(v) | P(w, z) | !P(w, w)) & P(w, v) & "
                      "(P(v, v) | !Q(v)))")
    pf = to_pcnf(p.formula, p.vocabulary)
    M = FiniteStructure(p.vocabulary, 3, {"P": frozenset({(1, 2)}),
                                          "Q": frozenset()})
    core = edp_core(pf, (), M, ())
    assert evaluate(edp_extend(pf, ("Q",), M, core, core.elements), pf)
    with pytest.raises(RepairInternalError, match="sigma"):
        edp_extend(pf, ("P",), M, core, core.elements)


def test_extend_rejects_bad_core_witness():
    M = FiniteStructure(VOC_P2Q1, 3, {"P": frozenset({(0, 2)}),
                                      "Q": frozenset({(0,), (1,), (2,)})})
    core = edp_core(EXAMPLE_C, ("Q",), M, (0,))
    bad = dataclasses.replace(core, witness=(1,))
    with pytest.raises(ValueError, match="given witness"):
        edp_extend(EXAMPLE_C, ("Q",), M, bad, core.elements)
