import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ebsedp.analysis import (NCAP_NOTE, SAT, UNKNOWN, UNSAT, SatOutcome,
                             bounded_equiv, decide_sat_bounded, ebs_oracle,
                             edp_nexptime_note, find_bound_bounded,
                             interleaved_sat, spectrum)
from ebsedp.edp import classify, edp_bound
from ebsedp.errors import CapExceeded
from ebsedp.groundsat import FlatPlan, dpll_solve
from ebsedp.structures import (count_structures, enumerate_structures,
                               evaluate, generated_substructure, restrict_eq)
from ebsedp.syntax import (EXISTS, FORALL, And, Atom, Const, Eq, Exists,
                           Forall, Literal, Not, Or, PrenexForm, Var,
                           Vocabulary, to_pcnf)
from ebsedp.translate import to_bsr_equispectral

from corpus import (ALL_EQUAL, CONTRADICTION, DAG, EDP_EMPTY, EQ_CONGRUENCE,
                    EQ_TRANSITIVITY, EVEN_MATCHING, EVEN_ORDER, EXAMPLE_A,
                    EXAMPLE_B, EXAMPLE_C, TOTAL_RELATION, TWO_ELEMENTS,
                    VOC_P2, P, random_sentence)


# -- bounded satisfiability ------------------------------------------------

def test_decide_sat_bounded_sat():
    out = decide_sat_bounded(TOTAL_RELATION, 2)
    assert out.verdict == SAT
    assert evaluate(out.model, TOTAL_RELATION)
    assert out.model.n == 1  # smallest size first
    assert out.effort == {"sizes_tried": 1}


def test_decide_sat_bounded_unsat():
    assert decide_sat_bounded(CONTRADICTION, 3).verdict == UNSAT
    out = decide_sat_bounded(TWO_ELEMENTS, 1)
    assert out.verdict == UNSAT  # needs two elements, bound allows one
    assert decide_sat_bounded(TWO_ELEMENTS, 2).verdict == SAT


def test_decide_sat_bounded_zero_bound_still_tries_size_one():
    assert decide_sat_bounded(ALL_EQUAL, 0).verdict == SAT


def test_decide_sat_bounded_validation():
    with pytest.raises(ValueError):
        decide_sat_bounded(TOTAL_RELATION, -1)
    open_f = to_pcnf(Atom("P", (Var("x"), Var("x"))), VOC_P2, ("x",))
    with pytest.raises(ValueError):
        decide_sat_bounded(open_f, 2)


def test_decide_sat_with_constants():
    voc = Vocabulary((("P", 2),), ("c",))
    pf = to_pcnf(Forall("x", Atom("P", (Var("x"), Var("x")))), voc)
    out = decide_sat_bounded(pf, 2)
    assert out.verdict == SAT
    assert "c" in out.model.constant_values


def test_sat_outcome_contract():
    with pytest.raises(ValueError):
        SatOutcome(SAT, None)
    obj = decide_sat_bounded(TOTAL_RELATION, 1).to_json_dict()
    assert set(obj) == {"verdict", "effort", "model"}


# -- interleaved model/refutation search -----------------------------------

def test_interleaved_sat_finds_model():
    out = interleaved_sat(TOTAL_RELATION, (3, 1, 100_000))
    assert out.verdict == SAT
    assert evaluate(out.model, TOTAL_RELATION)


def test_interleaved_sat_refutes():
    assert interleaved_sat(CONTRADICTION, (2, 2, 100_000)).verdict == UNSAT
    # unsatisfiable only through equality reasoning
    voc = ALL_EQUAL.vocabulary
    f = And((Forall("x", Forall("y", Eq(Var("x"), Var("y")))),
             Exists("a", Exists("b", Not(Eq(Var("a"), Var("b")))))))
    pf = to_pcnf(f, voc)
    assert interleaved_sat(pf, (0, 2, 200_000)).verdict == UNSAT
    for unsat in (EQ_CONGRUENCE, EQ_TRANSITIVITY):
        assert interleaved_sat(unsat, (0, 0, 10_000)).verdict == UNSAT


def test_interleaved_sat_unknown_on_infinity_axioms():
    # satisfiable, but only in infinite structures: both searches exhaust
    out = interleaved_sat(DAG, (3, 1, 200_000))
    assert out.verdict == UNKNOWN
    assert out.effort["sizes_tried"] == 3


def test_interleaved_sat_absorbs_caps():
    out = interleaved_sat(TOTAL_RELATION, (3, 1, 1))
    assert out.verdict == UNKNOWN  # every stage hits the step cap


def test_model_search_cap_names_its_layer():
    with pytest.raises(CapExceeded, match="flat grounding literal cap"):
        spectrum(EXAMPLE_C, 5, node_cap=10)
    # size 1 needs 9 ground literals: model search hits the cap at every size
    out = interleaved_sat(EXAMPLE_C, (5, 0, 8))
    assert out.verdict == UNKNOWN and out.effort["sizes_tried"] == 0


# -- spectra ---------------------------------------------------------------

def test_spectrum_basic():
    s = spectrum(TOTAL_RELATION, 4)
    assert s.sizes() == (1, 2, 3, 4)
    assert s.realizable == (True, True, True, True)
    assert all(evaluate(s.witnesses[n], TOTAL_RELATION) for n in s.sizes())
    assert spectrum(TWO_ELEMENTS, 4).sizes() == (2, 3, 4)
    assert spectrum(ALL_EQUAL, 3).sizes() == (1,)
    assert spectrum(CONTRADICTION, 3).sizes() == ()


def test_spectrum_gap():
    # a non-interval spectrum: perfect matchings exist at even sizes only
    assert spectrum(EVEN_MATCHING, 6, node_cap=10_000_000).sizes() == (2, 4, 6)
    assert spectrum(EVEN_MATCHING, 7).sizes() == (2, 4, 6)
    # the alternating-order variant agrees, odd-size refutations included
    assert (spectrum(EVEN_ORDER, 4, node_cap=10_000_000).sizes() == (2, 4))
    assert spectrum(EVEN_ORDER, 6).sizes() == (2, 4, 6)


def corpus_sentences():
    """Every sentence tests/corpus.py defines, once each, in order."""
    import corpus
    found = [v for v in vars(corpus).values() if isinstance(v, PrenexForm)]
    found += [*corpus.EDP_EMPTY, *corpus.BSR,
              *(pf for pf, _ in corpus.TRANSLATE)]
    return list(dict.fromkeys(found))


def edp_psi(pf):
    return to_bsr_equispectral(pf, edp_bound(classify(pf)).B).bsr


@pytest.mark.parametrize("pf", [*corpus_sentences(),
                                *map(edp_psi, EDP_EMPTY)])
def test_spectrum_keeps_sizes_under_symmetry_breaking(pf):
    # spectrum grounds with the domain symmetry broken; the full grounding
    # must find the same sizes, and each witness is checked by evaluate
    got = spectrum(pf, 4, node_cap=10_000_000)
    plan = FlatPlan(pf)
    assert got.realizable == tuple(
        dpll_solve(plan.ground(n, 10_000_000)[0]) is not None
        for n in range(1, 5))
    assert all(evaluate(M, pf) and M.n == n for n, M in got.witnesses.items())


def test_symmetry_breaking_shrinks_psi_grounding():
    # ψ(EXAMPLE_A) opens with exists^4: at n=4 a matrix clause keeps only
    # the instances whose leading existentials are in range.  Its 81 matrix
    # clauses compile to 3, so both groundings are small
    plan = FlatPlan(edp_psi(EDP_EMPTY[0]))
    sizes = {}
    for symmetric in (False, True):
        cnf, table = plan.ground(4, symmetric=symmetric)
        sizes[symmetric] = (len(cnf), sum(map(len, cnf)), len(table))
    assert sizes == {False: (1_156, 9_808, 64), True: (116, 946, 64)}


VOC_P1R2 = Vocabulary((("P", 1), ("R", 2)))


def redundant_pcnf(rng):
    """A PCNF sentence over P/1 and R/2 with equality, built without
    to_pcnf: its clauses repeat literals, and some are copies or supersets
    of others, shuffled so that a superset may come first."""
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    terms = [Var(v) for v in names]

    def lit():  # no x = x, which would make its clause a tautology
        kind = rng.random()
        if kind < 0.2 and len(terms) > 1:
            atom = Eq(*rng.sample(terms, 2))
        elif kind < 0.55:
            atom = Atom("P", (rng.choice(terms),))
        else:
            atom = Atom("R", (rng.choice(terms), rng.choice(terms)))
        return Literal(rng.random() < 0.5, atom)

    base = [[lit() for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(2, 4))]
    clauses = []
    for c in base:
        clauses.append(c + rng.sample(c, 1))  # a repeated literal
        clauses.append(c + [lit()])  # a superset
        if rng.random() < 0.5:
            clauses.append(list(c))
    rng.shuffle(clauses)
    prefix = tuple((rng.choice((FORALL, EXISTS)), v) for v in names)
    return PrenexForm(VOC_P1R2, prefix, tuple(map(tuple, clauses)))


@pytest.mark.parametrize("seed", range(30))
def test_redundant_clauses_match_brute_force(seed):
    # FlatPlan grounds the minimal clause set; spectrum, bounded SAT and the
    # plain grounding must still answer as enumeration of every structure
    pf = redundant_pcnf(random.Random(seed))
    truth = tuple(any(evaluate(M, pf) for M in enumerate_structures(VOC_P1R2, n))
                  for n in (1, 2, 3))
    assert spectrum(pf, 3).realizable == truth, pf
    assert (decide_sat_bounded(pf, 3).verdict == SAT) == any(truth), pf
    plan = FlatPlan(pf)
    assert tuple(dpll_solve(plan.ground(n)[0]) is not None
                 for n in (1, 2, 3)) == truth, pf
    # mostly satisfiable, so also pin each small structure's atoms: the
    # grounding must keep exactly the models, not only satisfiability
    for n in (1, 2):
        cnf, table = plan.ground(n)
        for M in enumerate_structures(VOC_P1R2, n):
            pins = [[table.lookup((p, args)) if M.holds(p, args)
                     else -table.lookup((p, args))]
                    for p, arity in VOC_P1R2.predicates
                    for args in itertools.product(range(n), repeat=arity)]
            assert (dpll_solve(cnf + pins) is not None) == evaluate(M, pf), \
                (pf, M.to_json())


def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectrum(TOTAL_RELATION, 0)


def test_spectrum_json():
    assert spectrum(TWO_ELEMENTS, 3).to_json_dict() == {"nMax": 3,
                                                        "sizes": [2, 3]}


# -- bounded equivalence ---------------------------------------------------

def test_bounded_equiv_positive():
    # alpha-renamed copy is indistinguishable
    other = to_pcnf(Forall("u", Exists("w", P(Var("u"), Var("w")))), VOC_P2)
    res = bounded_equiv(TOTAL_RELATION, other, 3)
    assert res.equivalent and res.countermodel is None
    assert res.note == NCAP_NOTE


def test_bounded_equiv_negative_with_verified_countermodel():
    flipped = to_pcnf(Forall("x", Exists("y", P(Var("y"), Var("x")))), VOC_P2)
    res = bounded_equiv(TOTAL_RELATION, flipped, 3)
    assert not res.equivalent
    M = res.countermodel
    assert evaluate(M, TOTAL_RELATION) != evaluate(M, flipped)


def mutated(pf, kind, rng):
    """pf with its clauses reversed, one literal negated or one quantifier
    flipped."""
    if kind == "literal" and any(pf.matrix):
        i = rng.choice([i for i, c in enumerate(pf.matrix) if c])
        j = rng.randrange(len(pf.matrix[i]))
        clause = tuple(lit.negate() if k == j else lit
                       for k, lit in enumerate(pf.matrix[i]))
        return dataclasses.replace(
            pf, matrix=pf.matrix[:i] + (clause,) + pf.matrix[i + 1:])
    if kind == "quantifier" and pf.prefix:
        i = rng.randrange(len(pf.prefix))
        q, v = pf.prefix[i]
        flipped = (EXISTS if q == FORALL else FORALL, v)
        return dataclasses.replace(
            pf, prefix=pf.prefix[:i] + (flipped,) + pf.prefix[i + 1:])
    return dataclasses.replace(pf, matrix=pf.matrix[::-1])


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["reverse", "literal", "quantifier"]))
def test_bounded_equiv_matches_enumeration(seed, kind):
    rng = random.Random(seed)
    f = random_sentence(rng)
    # the exhaustive oracle evaluates both sentences on every structure
    assume(count_structures(f.vocabulary, 2) <= 4096)
    g = mutated(f, kind, rng)
    first = next((n for n in (1, 2)
                  if any(evaluate(M, f) != evaluate(M, g)
                         for M in enumerate_structures(f.vocabulary, n))),
                 None)
    res = bounded_equiv(f, g, 2)
    assert res.equivalent == (first is None), (f, g)
    if not res.equivalent:
        M = res.countermodel
        assert M.n == first
        assert evaluate(M, f) != evaluate(M, g)


def test_bounded_equiv_fresh_names_avoid_bound_variables():
    # ¬g's definition predicates are named D0, D1, ...; one named like the
    # bound variable D0 once shared its symbol, and f ∧ ¬g read as UNSAT
    d, a = Var("D0"), Var("a")
    f = to_pcnf(Forall("D0", Forall("a", Or((P(d, a), Not(Eq(d, a)))))),
                VOC_P2)
    g = to_pcnf(Forall("D0", Forall("a", P(d, a))), VOC_P2)
    assert [v for _, v in f.prefix] == ["D0", "a"]
    res = bounded_equiv(f, g, 3)
    assert not res.equivalent
    M = res.countermodel
    assert M.n == 2 and evaluate(M, f) != evaluate(M, g)


def test_bounded_equiv_vocabulary_mismatch():
    with pytest.raises(ValueError):
        bounded_equiv(TOTAL_RELATION, EXAMPLE_C, 2)


# -- the extension oracle --------------------------------------------------

def test_ebs_oracle_pass_within_bound():
    B = edp_bound(classify(EXAMPLE_C)).B
    verdict = ebs_oracle(EXAMPLE_C, ("Q",), B, 3, node_cap=10_000_000)
    assert verdict.passed
    assert verdict.models_checked > 100
    assert verdict.to_json_dict()["pass"] is True


def test_ebs_oracle_pass_empty_sigma():
    verdict = ebs_oracle(TOTAL_RELATION, (), 2, 3)
    assert verdict.passed


def test_ebs_oracle_fails_on_disallowed_sigma():
    # pinning the existential predicate makes small cores impossible
    verdict = ebs_oracle(TOTAL_RELATION, ("P",), 2, 3)
    assert not verdict.passed
    M = verdict.fail_model
    assert evaluate(M, TOTAL_RELATION)
    assert verdict.fail_extension is not None
    assert verdict.core_evidence
    for core, ext in verdict.core_evidence:
        assert set(core) <= set(ext) <= set(range(M.n))
        assert len(core) <= 2


def test_ebs_oracle_fails_below_true_bound():
    # bound 1 is too small for the two-element requirement
    verdict = ebs_oracle(TWO_ELEMENTS, (), 1, 3)
    assert not verdict.passed
    assert verdict.fail_model.n >= 2


def test_ebs_oracle_caps_and_validation():
    with pytest.raises(ValueError):
        ebs_oracle(TOTAL_RELATION, ("Nope",), 2, 2)
    # the sixth model's reduct has already passed: skipped, still counted
    with pytest.raises(CapExceeded) as err:
        ebs_oracle(TOTAL_RELATION, (), 2, 3, model_cap=5)
    assert (err.value.needed, err.value.cap) == (5 + 1, 5)
    # a cap equal to the model count (1 + 9 + 343) is not exceeded
    exact = ebs_oracle(TOTAL_RELATION, (), 2, 3, model_cap=353)
    assert exact.passed and exact.models_checked == 353


def test_ebs_oracle_cap_inside_a_block():
    # every cap is exceeded at its (cap + 1)-th model, wherever that falls
    # in a block of counted models
    for cap in range(354):
        try:
            verdict = ebs_oracle(TOTAL_RELATION, (), 2, 3, model_cap=cap)
        except CapExceeded as err:
            assert (err.needed, err.cap) == (cap + 1, cap)
        else:
            assert cap == 353 and verdict.models_checked == 353
    # σ = ∅ gives EXAMPLE_A one reduct per size, so the cap falls in a
    # block of size-3 models that are counted without being walked
    with pytest.raises(CapExceeded) as err:
        ebs_oracle(EXAMPLE_A, (), 2, 3)
    assert (err.value.needed, err.value.cap) == (200_001, 200_000)


def _brute_ebs(pf, sigma, B, nMax):
    """The oracle's verdict from exhaustive enumeration alone: the models
    of size <= nMax, and those with no good core of size <= B."""
    voc = pf.vocabulary

    def completable(M2):
        return any(restrict_eq(M2, C, sigma)
                   and C.constant_values == M2.constant_values
                   and evaluate(C, pf)
                   for C in enumerate_structures(voc, M2.n))

    def good_core(M, core):
        rest = [e for e in range(M.n) if e not in core]
        return all(completable(generated_substructure(M, core + extra)[0])
                   for k in range(len(rest) + 1)
                   for extra in itertools.combinations(rest, k))

    models, bad = [], []
    for n in range(1, nMax + 1):
        for M in enumerate_structures(voc, n):
            if not evaluate(M, pf):
                continue
            models.append(M)
            consts = set(M.constant_values.values())
            cores = [c for k in range(1, min(B, n) + 1)
                     for c in itertools.combinations(range(n), k)
                     if consts <= set(c)]
            if not any(good_core(M, c) for c in cores):
                bad.append(M.to_json())
    return models, bad


# in the model c=0, Q={0,2}, the extension {0,1} has Q only at c, so no
# completion with c=0 models the sentence; one that moved c to 1 would
_x, _y, _z, _w, _c = Var("x"), Var("y"), Var("z"), Var("w"), Const("c")
Q_AWAY_FROM_C = to_pcnf(Or((Forall("y", Forall("z", Eq(_y, _z))),
                            Exists("x", And((Not(Eq(_x, _c)),
                                             Atom("Q", (_x,))))),
                            Forall("w", Not(Atom("Q", (_w,)))))),
                        Vocabulary((("Q", 1),), ("c",)))


# EXAMPLE_B and Q_AWAY_FROM_C count passed models in blocks under
# equalities and constants
@pytest.mark.parametrize("pf", [TOTAL_RELATION, TWO_ELEMENTS, EXAMPLE_C,
                                EXAMPLE_B, Q_AWAY_FROM_C],
                         ids=["total", "two", "example_c", "example_b",
                              "q_away_from_c"])
def test_ebs_oracle_matches_brute_force(pf):
    preds = [p for p, _ in pf.vocabulary.predicates]
    for k in range(len(preds) + 1):
        for sigma in itertools.combinations(preds, k):
            for B in (1, 2):
                for nMax in (1, 2):
                    got = ebs_oracle(pf, sigma, B, nMax)
                    models, bad = _brute_ebs(pf, sigma, B, nMax)
                    case = (sigma, B, nMax)
                    assert got.passed == (not bad), case
                    if got.passed:
                        assert got.models_checked == len(models), case
                    else:
                        assert evaluate(got.fail_model, pf), case
                        assert got.fail_model.to_json() in bad, case


def test_ebs_oracle_keeps_constants_in_place():
    got = ebs_oracle(Q_AWAY_FROM_C, ("Q",), 1, 3)
    _, bad = _brute_ebs(Q_AWAY_FROM_C, ("Q",), 1, 3)
    assert not got.passed
    assert got.fail_model.to_json() in bad


# -- bound search ----------------------------------------------------------

def test_find_bound_small_cap():
    found = find_bound_bounded(TOTAL_RELATION, 3, 2)
    assert found is not None and found.B == 2
    assert found.note == NCAP_NOTE


def test_find_bound_rejected_at_larger_cap():
    # every pool of size <= 3 is defeated by a 4-cycle
    assert find_bound_bounded(TOTAL_RELATION, 3, 4) is None


def test_find_bound_example():
    found = find_bound_bounded(EXAMPLE_C, 3, 3)
    assert found is not None and found.B == 3
    assert found.translation.bsr.is_bsr()


# -- search-space note -----------------------------------------------------

def test_edp_nexptime_note():
    report = edp_bound(classify(TOTAL_RELATION))
    note = edp_nexptime_note(VOC_P2, report)
    assert note == {"B": 2, "sizes": [1, 2],
                    "structuresPerSize": {1: 2, 2: 16}, "total": 18}
