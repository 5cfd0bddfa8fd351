import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_dpll
from ebsedp import _dpll_py
from ebsedp.analysis import spectrum
from ebsedp.errors import CapExceeded
from ebsedp.groundsat import (AtomTable, FlatPlan, PAnd, PConst, PLit, PNot,
                              POr, all_models, bsr_ground, dpll_solve,
                              export_dimacs, ground_fixed_universe,
                              model_blocks, p_and, p_or, tseitin)
from ebsedp.structures import (FiniteStructure, count_structures,
                               enumerate_structures, evaluate)
from ebsedp.syntax import (EXISTS, FORALL, And, Atom, Const, Eq, Exists,
                           Forall, Literal, Not, Or, PrenexForm, Var,
                           Vocabulary, to_pcnf)

from corpus import (CONTRADICTION, EDP_EMPTY, EQ_CONGRUENCE, EQ_TRANSITIVITY,
                    EVEN_ORDER, EXAMPLE_C, QR_STALL, TOTAL_RELATION,
                    TWO_ELEMENTS, VOC_P1, VOC_P2, VOC_P2_C, random_sentence)


# -- truth-table oracle for CNF sat ----------------------------------------

def brute_sat(cnf):
    variables = sorted({abs(l) for c in cnf for l in c})
    for bits in itertools.product((False, True), repeat=len(variables)):
        a = dict(zip(variables, bits))
        if all(any(a[abs(l)] == (l > 0) for l in c) for c in cnf):
            return True
    return not cnf


def eval_prop(p, a):
    if isinstance(p, PConst):
        return p.value
    if isinstance(p, PLit):
        return a[abs(p.lit)] == (p.lit > 0)
    if isinstance(p, PNot):
        return not eval_prop(p.sub, a)
    if isinstance(p, PAnd):
        return all(eval_prop(q, a) for q in p.args)
    return any(eval_prop(q, a) for q in p.args)


def cnfs(max_var=5, max_clauses=8):
    lit = st.integers(1, max_var).flatmap(
        lambda v: st.sampled_from([v, -v]))
    return st.lists(st.lists(lit, max_size=4), max_size=max_clauses)


# -- atom table ------------------------------------------------------------

def test_atom_table():
    t = AtomTable()
    a = t.id_of(("P", (0, 1)))
    b = t.id_of(("P", (1, 0)))
    assert a == 1 and b == 2
    assert t.id_of(("P", (0, 1))) == a  # stable
    assert t.lookup(("Q", (0,))) is None
    assert t.key_of(a) == ("P", (0, 1))
    assert t.name_of(a) == "P(0,1)"
    assert len(t) == 2
    assert list(t.items()) == [(1, ("P", (0, 1))), (2, ("P", (1, 0)))]


def test_prop_smart_constructors():
    assert p_and([]) == PConst(True)
    assert p_or([]) == PConst(False)
    assert p_and([PLit(1), PConst(False)]) == PConst(False)
    assert p_or([PLit(1), PConst(True)]) == PConst(True)
    assert p_and([PConst(True), PLit(1)]) == PLit(1)


# -- DPLL kernels ----------------------------------------------------------

@pytest.mark.parametrize("cnf,sat", [
    ([], True),
    ([[]], False),
    ([[1]], True),
    ([[1], [-1]], False),
    ([[1, 2], [-1, 2], [1, -2], [-1, -2]], False),
    ([[1, 2], [-1, -2]], True),
    ([[1, 2, 3], [-1], [-2]], True),
])
def test_dpll_known_cases(cnf, sat):
    model = dpll_solve(cnf)
    assert (model is not None) == sat
    if model is not None:
        assert all(any(model[abs(l)] == (l > 0) for l in c) for c in cnf)


@settings(max_examples=300, deadline=None)
@given(cnf=cnfs())
def test_dpll_matches_truth_table(cnf):
    cnf = [c for c in cnf]
    model = dpll_solve(cnf)
    assert (model is not None) == brute_sat(cnf)
    if model is not None:
        assert all(any(model[abs(l)] == (l > 0) for l in c) for c in cnf)


@settings(max_examples=300, deadline=None)
@given(cnf=cnfs(max_var=7, max_clauses=12))
def test_kernels_agree(cnf):
    # same branching order as the naive reference: identical assignments
    assert dpll_solve(cnf) == reference_dpll.solve(cnf)


@pytest.mark.parametrize("cnf,want", [
    ([], {}),
    ([[]], None),
    ([[1, 2], [], [3]], None),
    ([[1], [2, 3], [-1, 2], []], None),
    # duplicate literals act as a unit or a shorter clause
    ([[1, 1]], {1: True}),
    ([[-1, -1], [1, 2]], {1: False, 2: True}),
    ([[2, 2, 3], [-3]], {2: True, 3: False}),
    ([[-2, -2, -3, -3], [2]], {2: True, 3: False}),
    ([[1, 2, 2, 1], [-1], [-2]], None),
    # a variable only in a tautology is still in the model, set true
    ([[1, -1]], {1: True}),
    ([[-1, 2, 1]], {1: True, 2: True}),
    ([[3, -3], [-1]], {1: False, 3: True}),
    ([[1, -1, 2], [-2], [-1, -1]], {1: False, 2: False}),
    # unit clauses that conflict, directly or through propagation
    ([[1], [-1]], None),
    ([[1], [2], [-1, -2]], None),
    ([[1, 1], [-1, -1, -1]], None),
    ([[-3], [1, 2, 3], [-1], [-2]], None),
    # sparse variable ids
    ([[10**9, -5], [5]], {5: True, 10**9: True}),
    ([[-10**9, 7, 3], [-7], [-3, -3]], {3: False, 7: False, 10**9: False}),
    # ids beyond a 32-bit int
    ([[10**12, -5], [5]], {5: True, 10**12: True}),
])
@pytest.mark.parametrize("solve", [dpll_solve, reference_dpll.solve])
def test_kernel_edge_cases(solve, cnf, want):
    assert solve(cnf) == want


def random_3cnf(seed, n_vars, ratio):
    rng = random.Random(seed)
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n_vars + 1), 3)]
            for _ in range(int(ratio * n_vars))]


@pytest.mark.parametrize("seed", range(20))
def test_kernels_agree_on_random_3cnf(seed):
    # near the phase transition: deep searches with many conflicts, which
    # the small hypothesis CNFs above rarely reach
    cnf = random_3cnf(seed, 30 + seed, 4.26)
    assert dpll_solve(cnf) == reference_dpll.solve(cnf)


def test_learned_clauses_follow_from_cnf():
    # every learned clause, read back from the asserted literal's reason
    # (the clause, or w for the binary clause [lit, -w]), follows from cnf
    learned = []

    class Checked(_dpll_py.Dpll):
        def _learn(self, stack):
            lit, why, level = super()._learn(stack)
            learned.append([lit] if why is True else [lit, -why]
                           if type(why) is int else list(why))
            assert learned[-1][0] == lit
            return lit, why, level

    checked = 0
    for seed in range(30):
        cnf = random_3cnf(seed, 10 + seed % 5, 4.26)
        learned.clear()
        Checked(cnf).search()
        for clause in learned:
            assert reference_dpll.solve(cnf + [[-l] for l in clause]) is None
        checked += len(learned)
    assert checked > 0


def test_kernel_learns_past_free_predicate_atoms():
    # conflict counts are deterministic where times are not: learning needs
    # 16 conflicts at n=4, chronological backtracking stalls at n=3
    assert spectrum(QR_STALL, 4).sizes() == (1, 2, 3, 4)
    state = _dpll_py.Dpll(FlatPlan(QR_STALL).ground(4)[0])
    assert state.search()
    assert 0 < state.conflicts <= 100
    assert state.decisions > 0 and state.learned_literals > 0


def test_symmetry_breaking_cuts_kernel_work():
    # refuting EVEN_ORDER at n=5 (u, v range over {0}, {0,1}): the full
    # grounding needs 227 conflicts, the restricted one 20
    conflicts = {}
    for symmetric in (False, True):
        state = _dpll_py.Dpll(FlatPlan(EVEN_ORDER).ground(
            5, symmetric=symmetric)[0])
        assert not state.search()
        conflicts[symmetric] = state.conflicts
    assert 0 < 5 * conflicts[True] < conflicts[False], conflicts


def test_kernel_selection_reported():
    import ebsedp
    assert ebsedp.KERNEL == "pure"


# -- tseitin ---------------------------------------------------------------

def props():
    """Formula trees over atoms 1..4."""
    lit = st.integers(1, 4).flatmap(lambda v: st.sampled_from([PLit(v), PLit(-v)]))
    return st.recursive(
        st.one_of(lit, st.booleans().map(PConst)),
        lambda sub: st.one_of(
            sub.map(PNot),
            st.lists(sub, min_size=1, max_size=3).map(p_and),
            st.lists(sub, min_size=1, max_size=3).map(p_or)),
        max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(prop=props())
def test_tseitin_equisatisfiable(prop):
    cnf = tseitin(prop)
    model = dpll_solve(cnf)
    brute = any(eval_prop(prop, dict(zip(range(1, 5), bits)))
                for bits in itertools.product((False, True), repeat=4))
    assert (model is not None) == brute
    if model is not None:
        # the model restricted to original atoms satisfies the formula
        full = {v: model.get(v, False) for v in range(1, 5)}
        assert eval_prop(prop, full)


def test_tseitin_constants():
    assert tseitin(PConst(True)) == []
    assert dpll_solve(tseitin(PConst(False))) is None


# -- fixed-universe grounding ----------------------------------------------

def test_ground_requires_sentence_and_universe():
    with pytest.raises(ValueError):
        ground_fixed_universe(TOTAL_RELATION, 0)
    pf = to_pcnf(Atom("P", (Var("x"), Var("x"))), VOC_P2, ("x",))
    with pytest.raises(ValueError):
        ground_fixed_universe(pf, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ground_sat_matches_semantics(n):
    # grounding + DPLL agrees with explicit model search for each size
    from ebsedp.structures import enumerate_structures
    for pf in (TOTAL_RELATION, CONTRADICTION, TWO_ELEMENTS, EXAMPLE_C):
        prop, table = ground_fixed_universe(pf, n)
        got = dpll_solve(tseitin(prop, table)) is not None
        want = any(evaluate(M, pf)
                   for M in enumerate_structures(pf.vocabulary, n))
        assert got == want, (pf, n)


def test_ground_equality_folds_at_ground_time():
    prop, table = ground_fixed_universe(TWO_ELEMENTS, 2)
    assert prop == PConst(True)
    assert len(table) == 0
    prop1, _ = ground_fixed_universe(TWO_ELEMENTS, 1)
    assert prop1 == PConst(False)


def test_ground_node_cap():
    with pytest.raises(CapExceeded):
        ground_fixed_universe(EXAMPLE_C, 5, node_cap=10)


def test_ground_missing_constant_value():
    voc = Vocabulary((("P", 2),), ("c",))
    pf = to_pcnf(Forall("x", Atom("P", (Var("x"), Var("x")))), voc)
    with pytest.raises(ValueError):
        ground_fixed_universe(pf, 2)
    prop, _ = ground_fixed_universe(pf, 2, const_values={"c": 0})
    assert dpll_solve(tseitin(prop)) is not None


# -- flat grounding --------------------------------------------------------

# every element has a P-successor other than c: sizes 2 and up
SUCC_NOT_C = to_pcnf(Forall("x", Exists("y", And((
    Atom("P", (Var("x"), Var("y"))), Not(Eq(Var("y"), Const("c"))))))), VOC_P2_C)


def brute_force_sat(pf, n):
    return any(evaluate(M, pf) for M in enumerate_structures(pf.vocabulary, n))


def test_ground_flat_requires_sentence_and_universe():
    with pytest.raises(ValueError):
        FlatPlan(TOTAL_RELATION).ground(0)
    pf = to_pcnf(Atom("P", (Var("x"), Var("x"))), VOC_P2, ("x",))
    with pytest.raises(ValueError):
        FlatPlan(pf).ground(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ground_flat_sat_matches_semantics(n):
    for pf in (TOTAL_RELATION, CONTRADICTION, TWO_ELEMENTS, EXAMPLE_C,
               SUCC_NOT_C):
        cnf, _ = FlatPlan(pf).ground(n)
        assert (dpll_solve(cnf) is not None) == brute_force_sat(pf, n), (pf, n)


def oracle_sat(pf, n):
    """Whether pf has a model of size n: by enumerating every structure
    when there are few, else by grounding to a formula tree under each
    constant valuation."""
    voc = pf.vocabulary
    if count_structures(voc, n) <= 512:
        return brute_force_sat(pf, n)
    return any(dpll_solve(tseitin(ground_fixed_universe(
        pf, n, const_values=dict(zip(voc.constants, values)))[0])) is not None
        for values in itertools.product(range(n), repeat=len(voc.constants)))


def decoded(pf, n, table, model):
    """The structure that the predicate atoms and the constants' selectors
    of a flat grounding's model describe; a selector in no clause is not
    in the model, and reads false."""
    voc = pf.vocabulary
    consts = {c: next(d for d in range(n)
                      if model.get(table.lookup((Const(c), (d,))), False))
              for c in voc.constants}
    interp = {name: frozenset(args for i, (pred, args) in table.items()
                              if pred == name and model.get(i, False))
              for name, _ in voc.predicates}
    return FiniteStructure(voc, n, interp, consts)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       symmetric=st.booleans())
def test_ground_flat_matches_brute_force(seed, n, symmetric):
    # with symmetric, the j-th constant or leading existential ranges over
    # {0..j}: the CNF stays equisatisfiable, and its models still decode
    pf = random_sentence(random.Random(seed))
    cnf, table = FlatPlan(pf).ground(n, symmetric=symmetric)
    model = dpll_solve(cnf)
    assert (model is not None) == oracle_sat(pf, n), pf
    if model is not None:
        # the predicate atoms and the constants' selectors alone are a model
        assert evaluate(decoded(pf, n, table, model), pf)


def flat_output(ground, *args):
    """A grounding's CNF and atom table, or its cap message."""
    try:
        cnf, table = ground(*args)
    except CapExceeded as e:
        return str(e)
    return cnf, list(table.items())


@settings(max_examples=150, deadline=None)
@given(pf=st.one_of(st.sampled_from([*EDP_EMPTY, EVEN_ORDER, SUCC_NOT_C]),
                    st.integers(0, 2**32 - 1).map(
                        lambda seed: random_sentence(random.Random(seed)))),
       cap=st.sampled_from([30, 300, 10**6]))
def test_flat_plan_reuse_matches_fresh_grounding(pf, cap):
    # one compiled plan grounds every size, in any order, as a fresh call
    plan = FlatPlan(pf)
    for n in (3, 1, 4, 2):
        assert (flat_output(plan.ground, n, cap)
                == flat_output(FlatPlan(pf).ground, n, cap)), (n, cap)


def test_flat_plan_numbers_a_conjunction_sentence_by_sentence():
    # f = ∀x∃y P(x,y) over P/2 and c; g = ∃z (Q(z) ∧ P(z,c)) adds Q
    x, y, z, c = Var("x"), Var("y"), Var("z"), Const("c")
    f = to_pcnf(Forall("x", Exists("y", Atom("P", (x, y)))), VOC_P2_C)
    voc = Vocabulary((("P", 2), ("Q", 1)), ("c",))
    g = to_pcnf(Exists("z", And((Atom("Q", (z,)), Atom("P", (z, c))))), voc)
    cnf, table = FlatPlan(f, g).ground(2)
    heads = [pred for _, (pred, _) in table.items()]
    assert list(dict.fromkeys(heads)) == ["P", c, y, "Q", z]
    model = dpll_solve(cnf)
    interp = {name: frozenset(args for i, (pred, args) in table.items()
                              if pred == name and model[i])
              for name, _ in voc.predicates}
    consts = {"c": next(d for d in range(2) if model[table.lookup((c, (d,)))])}
    M = FiniteStructure(voc, 2, interp, consts)
    assert evaluate(M, f) and evaluate(M, g)
    # ¬∃z Q(z) leaves the conjunction no model
    no_q = to_pcnf(Forall("w", Not(Atom("Q", (Var("w"),)))), voc)
    assert dpll_solve(FlatPlan(f, g, no_q).ground(2)[0]) is None


def test_flat_plan_rejects_names_it_would_share():
    # a bound variable named like a predicate, a constant or another
    # sentence's existential would take that symbol's atoms
    voc = Vocabulary((("P", 1),), ("c",))

    def sentence(q, v):
        return PrenexForm(voc, ((q, v),), ((Literal(True, Atom("P", (Var(v),))),),))

    for v in ("P", "c"):
        for q in (EXISTS, FORALL):
            with pytest.raises(ValueError, match=f"bound variable {v!r}"):
                FlatPlan(sentence(q, v))
    for q in (EXISTS, FORALL):
        with pytest.raises(ValueError, match="bound variable 'x'"):
            FlatPlan(sentence(EXISTS, "x"), sentence(q, "x"))
    FlatPlan(sentence(FORALL, "x"), sentence(FORALL, "x"))  # no symbol


def test_ground_flat_predicate_atoms_first():
    n = 2
    _, table = FlatPlan(EXAMPLE_C).ground(n)
    want = [(name, args) for name, arity in EXAMPLE_C.vocabulary.predicates
            for args in itertools.product(range(n), repeat=arity)]
    keys = [key for _, key in table.items()]
    assert keys[:len(want)] == want
    assert all(not isinstance(pred, str) for pred, _ in keys[len(want):])
    # a constant's selectors: one value exactly
    cnf, table = FlatPlan(SUCC_NOT_C).ground(3)
    sel = [table.lookup((Const("c"), (d,))) for d in range(3)]
    assert sel in cnf
    assert all([-a, -b] in cnf for a, b in itertools.combinations(sel, 2))


def test_ground_flat_literal_cap():
    with pytest.raises(CapExceeded, match="flat grounding literal cap"):
        FlatPlan(EXAMPLE_C).ground(5, node_cap=10)


def test_ground_flat_equalities_keep_instance_order():
    # ∀x∀y∀z (¬(x=z) ∨ x=y ∨ P(y,z)): the instances with z=x and x≠y, in
    # the lexicographic order of (x, y, z)
    x, y, z = Var("x"), Var("y"), Var("z")
    pf = to_pcnf(Forall("x", Forall("y", Forall("z", Or((
        Not(Eq(x, z)), Eq(x, y), Atom("P", (y, z))))))), VOC_P2)
    for n in (2, 3, 4):
        cnf, table = FlatPlan(pf).ground(n)
        assert cnf == [[table.lookup(("P", (b, a)))] for a, b in
                       itertools.product(range(n), repeat=2) if a != b]
        with pytest.raises(CapExceeded, match=f"needs {n * (n - 1)}, "):
            FlatPlan(pf).ground(n, node_cap=n * (n - 1) - 1)


def test_ground_flat_caps_before_allocating():
    # 40⁶ instances of three literals: charged before any list is built
    x = [Var(v) for v in "abcdef"]
    f = Or((Atom("P", (x[0], x[1])), Atom("P", (x[2], x[3])),
            Atom("P", (x[4], x[5]))))
    for v in reversed("abcdef"):
        f = Forall(v, f)
    pf = to_pcnf(f, VOC_P2)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded,
                           match=f"literal cap: needs {3 * 40 ** 6}, "):
            FlatPlan(pf).ground(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, peak


def test_ground_flat_caps_atom_registration(monkeypatch):
    # ∃x P(x,x,x,x) has one literal but 30⁴ predicate atoms at n=30
    x = Var("x")
    plan = FlatPlan(to_pcnf(Exists("x", Atom("P", (x, x, x, x))),
                            Vocabulary((("P", 4),))))
    with monkeypatch.context() as m:
        def register(self, key):
            raise AssertionError("an atom was registered")
        m.setattr(AtomTable, "id_of", register)
        with pytest.raises(CapExceeded, match=(
                f"flat grounding atom registration cap: needs {30 ** 4}, "
                "cap is 1000")):
            plan.ground(30, node_cap=1000)
    _, table = plan.ground(5, node_cap=1000)
    assert len(table) == 5 ** 4 + 5  # the atoms, then x's selectors


# -- all_models ------------------------------------------------------------

def test_all_models_counts():
    # x or y over atoms {1,2}: three models
    out = list(all_models([[1, 2]], [1, 2]))
    assert len(out) == 3
    assert out == sorted(out, key=lambda m: (m[1], m[2]))  # deterministic
    assert list(all_models([[1], [-1]], [1])) == []
    # projection smaller than the variable set merges models
    assert len(list(all_models([[1, 2]], [1]))) == 2


@settings(max_examples=120, deadline=None)
@given(cnf=cnfs(max_var=4, max_clauses=6))
def test_all_models_exact(cnf):
    variables = sorted({abs(l) for c in cnf for l in c})
    got = {tuple(sorted(m.items())) for m in all_models(cnf, variables)}
    want = set()
    for bits in itertools.product((False, True), repeat=len(variables)):
        a = dict(zip(variables, bits))
        if all(any(a[abs(l)] == (l > 0) for l in c) for c in cnf):
            want.add(tuple(sorted(a.items())))
    assert got == want


@settings(max_examples=300, deadline=None)
@given(cnf=cnfs(max_var=5, max_clauses=8),
       projection=st.lists(st.integers(1, 7), max_size=7))
def test_all_models_matches_reference(cnf, projection):
    # projection variables 6 and 7 never occur in the CNF
    got = list(all_models(cnf, projection))
    want = list(reference_dpll.all_models(cnf, projection))
    assert got == want
    assert [list(m) for m in got] == [list(m) for m in want]  # key order


@pytest.mark.parametrize("seed", range(10))
def test_all_models_matches_reference_on_random_3cnf(seed):
    cnf = random_3cnf(seed, 14, 3.0)
    projection = range(1, 9)
    got = list(all_models(cnf, projection))
    assert got == list(reference_dpll.all_models(cnf, projection))


def test_all_models_learns_across_leaves(monkeypatch):
    # near ratio 4 the leaf searches hit conflicts, so the clauses they
    # learn must keep the projection's literals and stay valid across undo
    states = []

    class Recorded(_dpll_py.Dpll):
        def __init__(self, clauses):
            super().__init__(clauses)
            states.append(self)

    monkeypatch.setattr(_dpll_py, "Dpll", Recorded)
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(30, 40)
        cnf = random_3cnf(seed, n, 4.0)
        projection = rng.sample(range(1, n + 1), rng.randint(4, 8))
        got = list(all_models(cnf, projection))
        assert got == list(reference_dpll.all_models(cnf, projection)), seed
    assert sum(state.conflicts for state in states) > 0


@settings(max_examples=300, deadline=None)
@given(prop=props(), depth=st.integers(0, 5))
@example(prop=PConst(True), depth=0)
@example(prop=PConst(False), depth=0)
@example(prop=PLit(-3), depth=2)
@example(prop=PNot(p_or([PLit(1), PLit(-4)])), depth=1)
def test_model_blocks_are_runs_of_all_models(prop, depth):
    # roots: true and false trees, bare atoms the definitions never
    # mention, and negative literals
    table = AtomTable()
    for v in range(1, 5):
        table.id_of(("P", (v,)))
    cnf = tseitin(prop, table)
    want = list(all_models(cnf, range(1, 5)))
    defs, root = (cnf[:-1], cnf[-1][0]) if cnf and cnf[-1] else (cnf, None)
    # with the root read off the walk and nothing settled: one model a block
    assert list(model_blocks(defs, range(1, 5), root)) == [(m, 0) for m in want]
    # settled from depth on: each block is the next 2^k models, in order
    rest = iter(want)
    for partial, k in model_blocks(defs, range(1, 5), root,
                                   lambda assign, i: i >= depth):
        run = list(itertools.islice(rest, 2 ** k))
        assert len(run) == 2 ** k and len(partial) == 4 - k
        assert all(m.items() >= partial.items() for m in run)
    assert next(rest, None) is None


@pytest.mark.parametrize("cnf,projection,want", [
    ([[1, 2]], [], [{}]),
    ([[1], [-1]], [], []),
    ([[]], [1], []),
    ([], [2, 1], [{1: False, 2: False}, {1: False, 2: True},
                  {1: True, 2: False}, {1: True, 2: True}]),
    ([[1, -1], [-2]], [3, 2, 1], [{1: False, 2: False, 3: False},
                                  {1: False, 2: False, 3: True},
                                  {1: True, 2: False, 3: False},
                                  {1: True, 2: False, 3: True}]),
    ([[10**9, -5], [-10**9]], [10**9, 5, 4],
     [{4: False, 5: False, 10**9: False}, {4: True, 5: False, 10**9: False}]),
])
def test_all_models_edge_cases(cnf, projection, want):
    got = list(all_models(cnf, projection))
    assert got == want == list(reference_dpll.all_models(cnf, projection))
    assert [list(m) for m in got] == [list(m) for m in want]


# -- BSR grounding ---------------------------------------------------------

def test_bsr_ground_requires_bsr():
    with pytest.raises(ValueError):
        bsr_ground(TOTAL_RELATION)  # forall-exists


def test_bsr_ground_matches_bounded_search():
    from ebsedp.analysis import decide_sat_bounded
    from corpus import BSR, bsr_exists_count
    for pf in BSR:
        cnf, _ = bsr_ground(pf)
        got = dpll_solve(cnf) is not None
        # BSR sentences have models within |exists prefix| elements (or 1)
        b = max(bsr_exists_count(pf), 1)
        want = decide_sat_bounded(pf, b).verdict == "SAT"
        assert got == want, pf


def test_bsr_ground_equality_axioms():
    # exists x forall y x=y & exists-two is unsatisfiable only via equality
    # reasoning across skolem constants
    pf = to_pcnf(Exists("x", Exists("y", Not(Eq(Var("x"), Var("y"))))), VOC_P1)
    cnf, _ = bsr_ground(pf)
    assert dpll_solve(cnf) is not None
    both = to_pcnf(
        Exists("x", Exists("y", Forall("z",
            Or((Eq(Var("z"), Var("x")),))))), VOC_P1)
    cnf2, _ = bsr_ground(both)
    assert dpll_solve(cnf2) is not None
    # x = x is trivially true, so its negation drops out of the clause
    refl = to_pcnf(Exists("x", Or((Not(Eq(Var("x"), Var("x"))),
                                   Atom("P", (Var("x"),))))), VOC_P1)
    cnf_refl, table = bsr_ground(refl)
    assert cnf_refl == [[table.lookup(("P", ("c_x",)))]]
    for unsat in (EQ_CONGRUENCE, EQ_TRANSITIVITY):
        cnf3, _ = bsr_ground(unsat)
        assert dpll_solve(cnf3) is None


def test_bsr_ground_clause_cap():
    pf = to_pcnf(
        Exists("x", Exists("y", Exists("z",
            Not(Or((Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z")))))))),
        VOC_P1)
    with pytest.raises(CapExceeded):
        bsr_ground(pf, clause_cap=3)


# -- DIMACS ----------------------------------------------------------------

def test_export_dimacs_format():
    t = AtomTable()
    a = t.id_of(("P", (0, 1)))
    text = export_dimacs([[a], [-a, a]], t)
    lines = text.splitlines()
    assert lines[0] == "c 1 P(0,1)"
    assert lines[1] == "p cnf 1 2"
    assert lines[2] == "1 0"
    assert lines[3] == "-1 1 0"
    assert text.endswith("\n")


def test_export_dimacs_empty():
    assert export_dimacs([]) == "p cnf 0 0\n"
