"""Model repair: core selection and extension for EDP sentences.

edp_core picks the bounded core substructure (free values, one fresh element
per E_U-complement variable, one representative per colour class); edp_extend
rebuilds a model on any superset of the core via the value Selector, the
instance-truth assignment pass, a copy-from-M default, and conflict curing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .edp import classify, edp_check
from .errors import RepairInternalError
from .structures import (FiniteStructure, SubsetWitness, _eval_prenex,
                         evaluate, generated_substructure)
from .syntax import FORALL, PrenexForm, Term, Var


@dataclass(frozen=True)
class CoreWitness(SubsetWitness):
    """A core subset plus the bookkeeping edp_extend needs: the leftmost-∃
    witness, the free-value set, the per-variable fresh elements, and the
    colour representatives."""

    witness: Tuple[int, ...] = ()
    val_free: FrozenSet[int] = frozenset()
    a_of: Mapping[str, int] = field(default_factory=dict)
    colour_rep: Mapping[Tuple[bool, ...], int] = field(default_factory=dict)
    vacuous: bool = False


def colour_of(M: FiniteStructure, e: int) -> Tuple[bool, ...]:
    """The colour of an element: one bit per unary predicate."""
    return tuple(M.holds(q, (e,)) for q in M.vocabulary.unary_predicates)


def _check_witness(pf: PrenexForm, M: FiniteStructure, witness: Tuple[int, ...]) -> None:
    V = pf.leftmost_exists
    if len(witness) != len(V):
        raise ValueError(f"witness must assign the {len(V)} leftmost-existential "
                         "variables")
    if not _eval_prenex(M, pf, len(V), dict(zip(V, witness))):
        raise ValueError("M does not model the sentence with the given witness")


def edp_core(pf: PrenexForm, sigma: Iterable[str], M: FiniteStructure,
             witness: Iterable[int]) -> CoreWitness:
    """The bounded core of M: constant values ∪ witness values ∪ one fresh
    element per E_U-complement variable ∪ one least-element representative
    per nonempty colour class outside the free values (representatives only
    when inner existentials exist).  Falls back to the full universe when
    the universe is too small to allocate disjoint fresh elements."""
    if not pf.is_sentence():
        raise ValueError("edp_core requires a sentence")
    check = edp_check(pf, sigma, "base")
    if not check.ok:
        raise ValueError("sentence fails the base membership check: "
                         + "; ".join(check.diagnostics))
    witness = tuple(witness)
    _check_witness(pf, M, witness)
    c = classify(pf)

    val_free = frozenset(M.constant_values.values()) | frozenset(witness)
    colour_rep: Dict[Tuple[bool, ...], int] = {}
    if c.EV:
        for e in range(M.n):
            if e in val_free:
                continue
            col = colour_of(M, e)
            if col not in colour_rep or e < colour_rep[col]:
                colour_rep[col] = e

    taken = set(val_free) | set(colour_rep.values())
    pool = [e for e in range(M.n) if e not in taken]
    if len(pool) < len(c.EUbar):
        return CoreWitness(M, tuple(range(M.n)), witness, val_free,
                           {}, dict(colour_rep), vacuous=True)
    a_of = {v: pool[i] for i, v in enumerate(c.EUbar)}

    elements = set(val_free) | set(colour_rep.values()) | set(a_of.values())
    if not elements:
        elements = {0}
    return CoreWitness(M, tuple(sorted(elements)), witness, val_free,
                       a_of, dict(colour_rep), vacuous=False)


def edp_extend(pf: PrenexForm, sigma: Iterable[str], M: FiniteStructure,
               core: CoreWitness, mid) -> FiniteStructure:
    """Extend the core model across any mid with core ⊆ mid ⊆ universe:
    returns M2' on mid's elements (relabeled) with M2' a model of pf and
    M2' agreeing with M's substructure on the σ-predicates."""
    sigma = tuple(sorted(set(sigma)))
    if not isinstance(core, CoreWitness):
        raise ValueError("core must come from edp_core")
    if core.parent is not M and core.parent != M:
        raise ValueError("core was computed for a different structure")
    mid_elems = tuple(sorted(set(mid.elements if isinstance(mid, SubsetWitness) else mid)))
    if not set(core.elements) <= set(mid_elems):
        raise ValueError("mid must contain the core")
    if any(not (0 <= e < M.n) for e in mid_elems):
        raise ValueError("mid element outside universe")

    M2, relabel = generated_substructure(M, mid_elems)
    if core.vacuous or evaluate(M2, pf):
        return M2

    _check_witness(pf, M, core.witness)
    c = classify(pf)
    base_assign = dict(zip(pf.leftmost_exists, core.witness))
    prefix = pf.prefix
    base_i = len(base_assign)

    # M's least witness for each inner existential, keyed by its position
    # and the values bound before it
    choices: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    eu = set(c.EU)
    eubar = set(c.EUbar)

    def selector(var: str, d: int) -> int:
        if var in eubar:
            return core.a_of[var]
        if d in core.val_free:
            return d
        return core.colour_rep[colour_of(M, d)]

    av_vars = pf.universals
    existential_preds = set(c.existential_predicates)
    # truth assignments from the instantiation pass: atom -> value -> instances
    assigned: Dict[Tuple[str, Tuple[int, ...]], Dict[bool, List]] = {}

    for Z in itertools.product(mid_elems, repeat=len(av_vars)):
        z_of = dict(zip(av_vars, Z))
        # walk the prefix to recover M's witness values under this Z
        m_vals = dict(base_assign)
        for i in range(base_i, len(prefix)):
            q, v = prefix[i]
            if q == FORALL:
                m_vals[v] = z_of[v]
                continue
            key = (i, tuple(m_vals.values()))
            if key not in choices:
                choices[key] = next(d for d in range(M.n) if _eval_prenex(
                    M, pf, i + 1, {**m_vals, v: d}))
            m_vals[v] = choices[key]
        sel_vals = {v: (selector(v, d) if v in eu or v in eubar else d)
                    for v, d in m_vals.items()}

        def arg_value(t: Term, env: Mapping[str, int]) -> int:
            return env[t.name] if isinstance(t, Var) else M.constant_values[t.name]

        for inst in c.instances:
            args3 = tuple(arg_value(t, sel_vals) for t in inst.args)
            arity = len(inst.args)
            if inst.predicate in existential_preds and arity >= 2:
                truth = inst.positive
            else:
                args_m = tuple(arg_value(t, m_vals) for t in inst.args)
                truth = M.holds(inst.predicate, args_m)
            slot = assigned.setdefault((inst.predicate, args3), {})
            slot.setdefault(truth, []).append(inst)

    # resolve conflicts: only same-clause opposite-polarity pairs on arity-≥2
    # existential predicates may collide, and those are cured by fixing true
    final: Dict[Tuple[str, Tuple[int, ...]], bool] = {}
    for atom, by_truth in assigned.items():
        if len(by_truth) == 1:
            final[atom] = next(iter(by_truth))
            continue
        pred = atom[0]
        if pred not in existential_preds or len(atom[1]) < 2:
            raise RepairInternalError(
                f"conflicting copied truth values for {atom} "
                "(classification bug)")
        pos_clauses = {i.clause_index for i in by_truth[True]}
        neg_clauses = {i.clause_index for i in by_truth[False]}
        if len(pos_clauses | neg_clauses) != 1:
            raise RepairInternalError(
                f"cross-clause opposite-polarity conflict on {atom} "
                "(distinguishability check bug)")
        final[atom] = True  # cure

    # overlay the assignments on M's substructure (the copy-from-M default)
    interp = {name: set(tuples) for name, tuples in M2.interpretation.items()}
    for (pred, args), value in final.items():
        t = tuple(relabel[e] for e in args)
        if value:
            interp[pred].add(t)
        else:
            interp[pred].discard(t)
    M2p = FiniteStructure(M.vocabulary, M2.n, interp, M2.constant_values)

    if not evaluate(M2p, pf):
        raise RepairInternalError("repaired structure fails the sentence "
                                  "(construction bug)")
    return M2p
