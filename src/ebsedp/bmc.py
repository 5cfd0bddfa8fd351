"""Bounded model checking by unrolling a first-order transition system into
a single sentence, with bound-driven finite-model search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .analysis import SatOutcome, decide_sat_bounded
from .edp import BoundReport, classify, edp_bound, edp_check
from .parse import Problem, parse_formula_text
from .syntax import (Exists, Formula, Not, PrenexForm, Term, Var, Vocabulary,
                     and_, free_vars, substitute, to_pcnf)

NEXT_SUFFIX = "_next"


@dataclass(frozen=True)
class TransitionSystem:
    """States are d-tuples of first-order variables; the initial condition I
    and property P are formulas over the state vector s, the transition
    relation T a formula over s and its primed copy s′ (spelled v_next)."""

    vocabulary: Vocabulary
    state_vars: Tuple[str, ...]
    init: Formula
    trans: Formula
    prop: Formula

    def __post_init__(self):
        if not self.state_vars:
            raise ValueError("at least one state variable is required")
        if len(set(self.state_vars)) != len(self.state_vars):
            raise ValueError("duplicate state variable")
        cur = set(self.state_vars)
        nxt = {v + NEXT_SUFFIX for v in self.state_vars}
        for name, f, allowed in (("@init", self.init, cur),
                                 ("@trans", self.trans, cur | nxt),
                                 ("@prop", self.prop, cur)):
            extra = free_vars(f) - allowed
            if extra:
                raise ValueError(f"{name} mentions non-state variable(s) "
                                 f"{sorted(extra)}")

    @property
    def d(self) -> int:
        return len(self.state_vars)

    @staticmethod
    def from_problem(p: Problem) -> "TransitionSystem":
        for key in ("statevars", "init", "trans", "prop"):
            if key not in p.directives:
                raise ValueError(f"missing @{key} directive")
        state_vars = tuple(p.directives["statevars"].replace(",", " ").split())
        declared = set(state_vars) | {v + NEXT_SUFFIX for v in state_vars}
        init = parse_formula_text(p.directives["init"], p.vocabulary, declared)
        trans = parse_formula_text(p.directives["trans"], p.vocabulary, declared)
        prop = parse_formula_text(p.directives["prop"], p.vocabulary, declared)
        return TransitionSystem(p.vocabulary, state_vars, init, trans, prop)


def _step_var(i: int, j: int) -> str:
    return f"s{i}_{j}"


def _rename(f: Formula, state_vars: Tuple[str, ...], cur: int,
            nxt: Optional[int] = None) -> Formula:
    mapping: Dict[str, Term] = {
        v: Var(_step_var(cur, j + 1)) for j, v in enumerate(state_vars)}
    if nxt is not None:
        mapping.update({v + NEXT_SUFFIX: Var(_step_var(nxt, j + 1))
                        for j, v in enumerate(state_vars)})
    return substitute(f, mapping)


def _close(steps: int, state_vars: Tuple[str, ...], body: Formula) -> Formula:
    names = [_step_var(i, j + 1)
             for i in range(steps + 1) for j in range(len(state_vars))]
    for v in reversed(names):
        body = Exists(v, body)
    return body


def unroll_bmc(ts: TransitionSystem, k: int) -> Formula:
    """∃s₀…s_k  I(s₀) ∧ ⋀_{i<k} T(s_i, s_{i+1}) ∧ P(s_k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    parts: List[Formula] = [_rename(ts.init, ts.state_vars, 0)]
    for i in range(k):
        parts.append(_rename(ts.trans, ts.state_vars, i, i + 1))
    parts.append(_rename(ts.prop, ts.state_vars, k))
    return _close(k, ts.state_vars, and_(*parts))


def unroll_ind(ts: TransitionSystem, k: int) -> Formula:
    """∃s₀…s_k  P(s₀) ∧ T(s₀,s₁) ∧ P(s₁) ∧ … ∧ T(s_{k−1},s_k) ∧ ¬P(s_k)."""
    if k < 1:
        raise ValueError("the inductive step needs k >= 1")
    parts: List[Formula] = []
    for i in range(k):
        parts.append(_rename(ts.prop, ts.state_vars, i))
        parts.append(_rename(ts.trans, ts.state_vars, i, i + 1))
    parts.append(Not(_rename(ts.prop, ts.state_vars, k)))
    return _close(k, ts.state_vars, and_(*parts))


def bmc_solve(ts: TransitionSystem, k: int,
              variant: str = "base") -> Tuple[SatOutcome, BoundReport, PrenexForm]:
    """Pipeline: unroll → prenex CNF → membership check (σ=∅) → bound →
    bounded model search.  Raises with diagnostics if the unrolled sentence
    is outside the fragment."""
    pf = to_pcnf(unroll_bmc(ts, k), ts.vocabulary)
    check = edp_check(pf, (), variant)
    if not check.ok:
        raise ValueError("unrolled sentence fails the membership check: "
                         + "; ".join(check.diagnostics))
    report = edp_bound(classify(pf), variant)
    outcome = decide_sat_bounded(pf, report.B)
    return outcome, report, pf
