"""Bounded-submodel fragments of first-order logic: classification,
membership checks, bounds, BSR translations, model repair, bounded decision
procedures, and bounded model checking."""

from .analysis import (EbsVerdict, EquivResult, FindBoundResult, SatOutcome,
                       SpectrumResult, bounded_equiv, decide_sat_bounded,
                       ebs_oracle, edp_nexptime_note, find_bound_bounded,
                       interleaved_sat, spectrum)
from .bmc import TransitionSystem, bmc_solve, unroll_bmc, unroll_ind
from .edp import (BoundReport, Classification, EdpResult, Instance, classify,
                  combine_and, combine_or, edp_bound, edp_check,
                  edp_simple_sigma)
from .errors import CapExceeded, EbsedpError, ParseError, RepairInternalError
from .groundsat import (AtomTable, all_models, bsr_ground, dpll_solve,
                        export_dimacs, ground_fixed_universe, tseitin)
from .parse import (Problem, parse_formula_text, parse_problem, render,
                    render_formula)
from .repair import CoreWitness, colour_of, edp_core, edp_extend
from .structures import (FiniteStructure, SubsetWitness, count_structures,
                         enumerate_structures, evaluate,
                         generated_substructure, restrict_eq)
from .syntax import (And, Atom, Const, Eq, Exists, Forall, Formula, Iff,
                     Implies, Literal, Not, Or, PrenexForm, Term, Var,
                     Vocabulary, free_vars, substitute, to_nnf, to_pcnf)
from .translate import (TranslationResult, spectrum_to_bsr,
                        to_bsr_equispectral, to_bsr_equivalent)

__version__ = "0.1.0"

# perfbench records KERNEL in every result and compares only equal kernels
KERNEL = "pure"
