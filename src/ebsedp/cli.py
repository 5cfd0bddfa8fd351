"""Command-line interface.

Exit codes: 0 success / SAT / pass, 1 UNSAT / fail, 2 UNKNOWN,
3 usage or input error, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .analysis import (SAT, UNKNOWN, UNSAT, bounded_equiv, decide_sat_bounded,
                       ebs_oracle, edp_nexptime_note, find_bound_bounded,
                       interleaved_sat, spectrum)
from .bmc import TransitionSystem, bmc_solve
from .edp import classify, edp_bound, edp_check
from .errors import CapExceeded, EbsedpError, ParseError
from .groundsat import bsr_ground, export_dimacs
from .parse import Problem, parse_problem, render_formula
from .syntax import PrenexForm, to_pcnf
from .translate import spectrum_to_bsr, to_bsr_equispectral, to_bsr_equivalent

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_CAP = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, require_formula: bool = True) -> Problem:
    return parse_problem(_read(path), require_formula)


def _prenex(problem: Problem) -> PrenexForm:
    if problem.formula is None:
        raise ValueError("input file has no formula")
    return to_pcnf(problem.formula, problem.vocabulary, problem.declared_free)


def _split_list(text: str) -> Tuple[str, ...]:
    return tuple(s for s in text.replace(",", " ").split() if s)


def _emit(args, obj: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _sat_exit(verdict: str) -> int:
    return {SAT: EXIT_OK, UNSAT: EXIT_FAIL, UNKNOWN: EXIT_UNKNOWN}[verdict]


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_normalize(args) -> int:
    pf = _prenex(_load(args.file))
    text = render_formula(pf.to_formula())
    _emit(args, {"prenex": text, "clauses": len(pf.matrix)}, text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    c = classify(_prenex(_load(args.file)))
    obj = c.to_json_dict()
    lines = [f"V: {' '.join(c.V) or '-'}",
             f"EV: {' '.join(c.EV) or '-'}",
             f"AV: {' '.join(c.AV) or '-'}",
             f"EU: {' '.join(c.EU) or '-'}",
             f"EUbar: {' '.join(c.EUbar) or '-'}"]
    for p in sorted(c.predicate_class):
        lines.append(f"predicate {p}: {c.predicate_class[p]}")
    _emit(args, obj, "\n".join(lines))
    return EXIT_OK


def _cmd_check_edp(args) -> int:
    pf = _prenex(_load(args.file))
    result = edp_check(pf, _split_list(args.sigma), args.variant)
    obj: dict = {"edp": result.ok, "variant": result.variant,
                 "sigma": list(result.sigma)}
    text: List[str] = ["pass" if result.ok else "fail"]
    if result.ok:
        try:
            report = edp_bound(classify(pf), args.variant)
            obj["B"] = report.B
            text.append(f"B={report.B}")
        except ValueError:
            pass
    else:
        obj["diagnostics"] = list(result.diagnostics)
        text.extend(result.diagnostics)
    _emit(args, obj, "\n".join(text))
    return EXIT_OK if result.ok else EXIT_FAIL


def _cmd_bound(args) -> int:
    c = classify(_prenex(_load(args.file)))
    report = edp_bound(c, args.variant)
    obj = report.to_json_dict()
    if args.note:
        obj["searchSpace"] = edp_nexptime_note(c.vocabulary, report)
    _emit(args, obj, f"B={report.B}")
    return EXIT_OK


def _cmd_translate(args) -> int:
    pf = _prenex(_load(args.file))
    fn = to_bsr_equivalent if args.mode == "equivalent" else to_bsr_equispectral
    result = fn(pf, args.bound)
    text = render_formula(result.bsr.to_formula())
    _emit(args, {"formula": text, "mode": result.mode,
                 "stats": dict(sorted(result.size_stats.items()))}, text)
    return EXIT_OK


def _cmd_sat(args) -> int:
    pf = _prenex(_load(args.file))
    if args.interleaved:
        budget = tuple(int(x) for x in _split_list(args.budget))
        if len(budget) != 3:
            raise ValueError("budget must be three integers: size,depth,steps")
        outcome = interleaved_sat(pf, budget)  # type: ignore[arg-type]
    else:
        if args.bound is None:
            raise ValueError("sat requires --bound B or --interleaved")
        outcome = decide_sat_bounded(pf, args.bound)
    text = outcome.verdict
    if outcome.model is not None:
        text += "\n" + outcome.model.to_json()
    _emit(args, outcome.to_json_dict(), text)
    return _sat_exit(outcome.verdict)


def _cmd_spectrum(args) -> int:
    result = spectrum(_prenex(_load(args.file)), args.nmax)
    _emit(args, result.to_json_dict(),
          " ".join(str(n) for n in result.sizes()))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    pa, pb = _load(args.file), _load(args.file2)
    result = bounded_equiv(_prenex(pa), _prenex(pb), args.ncap)
    obj: dict = {"equivalent": result.equivalent, "nCap": result.nCap,
                 "note": result.note}
    text = "equivalent" if result.equivalent else "different"
    if result.countermodel is not None:
        obj["countermodel"] = result.countermodel.to_json_dict()
        text += "\n" + result.countermodel.to_json()
    _emit(args, obj, text)
    return EXIT_OK if result.equivalent else EXIT_FAIL


def _cmd_ebs_oracle(args) -> int:
    pf = _prenex(_load(args.file))
    verdict = ebs_oracle(pf, _split_list(args.sigma), args.bound, args.nmax)
    text = "pass" if verdict.passed else "fail"
    if verdict.fail_model is not None:
        text += "\n" + verdict.fail_model.to_json()
        if verdict.fail_extension is not None:
            text += "\nextension " + " ".join(str(e) for e in verdict.fail_extension)
    _emit(args, verdict.to_json_dict(), text)
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _cmd_find_bound(args) -> int:
    pf = _prenex(_load(args.file))
    found = find_bound_bounded(pf, args.bmax, args.ncap)
    if found is None:
        _emit(args, {"found": False, "bMax": args.bmax, "nCap": args.ncap},
              "no bound found")
        return EXIT_FAIL
    text = render_formula(found.translation.bsr.to_formula())
    _emit(args, {"found": True, "B": found.B, "formula": text,
                 "nCap": found.nCap, "note": found.note},
          f"B={found.B}\n{text}")
    return EXIT_OK


def _cmd_spectrum_to_bsr(args) -> int:
    problem = _load(args.file, require_formula=False)
    sizes = tuple(int(x) for x in _split_list(args.sizes)) if args.sizes else ()
    f = spectrum_to_bsr(sizes, problem.vocabulary, args.cofinite_from)
    text = render_formula(f)
    _emit(args, {"formula": text}, text)
    return EXIT_OK


def _cmd_bmc(args) -> int:
    ts = TransitionSystem.from_problem(_load(args.file, require_formula=False))
    outcome, report, _ = bmc_solve(ts, args.k, args.variant)
    text = f"{outcome.verdict} k={args.k} B={report.B}"
    if outcome.model is not None:
        text += "\n" + outcome.model.to_json()
    obj = outcome.to_json_dict()
    obj.update({"k": args.k, "B": report.B})
    _emit(args, obj, text)
    return _sat_exit(outcome.verdict)


def _cmd_export_dimacs(args) -> int:
    pf = _prenex(_load(args.file))
    if not pf.is_bsr():
        raise ValueError("export-dimacs needs an exists*forall* sentence; "
                         "translate first")
    cnf, table = bsr_ground(pf)
    text = export_dimacs(cnf, table)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    top = _Parser(prog="ebsedp", description=__doc__)
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = cmd("normalize", _cmd_normalize)
    p.add_argument("file")

    p = cmd("classify", _cmd_classify)
    p.add_argument("file")

    p = cmd("check-edp", _cmd_check_edp)
    p.add_argument("file")
    p.add_argument("--sigma", default="")
    p.add_argument("--variant", default="base")

    p = cmd("bound", _cmd_bound)
    p.add_argument("file")
    p.add_argument("--variant", default="base")
    p.add_argument("--note", action="store_true",
                   help="include search-space figures")

    p = cmd("translate", _cmd_translate)
    p.add_argument("file")
    p.add_argument("--mode", choices=("equivalent", "equispectral"),
                   default="equivalent")
    p.add_argument("--bound", type=int, required=True)

    p = cmd("sat", _cmd_sat)
    p.add_argument("file")
    p.add_argument("--bound", type=int)
    p.add_argument("--interleaved", action="store_true")
    p.add_argument("--budget", default="4,2,100000",
                   help="size,depth,steps for --interleaved")

    p = cmd("spectrum", _cmd_spectrum)
    p.add_argument("file")
    p.add_argument("--nmax", type=int, required=True)

    p = cmd("equiv", _cmd_equiv)
    p.add_argument("file")
    p.add_argument("file2")
    p.add_argument("--ncap", type=int, required=True)

    p = cmd("ebs-oracle", _cmd_ebs_oracle)
    p.add_argument("file")
    p.add_argument("--sigma", default="")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = cmd("find-bound", _cmd_find_bound)
    p.add_argument("file")
    p.add_argument("--bmax", type=int, required=True)
    p.add_argument("--ncap", type=int, required=True)

    p = cmd("spectrum-to-bsr", _cmd_spectrum_to_bsr)
    p.add_argument("file", help="source of the vocabulary")
    p.add_argument("--sizes", default="")
    p.add_argument("--cofinite-from", type=int, default=None)

    p = cmd("bmc", _cmd_bmc)
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", default="base")

    p = cmd("export-dimacs", _cmd_export_dimacs)
    p.add_argument("file")
    p.add_argument("--output", default="-")

    return top


# built at import, not per call: a build costs about as much as a short command
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except (EbsedpError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
