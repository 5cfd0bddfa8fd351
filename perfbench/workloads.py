"""The three benchmark workloads, their seeded inputs and their checks.

Every workload is a closed loop with one caller: a *pass* is a fixed list of
queries built from the seed, and each query runs only after the previous one
returned.  A query takes its sentence as ``.fol`` text, as a user hands it
to the library or the command line, so parsing is part of its time.

The seed permutes matrix-clause order, literal order and bound-variable names
of every input sentence.  That keeps semantics, so the known answers in
``inputs/manifest.json`` hold for every seed, while atom numbering and hence
the kernel's branching order change.  The seed also draws the random
sentences of ``cli-mix``, whose answers come from brute-force enumeration
made before timing starts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import ebsedp
from ebsedp import cli
from ebsedp.parse import Problem
from ebsedp.syntax import (EXISTS, FORALL, Atom, Eq, Literal, PrenexForm, Var,
                           Vocabulary)

INPUTS = Path(__file__).resolve().parent / "inputs"

Check = Callable[[object], Optional[str]]


@dataclass
class Query:
    """One request: ``run`` is timed, ``check`` returns None when its
    output is right and a reason otherwise."""

    qid: str
    run: Callable[[], object]
    check: Check
    last: object = None  # output of the latest run


def manifest() -> dict:
    return json.loads((INPUTS / "manifest.json").read_text("utf-8"))


# ---------------------------------------------------------------------------
# Inputs

def parse_sentence(text: str) -> PrenexForm:
    problem = ebsedp.parse_problem(text)
    return ebsedp.to_pcnf(problem.formula, problem.vocabulary)


def render_sentence(pf: PrenexForm) -> str:
    return ebsedp.render(Problem(pf.vocabulary, pf.to_formula()))


def permute(pf: PrenexForm, rng: random.Random) -> PrenexForm:
    """The same sentence with bound variables renamed and clauses and
    literals shuffled."""
    names = [v for _, v in pf.prefix]
    ren = {v: f"b{k}" for v, k in zip(names, rng.sample(range(100, 1000), len(names)))}
    sub = {v: Var(n) for v, n in ren.items()}
    clauses = []
    for clause in pf.matrix:
        lits = [Literal(lit.positive, ebsedp.substitute(lit.atom, sub))
                for lit in clause]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    rng.shuffle(clauses)
    return PrenexForm(pf.vocabulary, tuple((q, ren[v]) for q, v in pf.prefix),
                      tuple(clauses), pf.free_variables)


class Inputs:
    """Seeded sentence texts: ``text[key]`` is what the program reads,
    ``pf[key]`` the sentence its output is checked against."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.text: Dict[str, str] = {}
        self.pf: Dict[str, PrenexForm] = {}
        self._base: Dict[str, PrenexForm] = {}

    def permuted(self, name: str, key: str) -> str:
        """Add a fresh permutation of input ``name`` under ``key``."""
        if name not in self._base:
            self._base[name] = parse_sentence((INPUTS / f"{name}.fol").read_text("utf-8"))
        self.add(key, permute(self._base[name], self.rng))
        return key

    def add(self, key: str, pf: PrenexForm) -> None:
        text = render_sentence(pf)
        if parse_sentence(text) != pf:
            raise RuntimeError(f"{key}: rendered text does not parse back")
        self.text[key] = text
        self.pf[key] = pf


# ---------------------------------------------------------------------------
# Checks shared by the workloads

def check_spectrum(pf: PrenexForm, result, want: Sequence[int]) -> Optional[str]:
    got = list(result.sizes())
    if got != list(want):
        return f"spectrum {got}, known {list(want)}"
    for n, M in result.witnesses.items():
        if M.n != n or not ebsedp.evaluate(M, pf):
            return f"size-{n} witness is not a model"
    return None


def known_sizes(entry: dict, nmax: int) -> List[int]:
    if entry["spectrum_nmax"] < nmax:
        raise ValueError("known spectrum is shorter than the query")
    return [n for n in entry["spectrum"] if n <= nmax]


def _all(*reasons: Optional[str]) -> Optional[str]:
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# spectrum-psi

def spectrum_psi(seed: int, man: dict) -> Tuple[List[Query], Dict[str, str]]:
    plan = man["workloads"]["spectrum-psi"]["sizes"]
    inp = Inputs(seed)
    queries: List[Query] = []
    for name, k in ((name, k) for name in sorted(plan)
                    for k in range(plan[name]["copies"])):
        entry = man["inputs"][name]
        key = inp.permuted(name, f"{name}#{k}")
        text, pf = inp.text[key], inp.pf[key]
        n_phi, n_psi = plan[name]["phi"], plan[name]["psi"]

        def phi(text=text, n=n_phi):
            return ebsedp.spectrum(parse_sentence(text), n)

        def psi(text=text, n=n_psi):
            f = parse_sentence(text)
            B = ebsedp.edp_bound(ebsedp.classify(f)).B
            g = ebsedp.to_bsr_equispectral(f, B).bsr
            return B, g, ebsedp.spectrum(g, n)

        def check_psi(out, pf=pf, entry=entry, n=n_psi):
            B, g, result = out
            if B != entry["B"]:
                return f"bound {B}, known {entry['B']}"
            shape = [q for q, _ in g.prefix]
            if not g.is_bsr() or shape.count(EXISTS) != B:
                return "translation is not exists^B forall*"
            # equispectral: the spectrum of psi is the known spectrum of phi
            return check_spectrum(g, result, known_sizes(entry, n))

        queries.append(Query(f"phi:{key}", phi,
                             lambda r, pf=pf, e=entry, n=n_phi:
                             check_spectrum(pf, r, known_sizes(e, n))))
        queries.append(Query(f"psi:{key}", psi, check_psi))
    return queries, inp.text


def crosscheck(man: dict) -> Tuple[Callable[[], object], dict]:
    """Grounding and encoding of psi for the reference sentence at the
    reference size, unpermuted, and the counts its trace must show."""
    spec = man["crosscheck"]
    pf = parse_sentence((INPUTS / f"{spec['input']}.fol").read_text("utf-8"))
    psi = ebsedp.to_bsr_equispectral(pf, spec["B"]).bsr

    def run():
        prop, table = ebsedp.ground_fixed_universe(psi, spec["n"])
        return len(ebsedp.tseitin(prop, table))

    return run, spec["expect"]


# ---------------------------------------------------------------------------
# unsat-search

def unsat_search(seed: int, man: dict) -> Tuple[List[Query], Dict[str, str]]:
    """Each query gets its own permutation, so one pass samples several
    branching orders of the same search."""
    inp = Inputs(seed)
    queries: List[Query] = []
    for i, spec in enumerate(man["workloads"]["unsat-search"]["queries"]):
        name = spec["input"]
        key = inp.permuted(name, f"{name}#{i}")
        text, pf = inp.text[key], inp.pf[key]
        entry = man["inputs"][name]
        if spec["op"] == "spectrum":
            queries.append(Query(
                f"spectrum:{key}",
                lambda t=text, n=spec["nmax"]: ebsedp.spectrum(parse_sentence(t), n),
                lambda r, pf=pf, e=entry, n=spec["nmax"]:
                    check_spectrum(pf, r, known_sizes(e, n))))
        else:
            queries.append(Query(
                f"find-bound:{key}",
                lambda t=text, s=spec: ebsedp.find_bound_bounded(
                    parse_sentence(t), s["bmax"], s["ncap"]),
                lambda r, s=spec: _check_find_bound(r, s["B"])))
    return queries, inp.text


def _check_find_bound(result, want: Optional[int]) -> Optional[str]:
    got = None if result is None else result.B
    if got != want:
        return f"find-bound B={got}, known {want}"
    if result is not None and not result.translation.bsr.is_bsr():
        return "find-bound translation is not exists*forall*"
    return None


# ---------------------------------------------------------------------------
# cli-mix

RANDOM_VOCAB = Vocabulary((("P", 1), ("R", 2)))


def random_sentence(rng: random.Random) -> PrenexForm:
    names = [f"v{i}" for i in range(rng.randint(2, 3))]
    prefix = tuple((rng.choice((EXISTS, FORALL)), v) for v in names)
    terms = [Var(v) for v in names]

    def literal() -> Literal:
        kind = rng.random()
        if kind < 0.4:
            atom = Atom("P", (rng.choice(terms),))
        elif kind < 0.85:
            atom = Atom("R", (rng.choice(terms), rng.choice(terms)))
        else:
            atom = Eq(*rng.sample(terms, 2))
        return Literal(rng.random() < 0.5, atom)

    matrix = tuple(tuple(literal() for _ in range(rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 3)))
    return PrenexForm(RANDOM_VOCAB, prefix, matrix)


class TruthTable:
    """Truth of a sentence in every structure of each size up to nmax, by
    exhaustive enumeration; the oracle for random-sentence verdicts."""

    def __init__(self, pf: PrenexForm, nmax: int):
        self.by_size = {n: [ebsedp.evaluate(M, pf)
                            for M in ebsedp.enumerate_structures(pf.vocabulary, n)]
                        for n in range(1, nmax + 1)}

    def sizes(self, nmax: int) -> List[int]:
        return [n for n in range(1, nmax + 1) if any(self.by_size[n])]

    def same(self, other: "TruthTable", ncap: int) -> bool:
        return all(self.by_size[n] == other.by_size[n] for n in range(1, ncap + 1))


class CliRun:
    """ebsedp.cli.main in-process with --format json: exit code and output."""

    def __init__(self, code: int, stdout: str):
        self.code = code
        self.stdout = stdout

    def json(self) -> dict:
        return json.loads(self.stdout)


def call_cli(argv: List[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue())


def load_schemas():
    """A validator per schema file shipped in ebsedp/schemas."""
    import jsonschema
    from referencing import Registry, Resource
    docs = [json.loads(p.read_text("utf-8"))
            for p in sorted((Path(ebsedp.__file__).parent / "schemas").glob("*.json"))]
    registry = Registry().with_resources(
        (d["$id"], Resource.from_contents(d)) for d in docs)
    return {d["$id"].removesuffix(".json"): jsonschema.Draft202012Validator(
        d, registry=registry) for d in docs}


class CliMix:
    """Builds the cli-mix pass: short commands over the corpus and seeded
    random sentences, plus model repair on returned models."""

    def __init__(self, seed: int, man: dict, workdir: Path):
        self.man = man
        self.plan = man["workloads"]["cli-mix"]
        self.schemas = load_schemas()
        self.queries: List[Query] = []
        self.inp = Inputs(seed)
        for name in self.plan["corpus"] + self.plan["sentences"]:
            for k in range(2):
                self.inp.permuted(name, f"{name}#{k}")
        rng = self.inp.rng
        self.random_keys = []
        for i in range(self.plan["random"]):
            key = f"rand{i}"
            self.inp.add(key, random_sentence(rng))
            self.random_keys.append(key)
        # brute-force answers, computed before timing starts
        self.truth = {key: TruthTable(self.inp.pf[key], self.plan["random_nmax"])
                      for key in self.random_keys}
        self.files = {}
        for key, text in self.inp.text.items():
            path = workdir / (key.replace("#", "_") + ".fol")
            path.write_text(text, "utf-8")
            self.files[key] = str(path)
        for name in self.plan["systems"]:
            path = workdir / f"{name}.fol"
            path.write_text((INPUTS / f"{name}.fol").read_text("utf-8"), "utf-8")
            self.files[name] = str(path)
        self.build()

    # -- helpers -----------------------------------------------------------
    def add(self, qid: str, argv: List[str], check: Callable[[CliRun], Optional[str]],
            schema: Optional[str] = None, codes: Sequence[int] = (0,)):
        def full_check(run: CliRun) -> Optional[str]:
            if run.code not in codes:
                return f"exit {run.code}, expected {list(codes)}"
            if schema is not None:
                try:
                    obj = run.json()
                except ValueError:
                    return "stdout is not JSON"
                errors = list(self.schemas[schema].iter_errors(obj))
                if errors:
                    return f"schema {schema}: {errors[0].message}"
            return check(run)
        self.queries.append(Query(qid, lambda: call_cli(["--format", "json"] + argv),
                                  full_check))

    @staticmethod
    def structure(obj: dict, vocab: Vocabulary):
        return ebsedp.FiniteStructure.from_json(json.dumps(obj), vocab)

    def model_of(self, obj: dict, vocab: Vocabulary):
        return self.structure(obj["model"], vocab)

    # -- the pass ----------------------------------------------------------
    def build(self) -> None:
        man = self.man
        for name in self.plan["corpus"]:
            entry = man["inputs"][name]
            key, other = f"{name}#0", f"{name}#1"
            f, pf = self.files[key], self.inp.pf[key]
            B = entry["B"]
            self.add(f"classify:{name}", ["classify", f],
                     lambda r, pf=pf: None if sorted(r.json()["AV"]) ==
                     sorted(pf.universals) else "AV differs from the prefix",
                     "classification")
            self.add(f"check-edp:{name}", ["check-edp", f],
                     lambda r, B=B: _all(None if r.json()["edp"] else "not in fragment",
                                         None if r.json().get("B") == B else "wrong B"),
                     "check")
            self.add(f"bound:{name}", ["bound", f, "--note"],
                     lambda r, B=B: None if r.json()["B"] == B else "wrong B",
                     "bound")
            for mode in ("equivalent", "equispectral"):
                self.add(f"translate-{mode}:{name}",
                         ["translate", f, "--mode", mode, "--bound", str(B)],
                         lambda r, pf=pf, B=B: self.check_translation(r, pf, B))
            self.add(f"sat:{name}", ["sat", f, "--bound", str(B)],
                     lambda r, pf=pf: self.check_model(r, pf), "sat")
            self.repair(name, key, B)
            nmax = self.plan["spectrum_nmax"]
            self.add(f"spectrum:{name}", ["spectrum", f, "--nmax", str(nmax)],
                     lambda r, e=entry, n=nmax: None if r.json()["sizes"] ==
                     known_sizes(e, n) else "wrong spectrum", "spectrum")
            ncap = self.plan["equiv_ncap"]
            self.add(f"equiv:{name}", ["equiv", f, self.files[other], "--ncap", str(ncap)],
                     lambda r: None if r.json()["equivalent"] else
                     "a permuted copy is reported different", "equiv")
            self.add(f"ebs-oracle:{name}",
                     ["ebs-oracle", f, "--bound", str(B), "--nmax", str(self.plan["ebs_nmax"])],
                     lambda r: None if r.json()["pass"] else "oracle fails inside the fragment",
                     "ebs")
            if entry.get("bsr"):
                self.add(f"export-dimacs:{name}", ["export-dimacs", f],
                         lambda r: check_dimacs(r.stdout))
        for spec in self.plan["commands"]:
            self.add_command(spec)
        self.random_queries()

    def add_command(self, spec: dict) -> None:
        args = [self.files.get(a, a) if isinstance(a, str) else str(a)
                for a in spec["argv"]]
        want = spec["expect"]
        schema = spec.get("schema")
        qid = spec["id"]
        name = spec.get("input")
        pf = self.inp.pf.get(f"{name}#0")

        def check(r: CliRun) -> Optional[str]:
            obj = r.json()
            for k, v in want["json"].items():
                if obj.get(k) != v:
                    return f"{k}={obj.get(k)!r}, known {v!r}"
            if "spectrum_of_formula" in want:
                g = ebsedp.to_pcnf(ebsedp.parse_formula_text(obj["formula"], pf.vocabulary),
                                   pf.vocabulary)
                got = TruthTable(g, want["nmax"]).sizes(want["nmax"])
                if got != want["spectrum_of_formula"]:
                    return f"synthesised sentence has spectrum {got}"
            if want.get("fail_model"):
                M = self.structure(obj["failModel"], pf.vocabulary)
                if not ebsedp.evaluate(M, pf):
                    return "the oracle's failing model is not a model"
            if "bmc_k" in want:
                return self.check_bmc(obj, want["bmc_k"])
            return None
        self.add(qid, args, check, schema, tuple(spec.get("codes", (0,))))

    def random_queries(self) -> None:
        nmax = self.plan["random_nmax"]
        ncap = self.plan["equiv_ncap"]
        budget = self.plan["interleaved_budget"]
        keys = self.random_keys
        for i, key in enumerate(keys):
            f, pf, tt = self.files[key], self.inp.pf[key], self.truth[key]
            sizes = tt.sizes(nmax)
            self.add(f"spectrum:{key}", ["spectrum", f, "--nmax", str(nmax)],
                     lambda r, s=sizes: None if r.json()["sizes"] == s else
                     f"spectrum {r.json()['sizes']}, brute force {s}", "spectrum")
            self.add(f"sat:{key}", ["sat", f, "--bound", str(nmax)],
                     lambda r, pf=pf, s=sizes: self.check_verdict(r, pf, bool(s), True),
                     "sat", (0, 1))
            self.add(f"sat-interleaved:{key}",
                     ["sat", f, "--interleaved", "--budget", budget],
                     lambda r, pf=pf, s=sizes: self.check_verdict(r, pf, bool(s), False),
                     "sat", (0, 1, 2))
            self.add(f"classify:{key}", ["classify", f], lambda r: None,
                     "classification")
            other = keys[(i + 1) % len(keys)]
            same = tt.same(self.truth[other], ncap)
            self.add(f"equiv:{key}", ["equiv", f, self.files[other], "--ncap", str(ncap)],
                     lambda r, pf=pf, g=self.inp.pf[other], same=same:
                     self.check_equiv(r, pf, g, same), "equiv", (0, 1))

    # -- checks ------------------------------------------------------------
    def check_model(self, r: CliRun, pf: PrenexForm) -> Optional[str]:
        obj = r.json()
        if obj["verdict"] != "SAT":
            return f"verdict {obj['verdict']}, known SAT"
        if not ebsedp.evaluate(self.model_of(obj, pf.vocabulary), pf):
            return "returned model does not satisfy the sentence"
        return None

    def check_verdict(self, r: CliRun, pf, has_model: bool, complete: bool):
        verdict = r.json()["verdict"]
        if has_model:
            return self.check_model(r, pf)
        if verdict == "SAT":
            return "SAT, but brute force finds no model in range"
        if complete and verdict != "UNSAT":
            return f"verdict {verdict}, known UNSAT within the bound"
        return None

    def check_equiv(self, r: CliRun, f, g, same: bool) -> Optional[str]:
        obj = r.json()
        if obj["equivalent"] != same:
            return f"equivalent={obj['equivalent']}, brute force says {same}"
        if not same:
            M = self.structure(obj["countermodel"], f.vocabulary)
            if ebsedp.evaluate(M, f) == ebsedp.evaluate(M, g):
                return "countermodel does not distinguish"
        return None

    def check_bmc(self, obj: dict, k: int) -> Optional[str]:
        text = (INPUTS / "bmc_demo.fol").read_text("utf-8")
        ts = ebsedp.TransitionSystem.from_problem(ebsedp.parse_problem(text, False))
        unrolled = ebsedp.to_pcnf(ebsedp.unroll_bmc(ts, k), ts.vocabulary)
        if not ebsedp.evaluate(self.model_of(obj, ts.vocabulary), unrolled):
            return "the counterexample does not satisfy the unrolling"
        return None

    def check_translation(self, r: CliRun, pf: PrenexForm, B: int) -> Optional[str]:
        obj = r.json()
        vocab = pf.vocabulary
        g = ebsedp.to_pcnf(ebsedp.parse_formula_text(obj["formula"], vocab), vocab)
        exists = [v for q, v in g.prefix if q == EXISTS]
        if not g.is_bsr() or len(exists) != B:
            return "translation is not exists^B forall*"
        if obj["stats"]["matrix_clauses"] != len(g.matrix):
            return "stats disagree with the printed matrix"
        return None

    def repair(self, name: str, key: str, B: int) -> None:
        """edp_core / edp_extend on the model the preceding sat query
        returned: every extension must model the sentence and agree with
        the substructure (sigma is empty)."""
        sat_query = self.queries[-1]
        pf = self.inp.pf[key]

        def run():
            M = self.model_of(sat_query.last.json(), pf.vocabulary)
            core = None
            for vals in itertools.product(range(M.n), repeat=len(pf.leftmost_exists)):
                try:
                    core = ebsedp.edp_core(pf, (), M, vals)
                    break
                except ValueError:
                    continue
            if core is None:
                return M, None, []
            rest = [e for e in range(M.n) if e not in core.elements]
            mids = [tuple(sorted(core.elements + extra))
                    for k in range(len(rest) + 1)
                    for extra in itertools.combinations(rest, k)]
            return M, core, [(mid, ebsedp.edp_extend(pf, (), M, core, mid))
                             for mid in mids]

        def check(out) -> Optional[str]:
            M, core, extended = out
            if core is None:
                return "no core for a model"
            for mid, M2p in extended:
                if not ebsedp.evaluate(M2p, pf):
                    return f"extension to {mid} is not a model"
                M2, _ = ebsedp.generated_substructure(M, mid)
                if not ebsedp.restrict_eq(M2, M2p, ()):
                    return f"extension to {mid} changed the substructure"
            return None

        self.queries.append(Query(f"repair:{name}", run, check))


def check_dimacs(text: str) -> Optional[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("c ")]
    if not lines or not lines[0].startswith("p cnf "):
        return "no DIMACS header"
    nvars, nclauses = (int(x) for x in lines[0].split()[2:4])
    body = lines[1:]
    if len(body) != nclauses:
        return f"header says {nclauses} clauses, body has {len(body)}"
    for ln in body:
        lits = [int(x) for x in ln.split()]
        if lits[-1] != 0 or any(abs(x) > nvars for x in lits):
            return "malformed clause line"
    return None
