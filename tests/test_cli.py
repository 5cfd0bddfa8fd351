import io
import json
import os

import jsonschema
import pytest
from referencing import Registry, Resource

from ebsedp import schemas
from ebsedp.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def fol(name):
    return os.path.join(CORPUS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, (json.loads(out) if out else None), err


def validate(obj, schema_name):
    registry = Registry().with_resources(
        (s.get("$id", n), Resource.from_contents(s))
        for n, s in schemas.load_all().items())
    jsonschema.validate(obj, schemas.load(schema_name), registry=registry)


# -- happy paths -----------------------------------------------------------

def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", fol("example_a.fol"))
    assert code == 0
    assert out.startswith("(exists y.")


def test_classify_text_and_json(capsys):
    code, out, _ = run(capsys, "classify", fol("example_a.fol"))
    assert code == 0
    assert "predicate R: existential" in out
    code, obj, _ = run_json(capsys, "classify", fol("example_a.fol"))
    assert code == 0
    validate(obj, "classification")
    assert obj["predicates"] == {"P": "free", "Q": "universal",
                                 "R": "existential"}


def test_check_edp_pass_and_fail(capsys):
    code, obj, _ = run_json(capsys, "check-edp", fol("example_b.fol"),
                            "--sigma", "R")
    assert code == 0
    validate(obj, "check")
    assert obj["edp"] is True and obj["B"] == 4
    code, obj, _ = run_json(capsys, "check-edp", fol("example_b.fol"),
                            "--sigma", "P,R")
    assert code == 1
    validate(obj, "check")
    assert obj["edp"] is False and obj["diagnostics"]


def test_check_edp_variant(capsys):
    code, _, _ = run(capsys, "check-edp", fol("dag.fol"))
    assert code == 1
    code, _, _ = run(capsys, "check-edp", fol("dag.fol"),
                     "--variant", "relaxed-distinguishability")
    assert code == 1  # still fails: no distinguishing variable at all


def test_bound(capsys):
    code, obj, _ = run_json(capsys, "bound", fol("example_c.fol"))
    assert code == 0
    validate(obj, "bound")
    assert obj["B"] == 3
    code, obj, _ = run_json(capsys, "bound", fol("example_c.fol"), "--note")
    assert obj["searchSpace"]["B"] == 3


def test_translate(capsys):
    code, obj, _ = run_json(capsys, "translate", fol("total_relation.fol"),
                            "--bound", "2")
    assert code == 0
    assert obj["mode"] == "equivalent"
    assert obj["stats"] == {"disjuncts": 3, "matrix_clauses": 1, "pool": 2}
    code, obj2, _ = run_json(capsys, "translate", fol("total_relation.fol"),
                             "--bound", "2", "--mode", "equispectral")
    assert obj2["stats"]["disjuncts"] == 2


def test_sat_exit_codes(capsys):
    code, obj, _ = run_json(capsys, "sat", fol("total_relation.fol"),
                            "--bound", "2")
    assert code == 0
    validate(obj, "sat")
    assert obj["verdict"] == "SAT"
    validate(obj["model"], "structure")
    code, obj, _ = run_json(capsys, "sat", fol("two_elements.fol"),
                            "--bound", "1")
    assert code == 1 and obj["verdict"] == "UNSAT"
    code, obj, _ = run_json(capsys, "sat", fol("dag.fol"),
                            "--interleaved", "--budget", "3,1,200000")
    assert code == 2 and obj["verdict"] == "UNKNOWN"


def test_sat_requires_bound_or_interleaved(capsys):
    code, _, err = run(capsys, "sat", fol("total_relation.fol"))
    assert code == 3 and "bound" in err


def test_spectrum(capsys):
    code, obj, _ = run_json(capsys, "spectrum", fol("two_elements.fol"),
                            "--nmax", "4")
    assert code == 0
    validate(obj, "spectrum")
    assert obj == {"nMax": 4, "sizes": [2, 3, 4]}
    _, out, _ = run(capsys, "spectrum", fol("two_elements.fol"), "--nmax", "4")
    assert out.strip() == "2 3 4"


def test_equiv(capsys, tmp_path):
    code, obj, _ = run_json(capsys, "equiv", fol("example_a.fol"),
                            fol("example_a.fol"), "--ncap", "2")
    assert code == 0
    validate(obj, "equiv")
    assert obj["equivalent"] is True
    assert "nCap" in obj["note"] or "size" in obj["note"]
    flipped = tmp_path / "flipped.fol"
    flipped.write_text("vocab P/2;\nforall x. exists y. P(y, x)")
    code, obj, _ = run_json(capsys, "equiv", fol("total_relation.fol"),
                            str(flipped), "--ncap", "3")
    assert code == 1
    validate(obj, "equiv")
    assert obj["countermodel"]
    code, _, err = run(capsys, "equiv", fol("total_relation.fol"),
                       fol("two_elements.fol"), "--ncap", "2")
    assert code == 3 and "vocabular" in err  # vocabulary mismatch


def test_equiv_variable_named_like_a_definition(capsys, tmp_path):
    # a bound variable D0 must not share a symbol with ¬g's definition D0
    f, g = tmp_path / "f.fol", tmp_path / "g.fol"
    f.write_text("vocab P/2;\nforall D0. forall a. (P(D0,a) | D0 != a)")
    g.write_text("vocab P/2;\nforall D0. forall a. P(D0,a)")
    code, out, _ = run(capsys, "equiv", str(f), str(g), "--ncap", "3")
    assert code == 1 and out.startswith("different")


def test_ebs_oracle(capsys):
    code, obj, _ = run_json(capsys, "ebs-oracle", fol("example_c.fol"),
                            "--sigma", "Q", "--bound", "3", "--nmax", "2")
    assert code == 0
    validate(obj, "ebs")
    assert obj["pass"] is True
    code, obj, _ = run_json(capsys, "ebs-oracle", fol("two_elements.fol"),
                            "--bound", "1", "--nmax", "3")
    assert code == 1
    validate(obj, "ebs")
    assert obj["pass"] is False and obj["failModel"]


def test_find_bound(capsys):
    code, obj, _ = run_json(capsys, "find-bound", fol("total_relation.fol"),
                            "--bmax", "3", "--ncap", "2")
    assert code == 0 and obj["found"] and obj["B"] == 2
    code, obj, _ = run_json(capsys, "find-bound", fol("total_relation.fol"),
                            "--bmax", "3", "--ncap", "4")
    assert code == 1 and obj["found"] is False


def test_spectrum_to_bsr(capsys):
    code, obj, _ = run_json(capsys, "spectrum-to-bsr", fol("two_elements.fol"),
                            "--sizes", "1,3")
    assert code == 0
    assert "exists" in obj["formula"]
    code, _, err = run(capsys, "spectrum-to-bsr", fol("two_elements.fol"))
    assert code == 3  # empty request


def test_bmc(capsys):
    code, obj, _ = run_json(capsys, "bmc", fol("bmc_demo.fol"), "--k", "0")
    assert code == 1 and obj["verdict"] == "UNSAT" and obj["B"] == 3
    code, obj, _ = run_json(capsys, "bmc", fol("bmc_demo.fol"), "--k", "1")
    assert code == 0 and obj["verdict"] == "SAT" and obj["k"] == 1
    validate(obj, "sat")


def test_export_dimacs(capsys, tmp_path):
    code, _, err = run(capsys, "export-dimacs", fol("total_relation.fol"))
    assert code == 3 and "translate first" in err
    target = tmp_path / "out.cnf"
    code, _, _ = run(capsys, "export-dimacs", fol("two_elements.fol"),
                     "--output", str(target))
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[-1].endswith(" 0")
    assert "p cnf" in text


# -- plumbing --------------------------------------------------------------

def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("vocab P/1;\nexists x. P(x)"))
    code, out, _ = run(capsys, "sat", "-", "--bound", "1")
    assert code == 0 and "SAT" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fol"
    bad.write_text("vocab P/1;\nforall x P(x)")
    code, _, err = run(capsys, "sat", str(bad), "--bound", "1")
    assert code == 3 and "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent.fol")
    assert code == 3


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 3
    with pytest.raises(SystemExit) as e:
        main(["sat"])  # missing file argument
    assert e.value.code == 3


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "translate", fol("example_c.fol"),
                       "--bound", "200")
    assert code == 4 and "cap" in err


def test_json_output_deterministic(capsys):
    _, a, _ = run(capsys, "--format", "json", "classify", fol("example_b.fol"))
    _, b, _ = run(capsys, "--format", "json", "classify", fol("example_b.fol"))
    assert a == b
    obj = json.loads(a)
    assert list(obj) == sorted(obj)  # keys serialized in sorted order
