import pytest
from hypothesis import given, settings, strategies as st

from ebsedp.errors import ParseError
from ebsedp.parse import (parse_formula_text, parse_problem, render,
                          render_formula)
from ebsedp.syntax import (And, Atom, Const, Eq, Exists, Forall, Iff, Implies,
                           Not, Or, Var, Vocabulary)

VOC = Vocabulary((("P", 2), ("Q", 1)), ("c",))


def test_parse_problem_basic():
    p = parse_problem("vocab P/2, Q/1; const c;\nforall x. exists y. "
                      "(P(x, y) & Q(c))")
    assert p.vocabulary == VOC
    assert p.formula == Forall("x", Exists("y", And((
        Atom("P", (Var("x"), Var("y"))), Atom("Q", (Const("c"),))))))


def test_comments_and_whitespace():
    p = parse_problem("# leading comment\nvocab P/1;  # trailing\n"
                      "forall x. P(x)  # done\n")
    assert p.formula == Forall("x", Atom("P", (Var("x"),)))


def test_precedence():
    # <-> binds loosest, then ->, then |, then &, then !
    p = parse_problem("vocab P/1, Q/1;\n"
                      "forall x. (!P(x) & Q(x) | P(x) -> Q(x) <-> P(x))")
    x = Var("x")
    body = Iff(Implies(Or((And((Not(Atom("P", (x,))), Atom("Q", (x,)))),
                           Atom("P", (x,)))),
                       Atom("Q", (x,))),
               Atom("P", (x,)))
    assert p.formula == Forall("x", body)


def test_right_assoc_implies():
    f = parse_formula_text("Q(x) -> Q(x) -> Q(x)", VOC, ("x",))
    assert isinstance(f, Implies) and isinstance(f.right, Implies)


def test_equality_and_inequality():
    f = parse_formula_text("x = c & !(x = y)", VOC, ("x", "y"))
    assert f == And((Eq(Var("x"), Const("c")),
                     Not(Eq(Var("x"), Var("y")))))


def test_free_directive():
    p = parse_problem("vocab P/1;\n@free x;\nP(x)")
    assert p.declared_free == ("x",)


def test_directives_collected():
    p = parse_problem("vocab P/1;\n@statevars x;\n@init P(x);\n"
                      "@trans P(x_next);\n@prop P(x);\n")
    assert set(p.directives) == {"statevars", "init", "trans", "prop"}
    assert p.formula is None  # transition systems carry no top-level formula


def test_noeq_directive():
    with pytest.raises(ParseError) as e:
        parse_problem("vocab P/1;\n@noeq;\nexists x. exists y. !(x = y)")
    assert "noeq" in str(e.value)


@pytest.mark.parametrize("text,fragment", [
    ("vocab P/1\nforall x. P(x)", "expected"),          # missing ;
    ("vocab P/1; forall x. P(y)", "unbound variable"),
    ("vocab P/1; P(x, y)", "arity"),
    ("vocab P/1; forall x. R(x)", "undeclared"),
    ("vocab P/1;", "missing formula"),
    ("vocab P/1; forall x. (P(x)", "expected"),
    ("vocab P/1, P/2; forall x. P(x)", "duplicate"),
])
def test_parse_errors_have_location(text, fragment):
    with pytest.raises(ParseError) as e:
        parse_problem(text)
    msg = str(e.value)
    assert fragment in msg
    assert "line" in msg


def _formula_over_p1(text):
    return parse_formula_text(text, Vocabulary((("P", 1),)), ("x",))


@pytest.mark.parametrize("parse,text,line,column,fragment", [
    (parse_problem, "vocab P/1; forall x. P(x) $", 1, 27, "unexpected character"),
    (parse_problem, "vocab P/x; P", 1, 9, "expected arity"),
    (parse_problem, "vocab 1/2; P", 1, 7, "expected predicate name"),
    (parse_problem, "vocab P/1; const 3; P", 1, 18, "expected constant name"),
    (parse_problem, "vocab P/1; @init P(x)", 1, 22, "unterminated directive"),
    (parse_problem, "vocab P/1; @3;", 1, 13, "expected directive name"),
    (parse_problem, "vocab P/1; P(x) P(x)", 1, 17, "unexpected trailing input"),
    (parse_problem, "vocab P/1; forall forall. P(x)", 1, 19, "expected variable name"),
    (parse_problem, "vocab P/1; forall x. P(x) & )", 1, 29, "expected formula, got ')'"),
    (parse_problem, "vocab P/1; forall x. P(forall)", 1, 24, "expected term"),
    (parse_problem, "vocab P/1; P(P)", 1, 14, "predicate 'P' used as term"),
    (parse_problem, "vocab P/1; const c; c", 1, 21, "constant 'c' used as formula"),
    (parse_problem, "vocab P/2; P", 1, 12,
     "arity mismatch: P expects 2 arguments, got 0"),
    (_formula_over_p1, "P(y)", 1, 3, "unbound variable 'y'"),
    (_formula_over_p1, "P(x) P(x)", 1, 6, "unexpected trailing input 'P'"),
])
def test_parse_error_positions(parse, text, line, column, fragment):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.column) == (line, column)
    assert fragment in e.value.message


def test_render_round_trip_example():
    src = ("vocab P/2, Q/1;\nconst c;\n"
           "exists x. forall y. ((P(x, y) | Q(c)) & !(y = c))")
    p = parse_problem(src)
    again = parse_problem(render(p))
    assert again.vocabulary == p.vocabulary
    assert again.formula == p.formula


def test_render_round_trip_directives():
    src = ("vocab P/1, R/0; const c, d;\nR | P(x) | P(d)\n@free x;\n"
           "@statevars x;\n@init P(x);\n@trans P(x_next);\n@prop P(x);\n")
    p = parse_problem(src)
    text = render(p)
    assert text == ("vocab P/1, R/0; const c, d;\n(R | P(x) | P(d))\n@free x;\n"
                    "@init P ( x );\n@prop P ( x );\n@statevars x;\n"
                    "@trans P ( x_next );\n")
    assert parse_problem(text) == p


# -- random ASTs survive render -> parse -----------------------------------

def _ast(depth):
    terms = st.one_of(st.sampled_from([Var("x"), Var("y"), Var("z")]),
                      st.just(Const("c")))
    atoms = st.one_of(
        st.tuples(terms, terms).map(lambda t: Atom("P", t)),
        terms.map(lambda t: Atom("Q", (t,))),
        st.tuples(terms, terms).map(lambda t: Eq(*t)))
    names = st.sampled_from(["x", "y", "z"])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            st.lists(sub, min_size=2, max_size=3).map(lambda a: And(tuple(a))),
            st.lists(sub, min_size=2, max_size=3).map(lambda a: Or(tuple(a))),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: Iff(*p)),
            st.tuples(names, sub).map(lambda p: Forall(*p)),
            st.tuples(names, sub).map(lambda p: Exists(*p))),
        max_leaves=depth)


@settings(max_examples=120, deadline=None)
@given(f=_ast(10))
def test_render_parse_round_trip(f):
    text = render_formula(f)
    assert parse_formula_text(text, VOC, ("x", "y", "z")) == f
