import pytest
from hypothesis import given, settings, strategies as st

from tasp.parser import ParseError, parse_expression, parse_program
from tasp.syntax import (BinOp, Choice, Comparison, ConditionalLiteral,
                         ConstDef, Constant, Disjunction, External, Function,
                         HeadElement, Infimum, Integer, Literal, Program, Rule,
                         Show, String, Supremum, TheoryExpression, UnaryMinus,
                         Variable, substitute, walk_expression)


def test_fact():
    prog = parse_program("light(l1).")
    (rule,) = prog.rules
    assert rule.head.elements[0].atom == Function("light", (Constant("l1"),))
    assert rule.body == ()


def test_rule_with_negation():
    prog = parse_program("red(L) :- not green(L), light(L).")
    (rule,) = prog.rules
    assert len(rule.body) == 2
    assert rule.body[0] == Literal(False, Function("green", (Variable("L"),)))
    assert rule.body[1].positive


def test_constraint():
    (rule,) = parse_program(":- a, not b.").rules
    assert rule.is_constraint


def test_choice_rule():
    (rule,) = parse_program("{ a; b } :- c.").rules
    assert isinstance(rule.head, Choice)
    assert len(rule.head.elements) == 2


def test_disjunction():
    (rule,) = parse_program("a; b :- c.").rules
    assert isinstance(rule.head, Disjunction)
    assert [str(e.atom) for e in rule.head.elements] == ["a", "b"]


def test_theory_expression():
    e = parse_expression("&next(&eventually(green(L)))")
    assert e == TheoryExpression(
        "next", (TheoryExpression(
            "eventually", (Function("green", (Variable("L"),)),)),))


def test_nullary_expression():
    assert parse_expression("&initial") == TheoryExpression("initial")


def test_interval_with_supremum():
    e = parse_expression("&i(0,#sup)")
    assert e.args == (Integer(0), Supremum())


def test_comparison_and_interval_term():
    (rule,) = parse_program("p(X) :- X = 1..3, X < 3.").rules
    assert isinstance(rule.body[0].payload, Comparison)
    assert rule.body[1].payload.op == "<"


def test_external_directive():
    prog = parse_program("#external green(L) : push(L).")
    (ext,) = prog.directives(External)
    assert str(ext) == "#external green(L) : push(L)."


def test_show_and_const_directives():
    prog = parse_program("#show green/1.\n#const n = 2.")
    (show,) = prog.directives(Show)
    assert show.signature == ("green", 1)
    (const,) = prog.directives(ConstDef)
    assert const.name == "n" and const.value == Integer(2)


def test_conditional_head():
    (rule,) = parse_program("p(X) : q(X) :- r.").rules
    el = rule.head.elements[0]
    assert el.condition and str(el.condition[0]) == "q(X)"


def test_anonymous_variables_numbered_per_parse():
    assert parse_program("q :- p(_).") == parse_program("q :- p(_).")


def test_substitute_keeps_unchanged_nodes():
    e = parse_expression("&next(p(X,f(1),(X+1),-Y))")
    assert substitute(e, lambda x: None) is e
    y_to_z = lambda x: Variable("Z") if x == Variable("Y") else None
    typed = TheoryExpression("next", e.args, "tel", ("tel",))
    out = substitute(typed, y_to_z)
    assert str(out) == "&next(p(X,f(1),(X+1),-Z))"
    assert (out.assigned_type, out.memberships) == ("tel", ("tel",))
    assert all(a is b for a, b in zip(out.args[0].args[:3],
                                      e.args[0].args[:3]))


def test_walk_expression_visits_each_node_once():
    e = parse_expression("&next(p(a,(X+1)))")
    assert [str(x) for x in walk_expression(e)] == [
        "&next(p(a,(X+1)))", "p(a,(X+1))", "a", "(X+1)", "X", "1"]
    assert [str(x) for x in walk_expression(e.args[0])] == [
        "p(a,(X+1))", "a", "(X+1)", "X", "1"]


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as exc:
        parse_program("a :- b")
    assert "2:1" in str(exc.value) or "1:" in str(exc.value)


def test_parse_error_garbage():
    with pytest.raises(ParseError):
        parse_program("p(.")


#: Over-deep inputs, one per shape: nested arguments, nested theory
#: expressions, nested parentheses and a chain of binary operators.
OVER_DEEP = {
    "arguments": "p(%sa%s)." % ("f(" * 2000, ")" * 2000),
    "expressions": "a :- %sb%s." % ("&next(" * 400, ")" * 400),
    "parentheses": "p(%s1%s)." % ("(" * 300, ")" * 300),
    "operators": "p(%s)." % "+".join(["1"] * 3000),
}


@pytest.mark.parametrize("shape", sorted(OVER_DEEP))
def test_over_deep_input_is_a_parse_error(shape):
    with pytest.raises(ParseError, match="nesting deeper than 100"):
        parse_program(OVER_DEEP[shape])


def test_nesting_bound_is_inclusive():
    # p( and 99 f( make 100 levels
    (rule,) = parse_program("p(%sa%s)." % ("f(" * 99, ")" * 99)).statements
    assert str(rule).count("f(") == 99
    with pytest.raises(ParseError):
        parse_program("p(%sa%s)." % ("f(" * 100, ")" * 100))


def test_empty_program():
    assert parse_program("").statements == ()
    assert parse_program("% only a comment\n").statements == ()


# ---------------------------------------------------------------------------
# Round-trip property


_names = st.sampled_from(["a", "b", "green", "push", "l1"])


def _terms(depth):
    if depth == 0:
        return st.one_of(
            _names.map(Constant),
            st.integers(-99, 99).map(Integer),
            st.sampled_from(["X", "Y"]).map(Variable))
    sub = _terms(depth - 1)
    return st.one_of(
        _terms(0),
        st.tuples(_names, st.lists(sub, min_size=1, max_size=2)).map(
            lambda t: Function(t[0], tuple(t[1]))))


_atoms = st.one_of(
    _names.map(Constant),
    st.tuples(_names, st.lists(_terms(1), min_size=1, max_size=2)).map(
        lambda t: Function(t[0], tuple(t[1]))))


def _expressions(depth):
    if depth == 0:
        return _atoms
    sub = _expressions(depth - 1)
    return st.one_of(
        _atoms,
        st.tuples(st.sampled_from(["next", "eventually", "not"]), sub).map(
            lambda t: TheoryExpression(t[0], (t[1],))),
        st.just(TheoryExpression("initial")))


@given(_expressions(3))
def test_expression_round_trip(e):
    assert parse_expression(str(e)) == e


@given(st.lists(_expressions(2), min_size=1, max_size=3))
def test_rule_round_trip(payloads):
    rule = Rule(Disjunction((parse_program("h.").rules[0].head.elements[0],)),
                tuple(Literal(True, p) for p in payloads))
    (reparsed,) = parse_program(str(rule)).rules
    assert reparsed == rule


def _arithmetic(sub):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/", "\\", ".."]), sub,
                  sub).map(lambda t: BinOp(*t)),
        st.one_of(st.sampled_from(["X", "Y"]).map(Variable),
                  st.builds(BinOp, st.just("+"), sub, sub)).map(UnaryMinus))


#: Every kind of term: constants, numbers, strings, #sup, #inf,
#: variables, functions, arithmetic, intervals and unary minus.
_all_terms = st.recursive(
    st.one_of(_terms(0), st.sampled_from(['"s"', 'a\\"b', "c\\\\d"]).map(
        lambda s: String(s.replace('\\"', '"').replace("\\\\", "\\"))),
        st.just(Supremum()), st.just(Infimum())),
    lambda sub: st.one_of(
        _arithmetic(sub),
        st.tuples(_names, st.lists(sub, min_size=1, max_size=2)).map(
            lambda t: Function(t[0], tuple(t[1])))),
    max_leaves=4)

_comparisons = st.builds(
    Comparison, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    _all_terms, _all_terms)

_literals = st.builds(Literal, st.booleans(),
                      st.one_of(_expressions(1), _comparisons))

_conditions = st.lists(_literals, max_size=2).map(tuple)

_head_elements = st.builds(HeadElement, _expressions(1), _conditions)


@st.composite
def _rules(draw):
    body = tuple(draw(st.lists(st.one_of(
        _literals, st.builds(ConditionalLiteral, _literals, st.lists(
            _literals, min_size=1, max_size=2).map(tuple))),
        max_size=3)))
    kind = draw(st.sampled_from([Disjunction, Choice]))
    elements = tuple(draw(st.lists(
        _head_elements, min_size=0 if body and kind is Disjunction else 1,
        max_size=2)))
    return Rule(kind(elements), body)


_statements = st.one_of(
    _rules(),
    st.builds(External, _expressions(1), _conditions),
    st.builds(Show, _all_terms, _conditions),
    st.builds(Show, signature=st.tuples(_names, st.integers(0, 3))),
    st.builds(ConstDef, _names, _all_terms))


@settings(derandomize=True, deadline=None)
@given(st.lists(_statements, max_size=4))
def test_program_round_trip(statements):
    # printing a program and parsing it again gives the same AST
    program = Program(tuple(statements))
    assert parse_program(str(program)) == program
