import copy
import pickle

import pytest

from tasp.ground import Grounder, compare_terms
from tasp.parser import parse_program
from tasp.syntax import (
    ASSIGN, CHECK, INF, SCAN, SUP, TEST, Constant, Function, Integer, Literal,
    String, TheoryExpression, UnaryMinus, Variable, components, schedule,
    substitute, with_args,
)

NESTED = Function("p", (Constant("a"), Function("q", (Integer(-1), String("s"))),
                        Function("r", ()), Integer(0)))


def _facts(text):
    return [str(f) for f in Grounder(parse_program(text)).ground().facts]


def test_terms_of_different_classes_differ():
    terms = [Integer(1), Constant("1"), String("1"), Function("1", ()),
             TheoryExpression("1"), Constant("a"), Function("a", ()),
             TheoryExpression("a"), Function("f", (Integer(1),)),
             TheoryExpression("f", (Integer(1),))]
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            assert (a == b) == (i == j), (a, b)
            assert (a != b) == (i != j), (a, b)
    assert len(set(terms)) == len(terms)
    assert len(dict.fromkeys(terms)) == len(terms)


def test_equal_terms_hash_alike():
    again = Function("p", (Constant("a"), Function("q", (Integer(-1), String("s"))),
                           Function("r", ()), Integer(0)))
    assert again == NESTED and hash(again) == hash(NESTED)
    assert {NESTED: 1}[again] == 1
    assert hash(Integer(7)) == hash(Integer(7))
    assert hash(Constant("x")) == hash(Constant("x"))


def test_a_term_equals_the_plain_value_it_wraps():
    assert Integer(3) == 3 and Constant("a") == "a"
    assert Function("p", (Integer(1),)) == ("p", (1,))


def test_accessors_give_plain_values():
    assert type(Integer(5).value) is int and Integer(5).value == 5
    assert type(Constant("a").name) is str and Constant("a").name == "a"
    assert NESTED.name == "p" and NESTED.args[1].args[0] == Integer(-1)


def test_str_and_repr_of_nested_terms():
    assert str(NESTED) == 'p(a,q(-1,"s"),r(),0)'
    assert repr(Integer(-1)) == "Integer(-1)"
    assert repr(Constant("a")) == "Constant('a')"
    assert repr(Function("q", (Integer(1), Constant("b")))) == \
        "Function('q', (Integer(1), Constant('b')))"
    assert eval(repr(NESTED)) == NESTED
    # a function is a tuple: %-formatting must wrap it
    assert "%s." % (NESTED,) == 'p(a,q(-1,"s"),r(),0).'
    assert str(Literal(False, NESTED)) == 'not p(a,q(-1,"s"),r(),0)'
    assert str(UnaryMinus(Function("f", (Integer(2),)))) == "-f(2)"


def test_copy_and_pickle_keep_nested_functions():
    for twin in (copy.copy(NESTED), copy.deepcopy(NESTED),
                 pickle.loads(pickle.dumps(NESTED)),
                 pickle.loads(pickle.dumps(NESTED, 0))):
        assert twin == NESTED and hash(twin) == hash(NESTED)
        assert type(twin.args[1]) is Function
        assert type(twin.args[3]) is Integer
        assert str(twin) == str(NESTED)


TYPED = TheoryExpression("next", (
    TheoryExpression("eventually", (Function("p", (Variable("X"),)),),
                     ("tel",)),), ("tel",))


def test_a_theory_expression_is_a_function_hashed_in_c():
    assert TheoryExpression.__hash__ is tuple.__hash__
    assert TheoryExpression.__eq__ is tuple.__eq__
    assert isinstance(TYPED, Function) and TYPED.name == "&next"
    assert TYPED.operator == "next"


def test_memberships_are_ignored_by_equality_and_hash():
    untyped = TheoryExpression("next", (TheoryExpression(
        "eventually", (Function("p", (Variable("X"),)),)),))
    assert untyped.memberships == () and TYPED.memberships == ("tel",)
    assert untyped == TYPED and hash(untyped) == hash(TYPED)
    assert {untyped: 1}[TYPED] == 1


def test_rebuilding_keeps_the_class_and_memberships():
    bound = substitute(TYPED, lambda x: Constant("a")
                       if isinstance(x, Variable) else None)
    rebuilt = with_args(TYPED, (Constant("b"),))
    for twin in (bound, rebuilt, copy.copy(TYPED), copy.deepcopy(TYPED),
                 pickle.loads(pickle.dumps(TYPED)),
                 pickle.loads(pickle.dumps(TYPED, 0))):
        assert type(twin) is TheoryExpression
        assert twin.memberships == ("tel",)
    assert str(bound) == "&next(&eventually(p(a)))"
    assert bound.args[0].memberships == ("tel",)
    assert str(rebuilt) == "&next(b)"
    assert copy.deepcopy(TYPED) == TYPED
    assert pickle.loads(pickle.dumps(TYPED)).args[0].memberships == ("tel",)


def test_str_and_repr_of_theory_expressions():
    assert str(TheoryExpression("initial")) == "&initial"
    assert str(TYPED) == "&next(&eventually(p(X)))"
    assert str(TheoryExpression("always", (
        TheoryExpression("star", (TheoryExpression("step"),)),
        TheoryExpression("final")))) == "&always(&star(&step),&final)"
    assert "%s." % (TYPED,) == "&next(&eventually(p(X)))."
    assert repr(TheoryExpression("initial")) == \
        "TheoryExpression('initial', ())"
    assert eval(repr(TYPED)) == TYPED


@pytest.mark.parametrize("text,facts", [
    ("p(0). q(X,Y) :- p(X), p(Y), X = Y.", ["p(0)", "q(0,0)"]),
    ("p(X) :- X = 0..1.", ["p(0)", "p(1)"]),
    ("p(0). q(X) :- p(X), X < 1.", ["p(0)", "q(0)"]),
])
def test_zero_is_a_value(text, facts):
    assert _facts(text) == facts


def test_integers_compare_as_ints_and_before_other_terms():
    assert compare_terms("<", Integer(-2), Integer(1))
    assert compare_terms(">=", Integer(1), Integer(1))
    assert not compare_terms("!=", Integer(0), Integer(0))
    order = [INF, Integer(-5), Integer(10), Constant("a"), String("a"),
             Function("f", (Integer(1),)), SUP]
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            assert compare_terms("<", a, b) and compare_terms(">", b, a)


def test_components_complete_after_what_they_reach():
    # 0 -> 1 <-> 2 -> 3, 3 loops on itself, 4 -> 0 alone
    succ = [[1], [2], [3, 1], [3], [0]]
    assert components(succ) == [
        ([3], True), ([1, 2], True), ([0], False), ([4], False)]
    assert components([]) == []


def test_components_of_a_long_cycle_without_recursion():
    # one cycle through 5,000 nodes, numbered against the search order
    n = 5000
    succ = [[(v - 1) % n] for v in range(n)]
    assert components(succ) == [(list(range(n)), True)]
    assert components([[v + 1] for v in range(n - 1)] + [[]]) == [
        ([v], False) for v in reversed(range(n))]


def test_schedule_scans_an_atom_once_its_parts_outside_arithmetic_bind():
    body = parse_program(
        "h :- q(X+1), Y = X*2, not s(Y), r(X), X < 3, t(Z+Y).").rules[0].body
    pending = [(i, b.positive, b.payload) for i, b in enumerate(body)]
    steps, bound = schedule(pending, frozenset())
    # q(X+1) waits for r(X); Y = X*2 then assigns Y; t(Z+Y) never binds Z
    assert [(kind, i) for kind, i, *_ in steps] == [
        (SCAN, 3), (TEST, 0), (ASSIGN, 1), (TEST, 2), (CHECK, 4)]
    assert [sorted(before) for *_, before in steps] == [
        [], ["X"], ["X"], ["X", "Y"], ["X", "Y"]]
    assert steps[2][4] == ("Y", body[1].payload.right)
    assert bound == {"X", "Y"} and [i for i, *_ in pending] == [5]
