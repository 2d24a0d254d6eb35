import copy
import pickle

import pytest

from tasp.cli import Pipeline
from tasp.ground import Grounder, compare_terms
from tasp.parser import parse_program
from tasp.reify import ReifiedDB
from tasp.syntax import (
    ARGUMENT_ONLY, ASSIGN, CHECK, INF, SCAN, SUP, TEST, BinOp, Choice,
    Comparison, ConditionalLiteral, ConstDef, Constant, Disjunction,
    ExpressionSpec, External, Function, HeadElement, Infimum, Integer,
    Literal, MacroSpec, Program, Rule, Show, String, Supremum,
    TheoryExpression, TypeSpec, UnaryMinus, Variable, components, schedule,
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


# ---------------------------------------------------------------------------
# Every syntax class: equality, hashing, repr, str, copying, pickling


_P = Function("p", (Variable("X"),))
_LIT = Literal(True, _P)
_HEAD = HeadElement(_P)
_SPEC = ExpressionSpec("next", ("tel",), ("safe",))
_MACRO = MacroSpec(TheoryExpression("n"), TheoryExpression("next"),
                   (("X", "tel"),))

#: (node, a node built apart that equals it, a node of the same class
#: that does not, str, repr).  Twins of the classes with a location
#: carry another one, which equality and hashing leave out.
NODES = [
    (Constant("a"), Constant("a"), Constant("b"), "a", "Constant('a')"),
    (Integer(1), Integer(1), Integer(2), "1", "Integer(1)"),
    (String("a"), String("a"), String("b"), '"a"', "String(value='a')"),
    (Variable("a"), Variable("a"), Variable("b"), "a",
     "Variable(name='a')"),
    (_P, Function("p", (Variable("X"),)), Function("p", ()), "p(X)",
     "Function('p', (Variable(name='X'),))"),
    (SUP, Supremum(), INF, "#sup", "Supremum()"),
    (INF, Infimum(), SUP, "#inf", "Infimum()"),
    (BinOp("+", Integer(1), Variable("X")),
     BinOp("+", Integer(1), Variable("X")),
     BinOp("-", Integer(1), Variable("X")), "(1+X)",
     "BinOp(op='+', left=Integer(1), right=Variable(name='X'))"),
    (UnaryMinus(Variable("X")), UnaryMinus(Variable("X")),
     UnaryMinus(Variable("Y")), "-X",
     "UnaryMinus(arg=Variable(name='X'))"),
    (TheoryExpression("next", (_P,)), TheoryExpression("next", (_P,), ("t",)),
     TheoryExpression("prev", (_P,)), "&next(p(X))",
     "TheoryExpression('next', (Function('p', (Variable(name='X'),)),))"),
    (Comparison("<", Variable("X"), Integer(2)),
     Comparison("<", Variable("X"), Integer(2)),
     Comparison("<=", Variable("X"), Integer(2)), "X < 2",
     "Comparison(op='<', left=Variable(name='X'), right=Integer(2))"),
    (_LIT, Literal(True, Function("p", (Variable("X"),))), Literal(False, _P),
     "p(X)", "Literal(positive=True, payload=Function('p', "
     "(Variable(name='X'),)))"),
    (ConditionalLiteral(_LIT, (_LIT,)), ConditionalLiteral(_LIT, (_LIT,)),
     ConditionalLiteral(_LIT, ()), "p(X) : p(X)",
     "ConditionalLiteral(literal=Literal(positive=True, payload=Function("
     "'p', (Variable(name='X'),))), condition=(Literal(positive=True, "
     "payload=Function('p', (Variable(name='X'),))),))"),
    (_HEAD, HeadElement(_P, ()), HeadElement(_P, (_LIT,)), "p(X)",
     "HeadElement(atom=Function('p', (Variable(name='X'),)), condition=())"),
    (Disjunction((_HEAD,)), Disjunction((_HEAD,)), Disjunction(), "p(X)",
     "Disjunction(elements=(HeadElement(atom=Function('p', (Variable("
     "name='X'),)), condition=()),))"),
    (Choice((_HEAD,)), Choice((_HEAD,)), Choice(), "{ p(X) }",
     "Choice(elements=(HeadElement(atom=Function('p', (Variable(name='X'),"
     ")), condition=()),))"),
    (Rule(Disjunction((_HEAD,)), (_LIT,), location=(1, 2)),
     Rule(Disjunction((_HEAD,)), (_LIT,), (3, 4)),
     Rule(Disjunction((_HEAD,)), location=(1, 2)), "p(X) :- p(X).",
     "Rule(head=Disjunction(elements=(HeadElement(atom=Function('p', ("
     "Variable(name='X'),)), condition=()),)), body=(Literal(positive=True,"
     " payload=Function('p', (Variable(name='X'),))),), location=(1, 2))"),
    (External(_P, (_LIT,), location=(1, 2)), External(_P, (_LIT,)),
     External(_P, location=(1, 2)), "#external p(X) : p(X).",
     "External(target=Function('p', (Variable(name='X'),)), condition=("
     "Literal(positive=True, payload=Function('p', (Variable(name='X'),))),"
     "), location=(1, 2))"),
    (Show(_P, (_LIT,), location=(1, 2)), Show(term=_P, condition=(_LIT,)),
     Show(signature=("p", 1)), "#show p(X) : p(X).",
     "Show(term=Function('p', (Variable(name='X'),)), condition=(Literal("
     "positive=True, payload=Function('p', (Variable(name='X'),))),), "
     "signature=None, location=(1, 2))"),
    (ConstDef("n", Integer(2), location=(1, 2)), ConstDef("n", Integer(2)),
     ConstDef("n", Integer(3)), "#const n=2.",
     "ConstDef(name='n', value=Integer(2), location=(1, 2))"),
    (_SPEC, ExpressionSpec("next", ("tel",), ("safe",)),
     ExpressionSpec("next", ("tel",), ("unsafe",)),
     "ExpressionSpec(operator='next', arg_types=('tel',), "
     "arg_safety=('safe',))",
     "ExpressionSpec(operator='next', arg_types=('tel',), "
     "arg_safety=('safe',))"),
    (_MACRO, MacroSpec(TheoryExpression("n"), TheoryExpression("next"),
                       (("X", "tel"),)),
     MacroSpec(TheoryExpression("n"), TheoryExpression("next")),
     "MacroSpec(pattern=TheoryExpression('n', ()), expansion="
     "TheoryExpression('next', ()), placeholders=(('X', 'tel'),))",
     "MacroSpec(pattern=TheoryExpression('n', ()), expansion="
     "TheoryExpression('next', ()), placeholders=(('X', 'tel'),))"),
    (TypeSpec("t", ("u",), (_SPEC,), "head", (_MACRO,), location=(1, 2)),
     TypeSpec("t", ("u",), (_SPEC,), "head", (_MACRO,)),
     TypeSpec("t", ("u",), (_SPEC,), ARGUMENT_ONLY, (_MACRO,)),
     "TypeSpec(name='t', subtypes=('u',), expressions=(ExpressionSpec("
     "operator='next', arg_types=('tel',), arg_safety=('safe',)),), "
     "occurrence='head', macros=(" + repr(_MACRO) + ",), location=(1, 2))",
     "TypeSpec(name='t', subtypes=('u',), expressions=(ExpressionSpec("
     "operator='next', arg_types=('tel',), arg_safety=('safe',)),), "
     "occurrence='head', macros=(" + repr(_MACRO) + ",), location=(1, 2))"),
    (Program((ConstDef("n", Integer(2)),)), Program((ConstDef("n", Integer(2)),)),
     Program(), "#const n=2.",
     "Program(statements=(ConstDef(name='n', value=Integer(2), "
     "location=None),))"),
]

#: Nodes of different classes over the same contents.
ALIKE = [String("a"), Variable("a"), Constant("a"), Disjunction(()),
         Choice(()), Program(()), Disjunction((_HEAD,)), Choice((_HEAD,)),
         Literal(True, _P), HeadElement(_P), UnaryMinus(Variable("a")),
         SUP, INF]


@pytest.mark.parametrize("node,twin,other,text,shown", NODES,
                         ids=[type(n[0]).__name__ for n in NODES])
def test_every_syntax_class(node, twin, other, text, shown):
    assert twin is not node
    assert node == twin and not node != twin and hash(node) == hash(twin)
    assert {node: 1}[twin] == 1 and len({node, twin}) == 1
    assert node != other and not node == other and len({node, other}) == 2
    assert str(node) == text and repr(node) == shown
    for copied in (copy.copy(node), copy.deepcopy(node),
                   pickle.loads(pickle.dumps(node)),
                   pickle.loads(pickle.dumps(node, 0))):
        assert type(copied) is type(node) and copied == node
        assert hash(copied) == hash(node)
        assert repr(copied) == repr(node) and str(copied) == str(node)
    field = shown[shown.index("(") + 1:].split("=")[0]
    if field.isidentifier():  # the nodes, not the terms
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        assert repr(node) == shown


def test_nodes_of_different_classes_differ():
    for i, a in enumerate(ALIKE):
        for j, b in enumerate(ALIKE):
            assert (a == b) == (i == j), (a, b)
            assert (a != b) == (i != j), (a, b)
    assert String("a") != Variable("a") and String("a") != Constant("a")
    assert Disjunction(()) != Choice(()) and Program(()) != Disjunction(())
    assert Integer(1) == 1 and hash(Integer(1)) == hash(1)
    assert SUP == Supremum() and INF == Infimum() and SUP != INF


def test_locations_are_kept_but_not_compared():
    at, elsewhere = (Rule(Disjunction(), (_LIT,), location=loc)
                     for loc in ((1, 2), (5, 6)))
    assert at == elsewhere and hash(at) == hash(elsewhere)
    assert at.location == (1, 2) and elsewhere.location == (5, 6)
    assert Rule(Disjunction()).location is None
    assert Rule(Disjunction()).body == ()
    parsed = parse_program("a.\n  b :- a.")
    assert [r.location for r in parsed.rules] == [(1, 1), (2, 3)]
    assert parsed == parse_program("a. b :- a.")


def test_ground_programs_and_reified_databases_compare_by_fields():
    text = "{ a }. b :- a. #external c."
    first, again = (Pipeline(text) for _ in range(2))
    assert first.ground == again.ground and first.db == again.db
    assert first.ground.index  # a cached reading leaves equality alone
    assert first.ground == again.ground
    other = Pipeline("{ a }.")
    assert first.ground != other.ground and first.db != other.db
    with pytest.raises(TypeError):
        hash(first.ground)
    with pytest.raises(TypeError):
        hash(first.db)
    assert ReifiedDB() == ReifiedDB() and ReifiedDB().rules == []
    assert ReifiedDB().rules is not ReifiedDB().rules
    assert ReifiedDB(formulas=[1]) != ReifiedDB()
    assert ReifiedDB(formulas=[1]).formulas == [1]
