import io
import logging
import os
import subprocess
import sys
import types

import pytest

from conftest import DEL_ALTERNATION, oracle_traces

import tasp
from tasp.cli import Pipeline, distinct_traces, main
from tasp.grammar import builtin_grammar, typecheck_program
from tasp.ground import (
    Grounder, GroundingError, GroundingLimitError, _components, values)
from tasp.parser import parse_program
from tasp.syntax import Constant, Function, Integer, TheoryExpression, walk
from tasp.transform import transform_program


def _ground(text, constants=None, semantics=None):
    if semantics:
        g = builtin_grammar(semantics)
        typed = typecheck_program(parse_program(text), g)
        prog, _ = transform_program(typed, g)
        return Grounder(prog, constants or {}, g).ground()
    return Grounder(parse_program(text), constants or {}).ground()


def _atom_strs(gp):
    return {str(a) for a in gp.symbol_table}


def test_facts_collected():
    gp = _ground("a. b. c :- a.")
    assert {str(f) for f in gp.facts} == {"a", "b", "c"}
    assert gp.rules == []  # everything simplified away


def test_interval_facts_expand():
    gp = _ground("time(0..2).")
    assert {str(f) for f in gp.facts} == {"time(0)", "time(1)", "time(2)"}


def test_join_and_arithmetic():
    gp = _ground("p(1..2). q(X+1) :- p(X).")
    assert {"q(2)", "q(3)"} <= {str(f) for f in gp.facts}


def test_rule_joins_again_when_its_input_grows():
    # r and q read atoms that only later rules, or q itself, derive
    gp = _ground("r(X) :- q(X). q(X) :- p(X). q(X+1) :- q(X), X < 6. "
                 "p(0). p(X+2) :- p(X), X < 4.")
    assert {str(f) for f in gp.facts if str(f).startswith("r")} == {
        "r(%d)" % i for i in range(7)}


def test_comparison_filters():
    gp = _ground("p(1..3). q(X) :- p(X), X < 3.")
    facts = {str(f) for f in gp.facts}
    assert "q(1)" in facts and "q(2)" in facts and "q(3)" not in facts


def test_assignment_comparison_binds():
    gp = _ground("p(X) :- X = 1..2.")
    assert {"p(1)", "p(2)"} <= {str(f) for f in gp.facts}


def test_constant_substitution():
    gp = _ground("p(n).", constants={"n": Integer(4)})
    assert {str(f) for f in gp.facts} == {"p(4)"}


def test_const_directive():
    gp = _ground("#const n = 3. p(n).")
    assert {str(f) for f in gp.facts} == {"p(3)"}


def test_const_values_are_bound_into_the_program():
    # a value is substituted before grounding: its arithmetic is evaluated
    # and its interval expanded where it is used
    gp = _ground("#const n = 3. #const m = n+1. p(m). q(X) :- p(X), X < n*2.")
    assert [str(f) for f in gp.facts] == ["p(4)", "q(4)"]
    gp = _ground("#const k = 1..2. p(k).")
    assert [str(f) for f in gp.facts] == ["p(1)", "p(2)"]


def test_scan_over_a_predicate_without_atoms_evaluates_nothing():
    # r has no atoms, so X+1 is never evaluated for X = a
    gp = _ground("p(a). q(X,Y) :- p(X), r(X+1,Y).")
    assert [str(f) for f in gp.facts] == ["p(a)"] and gp.rules == []


def test_negative_body_respected():
    gp = _ground("a. b :- not a.")
    assert "b" not in {str(f) for f in gp.facts}
    assert gp.rules == []  # rule killed: negated fact


def test_positive_fact_removed_from_body():
    gp = _ground("a. b :- a, not c. { c }.")
    (rule,) = [r for r in gp.rules if str(r.head[0]) == "b"]
    # "a" was simplified away; only the negated non-fact remains
    assert all(str(atom) != "a" for _, atom in rule.body)


def test_externals_exempt_from_simplification():
    gp = _ground("red(l1) :- not green(l1), light(l1).\n"
                 "#external green(l1).\n#external light(l1).")
    (rule,) = gp.rules
    assert len(rule.body) == 2  # neither external literal was removed
    assert {str(a) for a in gp.externals} == {"green(l1)", "light(l1)"}


def test_atom_table_in_first_occurrence_order():
    # per rule its heads, then its positive body, then its negative body,
    # each atom where it first occurs; the body keeps its order and its
    # repeated literals
    gp = _ground("#external q. #external s. #external r. { u }.\n"
                 "p :- not q, r, not s, r, not q.\n"
                 "t; u :- not s, p, u, not t.")
    assert [str(a) for a in gp.atoms] == ["u", "p", "r", "q", "s", "t"]
    assert gp.id_rules == [(True, (0,), ()),
                           (False, (1,), (~3, 2, ~4, 2, ~3)),
                           (False, (5, 0), (~4, 1, 0, ~5))]
    assert gp.index == {a: i for i, a in enumerate(gp.atoms)}
    assert str(gp).splitlines()[:3] == [
        "{ u }.", "p :- not q; r; not s; r; not q.",
        "t; u :- not s; p; u; not t."]
    assert [str(a) for a in gp.symbol_table] == ["q", "s", "r", "u", "p", "t"]


def test_underivable_positive_body_kills_rule():
    gp = _ground("b :- a.")
    assert gp.rules == [] and not gp.facts


def test_choice_rule_grounds():
    gp = _ground("p(1..2). { q(X) } :- p(X).")
    kinds = {r.head_kind for r in gp.rules}
    assert kinds == {"choice"}
    assert len(gp.rules) == 2


def test_disjunctive_conditioned_head():
    gp = _ground("p(1..2). q(X) : p(X) :- r. { r }.")
    (rule,) = [r for r in gp.rules if r.head_kind == "disjunction"
               and len(r.head) == 2]
    assert {str(h) for h in rule.head} == {"q(1)", "q(2)"}


def test_expression_externals_instantiated_over_condition():
    gp = _ground("green(l1). wait(L) :- not &eventually(green(L)), green(L).",
                 semantics="tel")
    assert "&eventually(green(l1))" in {str(a) for a in gp.externals}


def test_expression_body_literal_joins_ground_expressions():
    text = "p(1). p(2). q(X) :- &eventually(p(X)).\n"
    gp = _ground(text, semantics="tel")
    assert [str(r) for r in gp.rules] == ["q(1) :- &eventually(p(1)).",
                                          "q(2) :- &eventually(p(2))."]
    assert set(distinct_traces(Pipeline(text).meta(1))) \
        == oracle_traces(text, 1)


def test_expand_term_interval():
    term = parse_program("p(1..3).").rules[0].head.elements[0].atom.args[0]
    assert [t.value for t in values(term, {})] == [1, 2, 3]


def test_stage_names_are_modules():
    import tasp.ground as ground_module
    import tasp.reify as reify_module
    assert isinstance(ground_module, types.ModuleType)
    assert isinstance(reify_module, types.ModuleType)
    assert tasp.ground is ground_module and tasp.reify is reify_module


def test_term_depth_bound():
    with pytest.raises(GroundingError):
        _ground("p(0). p(f(X)) :- p(X).")


# ---------------------------------------------------------------------------
# Simplification: outputs of the multi-pass re-scan the worklist replaced


def _listing(gp):
    return ([str(f) for f in gp.facts], [str(r) for r in gp.rules],
            [str(e) for e in gp.externals], [str(a) for a in gp.symbol_table])


def test_unsupported_positive_loop_is_kept():
    gp = _ground("a :- b. b :- a. a :- c, not d. c :- not d. d. "
                 "e :- not a. f :- a.")
    assert _listing(gp) == (
        ["d"], ["a :- b.", "b :- a.", "e :- not a.", "f :- a."], [],
        ["d", "a", "b", "e", "f"])


def test_negated_atom_without_head_is_removed():
    gp = _ground("a :- not x. b :- a, not y, c. { c }. d :- x.")
    assert _listing(gp) == (
        ["a"], ["b :- c.", "{ c }."], [], ["a", "b", "c"])


def test_choice_rule_with_fact_element():
    gp = _ground("a. { a; b; c } :- d. d. { a }.")
    assert _listing(gp) == (
        ["a", "d"], ["{ b; c }."], [], ["a", "d", "b", "c"])


def test_external_in_body_is_kept():
    gp = _ground("#external e. a :- e. b :- not e. c :- a, not b. "
                 "d :- e, f. e :- d.")
    assert _listing(gp) == (
        [], ["a :- e.", "b :- not e.", "c :- a; not b."], ["e"],
        ["e", "a", "b", "c"])


def test_fact_chains_promote_one_layer_per_round():
    # q is written in layer order, p backwards; each round promotes one
    # layer of both, in rule order
    lines = ["q0."] + ["q%d :- q%d." % (i + 1, i) for i in range(21)]
    lines += ["p%d :- p%d." % (i + 1, i) for i in reversed(range(21))]
    gp = _ground("\n".join(lines + ["p0."]))
    order = [x for i in range(22) for x in ("q%d" % i, "p%d" % i)]
    assert _listing(gp) == (order, [], [], order)


@pytest.mark.parametrize("text,seeds,listing", [
    # a seed given twice is one fact, first in order
    ("c :- a. d :- b, not a. e :- a, f. { f }.", "a a b",
     (["a", "b", "c"], ["e :- f.", "{ f }."], [], ["a", "b", "c", "e", "f"])),
    # a seed a rule also derives: that rule goes, the fact is not repeated
    ("a :- b. { b }. c :- a. d. d :- c.", "a d",
     (["a", "d", "c"], ["{ b }."], [], ["a", "d", "c", "b"])),
    # an external stays in a head and in a body; its rule that became a
    # fact stays a rule
    ("#external e. #external g. e :- a. a. b :- e, a. { c } :- e. g :- c. "
     "d :- not g, a.", "",
     (["a"], ["e.", "b :- e.", "{ c } :- e.", "g :- c.", "d :- not g."],
      ["e", "g"], ["a", "e", "g", "b", "c", "d"])),
    # a choice whose elements all become facts is dropped
    ("{ a; b } :- c. c. a :- c. b.", "",
     (["c", "b", "a"], [], [], ["c", "b", "a"])),
    # a disjunction holding a fact is satisfied
    ("a; b :- c. { c }. b. d; e. e :- b.", "",
     (["b", "e"], ["{ c }."], [], ["b", "e", "c"])),
    # negative body atoms that become underivable over two rounds
    ("x :- y. a :- not x. { z }. u :- z, not v. v :- w.", "",
     (["a"], ["{ z }.", "u :- z."], [], ["a", "z", "u"])),
    # a chain from a seed, one fact per round
    ("d :- c, not e. c :- b. b :- a. e :- f. f :- g.", "a",
     (["a", "b", "c", "d"], [], [], ["a", "b", "c", "d"])),
    # a positive loop that lost its outside support is kept
    ("a :- b. b :- a. a :- c. c :- not d. d.", "",
     (["d"], ["a :- b.", "b :- a."], [], ["d", "a", "b"])),
], ids=["duplicate-seeds", "derived-seed", "externals", "choice-of-facts",
        "disjunction-with-fact", "underivable-negatives", "chain",
        "positive-loop"])
def test_simplification_edge_cases(text, seeds, listing):
    gp = Grounder(parse_program(text), {},
                  facts=[Constant(s) for s in seeds.split()]).ground()
    assert _listing(gp) == listing


# ---------------------------------------------------------------------------
# The join builds each instance: listings recorded before the body was
# assembled from the join's own atoms


@pytest.mark.parametrize("text,semantics,listing", [
    # a comparison written before the atoms that bind it
    ("p(1..3). q(X,Y) :- X < Y, p(X), p(Y), not r(X,Y). { r(1,2) }.", None,
     (["p(1)", "p(2)", "p(3)", "q(1,3)", "q(2,3)"],
      ["q(1,2) :- not r(1,2).", "{ r(1,2) }."], [],
      ["p(1)", "p(2)", "p(3)", "q(1,3)", "q(2,3)", "q(1,2)", "r(1,2)"])),
    # V = t assigns every value of an interval
    ("q(1). q(3). p(X,V) :- q(X), V = X..X+1, not s(V). { s(2) }.", None,
     (["q(1)", "q(3)", "p(1,1)", "p(3,3)", "p(3,4)"],
      ["p(1,2) :- not s(2).", "{ s(2) }."], [],
      ["q(1)", "q(3)", "p(1,1)", "p(3,3)", "p(3,4)", "p(1,2)", "s(2)"])),
    # arithmetic inside a matched pattern
    ("r(1..3). s(2,a). s(4,b). { t(3) }. q(X,Y) :- r(X), s(X+1,Y), not t(X).",
     None,
     (["r(1)", "r(2)", "r(3)", "s(2,a)", "s(4,b)", "q(1,a)"],
      ["{ t(3) }.", "q(3,b) :- not t(3)."], [],
      ["r(1)", "r(2)", "r(3)", "s(2,a)", "s(4,b)", "q(1,a)", "t(3)",
       "q(3,b)"])),
    # division by zero drops the instance, in an atom, a comparison and a
    # negative literal
    ("p(0..2). s(3). s(6). r(X) :- p(X), s(6/X). u(X) :- p(X), 6/X > 3. "
     "{ w(3) }. v(X) :- p(X), not w(6/X).", None,
     (["p(0)", "p(1)", "p(2)", "s(3)", "s(6)", "r(1)", "r(2)", "u(1)",
       "v(1)"],
      ["{ w(3) }.", "v(2) :- not w(3)."], [],
      ["p(0)", "p(1)", "p(2)", "s(3)", "s(6)", "r(1)", "r(2)", "u(1)", "v(1)",
       "w(3)", "v(2)"])),
    # a comparison in a condition, and as the literal of a conditional
    ("p(1..3). { q(1..3) }. a :- q(X) : p(X), X < 3. b :- X < 4 : p(X); q(1). "
     "c :- X < 3 : p(X); q(2).", None,
     (["p(1)", "p(2)", "p(3)"],
      ["{ q(1) }.", "{ q(2) }.", "{ q(3) }.", "a :- q(1); q(2).", "b :- q(1)."],
      [], ["p(1)", "p(2)", "p(3)", "q(1)", "q(2)", "q(3)", "a", "b"])),
    # expression body literals, negative and positive
    ("green(l1). light(l1). light(l2). "
     "wait(L) :- not &eventually(green(L)), light(L). "
     "go(L) :- &next(green(L)), light(L).", "tel",
     (["green(l1)", "light(l1)", "light(l2)"],
      ["wait(l1) :- not &eventually(green(l1)).",
       "wait(l2) :- not &eventually(green(l2)).",
       "go(l1) :- &next(green(l1))."],
      ["&eventually(green(l1))", "&eventually(green(l2))", "&next(green(l1))"],
      ["green(l1)", "light(l1)", "light(l2)", "&eventually(green(l1))",
       "&eventually(green(l2))", "&next(green(l1))", "wait(l1)", "wait(l2)",
       "go(l1)"])),
    # nested expressions, each built with its grammar types
    ("green(l1). light(l1). light(l2). "
     "go(L) :- &next(&eventually(green(L))), light(L). "
     "stay(L) :- light(L), not &eventually(&next(green(L))).", "tel",
     (["green(l1)", "light(l1)", "light(l2)"],
      ["go(l1) :- &next(&eventually(green(l1))).",
       "stay(l1) :- not &eventually(&next(green(l1))).",
       "stay(l2) :- not &eventually(&next(green(l2)))."],
      ["&next(&eventually(green(l1)))", "&eventually(&next(green(l1)))",
       "&eventually(&next(green(l2)))"],
      ["green(l1)", "light(l1)", "light(l2)",
       "&next(&eventually(green(l1)))", "&eventually(&next(green(l1)))",
       "&eventually(&next(green(l2)))", "go(l1)", "stay(l1)", "stay(l2)"])),
    # * and \; modulo by zero drops the instance, in a head and in a
    # negative literal
    ("p(0..2). q(X*3,7\\X) :- p(X). { r(0..2) }. s(X) :- p(X), not r(5\\X).",
     None,
     (["p(0)", "p(1)", "p(2)", "q(3,0)", "q(6,1)"],
      ["{ r(0) }.", "{ r(1) }.", "{ r(2) }.", "s(1) :- not r(0).",
       "s(2) :- not r(1)."], [],
      ["p(0)", "p(1)", "p(2)", "q(3,0)", "q(6,1)", "r(0)", "r(1)", "r(2)",
       "s(1)", "s(2)"])),
    # unary minus in a head, a comparison and a negative literal
    ("p(1..2). q(-X) :- p(X). r(X) :- p(X), -X < -1. { s(-2) }. "
     "t(X) :- p(X), not s(-X).", None,
     (["p(1)", "p(2)", "q(-1)", "q(-2)", "r(2)", "t(1)"],
      ["{ s(-2) }.", "t(2) :- not s(-2)."], [],
      ["p(1)", "p(2)", "q(-1)", "q(-2)", "r(2)", "t(1)", "s(-2)", "t(2)"])),
    # nested functions with arithmetic: built, tested and matched
    ("p(1..2). q(f(g(X+1))) :- p(X). r(X) :- p(X), q(f(g(X+1))). "
     "s(Y) :- q(f(g(Y))).", None,
     (["p(1)", "p(2)", "q(f(g(2)))", "q(f(g(3)))", "r(1)", "r(2)", "s(2)",
       "s(3)"], [], [],
      ["p(1)", "p(2)", "q(f(g(2)))", "q(f(g(3)))", "r(1)", "r(2)", "s(2)",
       "s(3)"])),
    # = against an interval, on either side and inside a function
    ("p(1..4). q(X) :- p(X), X = 2..3. r(X) :- p(X), 3..9 = X. "
     "s(X) :- p(X), f(X) = f(1..2). { t(1..4) }. "
     "u(X) :- p(X), not t(X), X = 1..2.", None,
     (["p(1)", "p(2)", "p(3)", "p(4)", "q(2)", "q(3)", "r(3)", "r(4)",
       "s(1)", "s(2)"],
      ["{ t(1) }.", "{ t(2) }.", "{ t(3) }.", "{ t(4) }.",
       "u(1) :- not t(1).", "u(2) :- not t(2)."], [],
      ["p(1)", "p(2)", "p(3)", "p(4)", "q(2)", "q(3)", "r(3)", "r(4)",
       "s(1)", "s(2)", "t(1)", "t(2)", "t(3)", "t(4)", "u(1)", "u(2)"])),
    # a scan whose only bound part is the functor of an argument
    ("q(f(1),a). q(g(1),b). q(f(2),c). p(Z,Y) :- q(f(Z),Y).", None,
     (["q(f(1),a)", "q(g(1),b)", "q(f(2),c)", "p(1,a)", "p(2,c)"], [], [],
      ["q(f(1),a)", "q(g(1),b)", "q(f(2),c)", "p(1,a)", "p(2,c)"])),
    # a scan with a bound argument and the functor of another
    ("r(1). q(1,f(2),a). q(1,g(2),b). p(Y) :- r(X), q(X,f(Z),Y).", None,
     (["r(1)", "q(1,f(2),a)", "q(1,g(2),b)", "p(a)"], [], [],
      ["r(1)", "q(1,f(2),a)", "q(1,g(2),b)", "p(a)"])),
])
def test_join_listing(text, semantics, listing):
    gp = _ground(text, semantics=semantics)
    assert _listing(gp) == listing
    # reify reads the grammar types of every expression it meets
    assert all(x.memberships for a in gp.symbol_table for x in walk(a)
               if isinstance(x, TheoryExpression))


@pytest.mark.parametrize("text,facts", [
    ("p(a). p(1). q(X+1) :- p(X).", ["p(a)", "p(1)", "q(2)"]),
    ("p(a). p(1). q(X) :- p(X), X+1 > 1.", ["p(a)", "p(1)", "q(1)"]),
])
def test_undefined_arithmetic_drops_the_instance(text, facts, caplog):
    # as in gringo, a+1 is undefined, like a division by zero
    with caplog.at_level(logging.WARNING, logger="tasp.ground"):
        assert [str(f) for f in _ground(text).facts] == facts
    assert [r.getMessage() for r in caplog.records] == [
        "operation undefined: a+1, dropping instance"]


def test_integer_bound():
    # 2^63-1 is the largest integer arithmetic may compute
    gp = _ground("p(4611686018427387903). q(X*2+1) :- p(X).")
    assert "q(9223372036854775807)" in [str(f) for f in gp.facts]
    for text in ("p(9223372036854775807). q(X+1) :- p(X).",
                 "p(-9223372036854775807). q(X-1) :- p(X).",
                 "p(2). { p(X*X) } :- p(X)."):
        with pytest.raises(GroundingLimitError, match="integer bound"):
            _ground(text)


def test_negating_a_symbol_is_an_error():
    with pytest.raises(GroundingError, match="cannot negate a"):
        _ground("p(a). q(-X) :- p(X).")


def test_rule_growing_its_indexed_input_during_its_join():
    # r and t derive atoms that later steps of their own join look up by
    # a bound argument; recorded before the joins read argument indexes
    gp = _ground("q(1,2). q(2,3). { q(3,1) }. r(0,1). "
                 "r(Y,Z) :- r(X,Y), q(Y,Z). "
                 "t(X,Y) :- q(X,Y). t(X,Z) :- t(X,Y), t(Y,Z).")
    facts = ["q(1,2)", "q(2,3)", "r(0,1)", "r(1,2)", "t(1,2)", "t(2,3)",
             "r(2,3)", "t(1,3)"]
    assert _listing(gp) == (facts, [
        "{ q(3,1) }.", "r(3,1) :- q(3,1).", "t(3,1) :- q(3,1).",
        "t(1,1) :- t(2,1).", "t(2,1) :- t(3,1).", "t(2,2) :- t(3,2).",
        "t(3,2) :- t(3,1).", "t(3,3) :- t(3,1).", "t(3,1) :- t(3,1); t(1,1).",
        "t(1,1) :- t(3,1).", "t(2,2) :- t(2,1).", "t(2,1) :- t(2,1); t(1,1).",
        "t(3,3) :- t(3,2).", "t(3,1) :- t(3,2); t(2,1).",
        "t(3,2) :- t(3,2); t(2,2).", "t(3,1) :- t(3,3); t(3,1).",
        "t(3,2) :- t(3,3); t(3,2).", "t(3,3) :- t(3,3); t(3,3).",
        "t(1,1) :- t(1,1); t(1,1).", "t(2,1) :- t(2,2); t(2,1).",
        "t(2,2) :- t(2,2); t(2,2)."], [], facts + [
        "q(3,1)", "r(3,1)", "t(3,1)", "t(1,1)", "t(2,1)", "t(2,2)", "t(3,2)",
        "t(3,3)"])


def test_bound_interval_comparison_is_membership():
    gp = _ground("q(1). q(5). p(X) :- q(X), X = 1..3.")
    assert [str(f) for f in gp.facts] == ["q(1)", "q(5)", "p(1)"]
    gp = _ground("q(1). q(5). p(X) :- q(X), not X = 1..3.")
    assert [str(f) for f in gp.facts] == ["q(1)", "q(5)", "p(5)"]


@pytest.mark.parametrize("text,ground", [
    # no value is in 3..1, so X = 3..1 is false and not X = 3..1 true
    ("q(1). q(5). p(X) :- q(X), X = 3..1.", "q(1).\nq(5)."),
    ("q(1). q(5). p(X) :- q(X), not X = 3..1.", "q(1).\nq(5).\np(1).\np(5)."),
    ("q(1). p :- not X = 3..1 : q(X).", "q(1).\np."),
])
def test_empty_interval_comparison(text, ground):
    assert str(_ground(text)) == ground


def test_empty_interval_comparison_fails_in_a_conditional():
    # q(1) holds, so the condition needs 1 = 3..1, which is false
    gp = _ground("q(1). p :- X = 3..1 : q(X).")
    assert [str(f) for f in gp.facts] == ["q(1)"] and gp.rules == []
    # not X = 3..1 holds, so each instance of p needs the underivable s
    gp = _ground("q(1). q(5). p(X) :- q(X), s : not X = 3..1.")
    assert str(gp) == "q(1).\nq(5)."


@pytest.mark.parametrize("lit", ["X < 3..1", "not X != 3..1", "X <= 1..3"])
def test_interval_with_an_order_comparison_is_rejected(lit):
    with pytest.raises(GroundingError, match="interval with"):
        _ground("q(1). p :- q(X), %s." % lit)


def test_external_negative_condition_literal_is_not_evaluated():
    gp = _ground("#external a(X) : q(X), not r(X/0). q(1).")
    assert [str(e) for e in gp.externals] == ["a(1)"]
    with pytest.raises(GroundingError, match="unbound not r"):
        _ground("#external a(X) : q(X), not r(Y). q(1).")


def test_external_targets_keep_their_first_seen_order_across_rounds():
    # each external is joined once q is complete, in program order; a
    # target keeps the place it was first seen in
    gp = _ground("q(1). q(X+1) :- q(X), X < 3. "
                 "#external e(X) : q(X). #external f(X) : q(X).")
    assert _listing(gp) == (
        ["q(1)", "q(2)", "q(3)"], [],
        ["e(1)", "e(2)", "e(3)", "f(1)", "f(2)", "f(3)"],
        ["q(1)", "q(2)", "q(3)", "e(1)", "e(2)", "e(3)", "f(1)", "f(2)",
         "f(3)"])


@pytest.mark.parametrize("text", [
    # a conditional body: p(2) is underivable, so a is false
    "q(1). q(2). p(1). a :- p(X) : q(X). { b(1..2) }. "
    "c :- b(Y) : q(Y), not a.",
    # a conditioned head is a disjunction once expanded
    "q(1). q(2). p(X) : q(X). { b(1..2) }. a :- b(X) : p(X).",
])
def test_condition_over_a_possibly_false_derivable_atom_is_rejected(text):
    with pytest.raises(GroundingError, match="non-domain predicate"):
        _ground(text)


def test_negative_condition_literal_filters_expansion():
    facts = "q(1). q(2). r(1). { p(1); p(2) }. "
    gp = _ground(facts + "a :- p(X) : q(X), not r(X).")
    assert "a :- p(2)." in [str(r) for r in gp.rules]
    gp = _ground("q(1). q(2). r(1). { s(X) : q(X), not r(X) }.")
    assert [str(r) for r in gp.rules] == ["{ s(2) }."]
    # r is derived by a rule written after the one that reads it
    gp = _ground("q(1). q(2). { p(1); p(2) }. a :- p(X) : q(X), not r(X). "
                 "r(X) :- q(X), X < 2.")
    assert "a :- p(2)." in [str(r) for r in gp.rules]


def test_ground_logs_counters(caplog):
    with caplog.at_level(logging.DEBUG, logger="tasp"):
        _ground("p(1..3). q(X) :- p(X). r(X) :- q(X), not s(X).")
    line = caplog.records[-1].getMessage()
    for counter in ("3 components", "rounds", "3 joins", "joins skipped",
                    "9 instances", "simplify rounds", "rules dropped"):
        assert counter in line, line


def test_rules_join_in_dependency_order():
    # r reads q and q reads p, both defined later: each rule is joined
    # once, after the rules it reads
    g = Grounder(parse_program("r(X) :- q(X). q(X) :- p(X). p(1..3)."))
    assert [str(f) for f in g.ground().facts] == [
        "p(1)", "p(2)", "p(3)", "q(1)", "q(2)", "q(3)", "r(1)", "r(2)",
        "r(3)"]
    assert g.counters["joins"] == 3 and g.counters["joins_skipped"] == 0


def test_components_come_in_dependency_order_earliest_job_first():
    # job 0 reads job 2's head, 3 and 4 read each other and 3 reads 0,
    # 5 reads itself; of the ready components the earliest job's is next
    deps = [[2], [], [], [0, 4], [3], [5]]
    assert _components(deps) == [
        ((1,), False), ((2,), False), ((0,), False), ((3, 4), True),
        ((5,), True)]


def test_reverse_chain_grounds_in_one_join_per_rule():
    # each link reads the next rule's head; components are found and
    # ordered without recursion, at the default recursion limit
    n = 1500
    text = "{ p0 }. " + " ".join(
        "p%d :- p%d." % (i, i - 1) for i in range(n, 0, -1))
    assert sys.getrecursionlimit() <= 1000
    g = Grounder(parse_program(text))
    assert len(g.ground().rules) == n + 1
    assert g.counters["components"] == g.counters["joins"] == n + 1
    assert g.counters["joins_skipped"] == 0


def test_del_meta_grounding_builds_each_instance_about_once(caplog):
    # DEL_ALTERNATION n=6 keeps 195 rules and 84 facts; DEL_SCHEMA's
    # closure is recursive, so its rules are joined in rounds and build
    # some again.
    # 1,082 were built when every rule whose inputs grew was joined again
    # in each round of the whole program.
    with caplog.at_level(logging.DEBUG, logger="tasp.ground"):
        Pipeline(DEL_ALTERNATION, "del").meta(6)
    line = caplog.records[-1].getMessage()
    assert "565 instances" in line, line


_PICKLE_CHECK = """\
import pickle, sys
from tasp.syntax import Constant, Function, Integer
f = Function("p", (Constant("a"), Function("q", (Integer(1), Constant("b")))))
if sys.argv[1] == "dump":
    hash(f)  # fills the cache of f and of its argument
    sys.stdout.buffer.write(pickle.dumps(f))
else:
    g = pickle.loads(sys.stdin.buffer.read())
    assert g == f and hash(g) == hash(f) and g in {f} and f in {g}
    assert g.args[1] in {f.args[1]}
"""


def test_function_hash_not_pickled_across_hash_seeds():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tasp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def run(mode, seed, data=b""):
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_CHECK, mode], input=data,
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
            timeout=60)

    dumped = run("dump", "1")
    assert dumped.returncode == 0, dumped.stderr
    loaded = run("load", "2", dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr


def test_not_equal_comparison():
    gp = _ground("q(1). q(2). q(a). p(X) :- q(X), X != 1.")
    assert [str(f) for f in gp.facts] == ["q(1)", "q(2)", "q(a)", "p(2)",
                                          "p(a)"]


def test_variable_repeated_in_an_atom():
    gp = _ground("q(1,1). q(1,2). { q(2,2) }. p(X) :- q(X,X).")
    assert _listing(gp) == (
        ["q(1,1)", "q(1,2)", "p(1)"], ["{ q(2,2) }.", "p(2) :- q(2,2)."], [],
        ["q(1,1)", "q(1,2)", "p(1)", "q(2,2)", "p(2)"])


@pytest.mark.parametrize("text,facts", [
    ("p :- 1..3 = 3..5.", ["p"]),
    ("p :- 1..2 = 3..4.", []),
    ("p :- 1..3 = f(2).", []),
    ("p :- 2 = 1..3. q :- not 1..3 = 4.", ["p", "q"]),
])
def test_interval_equality_reads_bounds(text, facts):
    assert [str(f) for f in _ground(text).facts] == facts


def test_rule_bound_only_by_a_nested_expression():
    text = "q(1). q(2). { p(1) }. a(X) :- &next(&next(q(X))).\n"
    traces = set(distinct_traces(Pipeline(text).meta(2)))
    assert traces == oracle_traces(text, 2) and len(traces) == 8


@pytest.mark.parametrize("text", [
    "q(2,1). p(X) :- q(X+1,X).",
    "q(f(2),1). p(X) :- q(f(X+1),X).",
    "q(f(2,1)). p(X) :- q(f(X+1,X)).",
], ids=["argument", "nested", "inside-one-function"])
def test_arithmetic_is_matched_after_the_parts_that_bind_it(text,
                                                            monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = io.StringIO()
    assert main(["solve", "-c", "n=0"], out=out) == 10
    assert "p(1)@0" in out.getvalue().split()


def test_arithmetic_no_part_binds_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("q(2). p(X) :- q(X+1)."))
    assert main(["solve", "-c", "n=0"], out=io.StringIO()) == 65
    assert "(X+1)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Term semantics: what each program grounds to, or the error it raises, and
# the warnings in order


def _facts(*facts):
    """The listing of a program that grounds to these facts alone."""
    return list(facts), [], [], list(facts)


@pytest.mark.parametrize("text,outcome,warnings", [
    # intervals: bounds, position, and order comparisons
    ("p(1..a).", (GroundingError, "interval bounds must be integers"), []),
    ("p(1). q(X) :- p(X), r(X+(1..2)).",
     (GroundingError, "interval in non-expandable position"), []),
    ("p(1). q(X+(1..2)) :- p(X).",
     (GroundingError, "interval in non-expandable position"), []),
    ("p(1). q(X) :- p(X), 1..2 < 3.",
     (GroundingError, "interval with '<' comparison"), []),
    ("p(1..2000000).",
     (GroundingLimitError, "derivable-atom bound exceeded"), []),
    ("q(1). #external e(X..X+1) : q(X).",
     (["q(1)"], [], ["e(1)", "e(2)"], ["q(1)", "e(1)", "e(2)"]), []),
    ("q(1..2). p(X,Y) :- q(X), Y = X..X+1.",
     _facts("q(1)", "q(2)", "p(1,1)", "p(1,2)", "p(2,2)", "p(2,3)"), []),
    # negation
    ("q(-a).", (GroundingError, "cannot negate a"), []),
    # the order of terms, and = as membership
    ("p(f(a)). q :- p(X), X < 1.", _facts("p(f(a))"), []),
    ('p("s"). q(X) :- p(X), X = 1..2.', _facts('p("s")'), []),
    ("q(1). p :- q(X), X = f(1..1000000000).", _facts("q(1)"), []),
    ("q(1). p(X) :- q(X), X = 1..2000000000.", _facts("q(1)", "p(1)"), []),
    ("p :- 1..3 = 3..1000000000.", _facts("p"), []),
    ("q(1). p(X) :- q(X), f(1..2) = f(X).", _facts("q(1)", "p(1)"), []),
    ("q(a). p(X) :- q(X), f(X,1..3) = f(a,2).", _facts("q(a)", "p(a)"), []),
    ("q(1). q(5). p(X) :- q(X), not X = 3..1.",
     _facts("q(1)", "q(5)", "p(1)", "p(5)"), []),
    ("q(1). p :- not X = 3..1 : q(X).", _facts("q(1)", "p"), []),
    # arithmetic matched after the parts that bind it, from the last atom
    ("q(2,1). p(X) :- q(X+1,X).", _facts("q(2,1)", "p(1)"), []),
    ("q(2,1). q(3,a). q(f(4),b). p(X) :- q(X+1,X).",
     _facts("q(2,1)", "q(3,a)", "q(f(4),b)", "p(1)"),
     ["operation undefined: b+1, dropping instance",
      "operation undefined: a+1, dropping instance"]),
    # / and \ round as Python's // and %
    ("p(-7). q(X/2) :- p(X).", _facts("p(-7)", "q(-4)"), []),
    ("p(-7). q(X\\2) :- p(X).", _facts("p(-7)", "q(1)"), []),
    # undefined arithmetic drops the instance, in arguments left to right
    ("p(0..2). q(6/X,a+X) :- p(X).", _facts("p(0)", "p(1)", "p(2)"),
     ["division by zero, dropping instance",
      "operation undefined: a+1, dropping instance",
      "operation undefined: a+2, dropping instance"]),
    ("q(1). p :- q(X), X+a = 1..3.", _facts("q(1)"),
     ["operation undefined: 1+a, dropping instance"]),
    ("q(0). p :- q(X), 1/X < 3.", _facts("q(0)"),
     ["division by zero, dropping instance"]),
    ("q(0). p :- q(X), not 1/X < 3.", _facts("q(0)"),
     ["division by zero, dropping instance"]),
    # unsafe rules, which only the transform rejects before grounding
    ("q(1). p(X) :- q(1).", (GroundingError, "unbound variable X"), []),
    ("q(1). p :- q(X), X < Y.",
     (GroundingError, "cannot instantiate body: unbound X < Y"), []),
])
def test_term_semantics(text, outcome, warnings, caplog):
    with caplog.at_level(logging.WARNING, logger="tasp.ground"):
        try:
            got = _listing(_ground(text))
        except GroundingError as exc:
            got = type(exc), str(exc)
    assert got == outcome
    assert [r.getMessage() for r in caplog.records] == warnings
