import copy
import re

import pytest

from tasp.grammar import (BUILTIN_GRAMMARS, GrammarError, TheoryGrammar,
                          TypeError_, builtin_grammar, check_occurrence,
                          load_grammar, typecheck, typecheck_program)
from tasp.parser import parse_expression, parse_program
from tasp.syntax import Integer, Supremum, TheoryExpression


TEL = builtin_grammar("tel")
MEL = builtin_grammar("mel")
DEL = builtin_grammar("del")


def test_typecheck_assigns_memberships():
    e = typecheck(parse_expression("&next(green(l1))"), "tel", TEL)
    assert "tel" in e.memberships
    # plain atoms reach the predefined atom type through the subtype chain
    assert TEL.membership_path("tel", "atom") == ("tel", "atom")


def test_final_macro_expands():
    e = typecheck(parse_expression("&final"), "tel", TEL)
    assert e == TheoryExpression(
        "not", (TheoryExpression("next", (TheoryExpression("true"),)),))


def test_mel_next_macro_inserts_interval():
    e = typecheck(parse_expression("&next(push(l1))"), "mel", MEL)
    assert e.operator == "next" and len(e.args) == 2
    assert e.args[0] == TheoryExpression("i", (Integer(0), Supremum()))


def test_del_atom_macro_in_path_position():
    e = typecheck(parse_expression("&eventually(green(l1),&final)"),
                  "del", DEL)
    path = e.args[0]
    assert path.operator == "seq"
    assert path.args[0].operator == "test"


def test_unknown_operator_rejected():
    with pytest.raises(TypeError_):
        typecheck(parse_expression("&sometime(a)"), "tel", TEL)


def test_wrong_arity_rejected():
    with pytest.raises(TypeError_):
        typecheck(parse_expression("&next(a,b,c)"), "tel", TEL)


def test_subtype_membership_reflexive_transitive():
    assert "del" in DEL.closure("del")
    assert "atom" in DEL.closure("tel")
    assert "atom" in DEL.closure("del") and "tel" in DEL.closure("del")
    path = DEL.membership_path("del", "atom")
    assert path is not None and path[0] == "del" and path[-1] == "atom"


def test_cyclic_subtype_rejected():
    with pytest.raises(GrammarError):
        load_grammar("#type tel { subtypes: tel; }")


def test_cycle_through_several_types_rejected():
    with pytest.raises(GrammarError, match="cyclic subtypes involving 'b'"):
        load_grammar("#type a { subtypes: b; }\n#type b { subtypes: c; }\n"
                     "#type c { subtypes: b; }")


def test_membership_path_is_the_first_shortest_path():
    g = load_grammar("#type a { subtypes: b, c; }\n#type b { subtypes: d; }\n"
                     "#type c { subtypes: atom; }\n#type d { subtypes: atom; }\n"
                     "#type e { subtypes: b, c; }\n#type f { subtypes: e, d; }")
    assert g.closure("a") == ("a", "b", "c", "d", "atom")
    assert g.membership_path("a", "atom") == ("a", "c", "atom")
    assert g.membership_path("f", "atom") == ("f", "d", "atom")
    assert g.membership_path("f", "c") == ("f", "e", "c")
    assert g.membership_path("b", "c") is None
    assert g.membership_path("number", "number") == ("number",)


CHAIN = ("".join("#type t%d { subtypes: t%d; }\n" % (i, i + 1)
                 for i in range(1199)) + "#type t1199 { subtypes: atom; }\n")


def test_deep_subtype_chain():
    g = load_grammar(CHAIN)
    chain = tuple("t%d" % i for i in range(1200)) + ("atom",)
    assert g.closure("t0") == chain
    assert g.membership_path("t0", "atom") == chain
    assert g.membership_path("t600", "t1199") == chain[600:1200]


def test_validation_visits_each_subtype_edge_once(monkeypatch):
    # the cycle check is one search over all types, not one per type
    calls = []
    subtypes = TheoryGrammar._subtypes
    monkeypatch.setattr(TheoryGrammar, "_subtypes",
                        lambda self, t: calls.append(t) or subtypes(self, t))
    g = load_grammar(CHAIN)
    assert len(calls) <= 1201  # the 1,200 types and atom
    calls.clear()
    load_grammar("#type u { subtypes: atom; }", g)
    assert len(calls) <= 2 * 1202  # u validated with g's types


def test_builtin_grammar_built_once():
    g = builtin_grammar("del")
    assert builtin_grammar("del") is g
    types = copy.deepcopy(g.types)
    closures = {t: g.closure(t) for t in g.types}
    merged = load_grammar("#type u { expressions: &w(safe del); }", g)
    assert merged.find_spec("u", "w", 1) is not None
    assert "u" not in g.types and g.types == types
    assert {t: g.closure(t) for t in g.types} == closures


def test_base_type_declared_again_rejected():
    with pytest.raises(GrammarError):
        load_grammar(BUILTIN_GRAMMARS["tel"], TEL)


def test_grammar_extends_its_base():
    g = load_grammar("#type weight { expressions: &w(unsafe number); }", TEL)
    assert g.find_spec("weight", "w", 1) is not None
    assert g.find_spec("tel", "next", 1) is not None
    # a type may name the base's types
    g = load_grammar("#type ltl { subtypes: tel; occurrence: any; }", TEL)
    assert g.closure("ltl") == ("ltl", "tel", "atom")
    with pytest.raises(GrammarError, match="unknown subtype 'tel'"):
        load_grammar("#type ltl { subtypes: tel; occurrence: any; }")


def test_unknown_subtype_reference_rejected():
    with pytest.raises(GrammarError):
        load_grammar("#type t { subtypes: missing; }")


def test_typecheck_program_types_all_expressions():
    prog = typecheck_program(
        parse_program("&next(a) :- &initial, not &eventually(b)."), TEL)
    (rule,) = prog.rules
    assert rule.head.elements[0].atom.memberships
    for b in rule.body:
        assert b.payload.memberships


def test_macro_expansion_idempotent():
    e = typecheck(parse_expression("&final"), "tel", TEL)
    again = typecheck(e, "tel", TEL)
    assert again == e and again.memberships == e.memberships


def test_occurrence_diagnostics():
    # a type allows its occurrence's positions: an argument-only type none
    g = load_grammar("#type h { occurrence: head; expressions: &h; }\n"
                     "#type d { occurrence: directive; expressions: &d; }\n"
                     "#type arg { expressions: &arg; }")
    for line, text, expr, position in [
            (1, "&h :- &h.", "&h", "body"),
            (2, "#external &h.", "&h", "directive"),
            (3, "a :- &arg.", "&arg", "body")]:
        typed = typecheck_program(
            parse_program("\n" * (line - 1) + text), g)
        with pytest.raises(TypeError_, match=re.escape(
                "%d:1: expression %s of type %r not allowed in %s position"
                % (line, expr, expr[1:], position))):
            check_occurrence(typed, g)
    typed = typecheck_program(parse_program("&h :- a.\n#external &d."), g)
    assert check_occurrence(typed, g) is None


def test_no_expression_in_a_condition():
    # whatever its type allows elsewhere, an expression is an error in
    # the condition of a conditional literal, of a head element and of
    # an #external
    g = load_grammar("#type h { occurrence: head; expressions: &h; }\n"
                     "#type any { occurrence: any; expressions: &any; }\n"
                     "#type arg { expressions: &arg; }")
    for line, text, expr in [
            (1, "a :- b : &h.", "&h"), (2, "{ c : &any }.", "&any"),
            (2, "{ d : &arg }.", "&arg"),
            (3, "e :- &any : f, not &any.", "&any"),
            (4, "#external g : &h.", "&h")]:
        typed = typecheck_program(
            parse_program("\n" * (line - 1) + text), g)
        with pytest.raises(TypeError_, match=re.escape(
                "%d:1: expression %s of type %r not allowed in condition "
                "position" % (line, expr, expr[1:]))):
            check_occurrence(typed, g)


def test_no_expression_in_a_show_condition():
    # read as a body atom that nothing derives, it would never show c
    typed = typecheck_program(parse_program("{ b }.\n#show c : &next(b).\n"),
                              TEL)
    with pytest.raises(TypeError_, match=re.escape(
            "2:1: expression &next(b) of type 'tel' not allowed in "
            "condition position")):
        check_occurrence(typed, TEL)


_MACROS = load_grammar("""\
#type mac { subtypes: tel; macros:
  &same(F,F) := &next(F) where F : tel;
  &at(0,F) := F where F : tel;
  &deep(&next(F)) := &next(&next(F)) where F : tel; }
""", TEL)


@pytest.mark.parametrize("expression", ["&same(a,b)", "&at(1,a)",
                                        "&deep(a)"])
def test_macro_pattern_that_does_not_match(expression):
    # a placeholder bound twice to different values, a value and an
    # operator in the pattern each fail the match
    with pytest.raises(TypeError_, match=re.escape(
            "expression %s matches no declared type" % expression)):
        typecheck_program(parse_program("a :- %s." % expression), _MACROS)
    same = typecheck_program(parse_program("a :- &same(a,a)."), _MACROS)
    assert str(same) == "a :- &next(a)."


@pytest.mark.parametrize("g,text,reason", [
    (TEL, 'c :- &next("s").', "term \"s\" is not of type 'tel'"),
    (MEL, "a :- &eventually(&i(#inf,3),a).",
     "term #inf is not of type 'number'"),
], ids=["string", "inf"])
def test_term_of_the_wrong_base_type(g, text, reason):
    with pytest.raises(TypeError_, match=re.escape(
            "matches no declared type (%s" % reason)):
        typecheck_program(parse_program(text), g)
