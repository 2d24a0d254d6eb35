import copy
import logging

import pytest

from tasp.cli import Pipeline
from tasp.grammar import (GrammarError, TheoryGrammar, TypeError_,
                          builtin_grammar, check_occurrence, load_grammar,
                          typecheck, typecheck_program, expand_macros)
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
    assert DEL.is_subtype("del", "del")
    assert DEL.is_subtype("atom", "tel")
    assert DEL.is_subtype("atom", "del") or DEL.is_subtype("tel", "del")
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
    g.union(load_grammar("#type u { subtypes: atom; }"))
    assert len(calls) <= 2 * 1202  # u validated, then the union


def test_builtin_grammar_built_once():
    g = builtin_grammar("del")
    assert builtin_grammar("del") is g
    types = copy.deepcopy(g.types)
    closures = {t: g.closure(t) for t in g.types}
    merged = g.union(load_grammar("#type u { expressions: &w(safe del); }"))
    assert merged.find_spec("u", "w", 1) is not None
    assert "u" not in g.types and g.types == types
    assert {t: g.closure(t) for t in g.types} == closures


def test_union_duplicate_type_rejected():
    with pytest.raises(GrammarError):
        TEL.union(builtin_grammar("tel"))


def test_union_composes():
    extra = load_grammar("#type weight { expressions: &w(unsafe number); }")
    g = TEL.union(extra)
    assert g.find_spec("weight", "w", 1) is not None
    assert g.find_spec("tel", "next", 1) is not None


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
    assert expand_macros(e, TEL, "tel") == e


def test_occurrence_diagnostics(caplog):
    g = load_grammar("#type h { occurrence: head; expressions: &h; }\n"
                     "#type arg { expressions: &arg; }")
    text = "&h :- &h.\n#external &h.\na :- &arg.\n"
    typed = typecheck_program(parse_program(text), g)
    assert check_occurrence(typed, g) == [
        "1:1: expression &h of type 'h' not allowed in body position",
        "2:1: expression &h of type 'h' not allowed in directive position",
        "3:1: expression &arg of type 'arg' may only occur as an argument"]
    with caplog.at_level(logging.WARNING, logger="tasp"):
        Pipeline(text, grammar=g).typed
    assert [r.getMessage() for r in caplog.records] \
        == check_occurrence(typed, g)
