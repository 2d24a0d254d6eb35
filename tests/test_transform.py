import pytest
from hypothesis import given, settings

from conftest import (DEL_ALTERNATION, MELEX_SCALED, TELEX, WAIT,
                      fuzz_program, oracle_traces)

from tasp.cli import Pipeline, distinct_traces
from tasp.grammar import builtin_grammar, typecheck_program
from tasp.parser import parse_program
from tasp.syntax import External, Show
from tasp.transform import UnsafeRuleError, transform_program


TEL = builtin_grammar("tel")


def _transformed(text, g=TEL):
    typed = typecheck_program(parse_program(text), g)
    return transform_program(typed, g)


def _lines(program):
    return {line.strip() for line in str(program).splitlines()}


def test_traffic_light_externals():
    prog, _ = _transformed(TELEX)
    lines = _lines(prog)
    assert "#external push(l1)." in lines
    assert "#external green(L) : push(L)." in lines
    assert "#external &initial." in lines


def test_wait_fixture_external():
    prog, _ = _transformed(WAIT)
    assert "#external &eventually(green(L)) : green(L)." in _lines(prog)


def test_rules_preserved_verbatim():
    prog, _ = _transformed(TELEX)
    lines = _lines(prog)
    assert "red(L) :- not green(L), light(L)." in lines
    assert "&next(&eventually(green(L))) :- push(L)." in lines


def test_no_duplicate_externals():
    # both rules force push(l1); only one declaration must appear
    text = TELEX + "&next(push(l1)) :- &final.\n"
    prog, _ = _transformed(text)
    decls = [str(e) for e in prog.directives(External)]
    assert len(decls) == len(set(decls))


def test_externals_deduplicated_up_to_renaming_inside_arithmetic():
    prog, _ = _transformed(
        "q(1). &next(p(X+1)) :- q(X). &next(p(Y+1)) :- q(Y).")
    assert [str(e) for e in prog.directives(External)] == [
        "#external p((X+1)) : q(X)."]


def test_derived_atoms_not_external():
    prog, _ = _transformed(TELEX)
    decls = " ".join(str(e) for e in prog.directives(External))
    # red(L) and light(l1) have defining rules; they stay internal
    assert "external red" not in decls.replace("#", "")
    assert "light" not in decls


def test_show_all_default_and_signature_filtering():
    _, show_all = _transformed(TELEX)
    assert show_all
    typed = typecheck_program(parse_program(TELEX + "#show green/1.\n"), TEL)
    prog, show_all = transform_program(typed, TEL)
    assert not show_all


def test_conditional_show_becomes_marker_rule():
    typed = typecheck_program(
        parse_program("green(l1).\n#show state(L) : green(L).\n"), TEL)
    prog, show_all = transform_program(typed, TEL)
    assert not show_all
    assert any("state(L)" in str(r) and "green(L)" in str(r)
               for r in prog.rules)


def test_unsafe_rule_rejected():
    # head variable never bound by a positive body atom
    with pytest.raises(UnsafeRuleError):
        _transformed("p(X) :- not q(X).")


def test_safe_argument_binds_variable():
    # a safe operator argument provides the instantiation domain itself
    prog, _ = _transformed("a :- &eventually(p(X)).")
    assert "#external &eventually(p(X)) : p(X)." in _lines(prog)


def test_unsafe_operator_argument_rejected():
    # &not's argument is unsafe and cannot bind X
    with pytest.raises(UnsafeRuleError):
        _transformed("a :- &not(p(X)).")


def test_negated_expression_declared_external():
    prog, _ = _transformed("a :- not &next(b), b.")
    assert any("&next(b)" in str(e) for e in prog.directives(External))


@pytest.mark.parametrize("text,n,count", [
    ("{ b }. &always(b,a) :- &initial.", 1, 4),
    ("{ b }. &always(b,b) :- &initial.", 2, 6),
    ("{ b }. &eventually(&choice(&test(a),&test(a)),b) :- &initial.", 1, 2),
], ids=["always-unsafe-formula", "always-unsafe-path", "path-test"])
def test_head_atoms_in_unsafe_positions_reach_the_answer(text, n, count):
    # every atom a head expression can derive gets a kind-2 external, not
    # only those in safe argument positions
    solved = set(distinct_traces(Pipeline(text, "del").meta(n)))
    assert solved == oracle_traces(text, n)
    assert len(solved) == count


def test_atoms_under_not_in_heads_get_no_external():
    prog, _ = _transformed("&next(&not(a)) :- b. b.")
    assert not list(prog.directives(External))


def test_assignment_and_conditional_literals_through_the_pipeline():
    # Y = X + 1 binds Y; a conditional's local X is bound by its condition
    text = ("q(1). q(2). r(Y) :- q(X), Y = X + 1.\n"
            "a :- r(X) : q(X), X > 1.\nb :- r(X) : q(X).\n")
    assert [str(f) for f in Pipeline(text).ground.facts] == [
        "q(1)", "q(2)", "r(2)", "r(3)", "a"]


@pytest.mark.parametrize("text,unsafe", [
    ("a :- r(X) : q(Y).", {"X"}),
    ("p(Y) :- q(X), Y = Z + X.", {"Y", "Z"}),
])
def test_unbound_conditional_and_assignment_rejected(text, unsafe):
    with pytest.raises(UnsafeRuleError) as info:
        _transformed(text)
    assert info.value.variables == unsafe


def test_show_term_with_an_open_condition():
    # the marker rule stays a rule, so the term shows where g holds
    text = "{ g }.\n#show s : g.\n"
    traces = set(distinct_traces(Pipeline(text).meta(1)))
    assert traces == {
        ((frozenset(x), frozenset(y)), None)
        for x in ((), ("s",)) for y in ((), ("s",))}


@pytest.mark.parametrize("text,semantics", [
    (TELEX, "tel"), (WAIT, "tel"), (MELEX_SCALED, "mel"),
    (DEL_ALTERNATION, "del"),
    ("{ g }.\n#show s : g.\n#external h.\na :- h, p(X) : q(X).\n", "tel"),
], ids=["telex", "wait", "mel", "del", "shows-and-externals"])
def test_transform_idempotent(text, semantics):
    g = builtin_grammar(semantics)
    once, _ = _transformed(text, g)
    assert transform_program(once, g)[0] == once


@settings(max_examples=100, derandomize=True, deadline=None)
@given(fuzz_program(paths=True))
def test_transform_idempotent_fuzzed(text):
    g = builtin_grammar("del")
    once, _ = _transformed(text, g)
    assert transform_program(once, g)[0] == once
