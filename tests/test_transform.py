import io

import pytest
from hypothesis import given, settings

from conftest import (DEL_ALTERNATION, MELEX_SCALED, TELEX, WAIT,
                      fuzz_program, oracle_traces)

from tasp.cli import Pipeline, distinct_traces, main
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


def test_signature_show_becomes_marker_rule():
    prog, show_all = _transformed(TELEX + "#show green/1.\n#show light/0.\n")
    assert not show_all and not prog.directives(Show)
    # after every other statement, externals included
    assert str(prog).splitlines()[-2:] == [
        "__show_term(green(X0)) :- green(X0).",
        "__show_term(light) :- light."]


def test_signature_show_gives_the_traces_of_its_term_show():
    by_signature, by_term = (
        set(distinct_traces(Pipeline(TELEX + show).meta(4)))
        for show in ("#show green/1.\n", "#show green(L) : green(L).\n"))
    assert by_signature == by_term
    # green(l1) in exactly one of the states 2 to 4
    assert {states for states, _ in by_signature} == {
        tuple(frozenset({"green(l1)"} if t == k else ()) for t in range(5))
        for k in range(2, 5)}


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


@pytest.mark.parametrize("text", [
    "p(X) :- q(X+1).",
    "q(2,b). p(X) :- q(X+1,a).",
    "q(2). { r(1) }. a :- r(X) : q(X+1).",
], ids=["no-atom", "no-candidate", "condition"])
def test_variable_only_in_arithmetic_is_unsafe(text, monkeypatch, capsys):
    # arithmetic binds nothing, whatever atoms there are to match
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["solve", "-c", "n=0"], out=io.StringIO()) == 65
    assert "variables X not bound" in capsys.readouterr().err


def test_unsafe_head_element_exits_65(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("q(1). { p(X,Y) : q(X) }."))
    assert main(["solve"], out=io.StringIO()) == 65
    assert "variables Y not bound" in capsys.readouterr().err


def test_expression_in_a_conditional_body_literal_gets_an_external():
    text = "q(1). { p(1) }. a :- &next(p(X)) : q(X).\n"
    prog, _ = _transformed(text)
    assert str(prog).splitlines()[-1] == "#external &next(p(X)) : q(X)."
    # the oracle does not read conditional literals
    traces = set(distinct_traces(Pipeline(text).meta(1)))
    assert len(traces) == 4
    assert all(("a" in states[0]) == ("p(1)" in states[1])
               for states, _ in traces)


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


@pytest.mark.parametrize("text,reference", [
    ("{ a(X) : X = 1..3 }.", "{ a(1); a(2); a(3) }."),
    ("q(2). r(1). p(X) :- q(X+1), r(X).", None),
    ("q(1). r(2). &next(p(X)) :- q(Y), X = Y+1, &initial.", None),
    ("q(1). r(2). a :- q(Y), X = Y+1, not &next(r(X)).", None),
    ("{ p(1..2) }. a :- &next(p(X)) : X = 1..2.",
     "{ p(1..2) }. a :- &next(p(1)), &next(p(2))."),
    ("q(1..2). { &next(p(X)) : q(Y), X = Y+1 }.",
     "q(1..2). { &next(p(2)); &next(p(3)) }."),
], ids=["head-condition-assignment", "scan-after-binder",
        "head-expression-assignment", "negated-expression-assignment",
        "conditional-assignment", "head-expression-condition-assignment"])
def test_safe_programs_solve_as_their_reference(text, reference,
                                                monkeypatch):
    # one scheduler decides what binds a variable for the safety check,
    # the protecting externals and the join order, so an assignment binds
    # in a condition and an external's condition, and q(X+1) is matched
    # after r(X) binds X
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["solve", "-c", "n=1"], out=io.StringIO()) == 10
    solved = set(distinct_traces(Pipeline(text).meta(1)))
    assert solved == (oracle_traces(text, 1) if reference is None else
                      set(distinct_traces(Pipeline(reference).meta(1))))


def test_externals_carry_the_assignments_they_need():
    prog, _ = _transformed(
        "q(1). r(2). a :- q(Y), X = Y+1, not &next(r(X)).\n"
        "b :- q(V), W = V+1, not &next(r(W)).\n"
        "c :- q(X), r(Y), Y = X+1, &next(r(Y)).\n")
    # deduplicated up to renaming inside the comparison; r(Y) binds Y
    # itself, so the third external carries no assignment
    assert [str(e) for e in prog.directives(External)] == [
        "#external &next(r(X)) : q(Y), X = (Y+1).",
        "#external &next(r(Y)) : q(X), r(Y)."]


def test_condition_literal_that_nothing_binds_is_unsafe():
    with pytest.raises(UnsafeRuleError) as info:
        _transformed("a :- p(X) : q(X), not r(Y).")
    assert info.value.variables == {"Y"}
