import pytest
from hypothesis import given, settings

from conftest import DEL_ALTERNATION, MELEX_SCALED, TELEX, WAIT, fuzz_program

from tasp.cli import Pipeline
from tasp.reify import (ReifyError, emit_reified_text, isomorphic,
                        parse_reified, reify)

# The published reified form of
#   red(l1) :- not green(l1), light(l1).
# with green/light declared external (ids are clingo's; the isomorphism
# check absorbs renumbering).
GOLDEN_15 = """\
rule(disjunction(0),normal(0)).
atom_tuple(0).        atom_tuple(0,3).
literal_tuple(0).     literal_tuple(0,-2).  literal_tuple(0,1).
output(light(l1),1).  literal_tuple(1).     literal_tuple(1,1).
output(green(l1),2).  literal_tuple(2).     literal_tuple(2,2).
output(red(l1),3).    literal_tuple(3).     literal_tuple(3,3).
"""

FIXTURE = """\
red(l1) :- not green(l1), light(l1).
#external green(l1).
#external light(l1).
"""


def _db(text, semantics="tel"):
    return Pipeline(text, semantics).db


def test_golden_fixture_isomorphic():
    db = _db(FIXTURE)
    golden = parse_reified(GOLDEN_15)
    assert isomorphic(db, golden, core_only=True)
    assert len(golden.core_facts()) == 15
    assert len(db.core_facts()) == 15


def test_emit_parse_round_trip():
    db = _db(TELEX)
    again = parse_reified(emit_reified_text(db))
    assert isomorphic(db, again)
    assert emit_reified_text(again) == emit_reified_text(db)


_SHOWS_AND_EXTERNALS = ("{ g }.\n#show s : g.\n#show g/0.\n#external h.\n"
                        "a :- h, not &next(g).\n")


@pytest.mark.parametrize("text,semantics", [
    (MELEX_SCALED, "mel"), (DEL_ALTERNATION, "del"), (WAIT, "tel"),
    (_SHOWS_AND_EXTERNALS, "tel"),
], ids=["mel", "del", "wait", "shows-and-externals"])
def test_emit_parse_round_trip_per_logic(text, semantics):
    db = _db(text, semantics)
    assert isomorphic(parse_reified(emit_reified_text(db)), db)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(fuzz_program(paths=True))
def test_emit_parse_round_trip_fuzzed(text):
    db = _db(text, "del")
    assert isomorphic(parse_reified(emit_reified_text(db)), db)


def test_non_isomorphic_detected():
    assert not isomorphic(_db(FIXTURE), _db("a :- not b. #external b."),
                          core_only=True)


def test_facts_have_conditionless_output():
    db = _db("a.")
    ((sym, tup),) = [o for o in db.outputs if str(o[0]) == "a"]
    assert db.literal_tuples[tup] == ()


def test_negative_literal_encoding():
    db = _db(FIXTURE)
    ((kind, h, b),) = db.rules
    assert kind == "disjunction"
    lits = db.literal_tuples[b]
    assert sorted(x > 0 for x in lits) == [False, True]


def test_externals_reified_with_literal_tuple():
    db = _db(FIXTURE)
    for sym, tup in db.externals:
        (lit,) = db.literal_tuples[tup]
        assert lit > 0


def test_formula_facts_cover_membership_chain():
    db = _db(TELEX)
    formulas = {(t, str(e)) for t, e in db.formulas}
    assert ("tel", "next(eventually(green(l1)))") in formulas
    assert ("tel", "eventually(green(l1))") in formulas
    assert ("tel", "green(l1)") in formulas
    assert ("atom", "green(l1)") in formulas


def test_show_atoms_under_show_all():
    db = _db(TELEX)
    shown = {str(sym) for _, sym, _ in db.shows}
    assert {"red(l1)", "green(l1)", "push(l1)", "light(l1)"} <= shown


def test_show_signature_filter():
    db = _db(TELEX + "#show green/1.\n")
    shown = {str(sym) for _, sym, _ in db.shows}
    assert shown == {"green(l1)"}


def test_untyped_expression_rejected():
    from tasp.grammar import builtin_grammar
    from tasp.ground import Grounder
    from tasp.parser import parse_program
    # grammar attached but typecheck skipped: memberships are missing
    gp = Grounder(parse_program("a :- &next(b). #external &next(b).\n"
                                "#external b."),
                  grammar=builtin_grammar("tel")).ground()
    with pytest.raises(ReifyError):
        reify(gp, True)


def test_parse_reified_referential_integrity():
    with pytest.raises(ReifyError):
        parse_reified("rule(disjunction(0),normal(7)).\natom_tuple(0).")
