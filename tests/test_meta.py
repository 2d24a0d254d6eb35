import hashlib
import os
import subprocess
import sys
from collections import Counter
from itertools import islice

import pytest

from conftest import DEL_ALTERNATION, MELEX_SCALED, TELEX, oracle_traces

import tasp
from tasp.cli import Pipeline, distinct_traces
from tasp.meta import MetaError, build, default_max_time, extract_model
from tasp.reify import ReifiedDB
from tasp.solver import models as models_of, solve
from tasp.syntax import Constant, TheoryExpression


def test_empty_db_single_empty_model_per_horizon():
    for n in range(3):
        mp = build(ReifiedDB(), n)
        models = solve(mp.program)
        assert len(models) == 1
        from tasp.meta import extract_model
        states, tau = extract_model(mp, models[0].atoms)
        assert states == tuple(frozenset() for _ in range(n + 1))
        assert tau is None


def test_traffic_light_model_counts():
    p = Pipeline(TELEX)
    assert [len(set(distinct_traces(p.meta(n)))) for n in range(4)] \
        == [0, 0, 1, 2]


def test_traffic_light_trace():
    ((states, tau),) = set(distinct_traces(Pipeline(TELEX).meta(2)))
    assert tau is None
    assert [sorted(s) for s in states] == [
        ["light(l1)", "red(l1)"],
        ["light(l1)", "push(l1)", "red(l1)"],
        ["green(l1)", "light(l1)"],
    ]


def test_mel_tau_reported_and_bounded():
    models = set(distinct_traces(Pipeline(MELEX_SCALED, "mel").meta(3, 6)))
    assert models
    for states, tau in models:
        assert tau is not None and tau[0] == 0
        assert all(a < b for a, b in zip(tau, tau[1:]))
        assert tau[-1] <= 6


def test_mel_max_time_default():
    assert default_max_time(2) == 12


def test_mel_max_time_below_horizon_rejected():
    with pytest.raises(MetaError):
        Pipeline(MELEX_SCALED, "mel").meta(3, max_time=2)


def test_negative_horizon_rejected():
    with pytest.raises(MetaError):
        build(ReifiedDB(), -1)


def test_unknown_semantics_rejected():
    with pytest.raises(MetaError):
        build(ReifiedDB(), 1, semantics="ctl")


def test_del_alternation_counts():
    p = Pipeline(DEL_ALTERNATION, "del")
    assert [len(set(distinct_traces(p.meta(n)))) for n in (0, 1, 2)] \
        == [4, 0, 16]


# Digests of the meta programs, recorded when rule heads first read the
# literals of their body's tuple (the same traces as before), and again
# when reified expressions kept their & (the same text with each & taken
# out).  Any change to rule order, fact order, externals or the symbol
# table shows here.
@pytest.mark.parametrize("text,n,semantics,rules,facts,atoms,digest", [
    (TELEX, 6, "tel", 113, 78, 157, "119374cfef05ff8a"),
    (MELEX_SCALED, 5, "mel", 672, 161, 463, "bcbcd6213c3a2416"),
    (DEL_ALTERNATION, 6, "del", 195, 84, 190, "c3bf2f294b0a408e"),
], ids=["tel", "mel", "del"])
def test_meta_program_golden(text, n, semantics, rules, facts, atoms, digest):
    program = Pipeline(text, semantics).meta(n).program
    assert (len(program.rules), len(program.facts),
            len(program.symbol_table)) == (rules, facts, atoms)
    text = _meta_text(program)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("text,n,semantics", [
    (TELEX, 6, "tel"), (MELEX_SCALED, 5, "mel"), (DEL_ALTERNATION, 6, "del"),
], ids=["tel", "mel", "del"])
def test_meta_facts_are_in_every_model(text, n, semantics):
    # extract_model reads facts such as hold(L,T) of a shown fact and
    # tau(0,0) from the model alone
    program = Pipeline(text, semantics).meta(n).program
    models = list(islice(models_of(program), 3))
    assert models
    assert all(set(program.facts) <= m.atoms for m in models)


def test_mel_meta_program_size_gate():
    # The value-pair encoding of the timing function grounded 104,188
    # rules here; the order encoding must stay at least ten times smaller.
    program = Pipeline(MELEX_SCALED, "mel").meta(10).program
    assert len(program.rules) <= 10_418


@pytest.mark.parametrize("max_time,count", [(4, 1), (5, 6)])
def test_mel_models_match_oracle(max_time, count):
    # A witness of &eventually(&i(2,4),...) at one state must not keep an
    # equilibrium model alive when F also holds at another in-window state.
    mp = Pipeline(MELEX_SCALED, "mel").meta(4, max_time)
    solved = set(distinct_traces(mp))
    assert solved == oracle_traces(MELEX_SCALED, 4, max_time=max_time)
    assert len(solved) == count


@pytest.mark.parametrize("text,semantics,max_time", [
    ("{ p(n) }. { p(0) }. a :- &eventually(p(0)).", "tel", None),
    ("{ p(m) }. { p(4) }. a :- &eventually(&i(0,#sup),p(4)).", "mel", 4),
])
def test_horizon_constants_bound_in_schemas_only(text, semantics, max_time):
    # n = 0 and m = 4 must not rename the user symbols p(n) and p(m)
    solved = set(distinct_traces(Pipeline(text, semantics).meta(0, max_time)))
    assert solved == oracle_traces(text, 0, max_time=max_time)
    assert len(solved) == 4


@pytest.mark.parametrize("text,n,count", [
    ("{ initial }. a :- &next(initial).", 1, 4),
    ("{ true }. a :- &next(true).", 1, 4),
    ("{ next(p) }. a :- &eventually(next(p)).", 1, 4),
    ("{ eventually(p) }. { p }. a :- &next(eventually(p)).", 1, 16),
    ("{ step }.", 0, 2), ("{ true }.", 0, 2), ("{ final }. a :- final.", 0, 2),
])
def test_atoms_named_as_operators_are_atoms(text, n, count):
    # reified, the atom initial is not the expression &initial, nor
    # next(p) &next(p); in the oracle, true and step are atoms too
    solved = set(distinct_traces(Pipeline(text).meta(n)))
    assert solved == oracle_traces(text, n)
    assert len(solved) == count


@pytest.mark.xfail(strict=True, reason="DEL_SCHEMA unfolds a star through "
                   "a path that can stay in place as a positive loop")
@pytest.mark.parametrize("text,n", [
    ("{ a }. :- &initial, not &always(&star(&star(&step)),&final).", 0),
    ("{ a }. { b }. m :- &always(&star(&test(&not(a))),&final).", 1),
])
def test_star_over_a_path_that_can_stay_in_place(text, n):
    # the solver gives 0 traces against the oracle's 2, and 16 traces
    # against the oracle's 16 with only 8 in common
    solved = set(distinct_traces(Pipeline(text, "del").meta(n)))
    assert solved == oracle_traces(text, n)


def _meta_text(program):
    return str(program) + "\n--\n" + "\n".join(map(str, program.symbol_table))


_FRESH_BUILD = """\
import sys
from tasp.cli import Pipeline
text, semantics, n, max_time = sys.argv[1:]
program = Pipeline(text, semantics).meta(
    int(n), int(max_time) if max_time != "-" else None).program
print(str(program) + "\\n--\\n" + "\\n".join(map(str, program.symbol_table)),
      end="")
"""


def test_schema_plan_serves_every_horizon():
    # one compiled plan per logic, reused with other n and m and in any
    # order, grounds what a build in a fresh interpreter grounds
    src = os.path.dirname(os.path.dirname(os.path.abspath(tasp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for text, semantics, n, max_time in [
            (TELEX, "tel", 2, None), (TELEX, "tel", 0, None),
            (TELEX, "tel", 2, None), (MELEX_SCALED, "mel", 3, 6),
            (MELEX_SCALED, "mel", 3, 9)]:
        got = _meta_text(Pipeline(text, semantics).meta(n, max_time).program)
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_BUILD, text, semantics, str(n),
             "-" if max_time is None else str(max_time)],
            env=env, capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert got == fresh.stdout, (semantics, n, max_time)


# ---------------------------------------------------------------------------
# Fischer-Ladner closure: the formula/2 facts that DEL_SCHEMA derives


STEP = TheoryExpression("step")


def _ev(path, f):
    return TheoryExpression("eventually", (path, f))


def _al(path, f):
    return TheoryExpression("always", (path, f))


def _path(op, *args):
    return TheoryExpression(op, args)


def closure(*formulas):
    """The formula/2 facts of the DEL meta program over the given ones."""
    program = build(ReifiedDB(formulas=list(formulas)), 0, "del").program
    return {(a.args[0].name, a.args[1]) for a in program.facts
            if a.name == "formula"}


@pytest.mark.parametrize("op", [_ev, _al], ids=["eventually", "always"])
def test_closure_star_unfolds_once(op):
    phi = op(_path("star", STEP), Constant("f"))
    assert closure(("del", phi)) == {
        ("del", phi), ("del", Constant("f")), ("del", op(STEP, phi))}


def test_closure_idempotent():
    phi = _ev(_path("seq", STEP, _path("star", STEP)),
              _al(_path("choice", STEP, _path("test", Constant("g"))),
                  Constant("f")))
    once = closure(("del", phi))
    assert closure(*once) == once


def test_closure_monotone():
    phi = _ev(STEP, Constant("f"))
    psi = _al(_path("star", STEP), Constant("g"))
    small = closure(("del", phi))
    big = closure(("del", phi), ("del", psi))
    assert small < big


@pytest.mark.parametrize("op", [_ev, _al], ids=["eventually", "always"])
def test_closure_unfolds_each_path(op):
    # one formula per path shape, each unfolded by one step; the type
    # argument is kept
    f, g = Constant("f"), Constant("g")
    seq = op(_path("seq", STEP, _path("test", g)), f)
    choice = op(_path("choice", STEP, _path("test", g)), f)
    test = op(_path("test", g), f)
    assert closure(("k", seq)) == {
        ("k", seq), ("k", op(STEP, test)), ("k", test), ("k", f), ("k", g)}
    assert closure(("k", choice)) == {
        ("k", choice), ("k", op(STEP, f)), ("k", test), ("k", f), ("k", g)}
    assert closure(("k", test)) == {("k", test), ("k", f), ("k", g)}


@pytest.mark.parametrize("text,n,expected", [
    ("{ a }. { b }.\n#show s : a, not b.\n", 1,
     {(): 9, ("s@0",): 3, ("s@1",): 3, ("s@0", "s@1"): 1}),
    ("{ a }. { b }.\n#show t : a, b.\n", 0, {(): 3, ("t@0",): 1}),
    ("{ a }.\n#show s : a, not a.\n", 1, {(): 4}),
    ("{ a }. { b }.\n#show s : a, not b, a.\n", 0, {(): 3, ("s@0",): 1}),
], ids=["negative-literal", "two-literals", "complementary-literals",
        "repeated-literal"])
def test_show_condition_reads_every_literal_of_its_tuple(text, n, expected):
    # written out by hand, since the oracle ignores #show: the condition
    # holds in one of the four choices of a and b at each state, so each
    # trace is counted over all stable models
    mp = Pipeline(text).meta(n)
    states = (extract_model(mp, m.atoms)[0] for m in solve(mp.program))
    traces = Counter(tuple("%s@%d" % (a, t) for t, state in enumerate(s)
                           for a in sorted(state)) for s in states)
    assert traces == expected


@pytest.mark.parametrize("text,semantics,n", [
    (TELEX, "tel", 3), (MELEX_SCALED, "mel", 3), (DEL_ALTERNATION, "del", 4)],
    ids=["tel", "mel", "del"])
def test_extraction_does_not_depend_on_the_set_type(text, semantics, n):
    # a plain set is read as the bytes of the program's atom table, so
    # it goes through the same layout and memo as the solver's models
    mp = Pipeline(text, semantics).meta(n)
    found = solve(mp.program)
    assert found
    for m in found:
        trace = extract_model(mp, m.atoms)
        assert extract_model(mp, frozenset(m.atoms)) == trace
        assert extract_model(mp, set(m.atoms)) == trace
        assert extract_model(mp, m.atoms) == trace
        assert (trace[1] is None) == (semantics != "mel")
