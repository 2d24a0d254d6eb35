import hashlib

import pytest

from conftest import DEL_ALTERNATION, MELEX_SCALED, TELEX, oracle_traces

from tasp.cli import Pipeline, distinct_traces
from tasp.meta import (MetaError, build, default_max_time, fl_close)
from tasp.reify import ReifiedDB
from tasp.solver import solve
from tasp.syntax import Constant, Function


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


# Digests of the meta programs: TEL and DEL as grounded before the
# grounder became incremental, MEL as first grounded with the order-encoded
# timing function.  Any change to rule order, fact order, externals or the
# symbol table shows here.
@pytest.mark.parametrize("text,n,semantics,rules,facts,atoms,digest", [
    (TELEX, 6, "tel", 198, 95, 241, "775eb52bab0081b7"),
    (MELEX_SCALED, 5, "mel", 726, 179, 535, "7aa9c2f772abd455"),
    (DEL_ALTERNATION, 6, "del", 233, 94, 238, "91afd3ab25debd71"),
], ids=["tel", "mel", "del"])
def test_meta_program_golden(text, n, semantics, rules, facts, atoms, digest):
    program = Pipeline(text, semantics).meta(n).program
    assert (len(program.rules), len(program.facts),
            len(program.symbol_table)) == (rules, facts, atoms)
    text = str(program) + "\n--\n" + "\n".join(map(str, program.symbol_table))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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


# ---------------------------------------------------------------------------
# Fischer-Ladner closure


def _ev(path, f):
    return Function("eventually", (path, f))


def test_fl_close_star_unfolds_once():
    p = Constant("step")
    phi = _ev(Function("star", (p,)), Constant("f"))
    closure = set(fl_close([("del", phi)]).formulas)
    assert ("del", Constant("f")) in closure
    assert ("del", _ev(p, phi)) in closure


def test_fl_close_idempotent():
    phi = _ev(Function("seq", (Constant("step"),
                               Function("star", (Constant("step"),)))),
              Constant("f"))
    once = fl_close([("del", phi)])
    twice = fl_close(once.formulas)
    assert set(once.formulas) == set(twice.formulas)


def test_fl_close_monotone():
    phi = _ev(Constant("step"), Constant("f"))
    psi = _ev(Function("star", (Constant("step"),)), Constant("g"))
    small = set(fl_close([("del", phi)]).formulas)
    big = set(fl_close([("del", phi), ("del", psi)]).formulas)
    assert small <= big
