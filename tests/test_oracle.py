import pytest

from conftest import TELEX, oracle_traces

from tasp import oracle
from tasp.cli import Pipeline, distinct_traces
from tasp.oracle import (OracleError, Trace, eval_formula, eval_path,
                         instantiate, temporal_models)
from tasp.parser import parse_expression, parse_program
from tasp.syntax import Constant


def _trace(*states, tau=None):
    return Trace(tuple(frozenset(Constant(a) for a in s) for s in states),
                 tau=tau)


A, B = Constant("a"), Constant("b")


def test_eval_atom_and_negation():
    tr = _trace({"a"}, set())
    assert eval_formula(tr, 0, A)
    assert not eval_formula(tr, 1, A)
    assert eval_formula(tr, 1, parse_expression("&not(a)"))


def test_eval_initial_final():
    tr = _trace(set(), set(), set())
    assert eval_formula(tr, 0, parse_expression("&initial"))
    assert not eval_formula(tr, 1, parse_expression("&initial"))
    assert eval_formula(tr, 2, parse_expression("&final"))
    assert not eval_formula(tr, 0, parse_expression("&final"))


def test_eval_next_edge_of_horizon():
    tr = _trace(set(), {"a"})
    assert eval_formula(tr, 0, parse_expression("&next(a)"))
    assert not eval_formula(tr, 1, parse_expression("&next(a)"))


def test_eval_eventually():
    tr = _trace(set(), set(), {"a"})
    e = parse_expression("&eventually(a)")
    assert eval_formula(tr, 0, e)
    assert eval_formula(tr, 2, e)
    assert not eval_formula(_trace(set(), set()), 0, e)


def test_eval_metric_next():
    tr = _trace(set(), {"a"}, tau=(0, 3))
    assert eval_formula(tr, 0, parse_expression("&next(&i(2,4),a)"))
    assert not eval_formula(tr, 0, parse_expression("&next(&i(0,3),a)"))
    assert eval_formula(tr, 0, parse_expression("&next(&i(0,#sup),a)"))


def test_eval_metric_eventually():
    tr = _trace(set(), set(), {"a"}, tau=(0, 2, 5))
    assert eval_formula(tr, 0, parse_expression("&eventually(&i(5,6),a)"))
    assert not eval_formula(tr, 0, parse_expression("&eventually(&i(0,5),a)"))
    assert eval_formula(tr, 1, parse_expression("&eventually(&i(3,4),a)"))


def test_metric_without_tau_rejected():
    with pytest.raises(OracleError):
        eval_formula(_trace(set(), {"a"}), 0,
                     parse_expression("&next(&i(0,2),a)"))


def test_eval_path_step_and_test():
    tr = _trace({"a"}, set(), {"a"})
    assert eval_path(tr, parse_expression("&step")) == {(0, 1), (1, 2)}
    assert eval_path(tr, parse_expression("&test(a)")) == {(0, 0), (2, 2)}


def test_eval_path_seq_choice_star():
    tr = _trace({"a"}, {"b"}, set())
    seq = eval_path(tr, parse_expression("&seq(&test(a),&step)"))
    assert seq == {(0, 1)}
    choice = eval_path(tr, parse_expression("&choice(&test(a),&test(b))"))
    assert choice == {(0, 0), (1, 1)}
    star = eval_path(tr, parse_expression("&star(&step)"))
    assert star == {(i, j) for i in range(3) for j in range(3) if i <= j}


def test_eval_path_atom_shorthand():
    tr = _trace({"a"}, set())
    assert eval_path(tr, A) == {(0, 1)}


def test_eval_dynamic_diamond_and_box():
    tr = _trace({"a"}, {"b"}, set())
    assert eval_formula(tr, 0, parse_expression(
        "&eventually(&star(&step),b)"))
    assert not eval_formula(tr, 0, parse_expression(
        "&always(&star(&step),a)"))
    assert eval_formula(tr, 0, parse_expression("&always(&test(b),a)"))


def test_instantiate_substitutes_constants():
    rules = instantiate(parse_program("p(l1). q(X) :- p(X)."))
    rendered = {str(r) for r in rules}
    assert "q(l1) :- p(l1)." in rendered


def test_instantiate_binds_const_definitions():
    # a value names a constant defined after it; the last b wins
    rules = instantiate(parse_program(
        "#const a=b. #const b=2. #const b=1. p(a). q(X) :- p(X), X < a+1."))
    assert [str(r) for r in rules] == ["p(1).", "q(1) :- p(1)."]
    with pytest.raises(OracleError, match="cycle"):
        instantiate(parse_program("#const a=f(b). #const b=a. p(a)."))


def test_temporal_models_traffic_light():
    assert len(oracle_traces(TELEX, 0)) == 0
    assert len(oracle_traces(TELEX, 1)) == 0
    (model,) = oracle_traces(TELEX, 2)
    states, tau = model
    assert tau is None
    assert sorted(states[2]) == ["green(l1)", "light(l1)"]


def test_temporal_models_minimality():
    # {a} has no support: only the empty trace is in equilibrium
    models = temporal_models(parse_program("b :- a."), 1)
    assert [tuple(sorted(map(str, s)) for s in m.states)
            for m in models] == [([], [])]


def test_temporal_models_choice():
    models = temporal_models(parse_program("{ a }."), 0)
    assert len(list(models)) == 2


def test_temporal_models_is_lazy(monkeypatch):
    calls = []
    equilibrium = oracle._equilibrium
    monkeypatch.setattr(oracle, "_equilibrium",
                        lambda *args: calls.append(args) or equilibrium(*args))
    models = temporal_models(parse_program("{ a; b; c }."), 1)
    assert calls == []
    assert [sorted(s) for s in next(models).states] == [[], []]
    assert len(calls) == 1


def test_metric_program_requires_bound():
    for max_time in (None, 0):  # none, or one below the horizon
        with pytest.raises(OracleError):
            temporal_models(parse_program("a :- &next(&i(0,2),b)."), 1,
                            max_time=max_time)


def test_state_space_bound():
    text = "".join("{ a%d }.\n" % i for i in range(30))
    with pytest.raises(OracleError):
        temporal_models(parse_program(text), 3)


@pytest.mark.parametrize("text", [
    'p("x"). q(X) :- p(X).',
    "p(#sup). q :- p(X), X > 0.",
    "p(#inf). q :- p(X), X < 0.",
    'r("a"). s(X) :- r(X), X > 1.',
])
@pytest.mark.parametrize("n", [0, 1])
def test_strings_and_bounds_are_herbrand_constants(text, n):
    # the oracle instantiated over symbols and integers only, so it
    # missed q("x"), q and s("a")
    assert set(distinct_traces(Pipeline(text).meta(n))) \
        == oracle_traces(text, n)


_ATOM_NAMES = "a. b :- a. light(l1). red(L) :- not green(L), light(L)."


def test_atom_names_are_not_herbrand_constants():
    # a, b, green, light and red named no value; with a and b taken as
    # constants red had three instances, and n=2 had 2^27 candidates
    rules = oracle._bind_constants(parse_program(_ATOM_NAMES))
    assert oracle._herbrand_constants(rules) == [Constant("l1")]
    rules = instantiate(parse_program("a. p(a). q(X) :- p(X)."))
    assert "q(a) :- p(a)." in {str(r) for r in rules}


@pytest.mark.parametrize("n", [0, 1, 2])
def test_atom_names_oracle_equals_solve(n):
    assert set(distinct_traces(Pipeline(_ATOM_NAMES).meta(n))) \
        == oracle_traces(_ATOM_NAMES, n)
