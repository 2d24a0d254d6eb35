import logging
import random
from collections import Counter

import pytest
from conftest import (DEL_ALTERNATION, MELEX_SCALED, TELEX, oracle_traces,
                      random_prop_program, stable_models_bruteforce)

from tasp import meta, oracle, solver
from tasp.cli import Pipeline, distinct_traces
from tasp.ground import Grounder
from tasp.parser import parse_program
from tasp.solver import SolverError, models, solve
from tasp.syntax import Constant


def _solve(text):
    """The stable models as sets of atom strings; no model may come twice,
    which the set alone would hide from the brute-force comparisons."""
    gp = Grounder(parse_program(text)).ground()
    found = [frozenset(str(a) for a in m.atoms) for m in solve(gp)]
    assert len(found) == len(set(found)), found
    return set(found)


def test_facts_only():
    assert _solve("a. b.") == {frozenset({"a", "b"})}


def test_normal_negation_two_models():
    assert _solve("a :- not b. b :- not a.") == {
        frozenset({"a"}), frozenset({"b"})}


def test_constraint_prunes():
    assert _solve("a :- not b. b :- not a. :- a.") == {frozenset({"b"})}


def test_unsupported_atom_false():
    assert _solve("a :- b.") == {frozenset()}


def test_positive_loop_unfounded():
    assert _solve("a :- b. b :- a.") == {frozenset()}


def test_choice_rule_all_subsets():
    assert _solve("{ a; b }.") == {
        frozenset(), frozenset({"a"}), frozenset({"b"}),
        frozenset({"a", "b"})}


def test_disjunction_minimality():
    assert _solve("a; b.") == {frozenset({"a"}), frozenset({"b"})}


def test_cycle_disjunction_unique_model():
    # a ∨ b with a ↔ b support cycle: {a,b} is the unique stable model,
    # confirmed by exhaustive enumeration
    text = "a; b. a :- b. b :- a."
    expected = stable_models_bruteforce(text)
    assert expected == {frozenset({"a", "b"})}
    assert _solve(text) == expected


def test_head_cycle_free_shifting_case():
    assert _solve("a; b :- c. c.") == {
        frozenset({"a", "c"}), frozenset({"b", "c"})}


def test_model_atoms_are_a_set():
    gp = Grounder(parse_program("f. { a }. b :- a. c :- not a.")).ground()
    without, with_a = solve(gp)
    f, a, b, c = map(Constant, "fabc")
    atoms = with_a.atoms
    assert f in atoms and a in atoms and b in atoms  # a fact, true atoms
    assert c not in atoms and a not in without.atoms  # false atoms
    assert Constant("unknown") not in atoms
    assert sorted(atoms) == ["a", "b", "f"] and len(atoms) == 3
    assert atoms == frozenset({f, a, b}) and frozenset({f, a, b}) == atoms
    assert hash(atoms) == hash(frozenset({f, a, b}))
    assert without.atoms == {f, c} and without.atoms != atoms
    assert set(gp.facts) <= atoms and set(gp.facts) <= without.atoms
    # the program's facts are shared, not copied per model
    assert with_a.atoms.facts is without.atoms.facts


def test_model_limit():
    gp = Grounder(parse_program("{ a; b; c }.")).ground()
    assert len(solve(gp, limit=3)) == 3
    assert len(solve(gp, limit=0)) == 8


def test_random_agreement_with_bruteforce():
    rng = random.Random(20240817)
    for _ in range(25):
        text = random_prop_program(rng, max_atoms=8, max_rules=6)
        assert _solve(text) >= set(), text
        got = _solve(text)
        want = stable_models_bruteforce(text)
        assert got == want, "program:\n%s\ngot %r\nwant %r" % (text, got, want)


def test_large_choice_first_model_without_recursion():
    # the search keeps its trail in a list: depth 1200 needs no stack
    gp = Grounder(parse_program("{ a(1..1200) }.")).ground()
    assert len(solve(gp, limit=1)) == 1


def _with_positive_cycles(rng, text, atoms=7, disjunctive=0.3):
    """Append one to three positive cycles aI :- aJ. aJ :- aI., with a
    disjunctive head at the given rate, so that unfounded sets and head
    cycles occur in most programs."""
    lines = []
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randint(1, atoms), rng.randint(1, atoms)
        if rng.random() < disjunctive:
            lines.append("a%d; a%d :- a%d." % (i, rng.randint(1, atoms), j))
        else:
            lines.append("a%d :- a%d." % (i, j))
        lines.append("a%d :- a%d." % (j, i))
    return text + "\n".join(lines) + "\n"


def test_positive_loops_agree_with_bruteforce():
    rng = random.Random(20261017)
    for _ in range(150):
        text = _with_positive_cycles(
            rng, random_prop_program(rng, max_atoms=7, max_rules=7))
        got = _solve(text)
        want = stable_models_bruteforce(text)
        assert got == want, "program:\n%s\ngot %r\nwant %r" % (text, got, want)


@pytest.mark.parametrize("text", [
    # the heads of the disjunction sit in singleton components
    "a; b. c :- a. c :- b.",
    # two separate head-cycle components
    "{ e }. a; b :- e. a :- b. b :- a. c; d :- not e. c :- d. d :- c.",
    "a; b. a :- b. b :- a. c; d :- a. c :- d. d :- c. e :- c, not d.",
    # a choice rule inside a head cycle
    "a; b. { a } :- b. b :- a.",
    "a; b; c. { a; c } :- b. b :- a. b :- c. :- a, c.",
], ids=["singletons", "two-components", "chained-components",
        "choice-in-cycle", "choice-heads-in-cycle"])
def test_minimality_tester_agrees_with_bruteforce(text):
    assert _solve(text) == stable_models_bruteforce(text)


def test_head_cycles_agree_with_bruteforce():
    rng = random.Random(20261018)
    for _ in range(150):
        text = _with_positive_cycles(
            rng, random_prop_program(rng, max_atoms=7, max_rules=7),
            disjunctive=0.7)
        got = _solve(text)
        want = stable_models_bruteforce(text)
        assert got == want, "program:\n%s\ngot %r\nwant %r" % (text, got, want)


def _engines(monkeypatch):
    """A list that records every engine a search constructs."""
    built, init = [], solver._Engine.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)
    monkeypatch.setattr(solver._Engine, "__init__", record)
    return built


def _one_literal_bodies(rng, atoms=6):
    """A program of two to eight rules over atoms a1..aN whose bodies each
    have one literal, positive or negative: constraints, choices,
    disjunctions and normal rules."""
    lines = []
    for _ in range(rng.randint(2, 8)):
        body = ("" if rng.random() < 0.6 else "not ") \
            + "a%d" % rng.randint(1, atoms)
        heads = ["a%d" % i for i in rng.sample(range(1, atoms + 1),
                                               rng.randint(1, 3))]
        kind = rng.random()
        head = ("" if kind < 0.1 else "{ %s }" % "; ".join(heads)
                if kind < 0.35 else "; ".join(heads))
        lines.append("%s :- %s." % (head, body))
    return "\n".join(lines) + "\n"


def test_one_literal_bodies_agree_with_bruteforce(monkeypatch):
    # such a body is its literal, with no variable of its own, in the
    # source pointers, the loop nogoods and the tester's main literals
    rng, counts = random.Random(20261019), Counter()
    built = _engines(monkeypatch)
    for _ in range(200):
        text = _with_positive_cycles(rng, _one_literal_bodies(rng), atoms=6,
                                     disjunctive=0.5)
        del built[:]
        got = _solve(text)
        want = stable_models_bruteforce(text)
        assert got == want, "program:\n%s\ngot %r\nwant %r" % (text, got, want)
        # a variable only for the empty body, where grounding dropped a
        # negated atom that no rule derives
        assert len(built[0].level) - built[0].natoms <= 1, text
        counts.update(built[0].counters)
    assert counts["loop_nogoods"] and counts["minimality_checks"], counts


def test_one_tester_per_search(monkeypatch, caplog):
    built = _engines(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="tasp"):
        assert len(solve(Pipeline(TELEX).meta(6).program)) == 5
    # the main engine and one tester for its 7 minimality checks
    assert len(built) == 2
    line = caplog.records[-1].getMessage()
    assert "%d tester atoms" % built[1].natoms in line, line
    assert "%d tester steps" % built[1].steps in line, line
    assert built[1].steps > 0
    del built[:]
    # no disjunctive rule: no candidate needs a check, no tester is built
    with caplog.at_level(logging.DEBUG, logger="tasp"):
        assert len(solve(Grounder(parse_program(
            "{ c }. a :- b. b :- a.")).ground())) == 2
    assert len(built) == 1
    line = caplog.records[-1].getMessage()
    assert "0 tester atoms, 0 tester steps" in line, line


def test_telex_first_model_step_cost(monkeypatch):
    # 217,057 steps, with the tester's queries, at least 2x under the limit
    built = _engines(monkeypatch)
    assert len(solve(Pipeline(TELEX).meta(80).program, limit=1)) == 1
    assert 2 * built[0].steps < solver.DEFAULT_STEP_LIMIT


def test_solve_logs_search_counters(caplog):
    gp = Grounder(parse_program("a :- b. b :- a. { c }. a :- c. d.")).ground()
    with caplog.at_level(logging.DEBUG, logger="tasp"):
        assert len(solve(gp)) == 2
    line = caplog.records[-1].getMessage()
    # the fact d stays out of the search
    assert "3 atoms, 1 facts" in line, line
    for counter in ("decisions", "conflicts", "learned", "loop nogoods",
                    "unfounded checks"):
        assert counter in line, line
    # no rule has two true heads, so no model needs a minimality check
    assert "0 minimality checks" in line, line
    gp = Grounder(parse_program("a; b. a :- b. b :- a.")).ground()
    with caplog.at_level(logging.DEBUG, logger="tasp"):
        assert len(solve(gp)) == 1
    line = caplog.records[-1].getMessage()
    assert "1 minimality checks" in line, line
    # the search decides only the open atoms of TELEX's meta program
    with caplog.at_level(logging.DEBUG, logger="tasp"):
        assert len(solve(Pipeline(TELEX).meta(6).program)) == 5
    line = caplog.records[-1].getMessage()
    for part in ("79 atoms, 78 facts", "13 decisions",
                 "7 minimality checks"):
        assert part in line, line
    # every body but the empty one is a single literal: no variable
    assert "78 facts, 1 body variables" in line, line


def test_del_enumeration_adds_no_clause_per_model(caplog):
    with caplog.at_level(logging.DEBUG, logger="tasp"):
        assert len(solve(Pipeline(DEL_ALTERNATION, "del").meta(6).program)) \
            == 256
    line = caplog.records[-1].getMessage()
    # a clause per conflict only: 261 learned when each model added one
    for part in ("256 models", "6 conflicts", "6 learned"):
        assert part in line, line


def test_del_enumeration_steps_per_model_stay_flat(monkeypatch):
    # 156 steps per model at n=8 and 219 at n=12; with a clause per model
    # they were 120 and 2,471, and n=12 stopped at the step limit
    built, per_model = _engines(monkeypatch), {}
    for n in (8, 12):
        mp = Pipeline(DEL_ALTERNATION, "del").meta(n)
        found = solve(mp.program)
        traces = {meta.extract_model(mp, m.atoms) for m in found}
        assert len(found) == len(traces) == 2 ** (n + 2)
        per_model[n] = built[-1].steps / len(found)
    assert per_model[12] <= 2 * per_model[8], per_model


@pytest.mark.parametrize("text,semantics,n", [
    (TELEX, "tel", 3), (MELEX_SCALED, "mel", 3), (DEL_ALTERNATION, "del", 4)],
    ids=["tel", "mel", "del"])
def test_solve_and_extract_read_the_atom_table_only(text, semantics, n):
    # neither the solver nor extraction builds the GroundRule list or
    # the symbol table of the meta program
    mp = meta.build(Pipeline(text, semantics).db, n, semantics)
    for m in solve(mp.program):
        meta.extract_model(mp, m.atoms)
    assert "rules" not in mp.program.__dict__
    assert "symbol_table" not in mp.program.__dict__


@pytest.mark.parametrize("text,semantics,n", [
    (TELEX, "tel", 4), (MELEX_SCALED, "mel", 3), (DEL_ALTERNATION, "del", 4)],
    ids=["tel", "mel", "del"])
def test_extraction_memo_is_bounded(text, semantics, n, monkeypatch):
    # past the bound a state's key is read each time it comes: every
    # trace of the solve stays the same and no memo holds more keys
    pipeline = Pipeline(text, semantics)
    mp = pipeline.meta(n)
    found = solve(mp.program)
    want = [meta.extract_model(mp, m.atoms) for m in found]
    monkeypatch.setattr(meta, "MEMO_KEYS", 2)
    bounded = meta.build(pipeline.db, n, semantics)
    assert [meta.extract_model(bounded, m.atoms)
            for m in solve(bounded.program)] == want
    memos = [memo for _, memo, *_ in bounded.layout]
    assert all(len(memo) <= 2 for memo in memos)
    assert any(len(memo) == 2 for memo in memos)


def test_full_enumeration_stops_at_step_limit():
    # iterated, so no model is held: the limit stops 2^30 models after
    # 312,500 of them, each charged its listing of 30 atoms
    gp = Grounder(parse_program("{ a(1..30) }.")).ground()
    count = 0
    with pytest.raises(SolverError):
        for _ in models(gp):
            count += 1
    assert count == 312_500


def test_models_generator_is_lazy():
    # one model of 2^30 is found long before the step limit
    gp = Grounder(parse_program("{ a(1..30) }.")).ground()
    first = next(models(gp))
    assert [first] == solve(gp, limit=1)


@pytest.mark.parametrize("n", [3, 4])
def test_telex_traces_equal_oracle(n):
    assert set(distinct_traces(Pipeline(TELEX).meta(n))) \
        == oracle_traces(TELEX, n)


@pytest.mark.parametrize("text,n", [
    ("p(1). p(2). p(3). { q(X) } :- p(X), X != 2. r(X) :- q(X), X < 3. "
     "&next(s(Y)) :- r(X), p(Y), Y = X+1.", 1),
    ("n(1). n(2). { a(X) } :- n(X). b(X) :- n(X), n(Y), a(Y), X > Y. "
     ":- a(X), a(Y), X < Y, &next(b(X)).", 1),
    ("v(0). v(1). { d(X) } :- v(X), X <= 0. "
     "c(X) :- v(X), not d(Y), v(Y), X = Y+1. "
     "&eventually(c(1)) :- d(0), &initial.", 2),
    ("v(0). v(1). { w(X) } :- v(X), v(Y), -X = Y-1. "
     "z(X) :- w(X), X*2 >= 1. :- &next(z(X)), not z(X).", 1),
    # symbolic constants: u+1 is undefined and drops the instance, and
    # symbols are ordered as gringo orders them
    ("v(0). v(1). w(X) :- v(X), v(Y), X = Y+1. u.", 1),
    ("p(a). p(b). q(X) :- p(X), p(Y), X < Y.", 1),
    # / and \ round as // and % on these non-negative operands, and a
    # zero divisor drops the instance
    ("p(0). p(1). p(2). p(3). p(4). q(X/2) :- p(X). r(X\\3) :- p(X). "
     "s(X) :- p(X), 4/X = 2.", 0),
])
def test_comparisons_and_arithmetic_equal_oracle(text, n):
    # the arithmetic stays within the programs' own constants, the
    # oracle's domain, so its comparison and arithmetic folding run
    solved = set(distinct_traces(Pipeline(text).meta(n)))
    assert solved == oracle_traces(text, n)
    assert solved


@pytest.mark.xfail(strict=True, reason="the oracle instantiates over the "
                   "constants written in the program, so it never tries "
                   "q(2)")
def test_value_created_by_arithmetic_equals_oracle():
    text = "p(1). q(X) :- p(Y), X = Y+1."
    solved = set(distinct_traces(Pipeline(text).meta(0)))
    assert solved == oracle_traces(text, 0)


@pytest.mark.parametrize("n", [6, 10, 16])
def test_telex_models_are_equilibrium_traces(n):
    mp = Pipeline(TELEX).meta(n)
    traces = {meta.extract_model(mp, m.atoms)
              for m in solve(mp.program)}
    # push at state 1, green at one state k >= 2, red at every other one
    assert traces == {(tuple(
        frozenset({"light(l1)", "green(l1)" if t == k else "red(l1)"}
                  | ({"push(l1)"} if t == 1 else set()))
        for t in range(n + 1)), None) for k in range(2, n + 1)}
    # each trace passes the oracle's own equilibrium test, which tries
    # every smaller here-trace: 2^(n+2) of them, 25 s per trace at n=16,
    # so there the exact set above stands for it
    if n > 10:
        return
    rules = oracle.instantiate(parse_program(TELEX))
    facts = {r.head.elements[0].atom for r in rules if oracle._is_fact(r)}
    atoms = {str(a): a for a in oracle._vocabulary(rules)}
    for states, tau in traces:
        there = [frozenset(atoms[a] for a in s) for s in states]
        assert oracle._equilibrium(rules, there, tau, facts)
