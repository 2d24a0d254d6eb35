"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``criterion N [PASS|FAIL] ...`` line (run pytest with -s to see the
lines for passing tests as well).
"""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (DEL_ALTERNATION, MELEX, MELEX_SCALED, TELEX, WAIT,
                      fuzz_program, oracle_traces, random_prop_program,
                      stable_models_bruteforce)
from test_meta import closure
from test_reify import FIXTURE, GOLDEN_15

from tasp import meta as meta_mod
from tasp import solver as solver_mod
from tasp.cli import Pipeline, distinct_traces
from tasp.grammar import builtin_grammar, typecheck_program
from tasp.oracle import Trace, eval_formula
from tasp.parser import parse_expression, parse_program
from tasp.reify import isomorphic
from tasp.syntax import Constant
from tasp.transform import transform_program


def _report(num, ok, desc):
    print("criterion %d [%s] %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


# ---------------------------------------------------------------------------
# 1. Traffic-light example, exact trace


def test_criterion_1_traffic_light():
    start = time.time()
    p = Pipeline(TELEX)
    ok = (len(set(distinct_traces(p.meta(0)))) == 0
          and len(set(distinct_traces(p.meta(1)))) == 0)
    models = set(distinct_traces(p.meta(2)))
    ok = ok and len(models) == 1
    if ok:
        ((states, tau),) = models
        expected = ({"red(l1)"}, {"red(l1)", "push(l1)"}, {"green(l1)"})
        ok = tau is None and all(
            s - {"light(l1)"} == e for s, e in zip(states, expected))
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, "traffic-light n=0,1 UNSAT; n=2 exact trace "
            "(%.2fs)" % elapsed)


# ---------------------------------------------------------------------------
# 2. Reification golden test (15 facts, up to identifier renumbering)


def test_criterion_2_reify_golden():
    start = time.time()
    db = Pipeline(FIXTURE).db
    ok = isomorphic(db, GOLDEN_15) and len(db.core_facts()) == 15
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(2, ok, "reified negative rule isomorphic to the 15-fact "
            "golden db (%.2fs)" % elapsed)


# ---------------------------------------------------------------------------
# 3. Transform golden strings


def _transformed_text(text):
    g = builtin_grammar("tel")
    typed = typecheck_program(parse_program(text), g)
    transformed, _ = transform_program(typed, g)
    return str(transformed)

def test_criterion_3_transform_goldens():
    ok = "#external push(l1)." in _transformed_text(TELEX)
    ok = ok and ("#external &eventually(green(L)) : green(L)."
                 in _transformed_text(WAIT))
    _report(3, ok, "transform emits the expected #external directives")


# ---------------------------------------------------------------------------
# 4. Randomized TEL solver-vs-oracle equivalence


_ATOMS = ("p", "q", "r")


def _rand_formula(rng, depth):
    if depth == 0:
        return rng.choice(_ATOMS)
    k = rng.randrange(6)
    if k == 0:
        return "&initial"
    if k == 1:
        return "&final"
    sub = _rand_formula(rng, depth - 1)
    if k == 2:
        return "&next(%s)" % sub
    if k == 3:
        return "&eventually(%s)" % sub
    if k == 4:
        return "&not(%s)" % sub
    return rng.choice(_ATOMS)


def _rand_tel_program(rng):
    lines = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.25:
            head = rng.choice(_ATOMS)
            lines.append("%s." % head)
            continue
        body = ", ".join(
            ("not " if rng.random() < 0.3 else "") + _rand_formula(rng, 1)
            for _ in range(rng.randint(1, 2)))
        if kind < 0.4:
            lines.append(":- %s." % body)
        elif kind < 0.7:
            lines.append("%s :- %s." % (rng.choice(_ATOMS), body))
        else:
            inner = rng.choice(
                [rng.choice(_ATOMS),
                 "&eventually(%s)" % rng.choice(_ATOMS),
                 "&next(%s)" % rng.choice(_ATOMS)])
            lines.append("&next(%s) :- %s." % (inner, body))
    return "\n".join(lines) + "\n"


def test_criterion_4_tel_oracle_equivalence():
    start = time.time()
    rng = random.Random(404)
    mismatches = 0
    for trial in range(200):
        text = _rand_tel_program(rng)
        n = rng.choice((0, 1, 2))
        solved = set(distinct_traces(Pipeline(text).meta(n)))
        if solved != oracle_traces(text, n):
            mismatches += 1
            print("criterion 4 mismatch (n=%d):\n%s" % (n, text))
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 300
    _report(4, ok, "200 random TEL programs, %d mismatches (%.1fs)"
            % (mismatches, elapsed))


def _ground_programs_digest(runs):
    """sha256 over the user and meta ground programs (text and symbol
    table) of each (pipeline, n, max_time) run."""
    h = hashlib.sha256()
    for p, n, max_time in runs:
        for gp in (p.ground, p.meta(n, max_time).program):
            h.update(("%s\n%s\n" % (
                gp, " ".join(map(str, gp.symbol_table)))).encode())
    return h.hexdigest()


def _criterion_4_runs():
    """The pipelines of criterion 4's 200 programs, with their horizons."""
    rng = random.Random(404)
    return [(Pipeline(_rand_tel_program(rng)), rng.choice((0, 1, 2)))
            for trial in range(200)]


def test_criterion_4_ground_programs_digest():
    # criterion 4's programs, recorded when rules began to ground in
    # dependency order: some user ground programs list their rules in
    # another order, so reify numbers their atoms differently (the rule
    # sets and the traces of all 200 are the same as before); recorded
    # again when reified expressions kept their & (the same text with
    # each & taken out)
    runs = [(p, n, None) for p, n in _criterion_4_runs()]
    ok = _ground_programs_digest(runs) == (
        "d1c64f2cc2a47e84f62bfa5d8ee73dc138e24c744f4cd1f04cd7712d65dea0a9")
    _report(4, ok, "ground programs of the 200 random TEL programs "
            "unchanged")


def test_no_rule_names_a_fact():
    # the solver leaves every fact out of its search and adds the facts
    # to each model it finds, which is sound only if no rule names one
    runs = _criterion_4_runs() + [
        (Pipeline(TELEX), 6), (Pipeline(MELEX_SCALED, "mel"), 5),
        (Pipeline(DEL_ALTERNATION, "del"), 6)]
    for p, n in runs:
        for gp in (p.ground, p.meta(n).program):
            named = {a for r in gp.rules
                     for a in itertools.chain(r.head, (a for _, a in r.body))}
            assert named.isdisjoint(gp.facts), "n=%d:\n%s" % (n, p.text)


def _assert_oracle_traces(text, n, semantics):
    solved = set(distinct_traces(Pipeline(text, semantics).meta(n)))
    assert solved == oracle_traces(text, n), "n=%d:\n%s" % (n, text)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(fuzz_program(), st.integers(0, 3))
def test_criterion_4_tel_fuzz_against_oracle(text, n):
    _assert_oracle_traces(text, n, "tel")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fuzz_program(paths=True), st.integers(0, 3))
def test_criterion_4_del_eventually_fuzz_against_oracle(text, n):
    _assert_oracle_traces(text, n, "del")


@pytest.mark.parametrize("text,n", [
    ("{ p }. :- &next(&next(&eventually(&star(&step),p))).", 2),
    ("{ p }. a :- &not(&eventually(&star(&step),p)).", 1),
])
def test_path_formula_under_a_tel_operator(text, n):
    # the DEL grammar types the arguments of &next, &not and unary
    # &eventually as del, so a path formula may stand there
    _assert_oracle_traces(text, n, "del")
    assert len(oracle_traces(text, n)) == 4


def test_eventually_chain_forces_no_earlier_witness():
    text = "&eventually(p) :- &initial.\np :- q.\nq :- &final.\n"
    ((states, tau),) = distinct_traces(Pipeline(text).meta(2))
    assert [s & {"p"} for s in states] == [set(), set(), {"p"}]
    assert {(states, tau)} == oracle_traces(text, 2)


def _rand_window(rng):
    """A metric window &i(L,U): possibly empty (U = L), sometimes
    unbounded above (#sup)."""
    lo = rng.randint(0, 2)
    if rng.random() < 0.3:
        return "&i(%d,#sup)" % lo
    return "&i(%d,%d)" % (lo, lo + rng.randint(0, 3))


def _rand_mel_formula(rng, depth):
    if depth == 0:
        return rng.choice(_ATOMS[:2])
    k = rng.randrange(5)
    if k == 0:
        return rng.choice(("&initial", "&final"))
    if k == 1:
        return "&not(%s)" % _rand_mel_formula(rng, depth - 1)
    if k == 2:
        return rng.choice(_ATOMS[:2])
    return "%s(%s,%s)" % (("&next", "&eventually")[k - 3], _rand_window(rng),
                          _rand_mel_formula(rng, depth - 1))


def _rand_mel_program(rng):
    """Like _rand_tel_program over two atoms, with windowed operators.
    At least one window occurs, so the oracle reads it as metric too."""
    lines = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2:
            lines.append("%s." % rng.choice(_ATOMS[:2]))
            continue
        body = ", ".join(
            ("not " if rng.random() < 0.3 else "") + _rand_mel_formula(rng, 1)
            for _ in range(rng.randint(1, 2)))
        if kind < 0.35:
            lines.append(":- %s." % body)
        elif kind < 0.6:
            lines.append("%s :- %s." % (rng.choice(_ATOMS[:2]), body))
        else:
            lines.append("%s(%s,%s) :- %s." % (
                rng.choice(("&next", "&eventually")), _rand_window(rng),
                _rand_mel_formula(rng, 1), body))
    text = "\n".join(lines) + "\n"
    return text if "&i(" in text else _rand_mel_program(rng)


def test_criterion_4_mel_oracle_equivalence():
    start = time.time()
    rng = random.Random(414)
    mismatches = 0
    for trial in range(200):
        text = _rand_mel_program(rng)
        n = rng.randint(0, 3)
        m = n + rng.randint(0, 3)
        if set(distinct_traces(Pipeline(text, "mel").meta(n, m))) \
                != oracle_traces(text, n, max_time=m):
            mismatches += 1
            print("criterion 4 mismatch (n=%d, max-time %d):\n%s"
                  % (n, m, text))
    elapsed = time.time() - start
    _report(4, mismatches == 0, "200 random MEL programs, %d mismatches "
            "(%.1fs)" % (mismatches, elapsed))


def test_criterion_4_mel_ground_programs_digest():
    # the programs of the MEL equivalence test above, recorded when rules
    # began to ground in dependency order (the same user ground rule sets,
    # some in another order), and again when reified expressions kept
    # their & (the same text with each & taken out)
    rng = random.Random(414)
    runs = []
    for trial in range(200):
        text = _rand_mel_program(rng)
        n = rng.randint(0, 3)
        runs.append((Pipeline(text, "mel"), n, n + rng.randint(0, 3)))
    ok = _ground_programs_digest(runs) == (
        "1e25ed05efafceeca335bf0a53dfcf41b425499616a66dd6cd44535d2bc03b25")
    _report(4, ok, "ground programs of the 200 random MEL programs "
            "unchanged")


# ---------------------------------------------------------------------------
# 5. Metric window check at M=20 plus scaled oracle count cross-check


def test_criterion_5_mel_window_and_count():
    # Full-scale instance: every returned model must place green(l1)
    # inside the metric window measured from the state after the push.
    mp = Pipeline(MELEX, "mel").meta(3, max_time=20)
    models = []
    seen = set()
    for m in solver_mod.solve(mp.program, limit=40):
        key = meta_mod.extract_model(mp, m.atoms)
        if key not in seen:
            seen.add(key)
            models.append(key)
    ok = bool(models)
    anchor = 2  # push at state 1; the window is anchored at state 2
    for states, tau in models:
        greens = [j for j, s in enumerate(states) if "green(l1)" in s]
        ok = ok and greens and all(
            10 <= tau[j] - tau[anchor] < 15 for j in greens)

    # Scaled instance: exact model-count agreement with the oracle.
    solved = set(distinct_traces(Pipeline(MELEX_SCALED, "mel").meta(3, 6)))
    oracled = oracle_traces(MELEX_SCALED, 3, max_time=6)
    ok = ok and solved == oracled
    _report(5, ok, "M=20 window respected on %d models; scaled counts "
            "solver=%d oracle=%d" % (len(models), len(solved), len(oracled)))


# ---------------------------------------------------------------------------
# 6. Dynamic alternation versus an independent regex matcher


def _alternation_accepts(states):
    # (green.red)* from state 0 to the final state: even length prefix
    # with green at even positions and red at odd ones.
    n = len(states) - 1
    if n % 2 != 0:
        return False
    return all(("green(l1)" in states[i]) if i % 2 == 0
               else ("red(l1)" in states[i]) for i in range(n))


def test_criterion_6_del_alternation():
    start = time.time()
    ok = True
    for n in range(5):
        mp = Pipeline(DEL_ALTERNATION, "del").meta(n)
        solved = {states for states, tau in distinct_traces(mp)}
        labels = [frozenset(s) for s in
                  (set(), {"green(l1)"}, {"red(l1)"},
                   {"green(l1)", "red(l1)"})]
        expected = {tuple(combo)
                    for combo in itertools.product(labels, repeat=n + 1)
                    if _alternation_accepts(combo)}
        if solved != expected:
            ok = False
            print("criterion 6 mismatch at n=%d: solver %d vs matcher %d"
                  % (n, len(solved), len(expected)))
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(6, ok, "alternation traces match the regex matcher for "
            "n=0..4 (%.1fs)" % elapsed)


# ---------------------------------------------------------------------------
# 7. Path closure and meta-level path satisfaction


def _rand_path(rng, depth):
    if depth == 0:
        return rng.choice(("&step", "&test(a)", "&test(b)", "a", "b"))
    k = rng.randrange(4)
    if k == 0:
        return "&seq(%s,%s)" % (_rand_path(rng, depth - 1),
                                _rand_path(rng, depth - 1))
    if k == 1:
        return "&choice(%s,%s)" % (_rand_path(rng, depth - 1),
                                   _rand_path(rng, depth - 1))
    if k == 2:
        return "&star(%s)" % _rand_path(rng, depth - 1)
    return _rand_path(rng, 0)


def test_criterion_7_path_closure_and_satisfaction():
    rng = random.Random(707)
    ok = True
    a, b = Constant("a"), Constant("b")
    labels = [frozenset(), frozenset((a,)), frozenset((b,)),
              frozenset((a, b))]
    for trial in range(50):
        rho = _rand_path(rng, rng.randint(1, 3))
        program = "{ a }. { b }.\nmarker :- &eventually(%s,&final).\n" % rho
        formula = parse_expression("&eventually(%s,&final)" % rho)

        # the closure DEL_SCHEMA derives from the reified formulas is
        # finite and idempotent
        once = closure(*Pipeline(program, "del").db.formulas)
        if closure(*once) != once:
            ok = False
            print("criterion 7 closure not idempotent: %s" % rho)
            continue

        # meta-level satisfaction of the path formula equals eval_path
        n = rng.choice((0, 1, 2))
        solved = set(distinct_traces(Pipeline(program, "del").meta(n)))
        expected = set()
        for combo in itertools.product(labels, repeat=n + 1):
            trace = Trace(tuple(combo))
            states = tuple(
                frozenset({str(x) for x in s}
                          | ({"marker"} if eval_formula(trace, i, formula)
                             else set()))
                for i, s in enumerate(combo))
            expected.add((states, None))
        if solved != expected:
            ok = False
            print("criterion 7 mismatch (n=%d): %s" % (n, rho))
    _report(7, ok, "50 random path expressions: closure idempotent, "
            "satisfaction matches eval_path")


def test_criterion_7_ground_programs_digest():
    # the programs of criterion 7, recorded when DEL_SCHEMA's unfolding
    # table replaced its closure and path rules (the same sorted rules,
    # with the table's eq/dis/con facts added), and again when the DEL
    # grammar typed the arguments of &not, &next and unary &eventually as
    # del (only formula/2 types changed; the same traces), and when the
    # conjunction/2 layer of the meta encoding was deleted (the same user
    # ground programs), and when reified expressions kept their & (the
    # same text with each & taken out)
    rng = random.Random(707)
    runs = []
    for trial in range(50):
        rho = _rand_path(rng, rng.randint(1, 3))
        program = "{ a }. { b }.\nmarker :- &eventually(%s,&final).\n" % rho
        runs.append((Pipeline(program, "del"), rng.choice((0, 1, 2)), None))
    ok = _ground_programs_digest(runs) == (
        "883d7e6fa7de4ff25eb9d8afe48571c73958dfd684c34b0d0978b71a9d22b809")
    _report(7, ok, "ground programs of the 50 random DEL programs "
            "unchanged")


# ---------------------------------------------------------------------------
# 8. Propositional solver versus exhaustive enumeration


def test_criterion_8_solver_vs_bruteforce():
    rng = random.Random(808)
    mismatches = 0
    for trial in range(100):
        text = random_prop_program(rng)
        gp = Pipeline(text).ground
        got = {frozenset(str(a) for a in m.atoms)
               for m in solver_mod.solve(gp)}
        want = stable_models_bruteforce(text)
        if got != want:
            mismatches += 1
            print("criterion 8 mismatch:\n%s" % text)
    _report(8, mismatches == 0,
            "100 random propositional programs, %d mismatches" % mismatches)
