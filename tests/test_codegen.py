"""Generated join code against the join interpreter.

A plan grounded a second time grounds with code generated from its steps
(tasp.codegen) if the code covers their shapes, as it covers those of
the schema plans; else it stays interpreted.  Every grounding here is
made twice, interpreted and then by generated code where it is covered,
and the two must give the same ground program, in the same order, the
same counters, warnings and errors.
"""

import logging
import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest

from conftest import DEL_ALTERNATION, MELEX, MELEX_SCALED, TELEX, WAIT
from test_acceptance import _rand_mel_program, _rand_path, _rand_tel_program
from test_ground import (
    test_interval_with_an_order_comparison_is_rejected, test_join_listing,
    test_term_semantics, test_undefined_arithmetic_drops_the_instance)

import tasp
from tasp import ground as ground_mod
from tasp.cli import Pipeline
from tasp.codegen import JobSource, _Unsupported
from tasp.grammar import builtin_grammar, typecheck_program
from tasp.ground import Grounder, GroundingError, Plan
from tasp.meta import _schema_plan, default_max_time
from tasp.parser import parse_program
from tasp.syntax import Integer
from tasp.transform import transform_program


def _params(test):
    """The argument values of a test's parametrize mark."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


def _interpreted(plan):
    """A plan that never generates code."""
    plan.code = lambda: None
    return plan


def _grounding(plan, **kwargs):
    """(ground program, counters, joins by generated code) of one
    grounding of plan, the program as its facts, rules, externals and
    symbol table in order; or the error it raises in its place."""
    g = Grounder(plan, **kwargs)
    try:
        gp = g.ground()
    except GroundingError as exc:
        return (type(exc), str(exc)), g.counters, g.generated
    return (list(gp.facts), gp.rules, list(gp.externals),
            list(gp.symbol_table)), g.counters, g.generated


# ---------------------------------------------------------------------------
# The schema plans


@lru_cache(maxsize=None)
def _schemas(semantics):
    """A schema plan of the logic that stays interpreted, and one whose
    first grounding is behind it, so that it grounds by generated code."""
    generated = _schema_plan.__wrapped__(semantics)
    generated.code()
    return _interpreted(_schema_plan.__wrapped__(semantics)), generated


def _assert_meta_equal(text, semantics, n, max_time=None):
    db = Pipeline(text, semantics).db
    constants = {"n": Integer(n)}
    if semantics == "mel":
        constants["m"] = Integer(max_time or default_max_time(n))
    interpreted, generated = _schemas(semantics)
    expected = _grounding(interpreted, constants=constants, facts=db.facts())
    got = _grounding(generated, constants=constants, facts=db.facts())
    assert expected[2] == 0 and got[2] == got[1]["joins"] > 0
    assert got[:2] == expected[:2], text


@pytest.mark.parametrize("text,semantics", [
    (TELEX, "tel"), (WAIT, "tel"), (MELEX, "mel"), (MELEX_SCALED, "mel"),
    (DEL_ALTERNATION, "del")],
    ids=["telex", "wait", "melex", "melex-scaled", "del-alternation"])
@pytest.mark.parametrize("n", [0, 1, 6])
def test_schema_plan_generated_code_equals_interpreter(text, semantics, n):
    _assert_meta_equal(text, semantics, n)


def test_random_programs_generated_code_equals_interpreter():
    # the random programs of criteria 4 and 7, 200 per logic
    rng = random.Random(404)
    for _ in range(200):
        _assert_meta_equal(_rand_tel_program(rng), "tel",
                           rng.choice((0, 1, 2)))
    rng = random.Random(414)
    for _ in range(200):
        text, n = _rand_mel_program(rng), rng.randint(0, 3)
        _assert_meta_equal(text, "mel", n, n + rng.randint(0, 3))
    rng = random.Random(707)
    for _ in range(200):
        program = "{ a }. { b }.\nmarker :- &eventually(%s,&final).\n" % (
            _rand_path(rng, rng.randint(1, 3)))
        _assert_meta_equal(program, "del", rng.choice((0, 1, 2)))


def test_ground_logs_joins_by_generated_code(caplog):
    plan = _schema_plan.__wrapped__("tel")
    db = Pipeline(TELEX).db
    lines = []
    for _ in range(2):
        with caplog.at_level(logging.DEBUG, logger="tasp.ground"):
            g = Grounder(plan, {"n": Integer(2)}, facts=db.facts())
            g.ground()
        lines.append(caplog.records[-1].getMessage())
        caplog.clear()
    assert lines[0].endswith("; 0 joins by generated code")
    assert lines[1].endswith("; %d joins by generated code"
                             % g.counters["joins"])
    assert lines[0].split(";")[0] == lines[1].split(";")[0]


# ---------------------------------------------------------------------------
# User programs grounded twice through one plan


def _both(plan, caplog, **kwargs):
    """The outcomes of two groundings of plan, each with its warnings.
    The first is interpreted; the second runs all of its joins by
    generated code, or none if tasp.codegen does not cover the plan.
    Both give the same program, counters and warnings."""
    outcomes = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tasp.ground"):
            outcome = _grounding(plan, **kwargs)
        outcomes.append((outcome, [r.getMessage() for r in caplog.records]))
    (first, warned), (second, warned_again) = outcomes
    assert first[2] == 0 and second[2] in (0, second[1]["joins"])
    assert second[:2] == first[:2] and warned_again == warned
    return outcomes


def _twice(plan, caplog, **kwargs):
    """The outcome and warnings of the first of two groundings of plan
    (see _both)."""
    (first, warned), _ = _both(plan, caplog, **kwargs)
    return first[0], warned


@pytest.mark.parametrize("text,semantics,listing", _params(test_join_listing))
def test_join_listing_generated(text, semantics, listing, caplog):
    if semantics:
        g = builtin_grammar(semantics)
        program, _ = transform_program(
            typecheck_program(parse_program(text), g), g)
        outcome, _ = _twice(Plan(program), caplog, grammar=g)
    else:
        outcome, _ = _twice(Plan(parse_program(text)), caplog)
    assert tuple([str(x) for x in part] for part in outcome) == listing


@pytest.mark.parametrize("text", [t for t, _ in _params(
    test_undefined_arithmetic_drops_the_instance)] + [
    # integer and depth bounds, and the errors a grounding raises
    "p(4611686018427387903). q(X*2+1) :- p(X).",
    "p(9223372036854775807). q(X+1) :- p(X).",
    "p(-9223372036854775807). q(X-1) :- p(X).",
    "p(2). { p(X*X) } :- p(X).",
    "p(0). p(f(X)) :- p(X).",
    "p(a). q(-X) :- p(X).",
    "#external a(X) : q(X), not r(Y). q(1).",
    "#external a(X) : q(X), not r(X/0). q(1).",
    # division by zero and undefined operations in every position
    "p(0..2). s(3). s(6). r(X) :- p(X), s(6/X). u(X) :- p(X), 6/X > 3. "
    "{ w(3) }. v(X) :- p(X), not w(6/X).",
    "p(0..2). { q(0..2) }. a(Y) :- p(Y), q(X) : p(X), X/Y > 0. "
    "b(Y) :- p(Y), X/Y < 3 : p(X). c(Y) : p(X), X/Y = 1 :- p(Y).",
    "q(2,1). q(3,a). q(4,b). p(X) :- q(X+1,X).",
    "t(1). t(0). u(b). a :- s(W+1) : t(Z), u(W), 1/Z > 0.",
    "p(a). p(1). q(X) :- p(X), X = f(X+1).",
    "a :- 1 < 2. b :- 2 < 1. c :- #sup > 2.",
    # rounds over lists that grow during a join, and the order of
    # external targets across rounds
    "q(1,2). q(2,3). { q(3,1) }. r(0,1). r(Y,Z) :- r(X,Y), q(Y,Z). "
    "t(X,Y) :- q(X,Y). t(X,Z) :- t(X,Y), t(Y,Z).",
    "q(1). q(X+1) :- q(X), X < 3. "
    "#external e(X) : q(X). #external f(X) : q(X).",
    # negative condition literals, pooled heads and assignments
    "q(1). q(2). r(1). { p(1); p(2) }. a :- p(X) : q(X), not r(X). "
    "r(X) :- q(X), X < 2. { s(X) : q(X), not r(X) }.",
    "q(1). q(3). p(X,V) :- q(X), V = X..X+1, not s(V). { s(2) }. "
    "u(X..X+1) :- q(X). #external e(1..2).",
    "q(1,1). q(1,2). { q(2,2) }. p(X) :- q(X,X).",
] + ["q(1). p :- q(X), %s." % lit for lit in _params(
    test_interval_with_an_order_comparison_is_rejected)] + [
    text for text, _, _ in _params(test_term_semantics)])
def test_user_programs_generated(text, caplog):
    _twice(Plan(parse_program(text)), caplog)


@pytest.mark.parametrize("shape,text", [
    ("a join left unbound", "q(1). p :- q(X), X < Y."),
    ("an #external", "q(1). #external e(X) : q(X)."),
    ("arithmetic in a matched pattern", "q(2,1). q(3,a). p(X) :- q(X+1,X)."),
    ("a condition over a non-domain predicate",
     "p(1). { q(1) }. a :- p(X) : q(X)."),
    ("a negative condition literal",
     "q(1). q(2). r(1). { s(1..2) }. a :- s(X) : q(X), not r(X)."),
    ("an element and its condition both impure",
     "t(1). t(0). u(b). a :- s(W+1) : t(Z), u(W), 1/Z > 0."),
    ("a comparison conditional literal", "p(1..3). b :- X < 4 : p(X)."),
    ("bare and conditioned head elements", "q(1). { a; b(X) : q(X) }."),
    ("a typed theory expression", "p(1). q(X) :- p(X), not &next(p(X))."),
    ("an unbound variable or an interval", "q(1). p(X) :- q(1)."),
    ("an interval or = against a function", "q(1). p :- q(X), X = 1..2."),
    ("an interval or = against a function",
     "p(a). p(1). q(X) :- p(X), X = f(X+1)."),
    ("an assignment of one value", "q(1). p(Y) :- q(X), Y = X+1."),
])
def test_unsupported_shapes_stay_interpreted(shape, text, caplog):
    # each program holds one shape tasp.codegen does not cover, so its
    # plan is interpreted on every grounding
    g = builtin_grammar("tel")
    program = typecheck_program(parse_program(text), g)
    with pytest.raises(_Unsupported) as unsupported:
        JobSource(Plan(program))
    assert str(unsupported.value) == shape
    _, (second, _) = _both(Plan(program), caplog, grammar=g)
    assert second[2] == 0


def test_atom_bound_generated(caplog, monkeypatch):
    monkeypatch.setattr(ground_mod, "MAX_ATOMS", 10)
    outcome, _ = _twice(Plan(parse_program("p(1..5). q(X) :- p(X). "
                                           "r(X) :- q(X).")), caplog)
    assert outcome == (ground_mod.GroundingLimitError,
                       "derivable-atom bound exceeded")


# ---------------------------------------------------------------------------
# The source does not depend on the hash seed


_SOURCE_DIGEST = """\
import hashlib
from tasp.codegen import JobSource
from tasp.meta import _schema_plan
h = hashlib.sha256()
for semantics in ("tel", "mel", "del"):
    for text, _ in JobSource(_schema_plan(semantics)).jobs:
        h.update(text.encode())
print(h.hexdigest())
"""


def test_generated_source_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tasp.__file__)))
    digests = {subprocess.run(
        [sys.executable, "-c", _SOURCE_DIGEST], capture_output=True,
        text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "123", "random")}
    assert len(digests) == 1
