"""Shared fixtures: reconstructed example programs and reference
helpers (brute-force stable models, oracle traces, random programs)."""

import os
import subprocess
import sys

from hypothesis import strategies as st

import tasp
from tasp import oracle as oracle_mod
from tasp.parser import parse_program

# The traffic-light example: pressing the button at state 1 makes the
# light eventually turn green; red while not green.
TELEX = """\
light(l1).
red(L) :- not green(L), light(L).
&next(&eventually(green(L))) :- push(L).
&next(push(l1)) :- &initial.
"""

# Metric variant: green must arrive between 10 and 15 time units after
# the state following the push.
MELEX = """\
light(l1).
red(L) :- not green(L), light(L).
&next(&eventually(&i(10,15),green(L))) :- push(L).
&next(push(l1)) :- &initial.
"""

# Same program with a desk-scale window for oracle cross-checking.
MELEX_SCALED = MELEX.replace("&i(10,15)", "&i(2,4)")

WAIT = """\
green(l1).
wait(L) :- not &eventually(green(L)), green(L).
"""

# Dynamic alternation: some (green.red)* path from the start reaches the
# final state.
DEL_ALTERNATION = """\
{ green(l1) }.
{ red(l1) }.
:- &initial, not &eventually(&star(&seq(green(l1),red(l1))),&final).
"""


def stable_models_bruteforce(text):
    """Textbook stable models of a propositional program: subset
    enumeration plus reduct-minimality, independent of the solver."""
    import itertools
    from tasp.syntax import Choice

    prog = parse_program(text)
    atoms = sorted({str(el.atom) for r in prog.rules for el in r.head.elements}
                   | {str(b.payload) for r in prog.rules for b in r.body})

    rules = []
    for r in prog.rules:
        heads = tuple(str(el.atom) for el in r.head.elements)
        pos = tuple(str(b.payload) for b in r.body if b.positive)
        neg = tuple(str(b.payload) for b in r.body if not b.positive)
        rules.append((isinstance(r.head, Choice), heads, pos, neg))

    def reduct(x):
        out = []
        for is_choice, heads, pos, neg in rules:
            if any(a in x for a in neg):
                continue
            if is_choice:
                out.extend(((h,), pos) for h in heads if h in x)
            else:
                out.append((heads, pos))
        return out

    def is_model(rules_, y):
        return all(not set(pos) <= y or (set(heads) & y)
                   for heads, pos in rules_)

    models = set()
    for k in range(len(atoms) + 1):
        for xs in itertools.combinations(atoms, k):
            x = set(xs)
            red = reduct(x)
            if not is_model(red, x):
                continue
            minimal = True
            for j in range(len(xs)):
                for ys in itertools.combinations(xs, j):
                    if is_model(red, set(ys)):
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                models.add(frozenset(x))
    return models


def random_prop_program(rng, max_atoms=12, max_rules=8):
    """A random propositional program with normal, disjunctive, choice
    rules and constraints, rendered as text."""
    n = rng.randint(2, max_atoms)
    atoms = ["a%d" % i for i in range(1, n + 1)]
    lines = []
    for _ in range(rng.randint(1, max_rules)):
        body = ", ".join(
            ("" if rng.random() < 0.6 else "not ") + rng.choice(atoms)
            for _ in range(rng.randint(0, 3)))
        kind = rng.random()
        if kind < 0.15:
            head = ""
            if not body:
                continue  # skip the always-false constraint
        elif kind < 0.45:
            head = "{ %s }" % "; ".join(
                rng.sample(atoms, rng.randint(1, min(3, n))))
        elif kind < 0.65:
            head = "; ".join(rng.sample(atoms, rng.randint(2, min(3, n))))
        else:
            head = rng.choice(atoms)
        if head and not body:
            lines.append("%s." % head)
        else:
            lines.append("%s :- %s." % (head, body) if head
                         else ":- %s." % body)
    return "\n".join(lines) + "\n"


def oracle_traces(text, n, max_time=None):
    """Oracle models in the shape of `cli.distinct_traces` output."""
    models = oracle_mod.temporal_models(parse_program(text), n,
                                        max_time=max_time)
    return {(tuple(frozenset(map(str, s)) for s in m.states), m.tau)
            for m in models}


TEL_OPERATORS = ("&next(%s)", "&eventually(%s)", "&not(%s)")
#: the DEL grammar types the arguments of the TEL operators as DEL, so
#: a path formula may nest under any of them
DEL_OPERATORS = TEL_OPERATORS + ("&eventually(&star(&step),%s)",)


def _fuzz_formula(atoms, depth, operators=TEL_OPERATORS):
    """Formulas over `atoms` nesting `operators` up to `depth`."""
    leaf = st.sampled_from(atoms + ("&initial", "&final"))
    if depth == 0:
        return leaf
    sub = _fuzz_formula(atoms, depth - 1, operators)
    return st.one_of([leaf] + [sub.map(w.__mod__) for w in operators])


@st.composite
def fuzz_program(draw, paths=False):
    """1-4 facts, choices, constraints and rules over two or three atoms,
    with formulas in heads and in bodies, some of these under `not`."""
    atoms = ("p", "q", "r")[:draw(st.integers(2, 3))]
    formula = _fuzz_formula(atoms, 3,
                            DEL_OPERATORS if paths else TEL_OPERATORS)
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("fact", "constraint", "rule")))
        if kind == "fact":
            lines.append(draw(st.sampled_from(("%s.", "{ %s }."))) % draw(
                st.sampled_from(atoms)))
            continue
        body = ", ".join(("not " if neg else "") + f for neg, f in draw(
            st.lists(st.tuples(st.booleans(), formula), min_size=1,
                     max_size=2)))
        head = "" if kind == "constraint" else draw(formula)
        lines.append("%s :- %s." % (head, body))
    return "\n".join(lines) + "\n"


_TIMED_MAIN = """\
import io, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tasp.cli import main
sys.stdin = io.StringIO(sys.argv[1])
start = time.perf_counter()
code = main(sys.argv[2:], out=io.StringIO())
print(code, time.perf_counter() - start)
"""


def timed_main(argv, stdin, timeout=60):
    """(exit status, seconds) of `tasp` argv on stdin, run in a fresh
    interpreter whose address space is capped at 1 GiB and which is
    stopped after `timeout` seconds: for inputs that exhaust time or
    memory when a bound fails.  A run that is stopped or dies reports
    (None, None)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tasp.__file__)))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _TIMED_MAIN, stdin] + list(argv),
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=timeout)
        code, seconds = done.stdout.split()
    except (subprocess.TimeoutExpired, ValueError):
        return None, None
    return int(code), float(seconds)
