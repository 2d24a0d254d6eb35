"""Shared fixtures: reconstructed example programs and reference
helpers (brute-force stable models, oracle traces, random programs)."""

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
