"""Workloads of the tasp benchmark and the references their answers are
checked against.

The program texts are copies of the example programs of the test suite,
not imports of it, so that editing a test cannot change what the
benchmark measures.  Every reference comes from the brute-force oracle,
never from the pipeline under test.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

from tasp import oracle
from tasp.meta import default_max_time
from tasp.parser import parse_program

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

# The traffic-light example: pressing the button makes the light turn
# green eventually; red while not green.
TELEX = """\
light(l1).
red(L) :- not green(L), light(L).
&next(&eventually(green(L))) :- push(L).
&next(push(l1)) :- &initial.
"""

# Metric variant with a desk-scale window: green arrives between 2 and 4
# time units after the state following the push.
MELEX_SCALED = """\
light(l1).
red(L) :- not green(L), light(L).
&next(&eventually(&i(2,4),green(L))) :- push(L).
&next(push(l1)) :- &initial.
"""

# Dynamic alternation: some (green.red)* path from the start reaches the
# final state.
DEL_ALTERNATION = """\
{ green(l1) }.
{ red(l1) }.
:- &initial, not &eventually(&star(&seq(green(l1),red(l1))),&final).
"""

#: A temporal model as the pipeline and the oracle both render it:
#: (states, tau), states a tuple of frozensets of atom strings.
TemporalModel = Tuple[Tuple[FrozenSet[str], ...], Optional[tuple]]


@dataclass(frozen=True)
class Request:
    """One solve call: program text, horizon, logic and model limit
    (0 = all models)."""
    text: str
    n: int
    semantics: str
    limit: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: consecutive requests whose times share one cal unit, the host
    #: speed sampled over the block
    block: int
    #: seed -> the requests of one round
    requests: Callable[[int], List[Request]]


# ---------------------------------------------------------------------------
# Seeded random TEL programs, shaped like acceptance criterion 4's generator


RANDOM_PROGRAMS = 800
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


def random_tel_program(rng, rules) -> str:
    lines = []
    for _ in range(rules):
        kind = rng.random()
        if kind < 0.25:
            lines.append("%s." % rng.choice(_ATOMS))
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


def random_tel_requests(seed: int) -> List[Request]:
    """The programs of one random-tel round.  The horizon (0 to 2) and the
    number of rules (1 to 4) set most of a small program's cost, so they
    cycle through every combination instead of being drawn: a drawn mix
    moves the round's time and quantiles by several percent from seed to
    seed.  The rules themselves are drawn."""
    rng = random.Random(seed)
    return [Request(random_tel_program(rng, 1 + i // 3 % 4), i % 3, "tel", 0)
            for i in range(RANDOM_PROGRAMS)]


# ---------------------------------------------------------------------------
# The workloads


TEL_SEARCH = Request(TELEX, 6, "tel", 0)
MEL_FIRST = Request(MELEX_SCALED, 5, "mel", 1)
DEL_ENUM = Request(DEL_ALTERNATION, 6, "del", 0)

WORKLOADS = {w.name: w for w in (
    Workload("tel-search", 1, lambda seed: [TEL_SEARCH]),
    Workload("mel-first", 1, lambda seed: [MEL_FIRST]),
    Workload("del-enum", 1, lambda seed: [DEL_ENUM]),
    Workload("random-tel", 50, random_tel_requests),
)}

#: Workloads whose oracle reference is too slow to compute per run; it is
#: stored under refs/ and rebuilt by make_refs.py.
STORED = {"tel-search": TEL_SEARCH, "del-enum": DEL_ENUM}


# ---------------------------------------------------------------------------
# References and checks


def oracle_models(req: Request) -> FrozenSet[TemporalModel]:
    models = oracle.temporal_models(parse_program(req.text), req.n)
    return frozenset((tuple(frozenset(map(str, s)) for s in m.states), m.tau)
                     for m in models)


def encode_models(models) -> list:
    return sorted([[sorted(s) for s in states], tau]
                  for states, tau in models)


def decode_models(rows) -> FrozenSet[TemporalModel]:
    return frozenset(
        (tuple(frozenset(s) for s in states),
         None if tau is None else tuple(tau))
        for states, tau in rows)


def ref_path(name: str) -> str:
    return os.path.join(REFS_DIR, name + ".json")


def load_stored(name: str) -> FrozenSet[TemporalModel]:
    """The stored oracle models of a workload; refuses a file made for
    another program, horizon or logic."""
    req = STORED[name]
    with open(ref_path(name)) as fh:
        data = json.load(fh)
    if (data["program"], data["n"], data["semantics"]) != \
            (req.text, req.n, req.semantics):
        raise ValueError("%s does not match workload %s; rerun make_refs.py"
                         % (ref_path(name), name))
    return decode_models(data["models"])


def trace_checker(req: Request) -> Callable[[TemporalModel], bool]:
    """The oracle's test of one trace, for instances whose candidate space
    is too large to enumerate: is (states, tau) a temporal equilibrium
    model of the program, with a valid timing function under MEL?"""
    rules = oracle.instantiate(parse_program(req.text))
    facts = {r.head.elements[0].atom for r in rules if oracle._is_fact(r)}
    atoms = {str(a): a for a in oracle._vocabulary(rules)}
    max_time = default_max_time(req.n)

    def check(model: TemporalModel) -> bool:
        states, tau = model
        if len(states) != req.n + 1:
            return False
        if any(a not in atoms for s in states for a in s):
            return False
        if req.semantics == "mel":
            if (tau is None or len(tau) != req.n + 1 or tau[0] != 0
                    or tau[-1] > max_time
                    or any(a >= b for a, b in zip(tau, tau[1:]))):
                return False
        elif tau is not None:
            return False
        there = [frozenset(atoms[a] for a in s) for s in states]
        return oracle._equilibrium(rules, there, tau, facts)

    return check


def checkers(name: str, requests: List[Request]) \
        -> List[Callable[[FrozenSet[TemporalModel]], bool]]:
    """One answer check per request, built before any timing starts."""
    if name in STORED:
        expected = load_stored(name)
        return [lambda answer: answer == expected for _ in requests]
    out = []
    for req in requests:
        if req.limit == 0:
            expected = oracle_models(req)
            out.append(lambda answer, e=expected: answer == e)
        else:
            check = trace_checker(req)
            out.append(lambda answer, k=req.limit, c=check:
                       1 <= len(answer) <= k and all(map(c, answer)))
    return out
