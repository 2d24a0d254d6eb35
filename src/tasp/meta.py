"""Timed meta-encoding and the per-logic semantic layers.

The encodings live here as rule schemas in the toolkit's own surface
language; they are compiled once and instantiated against the reified
database (seeded as facts) by the same grounder that handles user
programs.  The result is one propositional program whose stable models
correspond to the temporal equilibrium models of length n+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

from .ground import GroundProgram, Grounder, Plan
from .parser import parse_program
from .reify import ReifiedDB
from .syntax import Function, Integer, Program


class MetaError(Exception):
    pass


# ---------------------------------------------------------------------------
# Rule schemas

#: Timed core: duplicates rule satisfaction over states 0..n.  A rule's
#: head reads the conjunction of its body directly; the body/2 layer of
#: clingo's reification format holds sum aggregates, never reified here.
CORE_SCHEMA = """\
time(0..n).

conjunction(B,T) :- literal_tuple(B), time(T),
    hold(L,T) : literal_tuple(B,L), L > 0;
    not hold(-L,T) : literal_tuple(B,L), L < 0.

hold(A,T) : atom_tuple(H,A) :-
    rule(disjunction(H),normal(B)), time(T), conjunction(B,T).

{ hold(A,T) : atom_tuple(H,A) } :-
    rule(choice(H),normal(B)), time(T), conjunction(B,T).
"""

#: Bridge between numeric hold/2 and symbolic true/2; the fact case
#: (empty literal tuple) derives true unconditionally.
BRIDGE_SCHEMA = """\
true(O,T) :- output(O,B), time(T), hold(L,T) : literal_tuple(B,L).

hold(L,T) :- external(O,B), literal_tuple(B,L), true(O,T), time(T).
"""

#: Connectives shared by every logic: &true, &initial, &not.
BASIC_SCHEMA = """\
true(true,T) :- formula(_,true), time(T).

true(initial,T) :- formula(_,initial), time(T), T = 0.
:- formula(_,initial), time(T), T > 0, true(initial,T).

true(not(F),T) :- formula(_,not(F)), time(T), not true(F,T).
:- formula(_,not(F)), time(T), true(not(F),T), true(F,T).
"""

#: Qualitative &next / &eventually (unary forms).  &eventually unfolds
#: one state at a time, F or next &eventually F (as in telingo), so each
#: formula grounds to O(n) rules and its witness disjunction has two heads.
TEL_SCHEMA = """\
true(F,T+1) :- formula(_,next(F)), time(T), T < n, true(next(F),T).
true(next(F),T) :- formula(_,next(F)), time(T), T < n, true(F,T+1).
:- formula(_,next(F)), time(T), T >= n, true(next(F),T).

true(eventually(F),T) :- formula(_,eventually(F)), time(T), true(F,T).
true(eventually(F),T) :- formula(_,eventually(F)), time(T), T < n,
    true(eventually(F),T+1).
true(F,T); true(eventually(F),T+1) :- formula(_,eventually(F)), time(T),
    T < n, true(eventually(F),T).
true(F,T) :- formula(_,eventually(F)), time(T), T >= n,
    true(eventually(F),T).
"""

#: Metric layer.  The timing function is order-encoded: tau_ge(T,V) says
#: tau(T) >= V.  tau(0) = 0, tau strictly increases, so tau(T) >= T is a
#: fact and tau(T) <= m-n+T keeps tau(n) <= m.  dist_ge(T,J,D) says
#: tau(J) - tau(T) >= D, only for the finite window bounds D that occur
#: (#sup is above every integer); it follows from the gap J-T alone when
#: D <= J-T.  A witness of an interval &eventually is also derived from
#: every state in its window where F holds, so that witnesses at
#: different states compare under minimality.
MEL_SCHEMA = """\
tau_ge(T,V) :- time(T), time(V), V <= T.
{ tau_ge(T,V) : V = T+1..m-n+T } :- time(T), T > 0.
tau_ge(T,V-1) :- tau_ge(T,V), V > T.
tau_ge(T,V+1) :- time(T), T > 0, tau_ge(T-1,V).
tau(T,V) :- tau_ge(T,V), not tau_ge(T,V+1).

span(T,T+1,L) :- formula(mel,next(i(L,U),F)), time(T), T < n, L < #sup.
span(T,T+1,U) :- formula(mel,next(i(L,U),F)), time(T), T < n, U < #sup.
span(T,J,L) :- formula(mel,eventually(i(L,U),F)), time(T), time(J),
    J >= T, L < #sup.
span(T,J,U) :- formula(mel,eventually(i(L,U),F)), time(T), time(J),
    J >= T, U < #sup.
dist_ge(T,J,D) :- span(T,J,D), D <= J-T.
dist_ge(T,J,D) :- span(T,J,D), J > T, D > J-T, tau(T,V), tau_ge(J,V+D).

true(next(i(L,U),F),T) :- formula(mel,next(i(L,U),F)), time(T), T < n,
    true(F,T+1), dist_ge(T,T+1,L), not dist_ge(T,T+1,U).
true(F,T+1) :- formula(mel,next(i(L,U),F)), time(T), T < n,
    true(next(i(L,U),F),T).
:- formula(mel,next(i(L,U),F)), time(T), T >= n, true(next(i(L,U),F),T).
:- formula(mel,next(i(L,U),F)), time(T), T < n, true(next(i(L,U),F),T),
    not dist_ge(T,T+1,L).
:- formula(mel,next(i(L,U),F)), time(T), T < n, true(next(i(L,U),F),T),
    dist_ge(T,T+1,U).

true(eventually(i(L,U),F),T) :- formula(mel,eventually(i(L,U),F)),
    time(T), time(J), J >= T, true(F,J),
    dist_ge(T,J,L), not dist_ge(T,J,U).
wit(eventually(i(L,U),F),T,J) : time(J), J >= T :-
    formula(mel,eventually(i(L,U),F)), time(T),
    true(eventually(i(L,U),F),T).
wit(eventually(i(L,U),F),T,J) :- formula(mel,eventually(i(L,U),F)),
    time(T), time(J), J >= T, true(eventually(i(L,U),F),T), true(F,J),
    dist_ge(T,J,L), not dist_ge(T,J,U).
true(F,J) :- wit(eventually(i(L,U),F),T,J).
:- wit(eventually(i(L,U),F),T,J), not dist_ge(T,J,L).
:- wit(eventually(i(L,U),F),T,J), dist_ge(T,J,U).
"""

#: Path operators.  An unfolding table states each law of one-step path
#: unfolding once, for the path formulas present: eq(X,Y) says X is
#: equivalent to Y, dis(X,Y,Z) to Y or Z, and con(X,Y,Z) to Y and Z.
#: Projecting its rows closes formula/2 under unfolding (the
#: Fischer-Ladner closure), with the type argument kept; three more
#: closure rules add the F of every modal formula and the G of [G?]F.
#: Eight generic rules read the table as truth conditions.  Only <step>F
#: and [step]F, which need the next state, and [G?]F, which needs
#: negation, have truth rules of their own.
DEL_SCHEMA = """\
eq(eventually(seq(P,Q),F),eventually(P,eventually(Q,F))) :-
    formula(_,eventually(seq(P,Q),F)).
eq(always(seq(P,Q),F),always(P,always(Q,F))) :- formula(_,always(seq(P,Q),F)).
dis(eventually(choice(P,Q),F),eventually(P,F),eventually(Q,F)) :-
    formula(_,eventually(choice(P,Q),F)).
dis(eventually(star(P),F),F,eventually(P,eventually(star(P),F))) :-
    formula(_,eventually(star(P),F)).
con(eventually(test(G),F),G,F) :- formula(_,eventually(test(G),F)).
con(always(choice(P,Q),F),always(P,F),always(Q,F)) :-
    formula(_,always(choice(P,Q),F)).
con(always(star(P),F),F,always(P,always(star(P),F))) :-
    formula(_,always(star(P),F)).

formula(K,F) :- formula(K,eventually(P,F)).
formula(K,F) :- formula(K,always(P,F)).
formula(K,G) :- formula(K,always(test(G),F)).
formula(K,Y) :- formula(K,X), eq(X,Y).
formula(K,Y) :- formula(K,X), dis(X,Y,Z).
formula(K,Z) :- formula(K,X), dis(X,Y,Z).
formula(K,Y) :- formula(K,X), con(X,Y,Z).
formula(K,Z) :- formula(K,X), con(X,Y,Z).

true(X,T) :- eq(X,Y), time(T), true(Y,T).
true(Y,T) :- eq(X,Y), time(T), true(X,T).
true(X,T) :- dis(X,Y,Z), time(T), true(Y,T).
true(X,T) :- dis(X,Y,Z), time(T), true(Z,T).
true(Y,T); true(Z,T) :- dis(X,Y,Z), time(T), true(X,T).
true(X,T) :- con(X,Y,Z), time(T), true(Y,T), true(Z,T).
true(Y,T) :- con(X,Y,Z), time(T), true(X,T).
true(Z,T) :- con(X,Y,Z), time(T), true(X,T).

true(eventually(step,F),T) :- formula(del,eventually(step,F)),
    time(T), T < n, true(F,T+1).
true(F,T+1) :- formula(del,eventually(step,F)),
    time(T), T < n, true(eventually(step,F),T).
:- formula(del,eventually(step,F)), time(T), T >= n,
    true(eventually(step,F),T).

true(always(step,F),T) :- formula(del,always(step,F)), time(T), T >= n.
true(always(step,F),T) :- formula(del,always(step,F)), time(T), T < n,
    true(F,T+1).
true(F,T+1) :- formula(del,always(step,F)), time(T), T < n,
    true(always(step,F),T).

true(always(test(G),F),T) :- formula(del,always(test(G),F)), time(T),
    not true(G,T).
true(always(test(G),F),T) :- formula(del,always(test(G),F)), time(T),
    true(F,T).
true(F,T) :- formula(del,always(test(G),F)), time(T),
    true(always(test(G),F),T), true(G,T).
"""


# ---------------------------------------------------------------------------
# Schema instantiation


_TEL_SCHEMAS = (CORE_SCHEMA, BRIDGE_SCHEMA, BASIC_SCHEMA, TEL_SCHEMA)

#: The schemas each logic grounds.
SCHEMAS = {"tel": _TEL_SCHEMAS, "mel": _TEL_SCHEMAS + (MEL_SCHEMA,),
           "del": _TEL_SCHEMAS + (DEL_SCHEMA,)}


@lru_cache(maxsize=None)
def _schema_plan(semantics) -> Plan:
    """The schemas of a semantics, compiled on first use with n and m as
    parameters, then shared by every build: each grounding binds them in
    the schemas only, so a reified user symbol keeps any n or m it names."""
    return Plan(Program(tuple(s for text in SCHEMAS[semantics]
                              for s in parse_program(text).statements)),
                params=("n", "m"))


def _check_outputs(db: ReifiedDB):
    for sym, b in db.outputs:
        lits = db.literal_tuples.get(b, ())
        if len(lits) > 1 or any(l < 0 for l in lits):
            raise MetaError(
                "output %s has a non-singleton literal tuple" % (sym,))


# ---------------------------------------------------------------------------
# Full assembly


@dataclass
class MetaProgram:
    program: GroundProgram
    db: ReifiedDB
    n: int
    semantics: str
    max_time: Optional[int] = None

    @cached_property
    def shown(self) -> List[Tuple[str, List[Function]]]:
        """Each shown term rendered, with its conjunction(B,T) probe for
        every state T; built once, read by every extract_model call."""
        return [(str(term), [Function("conjunction", (Integer(b), Integer(t)))
                             for t in range(self.n + 1)])
                for _, term, b in self.db.shows]


def default_max_time(n: int) -> int:
    return 4 * (n + 1)


def build(db: ReifiedDB, n: int, semantics: str = "tel",
          max_time: Optional[int] = None) -> MetaProgram:
    """Assemble the complete propositional meta program for horizon n."""
    if n < 0:
        raise MetaError("horizon must be non-negative")
    if semantics not in SCHEMAS:
        raise MetaError("unknown semantics %r" % semantics)
    _check_outputs(db)

    constants = {"n": Integer(n)}
    if semantics == "mel":
        if max_time is None:
            max_time = default_max_time(n)
        if max_time < n:
            raise MetaError("max-time %d below horizon %d (infeasible timing)"
                            % (max_time, n))
        constants["m"] = Integer(max_time)

    program = Grounder(_schema_plan(semantics), constants,
                       facts=db.facts()).ground()
    return MetaProgram(program, db, n, semantics, max_time)


# ---------------------------------------------------------------------------
# Model extraction


def extract_model(meta: MetaProgram, atoms) -> Tuple[tuple, Optional[tuple]]:
    """Project a stable model of the meta program onto shown states.

    `atoms` is the whole model, the program's facts included (the solver
    keeps them).  Returns (states, tau): states is a tuple of n+1
    frozensets of rendered terms; tau maps each state to its time point
    for MEL, else None.
    """
    states = [set() for _ in range(meta.n + 1)]
    for rendered, probes in meta.shown:
        for state, probe in zip(states, probes):
            if probe in atoms:
                state.add(rendered)
    tau = None
    if meta.semantics == "mel":
        tau = [None] * (meta.n + 1)
        for a in atoms:
            if isinstance(a, Function) and a.name == "tau" and len(a.args) == 2:
                t, v = a.args
                if isinstance(t, Integer) and 0 <= t.value <= meta.n \
                        and isinstance(v, Integer):
                    tau[t.value] = v.value
        tau = tuple(tau)
    return tuple(frozenset(s) for s in states), tau
