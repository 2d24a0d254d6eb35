"""Timed meta-encoding and the per-logic semantic layers.

The encodings live here as rule schemas in the toolkit's own surface
language; they are compiled once and instantiated against the reified
database (seeded as facts) by the same grounder that handles user
programs.  They name each operator with its &, as the reified facts
hold expressions, so no user atom reads as one.  The result is one
propositional program whose stable models correspond to the temporal
equilibrium models of length n+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import Optional, Tuple

from .ground import GroundProgram, Grounder, Plan
from .parser import parse_program
from .reify import ReifiedDB
from .solver import Atoms
from .syntax import Function, Integer, Program


class MetaError(Exception):
    pass


# ---------------------------------------------------------------------------
# Rule schemas

#: Timed core: duplicates rule satisfaction over states 0..n.  Heads read
#: their body's literal tuple directly; the solver names each body once.
CORE_SCHEMA = """\
time(0..n).

hold(A,T) : atom_tuple(H,A) :-
    rule(disjunction(H),normal(B)), time(T),
    hold(L,T) : literal_tuple(B,L), L > 0;
    not hold(-L,T) : literal_tuple(B,L), L < 0.

{ hold(A,T) : atom_tuple(H,A) } :-
    rule(choice(H),normal(B)), time(T),
    hold(L,T) : literal_tuple(B,L), L > 0;
    not hold(-L,T) : literal_tuple(B,L), L < 0.
"""

#: Bridge between numeric hold/2 and symbolic true/2; the fact case
#: (empty literal tuple) derives true unconditionally.
BRIDGE_SCHEMA = """\
true(O,T) :- output(O,B), time(T), hold(L,T) : literal_tuple(B,L).

hold(L,T) :- external(O,B), literal_tuple(B,L), true(O,T), time(T).
"""

#: Connectives shared by every logic: &true, &initial, &not.
BASIC_SCHEMA = """\
true(&true,T) :- formula(_,&true), time(T).

true(&initial,T) :- formula(_,&initial), time(T), T = 0.
:- formula(_,&initial), time(T), T > 0, true(&initial,T).

true(&not(F),T) :- formula(_,&not(F)), time(T), not true(F,T).
:- formula(_,&not(F)), time(T), true(&not(F),T), true(F,T).
"""

#: Qualitative &next / &eventually (unary forms).  &eventually unfolds
#: one state at a time, F or next &eventually F (as in telingo), so each
#: formula grounds to O(n) rules and its witness disjunction has two heads.
TEL_SCHEMA = """\
true(F,T+1) :- formula(_,&next(F)), time(T), T < n, true(&next(F),T).
true(&next(F),T) :- formula(_,&next(F)), time(T), T < n, true(F,T+1).
:- formula(_,&next(F)), time(T), T >= n, true(&next(F),T).

true(&eventually(F),T) :- formula(_,&eventually(F)), time(T), true(F,T).
true(&eventually(F),T) :- formula(_,&eventually(F)), time(T), T < n,
    true(&eventually(F),T+1).
true(F,T); true(&eventually(F),T+1) :- formula(_,&eventually(F)), time(T),
    T < n, true(&eventually(F),T).
true(F,T) :- formula(_,&eventually(F)), time(T), T >= n,
    true(&eventually(F),T).
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

span(T,T+1,L) :- formula(mel,&next(&i(L,U),F)), time(T), T < n, L < #sup.
span(T,T+1,U) :- formula(mel,&next(&i(L,U),F)), time(T), T < n, U < #sup.
span(T,J,L) :- formula(mel,&eventually(&i(L,U),F)), time(T), time(J),
    J >= T, L < #sup.
span(T,J,U) :- formula(mel,&eventually(&i(L,U),F)), time(T), time(J),
    J >= T, U < #sup.
dist_ge(T,J,D) :- span(T,J,D), D <= J-T.
dist_ge(T,J,D) :- span(T,J,D), J > T, D > J-T, tau(T,V), tau_ge(J,V+D).

true(&next(&i(L,U),F),T) :- formula(mel,&next(&i(L,U),F)), time(T), T < n,
    true(F,T+1), dist_ge(T,T+1,L), not dist_ge(T,T+1,U).
true(F,T+1) :- formula(mel,&next(&i(L,U),F)), time(T), T < n,
    true(&next(&i(L,U),F),T).
:- formula(mel,&next(&i(L,U),F)), time(T), T >= n, true(&next(&i(L,U),F),T).
:- formula(mel,&next(&i(L,U),F)), time(T), T < n, true(&next(&i(L,U),F),T),
    not dist_ge(T,T+1,L).
:- formula(mel,&next(&i(L,U),F)), time(T), T < n, true(&next(&i(L,U),F),T),
    dist_ge(T,T+1,U).

true(&eventually(&i(L,U),F),T) :- formula(mel,&eventually(&i(L,U),F)),
    time(T), time(J), J >= T, true(F,J),
    dist_ge(T,J,L), not dist_ge(T,J,U).
wit(&eventually(&i(L,U),F),T,J) : time(J), J >= T :-
    formula(mel,&eventually(&i(L,U),F)), time(T),
    true(&eventually(&i(L,U),F),T).
wit(&eventually(&i(L,U),F),T,J) :- formula(mel,&eventually(&i(L,U),F)),
    time(T), time(J), J >= T, true(&eventually(&i(L,U),F),T), true(F,J),
    dist_ge(T,J,L), not dist_ge(T,J,U).
true(F,J) :- wit(&eventually(&i(L,U),F),T,J).
:- wit(&eventually(&i(L,U),F),T,J), not dist_ge(T,J,L).
:- wit(&eventually(&i(L,U),F),T,J), dist_ge(T,J,U).
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
eq(&eventually(&seq(P,Q),F),&eventually(P,&eventually(Q,F))) :-
    formula(_,&eventually(&seq(P,Q),F)).
eq(&always(&seq(P,Q),F),&always(P,&always(Q,F))) :-
    formula(_,&always(&seq(P,Q),F)).
dis(&eventually(&choice(P,Q),F),&eventually(P,F),&eventually(Q,F)) :-
    formula(_,&eventually(&choice(P,Q),F)).
dis(&eventually(&star(P),F),F,&eventually(P,&eventually(&star(P),F))) :-
    formula(_,&eventually(&star(P),F)).
con(&eventually(&test(G),F),G,F) :- formula(_,&eventually(&test(G),F)).
con(&always(&choice(P,Q),F),&always(P,F),&always(Q,F)) :-
    formula(_,&always(&choice(P,Q),F)).
con(&always(&star(P),F),F,&always(P,&always(&star(P),F))) :-
    formula(_,&always(&star(P),F)).

formula(K,F) :- formula(K,&eventually(P,F)).
formula(K,F) :- formula(K,&always(P,F)).
formula(K,G) :- formula(K,&always(&test(G),F)).
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

true(&eventually(&step,F),T) :- formula(del,&eventually(&step,F)),
    time(T), T < n, true(F,T+1).
true(F,T+1) :- formula(del,&eventually(&step,F)),
    time(T), T < n, true(&eventually(&step,F),T).
:- formula(del,&eventually(&step,F)), time(T), T >= n,
    true(&eventually(&step,F),T).

true(&always(&step,F),T) :- formula(del,&always(&step,F)), time(T), T >= n.
true(&always(&step,F),T) :- formula(del,&always(&step,F)), time(T), T < n,
    true(F,T+1).
true(F,T+1) :- formula(del,&always(&step,F)), time(T), T < n,
    true(&always(&step,F),T).

true(&always(&test(G),F),T) :- formula(del,&always(&test(G),F)), time(T),
    not true(G,T).
true(&always(&test(G),F),T) :- formula(del,&always(&test(G),F)), time(T),
    true(F,T).
true(F,T) :- formula(del,&always(&test(G),F)), time(T),
    true(&always(&test(G),F),T), true(G,T).
"""


# ---------------------------------------------------------------------------
# Schema instantiation


_BASE_SCHEMAS = (CORE_SCHEMA, BRIDGE_SCHEMA, BASIC_SCHEMA)

#: The schemas each logic grounds.  MEL leaves TEL's out: its grammar
#: rewrites unary &next and &eventually into their interval forms, so no
#: mel formula matches a TEL schema pattern.  DEL's grammar extends TEL's.
SCHEMAS = {"tel": _BASE_SCHEMAS + (TEL_SCHEMA,),
           "mel": _BASE_SCHEMAS + (MEL_SCHEMA,),
           "del": _BASE_SCHEMAS + (TEL_SCHEMA, DEL_SCHEMA)}


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
    def layout(self) -> list:
        """Per state T, (key, memo, always, terms, tau, taus): key reads a
        model's bytes at the positions the state's shown terms and, for
        MEL, its tau atoms probe, memo maps a key to the state's
        (frozenset of shown terms, tau value), always are the terms
        shown in every model, terms the others as (rendered, getter,
        the bytes it must read), tau is V of a fact tau(T,V) (or None)
        and taus the (position, V) of each tau(T,V) of the table, in id
        order.  A term probes hold(|L|,T) for each literal L of its
        tuple; a probe of an atom outside the table reads the facts."""
        index, facts, n = self.program.index, self.program.facts, self.n
        fixed, found = [None] * (n + 1), [[] for _ in range(n + 1)]
        for a in chain(facts, index) if self.semantics == "mel" else ():
            if isinstance(a, Function) and a.name == "tau" \
                    and len(a.args) == 2:
                t, v = a.args
                if isinstance(t, Integer) and 0 <= t.value <= n \
                        and isinstance(v, Integer):
                    i = index.get(a)
                    if i is None:
                        fixed[t.value] = v.value
                    else:
                        found[t.value].append((i, v.value))
        shown = [(str(term), self.db.literal_tuples.get(b, ()))
                 for _, term, b in self.db.shows]
        layout = []
        for t in range(n + 1):
            positions: dict = {}  # every position the state reads
            always, terms = [], []
            for rendered, literals in shown:
                need = {}  # model position -> the byte it must hold
                for l in literals:
                    a, positive = Function(
                        "hold", (Integer(abs(l)), Integer(t))), l > 0
                    i = index.get(a)
                    if i is None:
                        if (a in facts) != positive:
                            break
                    elif need.setdefault(i, int(positive)) != positive:
                        break  # a literal and its complement
                else:
                    want = tuple(need.values())
                    if not want:
                        always.append(rendered)
                    else:  # shown if its getter reads the bytes it needs
                        positions.update(need)
                        terms.append((rendered, itemgetter(*need),
                                      want if len(want) > 1 else want[0]))
            positions.update(found[t])
            key = itemgetter(*positions) if positions else (lambda true: ())
            layout.append((key, {}, always, terms, fixed[t], found[t]))
        return layout


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


#: The most keys a state's memo keeps; a later key is read every time.
MEMO_KEYS = 1024


def extract_model(meta: MetaProgram, atoms) -> Tuple[tuple, Optional[tuple]]:
    """Project a stable model of the meta program onto shown states.

    `atoms` is the whole model, the program's facts included: a model's
    `Atoms` view as the solver gives it, or any set of atoms, read as
    the bytes of the program's atom table.  A term is shown at T when
    `atoms` has hold(L,T) for each positive literal L of its tuple and
    hold(-L,T) for no negative one.  Returns (states, tau): states is a
    tuple of n+1 frozensets of rendered terms; tau maps each state to
    its time point for MEL, else None.

    The probes are resolved once per program (MetaProgram.layout): a
    model is read as one key of bytes per state, and a key seen before
    gives the state's frozenset and tau value again without probing.
    Each state's memo keeps its first MEMO_KEYS keys.
    """
    true = atoms.true if isinstance(atoms, Atoms) else bytes(
        [a in atoms for a in meta.program.atoms])
    states, tau = [], []
    for key, memo, always, terms, value, taus in meta.layout:
        k = key(true)
        state = memo.get(k)
        if state is None:
            for i, v in taus:  # a later tau atom overrides an earlier one
                if true[i]:
                    value = v
            state = frozenset(chain(always, [
                rendered for rendered, get, want in terms
                if get(true) == want])), value
            if len(memo) < MEMO_KEYS:
                memo[k] = state
        states.append(state[0])
        tau.append(state[1])
    return tuple(states), tuple(tau) if meta.semantics == "mel" else None
