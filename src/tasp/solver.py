"""Stable models of ground programs (normal, disjunctive and choice rules,
integrity constraints) by one conflict-driven engine over completion
nogoods (Gebser, Kaufmann and Schaub, "Conflict-driven answer set solving:
From theory to practice", AIJ 2012): a rule body of one literal is that
literal, any other distinct rule body (the empty one, and those of two
or more literals) is a variable equivalent to its literals, a rule gives
body -> heads, and an atom implies one of its bodies (Clark's
completion).  The debug line of each solve counts the body variables.
A model of these clauses is stable iff no positive loop is unfounded
(Lin and Zhao, AIJ 2004), so source pointers track only the atoms on
loops and each unfounded set yields a loop nogood.  The search learns
first-UIP clauses over a trail with watched literals, backjumps and
flips the last decision after each model, without recursion and with no
clause per model (Gebser, Kaufmann, Neumann and Schaub, LPNMR 2007).  A
model with two true heads of one rule must also hold no unfounded set
by the disjunctive definition (Leone, Rullo and Scarcello, Inf. Comput.
1997).  One tester per search, a second instance of the engine built on
the first such model, finds one under the model as assumptions (Gebser,
Kaufmann and Schaub, IJCAI 2013).  The program's facts stay outside both
engines: no rule names one, so a model is the facts, shared by all
models, plus the atoms the search made true.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from itertools import chain, compress, islice
from typing import Dict, Iterator, List, Optional

from .ground import GroundProgram
from .syntax import ResourceLimit, components

log = logging.getLogger(__name__)


class SolverError(Exception):
    pass


class StepLimitError(SolverError, ResourceLimit):
    pass


#: Default bound on search work: literals propagated plus clauses and
#: unfounded-set candidates visited, and the atoms of each model listed.
DEFAULT_STEP_LIMIT = 10_000_000


class Atoms(Set):
    """The atoms of a model as a read-only set: the program's facts, and
    per atom of its table a byte, 1 if the model makes it true.  The
    facts and the atom index are the program's, shared by all models."""

    __slots__ = ("facts", "index", "true")

    def __init__(self, facts, index: dict, true):
        self.facts, self.index, self.true = facts, index, true

    def __contains__(self, atom):
        i = self.index.get(atom)
        return atom in self.facts if i is None else self.true[i] == 1

    def __iter__(self):
        return chain(self.facts, compress(self.index, self.true))

    def __len__(self):
        return len(self.facts) + self.true.count(1)

    def __hash__(self):
        return hash(frozenset(self))

    def __repr__(self):
        return "Atoms(%r)" % set(self)


@dataclass(frozen=True)
class Model:
    atoms: Atoms


#: Maps the values of a total assignment's positive literals to model
#: bytes: 1 (true) stays 1, 2 (false) becomes 0.
_MODEL_BYTES = bytes.maketrans(b"\2", b"\0")


def _loops(succ) -> List[int]:
    """Per node of a graph given by successor lists, the first node of its
    component if that is cyclic, else -1 (see syntax.components)."""
    comp = [-1] * len(succ)
    for nodes, cyclic in components(succ):
        for v in nodes if cyclic else ():
            comp[v] = nodes[0]
    return comp


class _Engine:
    """Conflict-driven search over literals 2v (v true) and 2v+1 (v
    false), each valued 1 (true), 2 (false) or 0 (open): a model is the
    values of the atoms' positive literals, every other entry of the
    value list, as bytes with 2 translated to 0.  Variables below natoms
    are atoms, the rest rule bodies of none or of two or more literals;
    a body of one literal is that literal.  A body is named by its
    literal throughout."""

    def __init__(self, natoms: int, rules, step_limit: int):
        self.natoms, self.rules, self.step_limit = natoms, rules, step_limit
        self.steps, self.counters = 0, dict.fromkeys((  # logged by solve
            "decisions", "conflicts", "learned", "loop_nogoods",
            "unfounded_checks", "minimality_checks", "tester_atoms",
            "tester_steps"), 0)
        succ = [[] for _ in range(natoms)]
        self.supports = supports = [[] for _ in range(natoms)]
        self.imp = imp = [[] for _ in range(2 * natoms)]
        self.watches = watches = [[] for _ in range(2 * natoms)]
        self.rule_body = rule_body = []  # per rule; -1 for a constraint
        self.disjunctive = []  # (heads, body) of each disjunctive rule
        keys: Dict = {}  # (positive, negative) body -> its variable's literal
        units, rule_clauses = [], []
        nv = natoms
        for choice, heads, pos, neg in rules:
            if not (heads or choice):  # a constraint needs no body literal
                rule_body.append(-1)
                rule_clauses.append(list(dict.fromkeys(
                    [2 * p + 1 for p in pos] + [2 * q for q in neg])))
                continue
            if len(pos) + len(neg) == 1:
                b = 2 * pos[0] if pos else 2 * neg[0] + 1
            else:
                key = (frozenset(pos), frozenset(neg))
                b = keys.get(key)
                if b is None:
                    lits = [2 * p for p in sorted(key[0])] \
                        + [2 * q + 1 for q in sorted(key[1])]
                    if len(lits) == 1:  # one literal, repeated
                        b = lits[0]
                    else:  # b <-> the conjunction of lits
                        b = keys[key] = 2 * nv
                        nv += 1
                        imp += ([], [])
                        watches += ([], [])
                        for x in lits:
                            imp[b].append(x)
                            imp[x ^ 1].append(b + 1)
                        if lits:
                            c = [b] + [x ^ 1 for x in lits]
                            watches[b].append(c)
                            watches[c[1]].append(c)
                        else:
                            units.append(b)
            rule_body.append(b)
            for h in heads:
                succ[h] += pos
                if b not in supports[h]:
                    supports[h].append(b)
            if choice:
                continue
            if len(heads) == 1:
                rule_clauses.append([b ^ 1, 2 * heads[0]])
            else:
                hs = dict.fromkeys(heads)
                if len(hs) > 1:
                    self.disjunctive.append((set(hs), b))
                rule_clauses.append([b ^ 1] + [2 * h for h in hs])
        # the rule clauses follow the body clauses and precede the
        # completion, as the implication lists' order steers the search
        fact = keys.get((frozenset(), frozenset()))
        for c in chain(rule_clauses, ([2 * a + 1] + supports[a]
                                      for a in range(natoms)
                                      if fact not in supports[a])):
            if len(c) == 2:  # binary clauses as implications
                imp[c[0] ^ 1].append(c[1])
                imp[c[1] ^ 1].append(c[0])
            elif len(c) > 2:
                watches[c[0]].append(c)
                watches[c[1]].append(c)
            else:
                units.append(c[0] if c else None)
        self.tester = None  # built by unstable on the first real check
        self.val = [0] * (2 * nv)  # per literal: 1 true, 2 false, 0 open
        self.level, self.reason = [0] * nv, [None] * nv
        self.trail, self.lim, self.qhead, self.ok = [], [], 0, True
        self.activity, self.inc, self.phase = [0.0] * nv, 1.0, [1] * nv
        self.decide = [True] * natoms + [False] * (nv - natoms)  # heap if open
        self.heap = [(0.0, a) for a in range(natoms)]
        for x in units:
            if x is None or not self._enqueue(x, None):
                self.ok = False
        # source pointers of the atoms on loops, if there are any
        self.scc = scc = _loops(succ)
        self.dep: Dict[int, List[int]] = {}  # loop atom -> bodies it is in
        if max(scc, default=-1) >= 0:
            self.src = [-1] * natoms
            self.bheads: Dict[int, List[int]] = {}  # body -> heads on loops
            for a in range(natoms):
                for b in supports[a] if scc[a] >= 0 else ():
                    self.bheads.setdefault(b, []).append(a)
            self.dep = {a: [] for a in range(natoms) if scc[a] >= 0}
            # each body once, in order of first use, and its positive
            # atoms: a variable's, a positive literal's one, or none
            positive = [pos for pos, _ in keys]  # per body variable
            for b in dict.fromkeys(rule_body):
                if b in self.bheads:
                    for p in positive[(b >> 1) - natoms] if b >= 2 * natoms \
                            else () if b & 1 else (b >> 1,):
                        if scc[p] >= 0:
                            self.dep[p].append(b)
        self.todo, self.ufs_head = list(self.dep), 0

    def _enqueue(self, lit, reason) -> bool:
        if self.val[lit]:
            return self.val[lit] == 1
        self.val[lit], self.val[lit ^ 1] = 1, 2
        self.level[lit >> 1], self.reason[lit >> 1] = len(self.lim), reason
        self.trail.append(lit)
        return True

    def _cancel(self, lvl):
        """Undo every decision level above lvl."""
        if len(self.lim) <= lvl:
            return
        start, val, heap = self.lim[lvl], self.val, self.heap
        for lit in self.trail[start:]:
            v = lit >> 1
            val[lit] = val[lit ^ 1] = 0
            self.phase[v] = lit & 1
            if self.decide[v]:
                heapq.heappush(heap, (-self.activity[v], v))
        del self.trail[start:], self.lim[lvl:]
        self.qhead, self.ufs_head = start, min(self.ufs_head, start)

    def _propagate(self):
        """Unit propagation to a fixpoint, or a clause it falsified.  A
        reason is a clause, or the false literal of a binary clause."""
        val, imp, watches, trail = self.val, self.imp, self.watches, self.trail
        level, reason, lvl = self.level, self.reason, len(self.lim)
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            false = lit ^ 1
            for x in imp[lit]:
                if not val[x]:
                    val[x], val[x ^ 1] = 1, 2
                    level[x >> 1], reason[x >> 1] = lvl, false
                    trail.append(x)
                elif val[x] == 2:
                    return [x, false]
            ws, keep = watches[false], []
            self.steps += len(imp[lit]) + len(ws) + 1
            for i, c in enumerate(ws):
                if c[0] == false:
                    c[0], c[1] = c[1], false
                first = c[0]
                if val[first] == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    if val[c[k]] != 2:
                        c[1], c[k] = c[k], false
                        watches[c[1]].append(c)
                        break
                else:
                    keep.append(c)
                    if val[first]:
                        watches[false] = keep + ws[i + 1:]
                        return c
                    val[first], val[first ^ 1] = 1, 2
                    level[first >> 1], reason[first >> 1] = lvl, c
                    trail.append(first)
            watches[false] = keep
        return None

    def _unfounded(self):
        """Re-source the loop atoms whose source body turned false since
        the last call, and the atoms of their loop depending on them; what
        cannot be re-sourced is unfounded and falsified through its loop
        nogood, which is returned instead if one of its atoms is true."""
        val, src, scc = self.val, self.src, self.scc
        bheads, dep, supports = self.bheads, self.dep, self.supports
        cand, self.todo = dict.fromkeys(self.todo), []
        for lit in self.trail[self.ufs_head:]:
            b = lit ^ 1  # a body that turned false, if it names one
            if b in bheads:
                cand.update((h, None) for h in bheads[b] if src[h] == b)
        self.ufs_head = len(self.trail)
        cand = {a: None for a in cand if val[2 * a] != 2}
        if not cand:
            return None
        self.counters["unfounded_checks"] += 1
        stack = list(cand)
        for p in stack:  # grows while it is read
            for b in dep[p]:
                for h in bheads[b]:
                    if src[h] == b and h not in cand and scc[h] == scc[p] \
                            and val[2 * h] != 2:
                        cand[h] = None
                        stack.append(h)
        missing = Counter(b for p in cand for b in dep[p])  # body -> cands
        work = list(cand)
        self.steps += 2 * len(work)
        while work:  # a body not false and free of candidates is a source
            a = work.pop()
            for b in supports[a] if a in cand else ():
                if not missing[b] and val[b] != 2:
                    src[a] = b
                    del cand[a]
                    for b2 in dep[a]:
                        missing[b2] -= 1
                        if not missing[b2]:
                            work += [h for h in bheads[b2] if h in cand]
                    break
        if not cand:
            return None
        self.counters["loop_nogoods"] += 1
        external = list(dict.fromkeys(
            b for a in cand for b in supports[a] if not missing[b]))
        for a in cand:
            if not self._enqueue(2 * a + 1, external):
                return [2 * a + 1] + external
        return None

    def _fixpoint(self):
        while True:
            conflict = self._propagate()
            if conflict is None and self.dep:
                conflict = self._unfounded()
            if self.steps > self.step_limit:
                raise StepLimitError("step limit exceeded")
            if conflict is not None or self.qhead == len(self.trail):
                return conflict

    def _learn(self, conflict, top, bl):
        """Learn a first-UIP clause from a clause false under the assignment
        with top level `top`, backjump no lower than `bl` and assert it."""
        level, trail = self.level, self.trail
        self._cancel(top)
        seen, learnt, open_, i, lits = set(), [], 0, len(trail) - 1, conflict
        while True:
            for lit in lits:
                v = lit >> 1
                if v not in seen and level[v] > 0:
                    seen.add(v)
                    self.activity[v] += self.inc
                    if level[v] == top:
                        open_ += 1
                    else:
                        learnt.append(lit)
            while trail[i] >> 1 not in seen:
                i -= 1
            uip, i, open_ = trail[i], i - 1, open_ - 1
            if not open_:
                break
            lits = self.reason[uip >> 1]
            lits = (lits,) if type(lits) is int else lits
        learnt.sort(key=lambda lit: -level[lit >> 1])
        self._cancel(max(level[learnt[0] >> 1] if learnt else 0, bl))
        self.inc = min(self.inc / 0.95, 1e100)  # decay, bounded below inf
        c = [uip ^ 1] + learnt
        if len(c) > 1:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)
        self.counters["learned"] += 1
        self._enqueue(c[0], c if len(c) > 1 else None)

    def models(self, assumptions=()):
        """Yield every stable model, deterministically, as one byte per
        atom, 1 if it is true; under assumptions (literals, all on
        decision level 1) only the first.  No clause is added per model:
        a model at level L flips L's decision (see _flip), and a conflict
        at or below the backtrack level bl flips the decision of its top
        level; first-UIP learning backjumps no lower than bl (Gebser,
        Kaufmann, Neumann and Schaub, LPNMR 2007).  Learnt clauses follow
        from the engine's own, so queries under assumptions share them; a
        query without them may flip onto level 0, whose literals learning
        takes as given, so it is the engine's last."""
        self._cancel(0)
        floor, bl = (1 if assumptions else 0), 0
        while self.ok:
            conflict = self._fixpoint()
            if conflict is None:
                if len(self.lim) < floor:  # again after a learnt unit
                    self.lim.append(len(self.trail))
                    if not all(self._enqueue(x, None) for x in assumptions):
                        return
                    continue
                while self.heap and self.val[2 * self.heap[0][1]]:
                    heapq.heappop(self.heap)
                if self.heap:
                    self.counters["decisions"] += 1
                    v = heapq.heappop(self.heap)[1]
                    self.lim.append(len(self.trail))
                    self._enqueue(2 * v + self.phase[v], None)
                    continue
                conflict = self.unstable()
                if conflict is None:
                    yield bytes(self.val[:2 * self.natoms:2]).translate(
                        _MODEL_BYTES)
                    if assumptions or not self.lim:
                        return
                    self.steps += self.natoms  # the listing, to bound time
                    bl = self._flip(len(self.lim))
                    continue
            else:
                self.counters["conflicts"] += 1
            top = max((self.level[x >> 1] for x in conflict), default=0)
            if top <= floor:
                self.ok = top > 0  # spent if false at level 0
                return
            if top <= bl:
                bl = self._flip(top)
            else:
                self._learn(conflict, top, bl)

    def _flip(self, top) -> int:
        """Undo level top and assert the negation of its decision on the
        level below with no reason; that level is the backtrack level."""
        decision = self.trail[self.lim[top - 1]]
        self._cancel(top - 1)
        self._enqueue(decision ^ 1, None)
        return top - 1

    def unstable(self) -> Optional[list]:
        """For a total assignment, a clause false under it if a non-empty
        set of its true atoms is unfounded, else None.  The loop nogoods
        leave such a set only where a rule has a true body and two true
        heads; the tester looks for one under the assignment."""
        val = self.val
        if not any(val[b] == 1 and sum(val[2 * h] == 1 for h in heads) > 1
                   for heads, b in self.disjunctive):
            return None
        self.counters["minimality_checks"] += 1
        if self.tester is None:
            self._build_tester()
        tester, n = self.tester, len(self.tested)
        tester._cancel(0)  # which saves the phases that the next line resets
        tester.phase[:n] = [0] * n  # each atom in U unless refuted
        before = tester.steps
        tester.step_limit = before + self.step_limit - self.steps
        found = next(tester.models(
            [2 * x + (val[m] == 2) for m, x in self.context]), None)
        self.counters["tester_steps"] += tester.steps - before
        self.steps += tester.steps - before
        if found is None:
            return None
        # U is unfounded: its first atom is false, or a rule supports it
        # from outside (true body, outside heads false)
        rest = list(compress(self.tested, found))
        inside, clause = set(rest), [2 * rest[0] + 1]
        for _, heads, pos, b in self.defining:
            if not inside.isdisjoint(heads) and inside.isdisjoint(pos):
                clause.append(b if val[b] == 2 else 1 + 2 * next(
                    h for h in heads if h not in inside and val[2 * h] == 1))
        self.counters["loop_nogoods"] += 1
        return clause

    def _build_tester(self):
        """The engine whose models are the non-empty unfounded sets U of
        the assignment given as assumptions (one rule of the definition of
        Leone, Rullo and Scarcello per rule head), within the atoms of the
        positive components that hold a head of a disjunctive rule: a
        check per component is complete (Koch, Leone and Pfeifer, AIJ
        2003).  Its atoms: one per atom in that set, true if it is in U;
        one per main literal the rules read (an atom or a body), fixed by
        the assumptions; one per other head of a disjunctive rule, all of
        which are in that set, true if it is true outside U."""
        comp = [a if c < 0 else c for a, c in enumerate(self.scc)]
        hit = {comp[h] for heads, _ in self.disjunctive for h in heads}
        self.tested = [a for a, c in enumerate(comp) if c in hit]
        u = {a: x for x, a in enumerate(self.tested)}
        self.defining = [(choice, heads, pos, b) for (choice, heads, pos, _), b
                         in zip(self.rules, self.rule_body)
                         if not u.keys().isdisjoint(heads)]
        ids: Dict = {}  # ("m", main literal) or ("y", head) -> atom

        def atom(kind, v):
            return ids.setdefault((kind, v), len(u) + len(ids))

        rules = [(False, (), (), tuple(u.values()))]
        rules += [(False, (), (u[a],), (atom("m", 2 * a),)) for a in u]
        for choice, heads, pos, b in self.defining:
            for a in dict.fromkeys(h for h in heads if h in u):
                other = () if choice else tuple(  # all heads are in u
                    atom("y", h) for h in dict.fromkeys(heads) if h != a)
                rules.append((False, (), (u[a], atom("m", b)),
                              tuple(u[p] for p in pos if p in u) + other))
        rules += [c for (kind, h), y in ids.items() if kind == "y" for c in (
            (False, (), (y,), (ids["m", 2 * h],)), (False, (), (y, u[h]), ()))]
        size = len(u) + len(ids)
        self.context = [(m, x) for (kind, m), x in ids.items() if kind == "m"]
        tester = self.tester = _Engine(
            size, [(True, tuple(range(size)), (), ())] + rules, 0)
        for _, x in self.context:  # the assumptions assign them
            tester.decide[x] = False
        tester.heap = [(0.0, a) for a in range(size) if tester.decide[a]]
        self.counters["tester_atoms"] = size


def models(program: GroundProgram) -> Iterator[Model]:
    """Yield the stable models one at a time, in a deterministic order;
    the search goes on only as far as the caller pulls, and at most
    DEFAULT_STEP_LIMIT steps.  Each model's atoms are a set view of the
    program's facts, shared by all models, and the atoms the search made
    true."""
    natoms, facts, index = len(program.atoms), program.facts, program.index
    engine = _Engine(natoms, [
        (choice, head, tuple([l for l in body if l >= 0]),
         tuple([~l for l in body if l < 0]))
        for choice, head, body in program.id_rules], DEFAULT_STEP_LIMIT)
    count = 0
    try:
        for model in engine.models():
            count += 1
            yield Model(Atoms(facts, index, model))
    finally:
        stats = dict(models=count, atoms=natoms, facts=len(facts),
                     body_variables=len(engine.level) - engine.natoms,
                     steps=engine.steps, **engine.counters)
        log.debug("solve: %s", ", ".join(
            "%d %s" % (v, k.replace("_", " ")) for k, v in stats.items()))


def solve(program: GroundProgram, limit: int = 0) -> List[Model]:
    """Enumerate stable models in a deterministic order.

    limit = 0 returns all models; otherwise at most `limit`.
    """
    found = models(program)
    try:
        return list(islice(found, limit or None))
    finally:
        found.close()

