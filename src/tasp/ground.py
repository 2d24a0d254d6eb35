"""Bottom-up grounder with clingo-style simplifications.

Instantiates a transformed program over its Herbrand domain.  External
atoms and theory expressions are exempt from simplification; conditional
literals are expanded over domain predicates; arithmetic terms and
intervals are evaluated during instantiation.

A program is compiled into a Plan, then grounded.  The same engine
instantiates the internal meta-encodings, compiled once per process,
against reified-fact databases seeded as facts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from math import prod
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .syntax import (
    BinOp, Choice, Comparison, ConditionalLiteral, ConstDef, Constant,
    External, Function, Infimum, Integer, Literal, Program, ResourceLimit,
    Show, String, Supremum, TheoryExpression, UnaryMinus, Variable,
    map_payloads, substitute, with_args,
)

log = logging.getLogger(__name__)


class GroundingError(Exception):
    pass


class GroundingLimitError(GroundingError, ResourceLimit):
    pass


#: Function nesting bound for invented values: a derived atom may nest
#: this many levels deeper than the deepest atom grounding starts from.
MAX_TERM_DEPTH = 16

#: Hard cap on derivable atoms, guards non-terminating value invention.
MAX_ATOMS = 1_000_000


# ---------------------------------------------------------------------------
# Term evaluation


def term_depth(t) -> int:
    if not isinstance(t, (Function, TheoryExpression)):
        return 0
    return 1 + max([term_depth(a) for a in t.args
                    if isinstance(a, (Function, TheoryExpression))], default=0)


def _order_key(t):
    """Total order over ground terms: #inf < numbers < symbolic < #sup."""
    if isinstance(t, Infimum):
        return (0,)
    if isinstance(t, Integer):
        return (1, t.value)
    if isinstance(t, Constant):
        return (2, t.name, ())
    if isinstance(t, String):
        return (3, t.value)
    if isinstance(t, Function):
        return (4, t.name, len(t.args), tuple(_order_key(a) for a in t.args))
    if isinstance(t, TheoryExpression):
        return (5, t.operator, len(t.args), tuple(_order_key(a) for a in t.args))
    if isinstance(t, Supremum):
        return (6,)
    raise GroundingError("cannot order non-ground term %s" % (t,))


def compare_terms(op: str, a, b) -> bool:
    ka, kb = _order_key(a), _order_key(b)
    if op == "!=":
        return ka != kb
    if op == "<":
        return ka < kb
    if op == "<=":
        return ka <= kb
    if op == ">":
        return ka > kb
    if op == ">=":
        return ka >= kb
    raise GroundingError("unknown comparison %r" % op)


class DropInstance(Exception):
    """Raised when arithmetic makes a rule instance vacuous (e.g. x/0)."""


def eval_term(t, subst):
    """Substitute and fold arithmetic; returns a ground term.

    Intervals are not allowed here; use expand_term where they may occur.
    """
    if isinstance(t, Variable):
        if t.name not in subst:
            raise GroundingError("unbound variable %s" % t.name)
        return subst[t.name]
    if isinstance(t, (Function, TheoryExpression)):
        return with_args(t, tuple(eval_term(a, subst) for a in t.args))
    if isinstance(t, UnaryMinus):
        v = eval_term(t.arg, subst)
        if not isinstance(v, Integer):
            raise GroundingError("cannot negate %s" % (v,))
        return Integer(-v.value)
    if isinstance(t, BinOp):
        if t.op == "..":
            raise GroundingError("interval in non-expandable position")
        a = eval_term(t.left, subst)
        b = eval_term(t.right, subst)
        if not isinstance(a, Integer) or not isinstance(b, Integer):
            raise GroundingError("arithmetic on non-integers: %s %s %s" % (a, t.op, b))
        if t.op == "+":
            return Integer(a.value + b.value)
        if t.op == "-":
            return Integer(a.value - b.value)
        if t.op == "*":
            return Integer(a.value * b.value)
        if t.op in ("/", "\\"):
            if b.value == 0:
                log.warning("division by zero, dropping instance")
                raise DropInstance()
            if t.op == "/":
                return Integer(a.value // b.value)
            return Integer(a.value % b.value)
        raise GroundingError("unknown operator %r" % t.op)
    return t


def _interval(t, subst) -> range:
    """The integers of an interval L..U."""
    lo = eval_term(t.left, subst)
    hi = eval_term(t.right, subst)
    if not isinstance(lo, Integer) or not isinstance(hi, Integer):
        raise GroundingError("interval bounds must be integers")
    return range(lo.value, hi.value + 1)


def expand_term(t, subst) -> List:
    """Like eval_term but expands intervals into all their values."""
    if isinstance(t, BinOp) and t.op == "..":
        return [Integer(v) for v in _interval(t, subst)]
    if isinstance(t, (Function, TheoryExpression)):
        out = [()]
        for a in t.args:
            vals = expand_term(a, subst)
            out = [prefix + (v,) for prefix in out for v in vals]
        return [with_args(t, args) for args in out]
    return [eval_term(t, subst)]


def _expansion_size(t, subst) -> int:
    """How many values expand_term(t, subst) gives, from the interval
    bounds alone."""
    if isinstance(t, BinOp) and t.op == "..":
        return len(_interval(t, subst))
    if isinstance(t, (Function, TheoryExpression)):
        return prod(_expansion_size(a, subst) for a in t.args)
    return 1


def _expand_atom(atom, subst) -> List:
    """The atoms a head atom or #external target expands to.  An atom
    whose interval bounds give more than MAX_ATOMS of them hits the atom
    bound before any is built."""
    if _expansion_size(atom, subst) > MAX_ATOMS:
        raise GroundingLimitError("derivable-atom bound exceeded")
    return expand_term(atom, subst)


def _share_value(left, right, subst) -> bool:
    """Whether two bound terms have a value in common.  An interval side
    is tested by its bounds, without building its values."""
    lv, rv = [_interval(t, subst) if isinstance(t, BinOp) and t.op == ".."
              else expand_term(t, subst) for t in (left, right)]
    if isinstance(lv, range) and isinstance(rv, range):
        return max(lv.start, rv.start) < min(lv.stop, rv.stop)
    if isinstance(lv, range):
        lv, rv = rv, lv
    if isinstance(rv, range):
        return any(isinstance(v, Integer) and v.value in rv for v in lv)
    return not set(lv).isdisjoint(rv)


def term_is_bound(t, subst) -> bool:
    if isinstance(t, Variable):
        return t.name in subst
    if isinstance(t, (Function, TheoryExpression)):
        return all(term_is_bound(a, subst) for a in t.args)
    if isinstance(t, BinOp):
        return term_is_bound(t.left, subst) and term_is_bound(t.right, subst)
    if isinstance(t, UnaryMinus):
        return term_is_bound(t.arg, subst)
    return True


# ---------------------------------------------------------------------------
# Matching


def atom_key(a) -> tuple:
    if isinstance(a, TheoryExpression):
        return ("e", a.operator, len(a.args))
    if isinstance(a, Function):
        return ("a", a.name, len(a.args))
    if isinstance(a, Constant):
        return ("a", a.name, 0)
    raise GroundingError("not an atom: %s" % (a,))


def match(pattern, ground, subst) -> Optional[dict]:
    """Unify a (possibly partially bound) pattern against a ground atom."""
    if isinstance(pattern, Variable):
        bound = subst.get(pattern.name)
        if bound is None:
            out = dict(subst)
            out[pattern.name] = ground
            return out
        return subst if bound == ground else None
    if isinstance(pattern, (UnaryMinus, BinOp)):
        if not term_is_bound(pattern, subst):
            raise GroundingError(
                "arithmetic %s cannot be matched while unbound" % (pattern,))
        try:
            value = eval_term(pattern, subst)
        except DropInstance:
            return None
        return subst if value == ground else None
    if isinstance(pattern, Function):
        if not isinstance(ground, Function) or pattern.name != ground.name:
            return None
    elif isinstance(pattern, TheoryExpression):
        if not isinstance(ground, TheoryExpression) \
                or pattern.operator != ground.operator:
            return None
    else:
        return subst if pattern == ground else None
    if len(pattern.args) != len(ground.args):
        return None
    for p, g in zip(pattern.args, ground.args):
        subst = match(p, g, subst)
        if subst is None:
            return None
    return subst


# ---------------------------------------------------------------------------
# Ground program representation


class GroundRule(NamedTuple):
    head_kind: str  # "disjunction" or "choice"
    head: tuple     # ground atoms / expressions
    body: tuple     # of (positive: bool, atom)

    def __str__(self):
        head = "; ".join(str(h) for h in self.head)
        if self.head_kind == "choice":
            head = "{ %s }" % head
        body = "; ".join(("" if pos else "not ") + str(a) for pos, a in self.body)
        if not body:
            return "%s." % (head or ":- ")
        return "%s :- %s." % (head, body) if head else ":- %s." % body

    @property
    def is_fact(self) -> bool:
        return (self.head_kind == "disjunction" and len(self.head) == 1
                and not self.body)


@dataclass
class GroundProgram:
    """Facts, the rules left after simplification, and externals.  No rule
    names a fact: simplification drops a rule whose body negates a fact
    or whose disjunction holds one, and deletes a fact from a positive
    body or a choice.  So the solver leaves facts out of its search."""
    rules: List[GroundRule] = field(default_factory=list)
    facts: Dict = field(default_factory=dict)      # ordered set of atoms
    externals: Dict = field(default_factory=dict)  # ordered set of atoms
    symbol_table: Dict = field(default_factory=dict)
    grammar: Optional[object] = None
    show_signatures: Tuple = ()

    def __str__(self):
        lines = ["%s." % f for f in self.facts]
        lines += [str(r) for r in self.rules]
        lines += ["#external %s." % e for e in self.externals]
        return "\n".join(lines)

# ---------------------------------------------------------------------------
# Compiled plans
#
# A join is compiled into steps, one per literal, in the order in which
# the literals first become processable: the first literal, given the
# variables bound so far, that is a bound comparison, an assignment
# V = t, a bound atom, or a positive atom to scan.  Which literals are
# processable depends only on the names of the bound variables, so the
# order is fixed before any atom is seen.  Steps are tuples (op, x, y, z):
#
#   (CHECK, comparison, positive, None)   a bound comparison
#   (ASSIGN, name, term, None)             name = each value of term
#   (TEST, atom, positive, None)           a bound atom, recorded
#   (SCAN, key, keyterms, rest)            a positive atom, recorded
#   (STUCK, message, None, None)           nothing processable is left
#
# A scan reads one index list: the name/arity list of `key` when keyterms
# is None, else the list of the shape `key` (see Plan.shapes) under the
# values of keyterms; it matches the (position, pattern) pairs in rest.

CHECK, ASSIGN, TEST, SCAN, STUCK = range(5)


def _variables(t) -> set:
    """The variable names in t, which is bound when they all are."""
    if isinstance(t, Variable):
        return {t.name}
    if isinstance(t, (Function, TheoryExpression)):
        return set().union(*map(_variables, t.args))
    if isinstance(t, BinOp):
        return _variables(t.left) | _variables(t.right)
    if isinstance(t, UnaryMinus):
        return _variables(t.arg)
    return set()


def _has_interval(t) -> bool:
    """Whether expand_term(t) may give more than one value."""
    if isinstance(t, BinOp):
        return t.op == ".."
    if isinstance(t, (Function, TheoryExpression)):
        return any(map(_has_interval, t.args))
    return False


class _Condition(NamedTuple):
    """A compiled condition of a conditional literal (with its literal)
    or of a head element (literal None)."""
    steps: tuple
    negatives: tuple          # positions of negative literals' atoms
    error: Optional[str]      # set if over a non-domain predicate
    literal: Optional[Literal]


class _External(NamedTuple):
    target: object
    steps: tuple
    reads: tuple              # name/arity keys of the lists it reads


class _Rule(NamedTuple):
    steps: tuple
    reads: tuple
    body: tuple               # (positive, atom position) or _Condition
    head: tuple               # (atom, has interval, _Condition or None)
    kind: str                 # "choice" or "disjunction"


def _non_domain(rules, externals) -> set:
    """Predicates whose extension depends on choices, negation,
    disjunction or a conditional body literal: every derivable atom of
    the others is true."""
    non_domain = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            tainted = (isinstance(r.head, Choice)
                       or len(r.head.elements) > 1
                       or any(el.condition for el in r.head.elements))
            for b in r.body:
                if isinstance(b, ConditionalLiteral):
                    tainted = True
                elif not isinstance(b.payload, Comparison):
                    tainted |= (not b.positive
                                or atom_key(b.payload) in non_domain)
            if tainted:
                for el in r.head.elements:
                    key = atom_key(el.atom)
                    if key not in non_domain:
                        non_domain.add(key)
                        changed = True
        for e in externals:
            key = atom_key(e.target)
            if key not in non_domain:
                non_domain.add(key)
                changed = True
    return non_domain


def _payloads(s):
    """The atoms and comparisons of a rule or #external."""
    if isinstance(s, External):
        return chain((s.target,), (l.payload for l in s.condition))
    return chain(
        (el.atom for el in s.head.elements),
        (l.payload for el in s.head.elements for l in el.condition),
        (l.payload for b in s.body for l in (
            (b.literal,) + b.condition if isinstance(b, ConditionalLiteral)
            else (b,))))


def _read_keys(literals) -> tuple:
    """Keys of the name/arity lists a join over these literals reads."""
    return tuple(dict.fromkeys(
        atom_key(l.payload) for l in literals
        if not isinstance(l.payload, Comparison)))


def bind_constants(statements, constants: dict) -> list:
    """statements (rules and externals) with every constant named in
    constants replaced by its value, which may name other constants; a
    constant in predicate position stays."""
    consts = dict(constants)
    if not consts:
        return list(statements)

    def leaf(x):
        return consts.get(x.name) if isinstance(x, Constant) else None

    def payload(p):
        if isinstance(p, Comparison):
            return Comparison(p.op, substitute(p.left, leaf),
                              substitute(p.right, leaf))
        return p if isinstance(p, Constant) else substitute(p, leaf)

    for name in list(consts):
        consts[name] = substitute(consts[name], leaf)
    return [map_payloads(s, payload) for s in statements]


class Plan:
    """A program compiled for grounding: for each external, rule and
    condition, its join steps and the index lists they read.

    The values of `constants`, over the program's ``#const`` definitions,
    are bound into the statements.  The constants named in `params`
    become variables of the same name instead, which each grounding binds
    in the first substitution of every join, so one plan serves every
    value of them.  Grounding does not change a plan."""

    def __init__(self, program: Program, constants: Optional[dict] = None,
                 params=()):
        consts = {d.name: d.value for d in program.directives(ConstDef)}
        for name, value in (constants or {}).items():
            consts[name] = Integer(value) if isinstance(value, int) else value
        consts.update((name, Variable(name)) for name in params)
        self.params = tuple(params)
        self.show_signatures = tuple(
            s.signature for s in program.directives(Show)
            if s.signature is not None)
        rules = bind_constants(program.rules, consts)
        externals = bind_constants(program.directives(External), consts)
        #: the nesting depth of the program's deepest atom
        self.depth = max((term_depth(p) for s in chain(rules, externals)
                          for p in _payloads(s)), default=0)
        self._non_domain = _non_domain(rules, externals)
        #: name/arity key -> the shapes its scans look up; a shape
        #: (key, value positions, functor positions) indexes an atom by
        #: its arguments at the value positions, if its argument at each
        #: functor position has the given name/arity key.
        self.shapes: Dict[tuple, tuple] = {}
        bound = frozenset(params)
        self.externals = tuple(self._external(e, bound) for e in externals)
        self.rules = tuple(self._rule(r, bound) for r in rules)

    def _external(self, e, bound) -> _External:
        # a negative literal need only be bound, and is not recorded
        steps, _, _ = self._steps([(i if l.positive else None, l)
                                   for i, l in enumerate(e.condition)], bound)
        return _External(e.target, steps,
                         _read_keys(l for l in e.condition if l.positive))

    def _rule(self, r, bound) -> _Rule:
        # conditionals never bind outer variables; expanded per instance
        steps, recorded, bound = self._steps(
            [(i, b) for i, b in enumerate(r.body)
             if not isinstance(b, ConditionalLiteral)], bound)
        position = {i: j for j, i in enumerate(recorded)}
        body = []
        for i, b in enumerate(r.body):
            if isinstance(b, ConditionalLiteral):
                body.append(self._condition(b.condition, bound, b.literal))
            elif i in position:  # atoms, not comparisons
                body.append((b.positive, position[i]))
        head = tuple(
            (el.atom, _has_interval(el.atom),
             self._condition(el.condition, bound) if el.condition else None)
            for el in r.head.elements)
        # a rule reads its positive body atoms and all its condition atoms
        reads = _read_keys(chain(
            (c for b in r.body for c in (
                b.condition if isinstance(b, ConditionalLiteral)
                else (b,) if b.positive else ())),
            (c for el in r.head.elements for c in el.condition)))
        kind = "choice" if isinstance(r.head, Choice) else "disjunction"
        return _Rule(steps, reads, tuple(body), head, kind)

    def _condition(self, condition, bound, literal=None) -> _Condition:
        steps, recorded, _ = self._steps(list(enumerate(condition)), bound)
        error = next((
            "conditional literal condition over non-domain predicate %s/%d"
            % atom_key(c.payload)[1:] for c in condition
            if not isinstance(c.payload, Comparison)
            and atom_key(c.payload) in self._non_domain), None)
        return _Condition(
            steps, tuple(j for j, i in enumerate(recorded)
                         if not condition[i].positive), error, literal)

    def _steps(self, literals, bound):
        """The steps of a join over literals, a list of (i, literal) with
        i None for a literal that need only be bound; the i of each
        literal whose atom a step records, in step order; and the
        variables bound at the end."""
        pending, bound = list(literals), set(bound)
        steps, recorded = [], []
        while pending:
            for k, (i, lit) in enumerate(pending):
                p = lit.payload
                if isinstance(p, Comparison):
                    left = _variables(p.left) <= bound
                    right = _variables(p.right) <= bound
                    if left and right:
                        steps.append((CHECK, p, lit.positive, None))
                        break
                    var, value = (p.right, p.left) if left \
                        else (p.left, p.right)
                    if lit.positive and p.op == "=" and (left or right) \
                            and isinstance(var, Variable):
                        steps.append((ASSIGN, var.name, value, None))
                        bound.add(var.name)
                        break
                elif _variables(p) <= bound:
                    if i is not None:
                        steps.append((TEST, p, lit.positive, None))
                        recorded.append(i)
                    break
                elif lit.positive:
                    steps.append(self._scan(p, bound))
                    recorded.append(i)
                    bound |= _variables(p)
                    break
            else:
                steps.append((STUCK, "cannot instantiate body: unbound %s"
                              % "; ".join(str(l) for _, l in pending),
                              None, None))
                break
            del pending[k]
        return tuple(steps), recorded, bound

    def _scan(self, pattern, bound) -> tuple:
        """The scan step of a positive atom with unbound variables: bound
        arguments are value positions of its shape, and partly bound
        functions or expressions functor positions."""
        key = atom_key(pattern)
        values, functors, keyterms, rest = [], [], [], []
        for pos, arg in enumerate(pattern.args):
            if _variables(arg) <= bound:
                values.append(pos)
                keyterms.append(arg)
                continue
            if isinstance(arg, (Function, TheoryExpression)):
                functors.append((pos, atom_key(arg)))
            rest.append((pos, arg))
        if not values and not functors:
            return (SCAN, key, None, tuple(rest))
        shape = (key, tuple(values), tuple(functors))
        if shape not in self.shapes.get(key, ()):
            self.shapes[key] = self.shapes.get(key, ()) + (shape,)
        return (SCAN, shape, tuple(keyterms), tuple(rest))


# ---------------------------------------------------------------------------
# Grounder


class Grounder:
    def __init__(self, program, constants: Optional[dict] = None,
                 grammar=None, facts=()):
        """program is a Program, compiled here with the values of
        constants, or a Plan, grounded with them as the values (ground
        terms) of its parameters; a parameter without one stays a
        symbolic constant.  facts are atoms true from the start, seeded
        in order before any join."""
        if isinstance(program, Plan):
            self.plan = program
            self.params = {name: (constants or {}).get(name, Constant(name))
                           for name in program.params}
        else:
            self.plan, self.params = Plan(program, constants), {}
        self.show_signatures = self.plan.show_signatures
        self.grammar = grammar
        self.seeds = list(facts)
        self.derivable: Dict = {}
        self._index: Dict[tuple, List] = {}      # name/arity key -> atoms
        self._arg_index: Dict[tuple, List] = {}  # (shape, values) -> atoms
        self.counters = dict.fromkeys((  # logged by ground
            "rounds", "joins", "joins_skipped", "simplify_rounds",
            "rules_dropped"), 0)

    # -- derivable index -------------------------------------------------------

    def _add_derivable(self, atom) -> bool:
        if atom in self.derivable:
            return False
        if term_depth(atom) > self.max_depth:
            raise GroundingLimitError(
                "value-creation depth bound exceeded at %s" % (atom,))
        self._insert(atom)
        return True

    def _insert(self, atom):
        if len(self.derivable) > MAX_ATOMS:
            raise GroundingLimitError("derivable-atom bound exceeded")
        self.derivable[atom] = None
        key = atom_key(atom)
        self._index.setdefault(key, []).append(atom)
        # every list is append-only: a subsequence of the name/arity list
        for shape in self.plan.shapes.get(key, ()):
            _, values, functors = shape
            args = atom.args
            if all(isinstance(args[pos], (Function, TheoryExpression))
                   and atom_key(args[pos]) == sig for pos, sig in functors):
                self._arg_index.setdefault(
                    (shape, tuple([args[pos] for pos in values])),
                    []).append(atom)

    # -- body joins ------------------------------------------------------------

    def _join(self, steps, subst) -> Iterator[tuple]:
        """Each extension of subst through steps, with the tuple of atoms
        the steps recorded, depth first.  A step runs when the search
        reaches it, so it sees every atom derived from the solutions
        yielded before; a scan reads its list as it is at that moment."""
        derivable = self.derivable
        end = len(steps)
        stack = [(0, subst, ())]
        while stack:
            k, s, found = stack.pop()
            if k == end:
                yield s, found
                continue
            op, x, y, z = steps[k]
            k += 1
            if op == SCAN:
                if y is None:
                    candidates = self._index.get(x, ())
                elif not self._index.get(x[0]):
                    continue  # keyterms are not evaluated without atoms
                else:
                    try:
                        values = tuple([eval_term(t, s) for t in y])
                    except DropInstance:
                        continue
                    candidates = self._arg_index.get((x, values), ())
                for cand in reversed(candidates):  # popped in list order
                    args, s2 = cand.args, s
                    for pos, p in z:
                        s2 = match(p, args[pos], s2)
                        if s2 is None:
                            break
                    else:
                        stack.append((k, s2, found + (cand,)))
            elif op == TEST:
                try:
                    atom = eval_term(x, s)
                except DropInstance:
                    continue
                # a negative literal is deferred and does not filter here
                if not y or atom in derivable:
                    stack.append((k, s, found + (atom,)))
            elif op == CHECK:
                if self._comparison_holds(x, y, s):
                    stack.append((k, s, found))
            elif op == ASSIGN:
                try:
                    values = expand_term(y, s)
                except DropInstance:
                    continue
                for v in reversed(values):
                    s2 = dict(s)
                    s2[x] = v
                    stack.append((k, s2, found))
            else:
                raise GroundingError(x)

    # -- conditional expansion ---------------------------------------------------

    def expand_condition(self, condition: _Condition, subst) -> List[dict]:
        """All extensions of subst satisfying a compiled condition; a
        bound negative literal drops the extensions where it is derivable
        (the condition is over domain predicates only)."""
        if condition.error:
            raise GroundingError(condition.error)
        return [s for s, found in self._join(condition.steps, subst)
                if not any(found[j] in self.derivable
                           for j in condition.negatives)]

    # -- main fixpoint -------------------------------------------------------------

    def ground(self) -> GroundProgram:
        # a derived atom may nest MAX_TERM_DEPTH levels deeper than the
        # deepest seed or program atom
        deepest = self.plan.depth
        for atom in self.seeds:
            if atom not in self.derivable:
                deepest = max(deepest, term_depth(atom))
                self._insert(atom)
        self.max_depth = MAX_TERM_DEPTH + deepest
        # A join whose index lists kept the sizes they had when it last
        # started would yield the same instances again, so it is skipped;
        # one that grew its own input during its run is joined again.
        # External instances join the domain first.
        jobs = self.plan.externals + self.plan.rules
        first_rule = len(self.plan.externals)
        sizes: List[Optional[tuple]] = [None] * len(jobs)
        instances: List[list] = [[] for _ in self.plan.rules]
        external_atoms: Dict = {}
        grew = True
        while grew:
            grew = False
            self.counters["rounds"] += 1
            for i, job in enumerate(jobs):
                now = tuple(len(self._index.get(k, ())) for k in job.reads)
                if now == sizes[i]:
                    self.counters["joins_skipped"] += 1
                    continue
                sizes[i] = now
                self.counters["joins"] += 1
                if i < first_rule:
                    for subst, _ in self._join(job.steps, self.params):
                        try:
                            targets = _expand_atom(job.target, subst)
                        except DropInstance:
                            continue
                        for target in targets:
                            external_atoms.setdefault(target)
                            grew |= self._add_derivable(target)
                    continue
                insts = instances[i - first_rule] = []
                for subst, found in self._join(job.steps, self.params):
                    for inst in self._build_instance(job, subst, found):
                        insts.append(inst)
                        for h in inst[1]:
                            grew |= self._add_derivable(h)
        program = self._finalize(
            (inst for insts in instances for inst in insts), external_atoms)
        log.debug("ground: %s", ", ".join(
            "%d %s" % (v, k.replace("_", " "))
            for k, v in self.counters.items()))
        return program

    def _build_instance(self, rule: _Rule, subst, found):
        """All ground instances of one rule under a solution of its join
        (head intervals expand conjunctively, i.e. into separate rules).
        The body is assembled in body order from the join's ground atoms;
        only conditional literals are expanded here."""
        body = []
        try:
            for entry in rule.body:
                if not isinstance(entry, _Condition):
                    body.append((entry[0], found[entry[1]]))
                    continue
                lit = entry.literal
                for s2 in self.expand_condition(entry, subst):
                    if not isinstance(lit.payload, Comparison):
                        body.append(
                            (lit.positive, eval_term(lit.payload, s2)))
                    elif not self._comparison_holds(
                            lit.payload, lit.positive, s2):
                        return []
            heads = self._ground_head(rule.head, subst)
        except DropInstance:
            return []
        body = tuple(body)
        return [(rule.kind, head, body) for head in heads]

    def _comparison_holds(self, cmp, positive, subst) -> bool:
        """Whether a bound comparison holds.  = tests whether the sides
        share a value, so an interval gives membership (X = 1..N) and an
        empty one makes X = 3..1 false; other comparisons need one value
        on each side.  Division by zero fails it, negated or not."""
        try:
            if cmp.op == "=":
                return _share_value(cmp.left, cmp.right, subst) == positive
            lv = expand_term(cmp.left, subst)
            rv = expand_term(cmp.right, subst)
        except DropInstance:
            return False
        if len(lv) != 1 or len(rv) != 1:
            raise GroundingError("interval with %r comparison" % cmp.op)
        return compare_terms(cmp.op, lv[0], rv[0]) == positive

    def _ground_head(self, head, subst) -> List[tuple]:
        """Alternative heads: conditioned elements expand disjunctively,
        interval pooling in bare elements expands conjunctively."""
        alternatives: List[list] = [[]]
        for atom, pooled, condition in head:
            if condition is not None:
                atoms = []
                for s2 in self.expand_condition(condition, subst):
                    atoms.extend(_expand_atom(atom, s2) if pooled
                                 else [eval_term(atom, s2)])
                alternatives = [alt + atoms for alt in alternatives]
                continue
            values = _expand_atom(atom, subst) if pooled \
                else [eval_term(atom, subst)]
            if len(values) == 1:
                alternatives = [alt + values for alt in alternatives]
            else:
                alternatives = [alt + [v]
                                for alt in alternatives for v in values]
        return [tuple(dict.fromkeys(alt)) for alt in alternatives]


    # -- simplification -----------------------------------------------------------

    @staticmethod
    def _simplify(r, facts, externals, underivable):
        """r against the current facts and non-derivable atoms: None when
        the rule is dropped.  A disjunction holding a fact is satisfied;
        fact atoms in a choice are vacuous elements."""
        head = r.head
        if head and not r.is_fact:
            if r.head_kind == "disjunction":
                if any(h in facts for h in head):
                    return None
            else:
                head = tuple(h for h in head if h not in facts)
                if not head:
                    return None
        body = []
        for pos, atom in r.body:
            if atom in externals:
                body.append((pos, atom))
            elif atom in facts:
                if not pos:
                    return None
            elif atom in underivable:
                if pos:
                    return None
            else:
                body.append((pos, atom))
        return GroundRule(r.head_kind, head, tuple(body))

    def _finalize(self, collected, external_atoms) -> GroundProgram:
        rules = list(dict.fromkeys(GroundRule(*inst) for inst in collected))
        externals = dict(external_atoms)
        occurs: Dict = {}   # atom -> indices of the rules mentioning it
        # atom -> number of rules with it in the head; a seed counts as
        # the head of a fact rule before all others
        support: Dict = dict.fromkeys(self.seeds, 1)
        for i, r in enumerate(rules):
            for h in r.head:
                support[h] = support.get(h, 0) + 1
                occurs.setdefault(h, []).append(i)
            for _, a in r.body:
                occurs.setdefault(a, []).append(i)
        # Rounds as in a full re-scan: facts found in one round are
        # promoted, in rule order, at the start of the next, and atoms
        # that lost their last head count as non-derivable from then on.
        # A round re-simplifies only the rules mentioning such an atom.
        facts: Dict = {}
        underivable = set()
        seeded = self.seeds
        promoted = [i for i, r in enumerate(rules) if r.is_fact]
        lost = [a for a in occurs if a not in support and a not in externals]
        while True:
            underivable.update(lost)
            new_facts = dict.fromkeys(
                h for h in chain(seeded, (rules[i].head[0]
                                          for i in sorted(promoted)))
                if h not in facts and h not in externals)
            seeded = ()
            facts.update(new_facts)
            work = {i for a in chain(lost, new_facts)
                    for i in occurs.get(a, ())}
            if not work:
                break
            self.counters["simplify_rounds"] += 1
            lost, promoted = [], []
            for i in work:
                r = rules[i]
                if r is None:
                    continue
                new = self._simplify(r, facts, externals, underivable)
                if new == r:
                    continue
                rules[i] = new
                for h in r.head:
                    if new is None or h not in new.head:
                        support[h] -= 1
                        if not support[h] and h not in externals:
                            lost.append(h)
                if new is None:
                    self.counters["rules_dropped"] += 1
                elif new.is_fact:
                    promoted.append(i)
        del occurs, support, underivable

        # facts leave the rule list; simplification may merge instances
        out_rules = list(dict.fromkeys(
            r for r in rules
            if r is not None and not (r.is_fact and r.head[0] in facts)))

        symbol_table: Dict = {}
        for f in facts:
            symbol_table[f] = None
        for e in externals:
            symbol_table[e] = None
        for r in out_rules:
            for h in r.head:
                symbol_table[h] = None
            for _, a in r.body:
                symbol_table[a] = None

        return GroundProgram(
            rules=out_rules, facts=facts, externals=externals,
            symbol_table=symbol_table, grammar=self.grammar,
            show_signatures=self.show_signatures)
