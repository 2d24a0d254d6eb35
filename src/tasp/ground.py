"""Bottom-up grounder with clingo-style simplifications.

Instantiates a transformed program over its Herbrand domain.  Theory
expressions are function terms here, with the & in their name.  External
atoms are exempt from simplification; conditional literals are expanded
over domain predicates; an instance whose arithmetic is undefined is
dropped.

A program is compiled into a Plan, its terms and comparisons into
closures, then grounded.  The same engine
instantiates the internal meta-encodings, compiled once per process,
against reified-fact databases seeded as facts.  A plan grounded again
grounds with Python code generated from it (see tasp.codegen).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from itertools import chain, product
from math import prod
from operator import (
    add, floordiv, ge, getitem, gt, itemgetter, le, lt, mod, mul, ne, sub,
)
from typing import Dict, Iterator, List, NamedTuple, Optional

from .syntax import (
    ASSIGN, CHECK, SCAN, TEST, BinOp, Choice, Comparison, ConditionalLiteral,
    ConstDef, Constant, External, Function, Infimum, Integer, Literal, Program,
    ResourceLimit, String, Supremum, TheoryExpression, UnaryMinus, Variable,
    components, map_payloads, schedule, substitute, variables, walk,
    with_args,
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

#: Bound on the magnitude of an integer that arithmetic computes, the
#: largest signed 64-bit one: it stops squaring without end.
MAX_INTEGER = 2 ** 63 - 1


# ---------------------------------------------------------------------------
# Terms


def term_depth(t) -> int:
    if not isinstance(t, Function):
        return 0
    return 1 + max([term_depth(a) for a in t.args
                    if isinstance(a, Function)], default=0)


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
    if isinstance(t, Supremum):
        return (5,)
    raise GroundingError("cannot order non-ground term %s" % (t,))


_ORDER = {"!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def compare_terms(op: str, a, b) -> bool:
    if not (isinstance(a, Integer) and isinstance(b, Integer)):
        a, b = _order_key(a), _order_key(b)  # ints compare as they are
    return _ORDER[op](a, b)


class DropInstance(Exception):
    """Raised when undefined arithmetic makes a rule instance vacuous: an
    operand that is not an integer, or division by zero (as gringo)."""


def atom_key(a) -> tuple:
    """name/arity of an atom; a theory expression's name keeps its &."""
    if isinstance(a, Function):
        return a.name, len(a.args)
    if isinstance(a, Constant):
        return a.name, 0
    raise GroundingError("not an atom: %s" % (a,))


# ---------------------------------------------------------------------------
# Term compilation
#
# Every term a join or an instance evaluates is compiled, when its plan
# is built, into a closure over the substitution s, a dict from variable
# names to ground terms.  `bound` holds the names that s binds whenever
# the closure runs; a variable outside it is an error when it runs.  The
# type dispatch happens here, once per term: a ground subterm is returned
# as it is, a variable is one dict lookup, and a function builds its
# tuple directly.  Undefined arithmetic raises DropInstance.

_new = tuple.__new__  # builds a term without calling its class's __new__

_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": floordiv, "\\": mod}


def _is_ground(t) -> bool:
    """Whether t is a value: no variable and nothing to evaluate."""
    if isinstance(t, Function):
        return all(map(_is_ground, t[1]))
    return not isinstance(t, (Variable, BinOp, UnaryMinus))


def _is_interval(t) -> bool:
    return isinstance(t, BinOp) and t.op == ".."


def _atom_bound():
    """Raise the error of the derivable-atom bound."""
    raise GroundingLimitError("derivable-atom bound exceeded")


def _pooled(t) -> bool:
    """Whether an interval in t may expand it into more than one value."""
    if isinstance(t, Function):
        return any(map(_pooled, t[1]))
    if isinstance(t, BinOp):
        return t.op == ".." or _pooled(t.left) or _pooled(t.right)
    return isinstance(t, UnaryMinus) and _pooled(t.arg)


def _fail(message):
    """A closure that raises GroundingError(message) when it runs."""
    def fail(*_):
        raise GroundingError(message)
    return fail


def _value(t, bound):
    """s -> the value of t; an interval in t is an error when it runs
    (see _pool)."""
    if _is_ground(t):
        return lambda s: t
    if isinstance(t, Variable):
        if t.name in bound:
            return itemgetter(t.name)
        return _fail("unbound variable %s" % t.name)
    if isinstance(t, Function):
        args = _tuple(t.args, bound)
        if isinstance(t, TheoryExpression) and t.memberships:
            op, memberships = t.operator, t.memberships
            return lambda s: TheoryExpression(op, args(s), memberships)
        name, kind = t[0], type(t)
        return lambda s: _new(kind, (name, args(s)))
    if isinstance(t, UnaryMinus):
        arg = _value(t.arg, bound)
        return lambda s: negate(arg(s))
    if t.op == "..":
        return _fail("interval in non-expandable position")
    left, right, op = _value(t.left, bound), _value(t.right, bound), t.op
    return lambda s: arithmetic(op, left(s), right(s))


def negate(v):
    """The value of -v."""
    if type(v) is not Integer:
        raise GroundingError("cannot negate %s" % (v,))
    return Integer(-v)


def arithmetic(op, a, b):
    """The value of a op b, op one of + - * / \\: an operand that is not
    an integer, or division by zero, raises DropInstance."""
    if type(a) is Integer and type(b) is Integer:
        try:
            v = _ARITHMETIC[op](a, b)
        except ZeroDivisionError:
            log.warning("division by zero, dropping instance")
        else:
            if -MAX_INTEGER <= v <= MAX_INTEGER:
                return Integer(v)
            raise GroundingLimitError(
                "integer bound exceeded by %s%s%s" % (a, op, b))
    else:
        log.warning("operation undefined: %s%s%s, dropping instance",
                    a, op, b)
    raise DropInstance()


def _tuple(terms, bound):
    """s -> the tuple of the values of terms."""
    if all(map(_is_ground, terms)):
        values = tuple(terms)
        return lambda s: values
    names = [t.name for t in terms if isinstance(t, Variable)]
    if len(terms) > 1 and len(names) == len(terms) \
            and bound.issuperset(names):
        return itemgetter(*names)
    parts = [_value(t, bound) for t in terms]
    if len(parts) == 1:
        (f,) = parts
        return lambda s: (f(s),)
    if len(parts) == 2:
        f, g = parts
        return lambda s: (f(s), g(s))
    return lambda s: tuple([f(s) for f in parts])


def _interval(t, bound):
    """s -> the integers of an interval L..U, as a range."""
    lo, hi = _value(t.left, bound), _value(t.right, bound)

    def interval(s):
        a, b = lo(s), hi(s)
        if type(a) is not Integer or type(b) is not Integer:
            raise GroundingError("interval bounds must be integers")
        return range(a, b + 1)
    return interval


def _pool(t, bound):
    """(size, expand): s -> how many values t has, from the interval
    bounds alone, and s -> the values of t, with each interval that is
    not under arithmetic expanded into all its values."""
    if _is_interval(t):
        interval = _interval(t, bound)
        return (lambda s: len(interval(s)),
                lambda s: list(map(Integer, interval(s))))
    if isinstance(t, Function) and _pooled(t):
        sizes, args = zip(*[_pool(a, bound) for a in t.args])
        return (lambda s: prod([size(s) for size in sizes]),
                lambda s: [with_args(t, values)
                           for values in product(*[e(s) for e in args])])
    value = _value(t, bound)
    return lambda s: 1, lambda s: [value(s)]


def _values(t, bound):
    """s -> the values of a head atom, #external target or assigned term
    t: one whose interval bounds give more than MAX_ATOMS values hits the
    atom bound before any is built."""
    size, expand = _pool(t, bound)
    if not _pooled(t):
        return expand

    def values(s):
        if size(s) > MAX_ATOMS:
            _atom_bound()
        return expand(s)
    return values


def _function(t, args):
    """(v, s) -> whether ground value v is a function with the name and
    arity of function t whose arguments pass the tests args, each
    (x, s) -> bool, in order."""
    name, arity = t[0], len(t.args)

    def function(v, s):
        if not isinstance(v, Function) or v[0] != name or len(v[1]) != arity:
            return False
        for m, x in zip(args, v[1]):
            if not m(x, s):
                return False
        return True
    return function


def _member(t, bound):
    """(v, s) -> whether a ground value v is one of the values of term t,
    tested argument by argument without building them: a function needs
    the same name and arity, and each argument must fall in its interval
    or equal its term."""
    if _is_interval(t):
        interval = _interval(t, bound)
        return lambda v, s: type(v) is Integer and v in interval(s)
    if isinstance(t, Function) and not _is_ground(t):
        return _function(t, [_member(a, bound) for a in t.args])
    value = _value(t, bound)
    return lambda v, s: value(s) == v


def _shared(left, right, bound):
    """s -> whether two bound terms have a value in common.  Two
    intervals are compared by their bounds; otherwise each value of the
    side with fewer values is tested against the other side, so intervals
    are expanded, within the atom bound, only when both sides hold them."""
    if _is_interval(left) and _is_interval(right):
        lo, hi = _interval(left, bound), _interval(right, bound)

        def overlap(s):
            a, b = lo(s), hi(s)
            return max(a.start, b.start) < min(a.stop, b.stop)
        return overlap
    if not (_pooled(left) or _pooled(right)):
        value, member = _value(left, bound), _member(right, bound)
        return lambda s: member(value(s), s)
    sizes = _pool(left, bound)[0], _pool(right, bound)[0]
    values = _values(left, bound), _values(right, bound)
    members = _member(left, bound), _member(right, bound)

    def shared(s):
        left_size = sizes[0](s)
        small = 1 if sizes[1](s) < left_size else 0
        return any(members[1 - small](v, s) for v in values[small](s))
    return shared


def _comparison(cmp, positive, bound):
    """s -> whether the bound comparison cmp holds, if positive, or fails.
    = tests whether the sides share a value, so an interval gives
    membership (X = 1..N) and an empty one makes X = 3..1 false; other
    comparisons need one value on each side, which the interval bounds
    tell before any value is built.  Undefined arithmetic raises
    DropInstance, negated or not."""
    op, left, right = cmp.op, cmp.left, cmp.right
    if op == "=":
        holds = _shared(left, right, bound)
    elif _pooled(left) or _pooled(right):
        pools = _pool(left, bound), _pool(right, bound)

        def holds(s):
            if any(size(s) != 1 for size, _ in pools):
                raise GroundingError("interval with %r comparison" % op)
            return compare_terms(op, pools[0][1](s)[0], pools[1][1](s)[0])
    else:
        a, b, test = _value(left, bound), _value(right, bound), _ORDER[op]

        def holds(s):
            x, y = a(s), b(s)
            if type(x) is Integer and type(y) is Integer:
                return test(x, y)
            return compare_terms(op, x, y)
    return holds if positive else lambda s: not holds(s)


def _matcher(rest, bound):
    """(args, s) -> s extended so that the pattern of each (position,
    pattern) pair in rest matches an atom's argument at that position, or
    None.  A variable's first occurrence binds it and a later one tests
    it; an arithmetic part is matched last if it needs a variable that
    only a later part binds, as in q(X+1,X); see syntax.schedule."""
    bound = set(bound)
    waiting = []  # (path to an arithmetic part, the part)

    def part(p, path):
        """(g, out) -> whether ground term g matches pattern p, setting in
        out the variables that p binds first."""
        if _is_ground(p):
            return lambda g, out: p == g
        if isinstance(p, Variable):
            name = p.name
            if name in bound:
                return lambda g, out: out[name] == g
            bound.add(name)

            def bind(g, out):
                out[name] = g
                return True
            return bind
        if isinstance(p, Function):
            return _function(p, [part(a, path + (1, i))
                                 for i, a in enumerate(p.args)])
        if variables(p) <= bound:
            return _equal(p, bound)
        waiting.append((path, p))
        return lambda g, out: True

    parts = [(pos, part(p, (pos,))) for pos, p in rest]
    late = [(lambda args, path=path: reduce(getitem, path, args),
             _equal(p, bound)) for path, p in waiting]

    def match(args, s):
        out = dict(s)
        for pos, m in parts:
            if not m(args[pos], out):
                return None
        for get, m in late:
            if not m(get(args), out):
                return None
        return out
    return match


def _equal(t, bound):
    """(g, out) -> whether ground term g is the value of bound arithmetic
    t; not if the arithmetic is undefined."""
    value = _value(t, bound)

    def equal(g, out):
        try:
            return value(out) == g
        except DropInstance:
            return False
    return equal


# ---------------------------------------------------------------------------
# Ground program representation


class GroundRule(NamedTuple):
    head_kind: str  # "disjunction" or "choice"
    head: tuple     # ground atoms
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
    grammar: Optional[object] = None

    @property
    def symbol_table(self) -> Dict:
        """Every atom, as an ordered set: the facts, the externals, then
        each rule's head and body atoms in rule order."""
        return dict.fromkeys(chain(self.facts, self.externals, (
            a for r in self.rules
            for a in chain(r.head, (b for _, b in r.body)))))

    def __str__(self):
        lines = ["%s." % (f,) for f in self.facts]
        lines += [str(r) for r in self.rules]
        lines += ["#external %s." % (e,) for e in self.externals]
        return "\n".join(lines)

# ---------------------------------------------------------------------------
# Compiled plans
#
# A join is compiled into steps, one per literal, in the order that
# syntax.schedule gives from the names of the bound variables alone, so
# it is fixed before any atom is seen, and so is what each step
# evaluates, compiled as in "Term compilation".  Steps are tuples
# (op, x, y, z, source), op a schedule kind:
#
#   (CHECK, check, None, None, _)      a bound comparison, check(s)
#   (ASSIGN, name, values, None, _)    name = each of values(s)
#   (TEST, atom, positive, None, _)    the atom atom(s), recorded
#   (SCAN, key, keys, match, _)        a positive atom, recorded
#
# When no literal is processable, the last step is a CHECK whose check
# raises the error that names the unbound literals, with source None.  A
# scan reads one index list: the name/arity list of `key` when keys is
# None, else the list of the shape `key` (see Plan.shapes) under the
# values keys(s); match(args, s) extends s by each atom of it.  source is
# what the step was compiled from, for the code generator of
# tasp.codegen: (the comparison, assigned term or atom, positive, the
# variables bound before the step).


class _Condition(NamedTuple):
    """A compiled condition of a conditional literal (with its literal)
    or of a head element (literal None)."""
    steps: tuple
    negatives: tuple          # positions of negative literals' atoms
    error: Optional[str]      # set if over a non-domain predicate
    # (positive, atom closure, literal), or (None, check, literal) for a
    # comparison
    literal: Optional[tuple]
    bound: frozenset          # the variables bound at its end


class _Rule(NamedTuple):
    """A compiled rule, or an #external as the rule of kind "external"
    with its target as the one head atom and no body."""
    steps: tuple
    reads: tuple              # name/arity keys of the lists it reads
    body: tuple               # (positive, atom position) or _Condition
    head: tuple               # (values closure, _Condition or None, atom)
    atom: Optional[object]    # the closure of a lone bare head atom
    kind: str                 # "choice", "disjunction" or "external"
    bound: frozenset          # the variables bound at the join's end


def _tainted(s) -> bool:
    """Whether a rule or #external may leave a derivable head atom false,
    as an external, choice, disjunction, condition or negation does."""
    return isinstance(s, External) or isinstance(s.head, Choice) \
        or len(s.head.elements) > 1 \
        or any(el.condition for el in s.head.elements) \
        or any(isinstance(b, ConditionalLiteral) or not b.positive
               and not isinstance(b.payload, Comparison) for b in s.body)


def _components(deps) -> list:
    """The strongly connected components of the graph in which job j
    depends on the jobs deps[j] (see syntax.components), each as (its
    jobs in order, whether it depends on itself).  Of the components
    whose dependencies are done, the earliest job's is next."""
    comps = components(deps)
    comp_of = {j: c for c, (comp, _) in enumerate(comps) for j in comp}
    users, waiting, ready = [[] for _ in comps], [0] * len(comps), []
    for c, (comp, _) in enumerate(comps):
        for d in {comp_of[x] for j in comp for x in deps[j]} - {c}:
            users[d].append(c)
            waiting[c] += 1
        if not waiting[c]:
            heappush(ready, (comp[0], c))
    order = []
    while ready:
        c = heappop(ready)[1]
        order.append((tuple(comps[c][0]), comps[c][1]))
        for u in users[c]:
            waiting[u] -= 1
            if not waiting[u]:
                heappush(ready, (comps[u][0][0], u))
    return order


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


def _read_keys(s) -> tuple:
    """Keys of the name/arity lists the joins of a rule read, those of its
    positive body atoms and condition atoms (an external's: positive)."""
    literals = (l for l in s.condition if l.positive) \
        if isinstance(s, External) else chain(
            (c for b in s.body for c in (
                b.condition if isinstance(b, ConditionalLiteral)
                else (b,) if b.positive else ())),
            (c for el in s.head.elements for c in el.condition))
    return tuple(dict.fromkeys(
        atom_key(l.payload) for l in literals
        if not isinstance(l.payload, Comparison)))


def bind_constants(statements, constants: dict) -> list:
    """statements (rules and externals) with every constant named in
    constants replaced by its value, which may name other constants in
    any order; a constant in predicate position stays.  A value that
    needs its own constant is an input error."""
    names = list(constants)
    if not names:
        return list(statements)
    at = {name: j for j, name in enumerate(names)}
    consts = {}  # name -> value, each after the values it names

    def leaf(x):
        return consts.get(x.name) if isinstance(x, Constant) else None

    for (j, *_), cyclic in components([
            [at[x.name] for x in walk(constants[name])
             if isinstance(x, Constant) and x.name in at] for name in names]):
        if cyclic:
            raise GroundingError("#const %s is defined by itself" % names[j])
        consts[names[j]] = substitute(constants[names[j]], leaf)
    return [map_payloads(s, lambda p: p if isinstance(p, Constant)
                         else substitute(p, leaf)) for s in statements]


def _lone(atom, bound):
    """The closure of a head atom that is the only one of its head and has
    no condition, if it has no interval: its head is (atom(s),)."""
    return None if _pooled(atom) else _value(atom, bound)


class Plan:
    """A program compiled for grounding: for each rule, external and
    condition, its join steps and the index lists they read.

    The values of `constants`, over the program's ``#const`` definitions,
    are bound into the statements.  The constants named in `params`
    become variables of the same name instead, which each grounding binds
    in the first substitution of every join, so one plan serves every
    value of them.  Grounding changes a plan only by giving it generated
    code (see tasp.codegen) on its second grounding."""

    def __init__(self, program: Program, constants: Optional[dict] = None,
                 params=()):
        consts = {d.name: d.value for d in program.directives(ConstDef)}
        for name, value in (constants or {}).items():
            consts[name] = Integer(value) if isinstance(value, int) else value
        consts.update((name, Variable(name)) for name in params)
        self.params = tuple(params)
        jobs = bind_constants(program.directives(External) + program.rules,
                              consts)
        #: the nesting depth of the program's deepest atom
        self.depth = max((term_depth(p) for s in jobs for p in _payloads(s)),
                         default=0)
        reads = [_read_keys(s) for s in jobs]
        heads = [{atom_key(s.target)} if isinstance(s, External) else
                 {atom_key(el.atom) for el in s.head.elements} for s in jobs]
        writers: Dict[tuple, list] = {}  # key -> the jobs with it in a head
        for j, key in ((j, k) for j, keys in enumerate(heads) for k in keys):
            writers.setdefault(key, []).append(j)
        #: the jobs' strongly connected components in dependency order,
        #: each (its job indices, whether it reads its own heads)
        self.components = _components(
            [[d for k in keys for d in writers.get(k, ())] for keys in reads])
        # a component's head keys are non-domain if one of its jobs is
        # tainted or reads one; a derivable domain atom is true
        self._non_domain = set()
        for comp, _ in self.components:
            if any(_tainted(jobs[j])
                   or not self._non_domain.isdisjoint(reads[j]) for j in comp):
                self._non_domain.update(k for j in comp for k in heads[j])
        #: name/arity key -> the shapes its scans look up; a shape
        #: (key, value positions) indexes an atom by its arguments at the
        #: value positions.
        self.shapes: Dict[tuple, tuple] = {}
        bound = frozenset(params)
        #: the compiled jobs: the externals, then the rules
        self.rules = tuple(
            (self._external if isinstance(s, External) else self._rule)(
                s, bound, keys) for s, keys in zip(jobs, reads))
        self._groundings, self._code = 0, None

    def code(self) -> Optional[tuple]:
        """Called once per grounding: None the first time, then the
        generated function of each job, compiled on the second call."""
        self._groundings += 1
        if self._code is None and self._groundings > 1:
            from .codegen import JobSource  # what one grounding never needs
            self._code = JobSource(self).compile()
        return self._code

    def _external(self, e, bound, reads) -> _Rule:
        # a negative literal need only be bound, and is not recorded
        steps, _, bound = self._steps([
            (i if l.positive else None, l.positive, l.payload)
            for i, l in enumerate(e.condition)], bound)
        return _Rule(steps, reads, (),
                     ((_values(e.target, bound), None, e.target),),
                     _lone(e.target, bound), "external", bound)

    def _rule(self, r, bound, reads) -> _Rule:
        # conditionals never bind outer variables; expanded per instance
        steps, recorded, bound = self._steps(
            [(i, b.positive, b.payload) for i, b in enumerate(r.body)
             if not isinstance(b, ConditionalLiteral)], bound)
        position = {i: j for j, i in enumerate(recorded)}
        body = []
        for i, b in enumerate(r.body):
            if isinstance(b, ConditionalLiteral):
                body.append(self._condition(b.condition, bound, b.literal)[0])
            elif i in position:  # atoms, not comparisons
                body.append((b.positive, position[i]))
        head = []
        for el in r.head.elements:
            condition, inner = self._condition(el.condition, bound) \
                if el.condition else (None, bound)
            head.append((_values(el.atom, inner), condition, el.atom))
        lone = len(head) == 1 and head[0][1] is None
        atom = _lone(r.head.elements[0].atom, bound) if lone else None
        kind = "choice" if isinstance(r.head, Choice) else "disjunction"
        return _Rule(steps, reads, tuple(body), tuple(head), atom, kind,
                     bound)

    def _condition(self, condition, bound, literal=None):
        """The compiled condition, with its literal if given, and the
        variables bound at its end."""
        steps, recorded, bound = self._steps(
            [(i, c.positive, c.payload) for i, c in enumerate(condition)],
            bound)
        error = next((
            "conditional literal condition over non-domain predicate %s/%d"
            % atom_key(c.payload) for c in condition
            if not isinstance(c.payload, Comparison)
            and atom_key(c.payload) in self._non_domain), None)
        if literal is None:
            compiled = None
        elif isinstance(literal.payload, Comparison):
            compiled = (None, _comparison(literal.payload, literal.positive,
                                          bound), literal)
        else:
            compiled = (literal.positive, _value(literal.payload, bound),
                        literal)
        return _Condition(
            steps, tuple(j for j, i in enumerate(recorded)
                         if not condition[i].positive), error,
            compiled, bound), bound

    def _steps(self, pending, bound):
        """The steps of a join over pending, literals for syntax.schedule
        with i None if they need only be bound; the i of each literal whose
        atom a step records, in step order; the variables bound at the end."""
        steps, recorded = [], []
        order, end = schedule(pending, bound)
        for kind, i, positive, p, assigned, bound in order:
            if kind == CHECK:
                steps.append((CHECK, _comparison(p, positive, bound),
                              None, None, (p, positive, bound)))
            elif kind == ASSIGN:
                steps.append((ASSIGN, assigned[0],
                              _values(assigned[1], bound), None,
                              (assigned[1], positive, bound)))
            elif kind == SCAN or i is not None:
                steps.append(self._scan(p, bound) + ((p, positive, bound),)
                             if kind == SCAN else
                             (TEST, _value(p, bound), positive, None,
                              (p, positive, bound)))
                recorded.append(i)
        if pending:
            steps.append((CHECK, _fail(
                "cannot instantiate body: unbound %s" % "; ".join(
                    str(Literal(*lit[1:])) for lit in pending)),
                None, None, None))
        return tuple(steps), recorded, end

    def _scan(self, pattern, bound) -> tuple:
        """The scan step of a positive atom with unbound variables: bound
        arguments are the value positions of its shape."""
        key, args = atom_key(pattern), pattern.args
        values = tuple(pos for pos, arg in enumerate(args)
                       if variables(arg) <= bound)
        match = _matcher([(pos, arg) for pos, arg in enumerate(args)
                          if pos not in values], bound)
        if not values:
            return (SCAN, key, None, match)
        shape = (key, values)
        if shape not in self.shapes.get(key, ()):
            self.shapes[key] = self.shapes.get(key, ()) + (shape,)
        return (SCAN, shape, _tuple([args[pos] for pos in values], bound),
                match)


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
        self.grammar = grammar
        self.seeds = list(facts)
        self.derivable: Dict = {}
        self._index: Dict[tuple, List] = {}      # name/arity key -> atoms
        self._arg_index: Dict[tuple, List] = {}  # (shape, values) -> atoms
        self.counters = dict.fromkeys((  # logged by ground
            "components", "rounds", "joins", "joins_skipped", "instances",
            "simplify_rounds", "rules_dropped"), 0)
        #: joins run by generated code (logged by ground)
        self.generated = 0

    # -- derivable index -------------------------------------------------------

    def _add_derivable(self, atom):
        if atom in self.derivable:
            return
        if term_depth(atom) > self.max_depth:
            raise GroundingLimitError(
                "value-creation depth bound exceeded at %s" % (atom,))
        self._insert(atom)

    def _insert(self, atom):
        if len(self.derivable) > MAX_ATOMS:
            _atom_bound()
        self.derivable[atom] = None
        key = atom_key(atom)
        self._index.setdefault(key, []).append(atom)
        # every list is append-only: a subsequence of the name/arity list
        for shape in self.plan.shapes.get(key, ()):
            args = atom.args
            self._arg_index.setdefault(
                (shape, tuple([args[pos] for pos in shape[1]])),
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
            op, x, y, z, _ = steps[k]
            k += 1
            try:  # undefined arithmetic drops the partial instance
                if op == SCAN:
                    if y is None:
                        candidates = self._index.get(x, ())
                    elif not self._index.get(x[0]):
                        continue  # keys are not evaluated without atoms
                    else:
                        candidates = self._arg_index.get((x, y(s)), ())
                    for cand in reversed(candidates):  # popped in order
                        s2 = z(cand[1], s)
                        if s2 is not None:
                            stack.append((k, s2, found + (cand,)))
                elif op == TEST:
                    atom = x(s)
                    # a negative literal is deferred and does not filter
                    if not y or atom in derivable:
                        stack.append((k, s, found + (atom,)))
                elif op == CHECK:
                    if x(s):
                        stack.append((k, s, found))
                else:  # ASSIGN
                    for v in reversed(y(s)):
                        s2 = dict(s)
                        s2[x] = v
                        stack.append((k, s2, found))
            except DropInstance:
                pass

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
        # Components are joined in dependency order, each once unless it
        # reads its own heads: then in rounds while its lists grow, skipping
        # a join whose lists kept their sizes since it last started.
        jobs, code = self.plan.rules, self.plan.code()
        sizes, instances = [None] * len(jobs), [[] for _ in jobs]
        external_atoms: Dict = {}
        self.counters["components"] = len(self.plan.components)
        for component, recursive in self.plan.components:
            grew = True
            while grew:
                grew = False
                self.counters["rounds"] += 1
                for i in component:
                    job = jobs[i]
                    now = recursive and tuple(  # else joined once
                        len(self._index.get(k, ())) for k in job.reads)
                    if now == sizes[i]:
                        self.counters["joins_skipped"] += 1
                        continue
                    sizes[i] = now
                    self.counters["joins"] += 1
                    insts = instances[i] = []
                    before = len(self.derivable)
                    if code is None:
                        self._interpret(job, insts, external_atoms)
                    else:
                        self.generated += 1
                        code[i](self, insts, external_atoms)
                    grew |= len(self.derivable) > before
                    self.counters["instances"] += len(insts)
                grew &= recursive
        program = self._finalize(
            (inst for insts in instances for inst in insts), external_atoms)
        log.debug("ground: %s; %d joins by generated code", ", ".join(
            "%d %s" % (v, k.replace("_", " "))
            for k, v in self.counters.items()), self.generated)
        return program

    def _interpret(self, job: _Rule, insts: list, externals: Dict):
        """Join job with the step interpreter, append its instances to
        insts (an #external's targets to the ordered set externals
        instead) and derive their heads; as job's generated function."""
        for subst, found in self._join(job.steps, self.params):
            for inst in self._build_instance(job, subst, found):
                if job.kind == "external":  # first seen first
                    externals.setdefault(inst[1][0])
                else:
                    insts.append(inst)
                for h in inst[1]:
                    self._add_derivable(h)

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
                positive, term, _ = entry.literal
                for s2 in self.expand_condition(entry, subst):
                    if positive is not None:
                        body.append((positive, term(s2)))
                    elif not term(s2):  # a comparison
                        return []
            heads = [(rule.atom(subst),)] if rule.atom is not None \
                else self._ground_head(rule.head, subst)
        except DropInstance:
            return []
        body = tuple(body)
        return [(rule.kind, head, body) for head in heads]

    def _ground_head(self, head, subst) -> List[tuple]:
        """Alternative heads: conditioned elements expand disjunctively,
        interval pooling in bare elements expands conjunctively."""
        alternatives: List[list] = [[]]
        for atom_values, condition, _ in head:
            if condition is not None:
                atoms = []
                for s2 in self.expand_condition(condition, subst):
                    atoms.extend(atom_values(s2))
                alternatives = [alt + atoms for alt in alternatives]
                continue
            values = atom_values(subst)
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

        return GroundProgram(rules=out_rules, facts=facts,
                             externals=externals, grammar=self.grammar)
