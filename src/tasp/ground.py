"""Bottom-up grounder with clingo-style simplifications.

Instantiates a transformed program over its Herbrand domain.  Theory
expressions are function terms here, with the & in their name.  External
atoms are exempt from simplification; conditional literals are expanded
over domain predicates; an instance whose arithmetic is undefined is
dropped.

A program is planned once (Plan: the join order of each rule, the index
shapes, the dependency components, the domain predicates and the depth),
then grounded by a join interpreter that evaluates each term as it is
written (value, values, holds and match).  The same engine instantiates
the internal meta-encodings, planned once per process, against
reified-fact databases seeded as facts.  A plan grounded again grounds
with Python code generated from it if tasp.codegen covers its steps, as
it covers those of the meta-encodings.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, product
from math import prod
from operator import add, floordiv, ge, gt, le, lt, mod, mul, ne, sub

from .syntax import (
    ASSIGN, CHECK, SCAN, TEST, BinOp, Choice, Comparison, ConditionalLiteral,
    ConstDef, Constant, External, Function, Infimum, Integer, Literal, Program,
    Record, ResourceLimit, String, Supremum, TheoryExpression, UnaryMinus,
    Variable, components, map_payloads, schedule, substitute, variables,
    walk, with_args,
)


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
# Term evaluation
#
# One evaluator reads a term as it is written, under a substitution s, a
# dict from variable names to ground terms.  The grounder's interpreter
# calls it for every term a join or an instance evaluates, and generated
# code (see tasp.codegen) for pooled terms.  A variable that s does not
# bind is an error; undefined arithmetic raises DropInstance.

_new = tuple.__new__  # builds a term without calling its class's __new__

_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": floordiv, "\\": mod}


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


def value(t, s):
    """The value of t under s; an interval in t is an error (see
    values)."""
    kind = type(t)
    if kind is Variable:
        if t.name in s:
            return s[t.name]
        raise GroundingError("unbound variable %s" % t.name)
    if isinstance(t, Function):
        args = tuple([value(a, s) for a in t[1]])
        if args == t[1]:  # every argument is ground: t is its own value
            return t
        if kind is TheoryExpression and t.memberships:
            return TheoryExpression(t.operator, args, t.memberships)
        return _new(kind, (t[0], args))
    if kind is UnaryMinus:
        return negate(value(t.arg, s))
    if kind is not BinOp:
        return t
    if t.op == "..":
        raise GroundingError("interval in non-expandable position")
    return arithmetic(t.op, value(t.left, s), value(t.right, s))


def negate(v):
    """The value of -v."""
    if type(v) is not Integer:
        raise GroundingError("cannot negate %s" % (v,))
    return Integer(-v)


def arithmetic(op, a, b):
    """The value of a op b, op one of + - * / \\: an operand that is not
    an integer, or division by zero, warns and raises DropInstance."""
    if type(a) is Integer and type(b) is Integer:
        try:
            v = _ARITHMETIC[op](a, b)
        except ZeroDivisionError:
            warning = ("division by zero, dropping instance",)
        else:
            if -MAX_INTEGER <= v <= MAX_INTEGER:
                return Integer(v)
            raise GroundingLimitError(
                "integer bound exceeded by %s%s%s" % (a, op, b))
    else:
        warning = ("operation undefined: %s%s%s, dropping instance", a, op, b)
    import logging  # only a warning loads it
    logging.getLogger(__name__).warning(*warning)
    raise DropInstance()


def _interval(t, s) -> range:
    """The integers of an interval L..U under s."""
    a, b = value(t.left, s), value(t.right, s)
    if type(a) is not Integer or type(b) is not Integer:
        raise GroundingError("interval bounds must be integers")
    return range(a, b + 1)


def _size(t, s) -> int:
    """How many values t has under s, from the interval bounds alone."""
    if _is_interval(t):
        r = _interval(t, s)
        return max(0, r.stop - r.start)  # len(r) fails past sys.maxsize
    if isinstance(t, Function) and _pooled(t):
        return prod([_size(a, s) for a in t[1]])
    return 1


def _expand(t, s) -> list:
    """The values of t under s, with each interval that is not under
    arithmetic expanded into all its values."""
    if _is_interval(t):
        return list(map(Integer, _interval(t, s)))
    if isinstance(t, Function) and _pooled(t):
        return [with_args(t, args)
                for args in product(*[_expand(a, s) for a in t[1]])]
    return [value(t, s)]


def values(t, s) -> list:
    """The values of a head atom, #external target or assigned term t
    under s: one whose interval bounds give more than MAX_ATOMS values
    hits the atom bound before any is built."""
    if not _pooled(t):
        return [value(t, s)]
    if _size(t, s) > MAX_ATOMS:
        _atom_bound()
    return _expand(t, s)


def _member(v, t, s) -> bool:
    """Whether a ground value v is one of the values of t under s, tested
    argument by argument without building them: a function needs the same
    name and arity, and each argument must fall in its interval or equal
    its term."""
    if _is_interval(t):
        return type(v) is Integer and v in _interval(t, s)
    if isinstance(t, Function):
        return isinstance(v, Function) and v[0] == t[0] \
            and len(v[1]) == len(t[1]) \
            and all(_member(x, a, s) for x, a in zip(v[1], t[1]))
    return value(t, s) == v


def _shared(left, right, s) -> bool:
    """Whether two terms have a value in common under s.  Two intervals
    are compared by their bounds; otherwise each value of the side with
    fewer values is tested against the other side, so intervals are
    expanded, within the atom bound, only when both sides hold them."""
    if _is_interval(left) and _is_interval(right):
        a, b = _interval(left, s), _interval(right, s)
        return max(a.start, b.start) < min(a.stop, b.stop)
    if not (_pooled(left) or _pooled(right)):
        return _member(value(left, s), right, s)
    left_size = _size(left, s)
    small, other = (right, left) if _size(right, s) < left_size \
        else (left, right)
    return any(_member(v, other, s) for v in values(small, s))


def holds(cmp, positive, s) -> bool:
    """Whether the comparison cmp holds under s, if positive, or fails.
    = tests whether the sides share a value, so an interval gives
    membership (X = 1..N) and an empty one makes X = 3..1 false; other
    comparisons need one value on each side, which the interval bounds
    tell before any value is built.  Undefined arithmetic raises
    DropInstance, negated or not."""
    op, left, right = cmp.op, cmp.left, cmp.right
    if op == "=":
        result = _shared(left, right, s)
    elif _pooled(left) or _pooled(right):
        if _size(left, s) != 1 or _size(right, s) != 1:
            raise GroundingError("interval with %r comparison" % op)
        result = compare_terms(op, _expand(left, s)[0], _expand(right, s)[0])
    else:
        result = compare_terms(op, value(left, s), value(right, s))
    return result if positive else not result


def match(pattern, args, s):
    """s extended so that the term of each (position, term) pair of
    pattern matches a ground atom's argument at that position, or None.  A
    variable's first occurrence binds it and a later one tests it; an
    arithmetic part is matched last if it needs a variable that only a
    later part binds, as in q(X+1,X); see syntax.schedule."""
    out, waiting = dict(s), []
    for pos, p in pattern:
        if not _match(p, args[pos], out, waiting):
            return None
    for p, g in waiting:
        if not _equal(p, g, out):
            return None
    return out


def _match(p, g, out, waiting) -> bool:
    """Whether ground term g matches pattern p, setting in out the
    variables that p binds first; an arithmetic part that needs a variable
    out does not bind yet goes to waiting, with g."""
    if type(p) is Variable:
        if p.name in out:
            return out[p.name] == g
        out[p.name] = g
        return True
    if isinstance(p, Function):
        return isinstance(g, Function) and g[0] == p[0] \
            and len(g[1]) == len(p[1]) \
            and all(_match(a, x, out, waiting) for a, x in zip(p[1], g[1]))
    if not isinstance(p, (BinOp, UnaryMinus)):  # a value
        return p == g
    if variables(p).issubset(out):
        return _equal(p, g, out)
    waiting.append((p, g))
    return True


def _equal(t, g, s) -> bool:
    """Whether ground term g is the value of arithmetic t under s; not if
    the arithmetic is undefined."""
    try:
        return value(t, s) == g
    except DropInstance:
        return False


# ---------------------------------------------------------------------------
# Ground program representation


class GroundRule(namedtuple("GroundRule", "head_kind head body")):
    """A ground rule: head_kind "disjunction" or "choice", head its ground
    atoms, body its (positive, atom) pairs."""

    __slots__ = ()

    def __str__(self):
        head = "; ".join(str(h) for h in self.head)
        if self.head_kind == "choice":
            head = "{ %s }" % head
        body = "; ".join(("" if pos else "not ") + str(a) for pos, a in self.body)
        if not body:
            return "%s." % (head or ":- ")
        return "%s :- %s." % (head, body) if head else ":- %s." % body


class GroundProgram(Record):
    """Facts, the rules left after simplification, and externals.  No rule
    names a fact: simplification drops a rule whose body negates a fact
    or whose disjunction holds one, and deletes a fact from a positive
    body or a choice.  So the solver leaves facts out of its search.  The
    rules are id_rules, (is_choice, head ids, body literals) over the
    table atoms, ~id a negative literal (see Grounder._finalize); their
    GroundRules, symbol table and text are built on first read.  atoms
    lists the term of each id; facts and externals are ordered sets of
    atoms."""

    _fields = ("atoms", "id_rules", "facts", "externals", "grammar")
    _defaults = {"grammar": None}

    @cached_property
    def index(self) -> dict:
        """The id of each atom of the table."""
        return dict(zip(self.atoms, range(len(self.atoms))))

    @cached_property
    def rules(self) -> list[GroundRule]:
        atoms, kinds = self.atoms, ("disjunction", "choice")
        return [GroundRule(kinds[choice], tuple([atoms[h] for h in head]),
                           tuple([(True, atoms[l]) if l >= 0
                                  else (False, atoms[~l]) for l in body]))
                for choice, head, body in self.id_rules]

    @property
    def symbol_table(self) -> dict:
        """Every atom, as an ordered set: the facts, the externals, then
        each rule's head and body atoms in rule order."""
        atoms = self.atoms
        return dict.fromkeys(chain(self.facts, self.externals, (
            atoms[x if x >= 0 else ~x] for _, head, body in self.id_rules
            for x in chain(head, body))))

    def __str__(self):
        lines = ["%s." % (f,) for f in self.facts]
        lines += [str(r) for r in self.rules]
        lines += ["#external %s." % (e,) for e in self.externals]
        return "\n".join(lines)

# ---------------------------------------------------------------------------
# Plans
#
# A join is planned as steps, one per literal, in the order that
# syntax.schedule gives from the names of the bound variables alone, so
# it is fixed before any atom is seen.  Steps hold their terms as
# written, for the evaluator and for tasp.codegen: tuples
# (op, term, x, y, bound), op a schedule kind or FAIL, bound the
# variables bound before the step:
#
#   (CHECK, cmp, positive, None, _)     holds(cmp, positive, s)
#   (ASSIGN, term, name, None, _)       name = each of values(term, s)
#   (TEST, atom, positive, None, _)     the atom value(atom, s), recorded
#   (SCAN, atom, shape, pattern, _)     a positive atom, recorded
#   (FAIL, message, None, None, _)      no literal left is processable
#
# A scan reads one index list: that of its shape (key, value positions)
# under the values of the atom's arguments at the value positions (see
# Plan.shapes), or the name/arity list of key if there are none; each of
# its atoms extends s by match(pattern, args, s), pattern the other
# arguments with their positions.

#: The kind of the step that raises the error naming the literals a join
#: leaves unbound.
FAIL = SCAN + 1


#: A planned condition of a conditional literal (with its literal) or of
#: a head element (literal None).
_Condition = namedtuple("_Condition", [
    "steps",
    "negatives",  # positions of negative literals' atoms
    "error",      # set if over a non-domain predicate, else None
    "literal",
    "bound",      # the variables bound at its end
])

#: A planned rule, or an #external as the rule of kind "external" with
#: its target as the one head atom and no body.
_Rule = namedtuple("_Rule", [
    "steps",
    "reads",      # name/arity keys of the lists it reads
    "body",       # (positive, atom position) or _Condition
    "head",       # (atom, _Condition or None)
    "kind",       # "choice", "disjunction" or "external"
    "bound",      # the variables bound at the join's end
])


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


class Plan:
    """A program planned for grounding: for each rule, external and
    condition, its join steps and the index lists they read.

    The values of `constants`, over the program's ``#const`` definitions,
    are bound into the statements.  The constants named in `params`
    become variables of the same name instead, which each grounding binds
    in the first substitution of every join, so one plan serves every
    value of them.  Grounding changes a plan only by giving it generated
    code (see tasp.codegen) on its second grounding, if that covers it."""

    def __init__(self, program: Program, constants: dict | None = None,
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
        writers: dict[tuple, list] = {}  # key -> the jobs with it in a head
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
        self.shapes: dict[tuple, tuple] = {}
        bound = frozenset(params)
        #: the planned jobs: the externals, then the rules
        self.rules = tuple(
            (self._external if isinstance(s, External) else self._rule)(
                s, bound, keys) for s, keys in zip(jobs, reads))
        self._groundings, self._code = 0, None

    def code(self) -> tuple | None:
        """Called once per grounding: the generated function of each job,
        compiled on the second call; None while the plan is interpreted,
        as it is the first time, and for good if tasp.codegen does not
        cover the shape of one of its steps."""
        self._groundings += 1
        if self._groundings == 2:  # one grounding never imports codegen
            from .codegen import JobSource, _Unsupported
            try:
                self._code = JobSource(self).compile()
            except _Unsupported:
                pass
        return self._code

    def _external(self, e, bound, reads) -> _Rule:
        # a negative literal need only be bound, and is not recorded
        steps, _, bound = self._steps([
            (i if l.positive else None, l.positive, l.payload)
            for i, l in enumerate(e.condition)], bound)
        return _Rule(steps, reads, (), ((e.target, None),), "external",
                     bound)

    def _rule(self, r, bound, reads) -> _Rule:
        # conditionals never bind outer variables; expanded per instance
        steps, recorded, bound = self._steps(
            [(i, b.positive, b.payload) for i, b in enumerate(r.body)
             if not isinstance(b, ConditionalLiteral)], bound)
        position = {i: j for j, i in enumerate(recorded)}
        body = []
        for i, b in enumerate(r.body):
            if isinstance(b, ConditionalLiteral):
                body.append(self._condition(b.condition, bound, b.literal))
            elif i in position:  # atoms, not comparisons
                body.append((b.positive, position[i]))
        head = tuple((el.atom, self._condition(el.condition, bound)
                      if el.condition else None) for el in r.head.elements)
        kind = "choice" if isinstance(r.head, Choice) else "disjunction"
        return _Rule(steps, reads, tuple(body), head, kind, bound)

    def _condition(self, condition, bound, literal=None) -> _Condition:
        """The planned condition, with its literal if given."""
        steps, recorded, bound = self._steps(
            [(i, c.positive, c.payload) for i, c in enumerate(condition)],
            bound)
        error = next((
            "conditional literal condition over non-domain predicate %s/%d"
            % atom_key(c.payload) for c in condition
            if not isinstance(c.payload, Comparison)
            and atom_key(c.payload) in self._non_domain), None)
        return _Condition(
            steps, tuple(j for j, i in enumerate(recorded)
                         if not condition[i].positive), error,
            literal, bound)

    def _steps(self, pending, bound):
        """The steps of a join over pending, literals for syntax.schedule
        with i None if they need only be bound; the i of each literal whose
        atom a step records, in step order; the variables bound at the end."""
        steps, recorded = [], []
        order, end = schedule(pending, bound)
        for kind, i, positive, p, assigned, bound in order:
            if kind == CHECK:
                steps.append((CHECK, p, positive, None, bound))
            elif kind == ASSIGN:
                steps.append((ASSIGN, assigned[1], assigned[0], None, bound))
            elif kind == SCAN:
                steps.append((SCAN, p) + self._scan(p, bound) + (bound,))
                recorded.append(i)
            elif i is not None:
                steps.append((TEST, p, positive, None, bound))
                recorded.append(i)
        if pending:
            steps.append((FAIL, "cannot instantiate body: unbound %s" %
                          "; ".join(str(Literal(*lit[1:])) for lit in pending),
                          None, None, end))
        return tuple(steps), recorded, end

    def _scan(self, atom, bound) -> tuple:
        """The shape and pattern of the scan of a positive atom with unbound
        variables: bound arguments are the value positions of its shape."""
        key, args = atom_key(atom), atom.args
        shape = (key, tuple(pos for pos, arg in enumerate(args)
                            if variables(arg) <= bound))
        if shape[1] and shape not in self.shapes.get(key, ()):
            self.shapes[key] = self.shapes.get(key, ()) + (shape,)
        return shape, tuple((pos, arg) for pos, arg in enumerate(args)
                            if pos not in shape[1])


# ---------------------------------------------------------------------------
# Grounder


class Grounder:
    def __init__(self, program, constants: dict | None = None,
                 grammar=None, facts=()):
        """program is a Program, planned here with the values of
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
        self.derivable: dict = {}
        self._index: dict[tuple, list] = {}      # name/arity key -> atoms
        self._arg_index: dict[tuple, list] = {}  # (shape, values) -> atoms
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
        derivable, index = self.derivable, self._index
        end = len(steps)
        stack = [(0, subst, ())]
        while stack:
            k, s, found = stack.pop()
            if k == end:
                yield s, found
                continue
            op, term, x, y, _ = steps[k]
            k += 1
            try:  # undefined arithmetic drops the partial instance
                if op == SCAN:
                    if not x[1]:
                        candidates = index.get(x[0], ())
                    elif not index.get(x[0]):
                        continue  # keys are not evaluated without atoms
                    else:
                        args = term[1]
                        candidates = self._arg_index.get((x, tuple(
                            [value(args[pos], s) for pos in x[1]])), ())
                    for cand in reversed(candidates):  # popped in order
                        s2 = match(y, cand[1], s)
                        if s2 is not None:
                            stack.append((k, s2, found + (cand,)))
                elif op == TEST:
                    atom = value(term, s)
                    # a negative literal is deferred and does not filter
                    if not x or atom in derivable:
                        stack.append((k, s, found + (atom,)))
                elif op == CHECK:
                    if holds(term, x, s):
                        stack.append((k, s, found))
                elif op == ASSIGN:
                    for v in reversed(values(term, s)):
                        s2 = dict(s)
                        s2[x] = v
                        stack.append((k, s2, found))
                else:
                    raise GroundingError(term)
            except DropInstance:
                pass

    # -- conditional expansion ---------------------------------------------------

    def expand_condition(self, condition: _Condition, subst) -> list[dict]:
        """All extensions of subst satisfying a planned condition; a
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
        external_atoms: dict = {}
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
        if "logging" in sys.modules:  # else no handler can want the line
            sys.modules["logging"].getLogger(__name__).debug(
                "ground: %s; %d joins by generated code", ", ".join(
                    "%d %s" % (v, k.replace("_", " "))
                    for k, v in self.counters.items()), self.generated)
        return program

    def _interpret(self, job: _Rule, insts: list, externals: dict):
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
                positive, payload = entry.literal.positive, \
                    entry.literal.payload
                for s2 in self.expand_condition(entry, subst):
                    if not isinstance(payload, Comparison):
                        body.append((positive, value(payload, s2)))
                    elif not holds(payload, positive, s2):
                        return []
            heads = self._ground_head(rule.head, subst)
        except DropInstance:
            return []
        body = tuple(body)
        return [(rule.kind, head, body) for head in heads]

    def _ground_head(self, head, subst) -> list[tuple]:
        """Alternative heads: conditioned elements expand disjunctively,
        interval pooling in bare elements expands conjunctively."""
        if len(head) == 1 and head[0][1] is None:  # one bare atom
            return [(v,) for v in values(head[0][0], subst)]
        alternatives: list[list] = [[]]
        for atom, condition in head:
            if condition is not None:
                atoms = []
                for s2 in self.expand_condition(condition, subst):
                    atoms.extend(values(atom, s2))
                alternatives = [alt + atoms for alt in alternatives]
                continue
            atoms = values(atom, subst)
            if len(atoms) == 1:
                alternatives = [alt + atoms for alt in alternatives]
            else:
                alternatives = [alt + [v]
                                for alt in alternatives for v in atoms]
        return [tuple(dict.fromkeys(alt)) for alt in alternatives]

    # -- simplification -----------------------------------------------------------

    def _finalize(self, collected, external_atoms) -> GroundProgram:
        """Simplify the collected instances against the facts, over atom
        ids: the seeds are numbered first, then each atom of the
        instances as it first occurs.  A rule is (is_choice, head ids,
        body literals), a positive literal the atom's id and a negative
        one its complement ~id; instances are deduplicated as such.  The
        kept atoms are renumbered as the solver reads them: per rule the
        heads, positive body, then negative body, at first occurrence."""
        ids: dict = {}
        put = ids.setdefault
        seeds = [put(a, len(ids)) for a in self.seeds]
        rules = list(dict.fromkeys(
            (kind == "choice", tuple([put(a, len(ids)) for a in head]),
             tuple([put(a, len(ids)) if pos else ~put(a, len(ids))
                    for pos, a in body]))
            for kind, head, body in collected))
        atoms, externals = list(ids), dict(external_atoms)
        # per atom: its status, the indices of the rules mentioning it,
        # and the number of rules with it in the head, a seed counting as
        # one fact rule
        status = bytearray(len(atoms))
        for a in externals:
            if a in ids:
                status[ids[a]] = _EXTERNAL
        occurs = [[] for _ in atoms]
        support = [0] * len(atoms)
        for a in seeds:
            support[a] = 1
        for i, (_, head, body) in enumerate(rules):
            for h in head:
                support[h] += 1
                occurs[h].append(i)
            for l in body:
                occurs[l if l >= 0 else ~l].append(i)
        # Rounds as in a full re-scan: facts found in one round are
        # promoted, in rule order, at the start of the next, and atoms
        # that lost their last head count as underivable from then on.
        # A round re-simplifies only the rules mentioning such an atom.
        facts: list[int] = []
        seeded = seeds
        promoted = [i for i, r in enumerate(rules) if _is_fact(r)]
        lost = [a for a, s in enumerate(support)
                if not s and status[a] != _EXTERNAL]
        while True:
            for a in lost:
                status[a] = _UNDERIVABLE
            new_facts = []
            for a in chain(seeded, (rules[i][1][0] for i in sorted(promoted))):
                if status[a] == _OPEN:
                    status[a] = _FACT
                    new_facts.append(a)
            seeded = ()
            facts += new_facts
            work = {i for a in chain(lost, new_facts) for i in occurs[a]}
            if not work:
                break
            self.counters["simplify_rounds"] += 1
            lost, promoted = [], []
            for i in work:
                r = rules[i]
                if r is None:
                    continue
                new = _simplified(r, status)
                if new == r:
                    continue
                rules[i] = new
                for h in r[1]:
                    if new is None or h not in new[1]:
                        support[h] -= 1
                        if not support[h] and status[h] != _EXTERNAL:
                            lost.append(h)
                if new is None:
                    self.counters["rules_dropped"] += 1
                elif _is_fact(new):
                    promoted.append(i)

        # facts leave the rule list; simplification may merge instances
        out = dict.fromkeys(r for r in rules if r is not None and not (
            _is_fact(r) and status[r[1][0]] == _FACT))
        kept: dict[int, int] = {}  # id -> its id in the table kept
        put = kept.setdefault
        for _, head, body in out:
            for h in head:
                put(h, len(kept))
            for l in body:
                if l >= 0:
                    put(l, len(kept))
            for l in body:
                if l < 0:
                    put(~l, len(kept))
        return GroundProgram(
            atoms=[atoms[a] for a in kept],
            id_rules=[(choice, tuple([kept[h] for h in head]),
                       tuple([kept[l] if l >= 0 else ~kept[~l]
                              for l in body]))
                      for choice, head, body in out],
            facts=dict.fromkeys([atoms[a] for a in facts]),
            externals=externals, grammar=self.grammar)


#: The status of an atom in Grounder._finalize: open, a fact, underivable
#: (no rule left has it in the head), or external (never simplified).
_OPEN, _FACT, _UNDERIVABLE, _EXTERNAL = range(4)


def _is_fact(rule) -> bool:
    """Whether a rule over atom ids is a fact: one head atom, no body."""
    return not (rule[0] or rule[2]) and len(rule[1]) == 1


def _simplified(rule, status):
    """rule over atom ids against the atoms' status: None when it is
    dropped.  A disjunction holding a fact is satisfied; fact atoms in a
    choice are vacuous elements; a true body literal is deleted and a
    false one drops the rule."""
    choice, head, body = rule
    if head and not _is_fact(rule):
        if not choice:
            if any(status[h] == _FACT for h in head):
                return None
        else:
            head = tuple([h for h in head if status[h] != _FACT])
            if not head:
                return None
    kept = []
    for l in body:
        s = status[l] if l >= 0 else status[~l]
        if s == _OPEN or s == _EXTERNAL:
            kept.append(l)
        elif (s == _FACT) != (l >= 0):
            return None
    return choice, head, tuple(kept)
