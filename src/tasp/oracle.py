"""Brute-force reference semantics for temporal equilibrium models.

Everything here is deliberately independent of the transform/ground/meta/
solver pipeline: instantiation is naive (all substitutions over the
Herbrand constants), satisfaction is evaluated directly over trace pairs
in the logic of here-and-there, and equilibrium is checked by exhaustive
enumeration of smaller "here" traces.  Only the AST and parser are shared.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .syntax import (
    BinOp, Choice, Comparison, ConditionalLiteral, ConstDef, Constant,
    Disjunction, Function, HeadElement, Infimum, Integer, Literal, Program,
    ResourceLimit, Rule, Show, String, Supremum, TheoryExpression,
    UnaryMinus, Variable, map_payloads, substitute, walk, with_args,
)


class OracleError(Exception):
    pass


class OracleLimitError(OracleError, ResourceLimit):
    pass


#: Bound on candidate count (traces x tau assignments).
MAX_CANDIDATES = 1 << 24

HERE, THERE = 0, 1


@dataclass(frozen=True)
class Trace:
    states: tuple  # of frozenset of ground atoms
    tau: Optional[tuple] = None


# ---------------------------------------------------------------------------
# Naive instantiation


def _subst(node, binding):
    if isinstance(node, Variable):
        if node.name not in binding:
            raise OracleError("unbound variable %s" % node.name)
        return binding[node.name]
    if isinstance(node, Function):
        return with_args(node, tuple(_subst(a, binding) for a in node.args))
    if isinstance(node, (BinOp, Comparison)):
        return type(node)(node.op, _subst(node.left, binding),
                          _subst(node.right, binding))
    if isinstance(node, UnaryMinus):
        return UnaryMinus(_subst(node.arg, binding))
    return node


class _Undefined(Exception):
    """Arithmetic on a term that is not an integer, or division by zero:
    as in gringo, the instance that holds it is dropped."""


#: / and \ round as Python's // and %, as the grounder does.
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.floordiv, "\\": operator.mod}


def _arith(t):
    """Fold ground arithmetic (_rule_variables rejects intervals);
    comparisons in instances must be decidable."""
    if isinstance(t, UnaryMinus):
        v = _arith(t.arg)
        if isinstance(v, Integer):
            return Integer(-v.value)
        raise OracleError("cannot negate %s" % (v,))
    if isinstance(t, BinOp):
        a, b = _arith(t.left), _arith(t.right)
        if not (isinstance(a, Integer) and isinstance(b, Integer)):
            raise _Undefined()
        try:
            return Integer(_ARITHMETIC[t.op](a.value, b.value))
        except ZeroDivisionError:
            raise _Undefined() from None
    if isinstance(t, Function):
        return with_args(t, tuple(_arith(a) for a in t.args))
    return t


def _order_key(t):
    """gringo's total order of ground terms: #inf < integers < constants
    < strings < functions < #sup, functions by name, arity, then
    arguments."""
    if isinstance(t, Infimum):
        return (0,)
    if isinstance(t, Integer):
        return (1, t.value)
    if isinstance(t, Constant):
        return (2, t.name)
    if isinstance(t, String):
        return (3, t.value)
    if isinstance(t, Function):
        return (4, t.name, len(t.args), tuple(map(_order_key, t.args)))
    if isinstance(t, Supremum):
        return (5,)
    raise OracleError("cannot order %s" % (t,))


def _comparison_true(c: Comparison) -> bool:
    a, b = _order_key(_arith(c.left)), _order_key(_arith(c.right))
    return {"=": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b}[c.op]


def _rule_variables(rule: Rule) -> List[str]:
    """The rule's variable names, in the order they first occur."""
    if any(el.condition for el in rule.head.elements):
        raise OracleError("conditional heads unsupported by the oracle")
    if any(isinstance(b, ConditionalLiteral) for b in rule.body):
        raise OracleError("conditional literals unsupported by the oracle")
    nodes = [x for node in itertools.chain(
        (el.atom for el in rule.head.elements),
        (b.payload for b in rule.body)) for x in walk(node)]
    if any(isinstance(x, BinOp) and x.op == ".." for x in nodes):
        raise OracleError("intervals unsupported by the oracle")
    return list(dict.fromkeys(
        x.name for x in nodes if isinstance(x, Variable)))


def _herbrand_constants(rules) -> List:
    """Every ground value in the rules that is not a function: symbols,
    integers, strings, #inf and #sup.  An atom's name is not one: an atom
    contributes its arguments, and a theory expression other than &i
    (whose bounds are not Herbrand constants) the atoms it holds."""
    consts: Dict = {}

    def value(node):
        consts.update(dict.fromkeys(x for x in walk(node) if not isinstance(
            x, (Function, BinOp, UnaryMinus, Comparison, Variable))))

    def atom(node):
        if isinstance(node, TheoryExpression):
            if node.operator != "i":
                for a in node.args:
                    atom(a)
        elif isinstance(node, Function):
            for a in node.args:
                value(a)

    for r in rules:
        for el in r.head.elements:
            atom(el.atom)
        for b in r.body:
            if isinstance(b, ConditionalLiteral):
                continue
            (value if isinstance(b.payload, Comparison) else atom)(b.payload)
    return list(consts) or [Constant("c0")]


def _bind_constants(program: Program) -> List[Rule]:
    """The program's rules with each #const value substituted, resolved
    through the constants it names; the last definition of a name wins,
    and a constant in predicate position stays."""
    consts = {d.name: d.value for d in program.directives(ConstDef)}

    def leaf(x):
        return consts.get(x.name) if isinstance(x, Constant) else None

    for _ in range(len(consts)):  # a chain of k names resolves in k rounds
        consts = {name: substitute(v, leaf) for name, v in consts.items()}
    for name, value in consts.items():
        if any(isinstance(x, Constant) and x.name in consts
               for x in walk(value)):
            raise OracleError("#const %s does not resolve: its definitions "
                              "form a cycle" % name)

    return [map_payloads(r, lambda p: p if isinstance(p, Constant)
                         else substitute(p, leaf)) for r in program.rules]


def _instance(rule: Rule, binding) -> Optional[Rule]:
    """The instance of rule under binding, None if one of its comparisons
    fails; raises _Undefined if it holds undefined arithmetic."""
    body = []
    for b in rule.body:
        p = _subst(b.payload, binding)
        if not isinstance(p, Comparison):
            body.append(Literal(b.positive, _arith(p)))
        elif _comparison_true(p) != b.positive:
            return None
    head_elements = tuple(type(el)(_arith(_subst(el.atom, binding)))
                          for el in rule.head.elements)
    return Rule(type(rule.head)(head_elements), tuple(body))


def instantiate(program: Program) -> List[Rule]:
    """All ground instances, over the Herbrand constants, of the rules
    with the #const values bound; comparisons are evaluated away."""
    rules = _bind_constants(program)
    consts = _herbrand_constants(rules)
    out = []
    for rule in rules:
        variables = _rule_variables(rule)
        for values in itertools.product(consts, repeat=len(variables)):
            try:
                instance = _instance(rule, dict(zip(variables, values)))
            except _Undefined:
                continue
            if instance is not None:
                out.append(instance)
    # deduplicate, preserving order
    seen, rules = set(), []
    for r in out:
        if r not in seen:
            seen.add(r)
            rules.append(r)
    return rules


# ---------------------------------------------------------------------------
# Satisfaction over trace pairs (here-and-there)


class _Evaluator:
    """Satisfaction for a pair of traces (here ⊆ there) and a timing
    function; world HERE gives the logic-of-here-and-there valuation,
    world THERE the classical one."""

    def __init__(self, here, there, tau=None):
        self.worlds = (here, there)
        self.tau = tau
        self.n = len(there) - 1
        self._path_cache: Dict = {}

    # -- formulas -------------------------------------------------------------

    def sat(self, w: int, i: int, node) -> bool:
        if isinstance(node, (Constant, Function)) and not isinstance(
                node, TheoryExpression):
            return node in self.worlds[w][i]
        if not isinstance(node, TheoryExpression):
            raise OracleError("cannot evaluate %s" % (node,))
        op, args = node.operator, node.args
        if op == "true" and not args:
            return True
        if op == "initial" and not args:
            return i == 0
        if op == "final" and not args:
            return i == self.n
        if op == "not" and len(args) == 1:
            # negation checks the there world in both worlds
            return not self.sat(THERE, i, args[0])
        if op == "next" and len(args) == 1:
            return i < self.n and self.sat(w, i + 1, args[0])
        if op == "eventually" and len(args) == 1:
            return any(self.sat(w, j, args[0])
                       for j in range(i, self.n + 1))
        if op == "next" and len(args) == 2:
            lo, hi = self._interval(args[0])
            return (i < self.n and self.sat(w, i + 1, args[1])
                    and self._in_window(i, i + 1, lo, hi))
        if op == "eventually" and len(args) == 2 \
                and self._is_interval(args[0]):
            lo, hi = self._interval(args[0])
            return any(self.sat(w, j, args[1])
                       and self._in_window(i, j, lo, hi)
                       for j in range(i, self.n + 1))
        if op == "eventually" and len(args) == 2:
            rel = self.path(w, args[0])
            return any(self.sat(w, j, args[1])
                       for (s, j) in rel if s == i)
        if op == "always" and len(args) == 2:
            if w == HERE:
                return (all(self.sat(HERE, j, args[1])
                            for (s, j) in self.path(HERE, args[0]) if s == i)
                        and all(self.sat(THERE, j, args[1])
                                for (s, j) in self.path(THERE, args[0])
                                if s == i))
            return all(self.sat(THERE, j, args[1])
                       for (s, j) in self.path(THERE, args[0]) if s == i)
        raise OracleError("unknown operator &%s/%d" % (op, len(args)))

    def _is_interval(self, node) -> bool:
        return isinstance(node, TheoryExpression) and node.operator == "i" \
            and len(node.args) == 2

    def _interval(self, node) -> Tuple[int, Optional[int]]:
        if not self._is_interval(node):
            raise OracleError("expected interval, got %s" % (node,))
        lo, hi = node.args
        if not isinstance(lo, Integer):
            raise OracleError("bad interval bound %s" % (lo,))
        if isinstance(hi, Supremum):
            return lo.value, None
        if not isinstance(hi, Integer):
            raise OracleError("bad interval bound %s" % (hi,))
        return lo.value, hi.value

    def _in_window(self, i, j, lo, hi) -> bool:
        if self.tau is None:
            raise OracleError("metric operator without a timing function")
        d = self.tau[j] - self.tau[i]
        return d >= lo and (hi is None or d < hi)

    # -- paths ----------------------------------------------------------------

    def path(self, w: int, rho) -> FrozenSet[Tuple[int, int]]:
        key = (w, rho)
        if key in self._path_cache:
            return self._path_cache[key]
        rel = self._path(w, rho)
        self._path_cache[key] = rel
        return rel

    def _path(self, w: int, rho) -> FrozenSet[Tuple[int, int]]:
        if isinstance(rho, (Constant, Function)) and not isinstance(
                rho, TheoryExpression):
            # atom shorthand: a ≡ (a? ; step)
            test = frozenset((i, i) for i in range(self.n + 1)
                             if self.sat(w, i, rho))
            step = frozenset((i, i + 1) for i in range(self.n))
            return self._compose(test, step)
        if not isinstance(rho, TheoryExpression):
            raise OracleError("bad path expression %s" % (rho,))
        op, args = rho.operator, rho.args
        if op == "step" and not args:
            return frozenset((i, i + 1) for i in range(self.n))
        if op == "test" and len(args) == 1:
            return frozenset((i, i) for i in range(self.n + 1)
                             if self.sat(w, i, args[0]))
        if op == "seq" and len(args) == 2:
            return self._compose(self._path(w, args[0]),
                                 self._path(w, args[1]))
        if op == "choice" and len(args) == 2:
            return self._path(w, args[0]) | self._path(w, args[1])
        if op == "star" and len(args) == 1:
            base = self._path(w, args[0])
            rel = set((i, i) for i in range(self.n + 1))
            grew = True
            while grew:
                grew = False
                for (a, b) in list(rel):
                    for (c, d) in base:
                        if c == b and (a, d) not in rel:
                            rel.add((a, d))
                            grew = True
            return frozenset(rel)
        raise OracleError("unknown path operator &%s/%d" % (op, len(args)))

    @staticmethod
    def _compose(r1, r2) -> FrozenSet[Tuple[int, int]]:
        return frozenset((a, d) for (a, b) in r1 for (c, d) in r2 if b == c)

    # -- rules ----------------------------------------------------------------

    def sat_literal(self, w: int, i: int, lit: Literal) -> bool:
        if lit.positive:
            return self.sat(w, i, lit.payload)
        return not self.sat(THERE, i, lit.payload)

    def _implication(self, w: int, i: int, rule: Rule) -> bool:
        if not all(self.sat_literal(w, i, b) for b in rule.body):
            return True
        if isinstance(rule.head, Choice):
            return all(
                self.sat(w, i, el.atom) or not self.sat(THERE, i, el.atom)
                for el in rule.head.elements)
        return any(self.sat(w, i, el.atom) for el in rule.head.elements)

    def sat_rule(self, w: int, i: int, rule: Rule) -> bool:
        if w == HERE:
            return (self._implication(HERE, i, rule)
                    and self._implication(THERE, i, rule))
        return self._implication(THERE, i, rule)

    def sat_program(self, w: int, rules) -> bool:
        return all(self.sat_rule(w, i, r)
                   for r in rules for i in range(self.n + 1))


# ---------------------------------------------------------------------------
# Public evaluation API


def eval_formula(trace: Trace, t: int, formula) -> bool:
    """Classical satisfaction of a formula at state t of a trace."""
    ev = _Evaluator(trace.states, trace.states, trace.tau)
    return ev.sat(THERE, t, formula)


def eval_path(trace: Trace, rho) -> FrozenSet[Tuple[int, int]]:
    """The accessibility relation of a path expression over a trace."""
    ev = _Evaluator(trace.states, trace.states, trace.tau)
    return ev.path(THERE, rho)


# ---------------------------------------------------------------------------
# Equilibrium model enumeration


def _is_fact(rule: Rule) -> bool:
    return (isinstance(rule.head, Disjunction)
            and len(rule.head.elements) == 1 and not rule.body
            and not isinstance(rule.head.elements[0].atom, TheoryExpression))


def _vocabulary(rules) -> List:
    vocab: Dict = {}

    def collect_atoms(node):
        if isinstance(node, TheoryExpression):
            if node.operator in ("i",):
                return
            for a in node.args:
                collect_atoms(a)
        elif isinstance(node, (Constant, Function)):
            vocab[node] = None

    for r in rules:
        for el in r.head.elements:
            collect_atoms(el.atom)
        for b in r.body:
            if not isinstance(b.payload, Comparison):
                collect_atoms(b.payload)
    return sorted(vocab, key=str)


def _uses_metric(rules) -> bool:
    for r in rules:
        nodes = [el.atom for el in r.head.elements] + [
            b.payload for b in r.body
            if not isinstance(b.payload, Comparison)]
        for node in nodes:
            for x in walk(node):
                if isinstance(x, TheoryExpression) and x.operator == "i":
                    return True
    return False


def _equilibrium(rules, there, tau, facts=frozenset()) -> bool:
    ev = _Evaluator(there, there, tau)
    if not ev.sat_program(THERE, rules):
        return False
    # no strictly smaller "here" trace may satisfy the program; atoms
    # forced by facts can never be dropped, so skip them
    slots = [(i, a) for i, state in enumerate(there)
             for a in sorted(state, key=str) if a not in facts]
    for r in range(1, len(slots) + 1):
        for dropped in itertools.combinations(slots, r):
            here = [set(s) for s in there]
            for i, a in dropped:
                here[i].discard(a)
            ev2 = _Evaluator([frozenset(s) for s in here], there, tau)
            if ev2.sat_program(HERE, rules):
                return False
    return True


def temporal_models(program: Program, n: int,
                    max_time: Optional[int] = None) -> Iterator[Trace]:
    """All temporal equilibrium models of length n+1, by brute force.

    The models are generated lazily; the bounds are checked at the call.
    """
    rules = instantiate(program)
    vocab = _vocabulary(rules)
    facts = {r.head.elements[0].atom for r in rules if _is_fact(r)}
    free = [a for a in vocab if a not in facts]

    # the timing functions: tau(0) = 0, strictly increasing, tau(n) <= M
    metric = _uses_metric(rules)
    if metric and (max_time is None or max_time < n):
        raise OracleError("metric program needs a max-time bound of at "
                          "least the horizon %d" % n)
    timings = math.comb(max_time, n) if metric else 1
    count = (2 ** (len(free) * (n + 1))) * timings
    if count > MAX_CANDIDATES:
        raise OracleLimitError("state space too large: %d candidates" % count)
    taus = [(0,) + c for c in itertools.combinations(
        range(1, max_time + 1), n)] if metric else [None]

    state_choices = list(itertools.chain.from_iterable(
        [itertools.combinations(free, k) for k in range(len(free) + 1)]))

    def models():
        for states in itertools.product(state_choices, repeat=n + 1):
            there = [frozenset(set(s) | facts) for s in states]
            for tau in taus:
                if _equilibrium(rules, there, tau, facts):
                    yield Trace(tuple(there), tau)
    return models()


# ---------------------------------------------------------------------------
# What a trace shows

#: The head of the rule t :- C that stands for ``#show t : C.`` while it
#: is instantiated; no program can name it, as a leading _ makes a
#: variable.
_SHOWN = "_shown"


def _signature(atom) -> tuple:
    return (atom.name, len(atom.args)) if isinstance(atom, Function) \
        else (atom.name, 0)


def show_projection(program: Program):
    """trace -> its states as solve shows them, each a frozenset of
    rendered terms: every atom if the program has no #show directive.
    Otherwise the atoms of each ``#show p/k.`` signature, and the term t
    of each instance of ``#show t : C.`` whose condition C holds at the
    state; a bare ``#show.`` shows nothing by itself.  A term show is
    instantiated as the rule t :- C would be."""
    shows = program.directives(Show)
    if not shows:
        return lambda trace: tuple(frozenset(map(str, s))
                                   for s in trace.states)
    signatures = {s.signature for s in shows if s.signature is not None}
    rules = tuple(Rule(Disjunction((HeadElement(Function(_SHOWN, (s.term,))),
                                    )), s.condition)
                  for s in shows if s.signature is None and s.term is not None)
    terms = [(str(r.head.elements[0].atom.args[0]), r.body)
             for r in instantiate(Program(program.statements + rules))
             if r.head.elements and _signature(r.head.elements[0].atom)
             == (_SHOWN, 1)]

    def project(trace):
        return tuple(frozenset(
            [str(a) for a in state if _signature(a) in signatures]
            + [t for t, body in terms
               if all((b.payload in state) == b.positive for b in body)])
            for state in trace.states)
    return project
