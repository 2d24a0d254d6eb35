"""Bottom-up grounder with clingo-style simplifications.

Instantiates a transformed program over its Herbrand domain.  External
atoms and theory expressions are exempt from simplification; conditional
literals are expanded over domain predicates; arithmetic terms and
intervals are evaluated during instantiation.

The same engine instantiates the internal meta-encodings against
reified-fact databases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

from .syntax import (
    BinOp, Choice, Comparison, ConditionalLiteral, ConstDef, Constant,
    External, Function, Infimum, Integer, Program, Show, String, Supremum,
    TheoryExpression, UnaryMinus, Variable, map_payloads, substitute,
    with_args,
)

log = logging.getLogger(__name__)


class GroundingError(Exception):
    pass


#: Function nesting bound for invented values.
MAX_TERM_DEPTH = 16

#: Hard cap on derivable atoms, guards non-terminating value invention.
MAX_ATOMS = 1_000_000


# ---------------------------------------------------------------------------
# Term evaluation


def term_depth(t) -> int:
    if isinstance(t, (Function, TheoryExpression)):
        return 1 + max((term_depth(a) for a in t.args), default=0)
    return 0


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
    if op == "=":
        return ka == kb
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


def expand_term(t, subst) -> List:
    """Like eval_term but expands intervals into all their values."""
    if isinstance(t, BinOp) and t.op == "..":
        lo = eval_term(t.left, subst)
        hi = eval_term(t.right, subst)
        if not isinstance(lo, Integer) or not isinstance(hi, Integer):
            raise GroundingError("interval bounds must be integers")
        return [Integer(v) for v in range(lo.value, hi.value + 1)]
    if isinstance(t, (Function, TheoryExpression)):
        out = [()]
        for a in t.args:
            vals = expand_term(a, subst)
            out = [prefix + (v,) for prefix in out for v in vals]
        return [with_args(t, args) for args in out]
    return [eval_term(t, subst)]


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


def read_keys(literals) -> tuple:
    """Keys of the index lists a join over these literals reads."""
    return tuple(dict.fromkeys(
        atom_key(l.payload) for l in literals
        if not isinstance(l.payload, Comparison)))


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


@dataclass(frozen=True)
class GroundRule:
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
# Grounder


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


class Grounder:
    def __init__(self, program: Program, constants: Optional[dict] = None,
                 grammar=None):
        consts = {d.name: d.value for d in program.directives(ConstDef)}
        for name, value in (constants or {}).items():
            consts[name] = Integer(value) if isinstance(value, int) else value
        self.rules = bind_constants(program.rules, consts)
        self.externals = bind_constants(program.directives(External), consts)
        self.show_signatures = tuple(
            s.signature for s in program.directives(Show)
            if s.signature is not None)
        self.grammar = grammar
        self.derivable: Dict = {}
        self._index: Dict[tuple, List] = {}
        self.counters = dict.fromkeys((  # logged by ground
            "rounds", "joins", "joins_skipped", "simplify_rounds",
            "rules_dropped"), 0)

    # -- derivable index -------------------------------------------------------

    def _add_derivable(self, atom) -> bool:
        if atom in self.derivable:
            return False
        if term_depth(atom) > MAX_TERM_DEPTH:
            raise GroundingError(
                "value-creation depth bound exceeded at %s" % (atom,))
        if len(self.derivable) > MAX_ATOMS:
            raise GroundingError("derivable-atom bound exceeded")
        self.derivable[atom] = None
        self._index.setdefault(atom_key(atom), []).append(atom)
        return True

    def _candidates(self, pattern):
        return self._index.get(atom_key(pattern), ())

    # -- body joins ------------------------------------------------------------

    def _solve(self, pending, subst, found=()) -> Iterator[tuple]:
        """Each substitution satisfying the positive part of pending, a
        list of (index, literal) pairs, with the (index, ground atom) of
        every atom literal: the candidate it matched, or its value once
        bound.  A bound comparison is checked here, and only here.  A
        literal with index None need only be bound."""
        if not pending:
            yield subst, found
            return
        # pick the first processable element
        for k, (i, el) in enumerate(pending):
            rest = pending[:k] + pending[k + 1:]
            p = el.payload
            if isinstance(p, Comparison):
                left = term_is_bound(p.left, subst)
                right = term_is_bound(p.right, subst)
                if left and right:
                    if self._comparison_holds(p, el.positive, subst):
                        yield from self._solve(rest, subst, found)
                    return
                # assignment V = t, either way round
                var, value = (p.right, p.left) if left else (p.left, p.right)
                if el.positive and p.op == "=" and (left or right) \
                        and isinstance(var, Variable):
                    for v in self._expand_safe(value, subst):
                        s2 = dict(subst)
                        s2[var.name] = v
                        yield from self._solve(rest, s2, found)
                    return
                continue
            if term_is_bound(p, subst):
                if i is None:  # bound, but neither evaluated nor recorded
                    yield from self._solve(rest, subst, found)
                    return
                try:
                    atom = eval_term(p, subst)
                except DropInstance:
                    return
                # a negative literal is deferred until bound and does not
                # filter here
                if not el.positive or atom in self.derivable:
                    yield from self._solve(rest, subst, found + ((i, atom),))
                return
            if not el.positive:
                continue
            for cand in list(self._candidates(p)):
                s2 = match(p, cand, subst)
                if s2 is not None:
                    yield from self._solve(rest, s2, found + ((i, cand),))
            return
        raise GroundingError(
            "cannot instantiate body: unbound %s" %
            "; ".join(str(el) for _, el in pending))

    def _expand_safe(self, t, subst):
        try:
            return expand_term(t, subst)
        except DropInstance:
            return []

    # -- conditional expansion ---------------------------------------------------

    def expand_condition(self, condition, subst) -> List[dict]:
        """All extensions of subst satisfying a conditional's condition;
        a bound negative literal drops the extensions where it is
        derivable (the condition is over domain predicates only)."""
        self._check_domain(condition)
        return [s for s, found in self._solve(list(enumerate(condition)), subst)
                if not any(atom in self.derivable for i, atom in found
                           if not condition[i].positive)]

    def _check_domain(self, condition):
        for c in condition:
            if isinstance(c.payload, Comparison):
                continue
            key = atom_key(c.payload)
            if key in self._non_domain:
                raise GroundingError(
                    "conditional literal condition over non-domain predicate "
                    "%s/%d" % (key[1], key[2]))

    def _compute_non_domain(self):
        """Predicates whose extension depends on choices, negation,
        disjunction or a conditional body literal: every derivable atom
        of the others is true."""
        non_domain = set()
        changed = True
        while changed:
            changed = False
            for r in self.rules:
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
            for e in self.externals:
                key = atom_key(e.target)
                if key not in non_domain:
                    non_domain.add(key)
                    changed = True
        self._non_domain = non_domain

    # -- main fixpoint -------------------------------------------------------------

    def ground(self) -> GroundProgram:
        self._compute_non_domain()
        # A join whose index lists kept the sizes they had when it last
        # started would yield the same instances again, so it is skipped;
        # one that grew its own input during its run is joined again.
        # A negative literal filters in a condition only; in an
        # external's condition it need only be bound.
        reads = [read_keys(l for l in e.condition if l.positive)
                 for e in self.externals]
        joins = [[(i if l.positive else None, l)
                  for i, l in enumerate(e.condition)] for e in self.externals]
        for r in self.rules:
            lits = [c for b in r.body for c in (
                b.condition if isinstance(b, ConditionalLiteral)
                else (b,) if b.positive else ())]
            lits += [c for el in r.head.elements for c in el.condition]
            reads.append(read_keys(lits))
            # conditionals never bind outer variables; expanded per instance
            joins.append([(i, b) for i, b in enumerate(r.body)
                          if not isinstance(b, ConditionalLiteral)])
        sizes: List[Optional[tuple]] = [None] * len(reads)
        instances: List[list] = [[] for _ in self.rules]
        external_atoms: Dict = {}
        grew = True
        while grew:
            grew = False
            self.counters["rounds"] += 1
            # external instances join the domain first
            for i, job in enumerate(self.externals + self.rules):
                now = tuple(len(self._index.get(k, ())) for k in reads[i])
                if now == sizes[i]:
                    self.counters["joins_skipped"] += 1
                    continue
                sizes[i] = now
                self.counters["joins"] += 1
                if i < len(self.externals):
                    for subst, _ in self._solve(joins[i], {}):
                        for target in self._expand_safe(job.target, subst):
                            external_atoms.setdefault(target)
                            grew |= self._add_derivable(target)
                    continue
                insts = instances[i - len(self.externals)] = []
                for subst, found in self._solve(joins[i], {}):
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

    def _build_instance(self, rule, subst, found):
        """All ground instances of one rule under a solution of its join
        (head intervals expand conjunctively, i.e. into separate rules).
        The body is assembled in body order from the join's ground atoms;
        only conditional literals are expanded here."""
        atoms = dict(found)
        body = []
        try:
            for i, b in enumerate(rule.body):
                if i in atoms:
                    body.append((b.positive, atoms[i]))
                elif isinstance(b, ConditionalLiteral):
                    lit = b.literal
                    for s2 in self.expand_condition(b.condition, subst):
                        if not isinstance(lit.payload, Comparison):
                            body.append(
                                (lit.positive, eval_term(lit.payload, s2)))
                        elif not self._comparison_holds(
                                lit.payload, lit.positive, s2):
                            return []
            heads = self._ground_head(rule.head, subst)
        except DropInstance:
            return []
        kind = "choice" if isinstance(rule.head, Choice) else "disjunction"
        body = tuple(body)
        return [(kind, head, body) for head in heads]

    def _comparison_holds(self, cmp, positive, subst) -> bool:
        """Whether a bound comparison holds; an interval on either side
        of = gives membership, e.g. X = 1..N, and an empty side fails."""
        lv = self._expand_safe(cmp.left, subst)
        rv = self._expand_safe(cmp.right, subst)
        if not lv or not rv:
            return False
        if len(lv) == 1 and len(rv) == 1:
            return compare_terms(cmp.op, lv[0], rv[0]) == positive
        if cmp.op == "=":
            return bool(set(lv) & set(rv)) == positive
        raise GroundingError("interval with %r comparison" % cmp.op)

    def _ground_head(self, head, subst) -> List[tuple]:
        """Alternative heads: conditioned elements expand disjunctively,
        interval pooling in bare elements expands conjunctively."""
        alternatives: List[list] = [[]]
        for el in head.elements:
            if el.condition:
                atoms = []
                for s2 in self.expand_condition(el.condition, subst):
                    atoms.extend(expand_term(el.atom, s2))
                alternatives = [alt + atoms for alt in alternatives]
            else:
                values = expand_term(el.atom, subst)
                if len(values) == 1:
                    alternatives = [alt + values for alt in alternatives]
                else:
                    alternatives = [alt + [v]
                                    for alt in alternatives for v in values]
        out = []
        for alt in alternatives:
            deduped = []
            for a in alt:
                if a not in deduped:
                    deduped.append(a)
            out.append(tuple(deduped))
        return out

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
        support: Dict = {}  # atom -> number of rules with it in the head
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
        promoted = [i for i, r in enumerate(rules) if r.is_fact]
        lost = [a for a in occurs if a not in support and a not in externals]
        while True:
            underivable.update(lost)
            new_facts = dict.fromkeys(
                h for h in (rules[i].head[0] for i in sorted(promoted))
                if h not in facts and h not in externals)
            facts.update(new_facts)
            work = {i for a in chain(lost, new_facts) for i in occurs[a]}
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
