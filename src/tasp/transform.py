"""Non-ground transformations: safety analysis, ``#external`` injection,
and ``#show`` rewriting.

These passes run on a typed program and produce a standard program whose
grounding keeps nested theory expressions alive.  Body theory expressions
get protecting externals (kind 1); atoms nested in head expressions, but
not under ``&not``, get externals that put them into the instantiation
domain (kind 2).
"""

from __future__ import annotations

from typing import List, Set

from .grammar import TheoryGrammar
from .syntax import (
    Comparison, ConditionalLiteral, Constant, Disjunction, External,
    Function, HeadElement, Literal, Program, Rule, Show, TheoryExpression,
    Variable, substitute, variables,
)

#: Head marker predicate for rewritten ``#show t : C.`` directives.
SHOW_TERM_MARKER = "__show_term"


class UnsafeRuleError(Exception):
    def __init__(self, rule, variables):
        loc = "%d:%d" % rule.location if rule.location else "?"
        super().__init__(
            "unsafe rule at %s: variables %s not bound by safe body atoms"
            " in %s" % (loc, ", ".join(sorted(variables)), rule))
        self.rule = rule
        self.variables = variables


def safe_atoms_in(expr, g: TheoryGrammar):
    """Atoms reachable from expr through safe-declared argument positions."""
    if isinstance(expr, TheoryExpression):
        found = expr.memberships and g.find_spec(
            expr.memberships[-1], expr.operator, len(expr.args))
        safety = found[1].arg_safety if found else ()
        for arg, safe in zip(expr.args, safety):
            if safe == "safe":
                yield from safe_atoms_in(arg, g)
    elif isinstance(expr, (Constant, Function)):
        yield expr


def derivable_atoms_in(expr):
    """Atoms a head expression can make true: those not under &not."""
    if isinstance(expr, TheoryExpression):
        if expr.operator != "not":
            for arg in expr.args:
                yield from derivable_atoms_in(arg)
    elif isinstance(expr, (Constant, Function)):
        yield expr


def _binding_variables(atom) -> Set[str]:
    """The variables a safe atom occurrence binds: those outside
    arithmetic, which is matched only after the parts that bind it."""
    found, stack = set(), [atom]
    while stack:
        x = stack.pop()
        if isinstance(x, Variable):
            found.add(x.name)
        elif isinstance(x, Function):
            stack.extend(x.args)
    return found


def _bind_comparisons(body, bound: Set[str]):
    """Extend bound variables via positive ``V = expr`` literals."""
    changed = True
    while changed:
        changed = False
        for b in body:
            if isinstance(b, ConditionalLiteral) or not b.positive:
                continue
            p = b.payload
            if isinstance(p, Comparison) and p.op == "=":
                for var_side, other in ((p.left, p.right), (p.right, p.left)):
                    if (isinstance(var_side, Variable)
                            and var_side.name not in bound
                            and variables(other) <= bound):
                        bound.add(var_side.name)
                        changed = True


def classify_safety(rule: Rule, g: TheoryGrammar) -> tuple:
    """Spot safe body atom occurrences and check all variables are bound:
    (the safe occurrences in body order, the set of unbound variables).

    An occurrence is safe iff it is not under default negation and every
    argument position on the path from the body literal to the atom is
    declared safe in the grammar.  It binds its variables outside
    arithmetic, in a condition too, so p(X) :- q(X+1). is unsafe.
    """
    safe_occurrences: List = []
    for b in rule.body:
        if isinstance(b, ConditionalLiteral):
            continue  # conditionals have local scope; handled below
        if not b.positive or isinstance(b.payload, Comparison):
            continue
        safe_occurrences.extend(safe_atoms_in(b.payload, g))

    bound = set()
    for atom in safe_occurrences:
        bound |= _binding_variables(atom)
    _bind_comparisons(rule.body, bound)

    # global variables: everything outside conditional elements
    global_vars: Set[str] = set()
    for el in rule.head.elements:
        if not el.condition:
            global_vars |= variables(el.atom)
    for b in rule.body:
        if isinstance(b, ConditionalLiteral):
            continue
        global_vars |= variables(b.payload)

    unsafe = global_vars - bound

    # conditional elements: local variables must be bound by their condition
    def check_conditional(main_vars, condition):
        local_bound = set(bound)
        for c in condition:
            if c.positive and not isinstance(c.payload, Comparison):
                for atom in safe_atoms_in(c.payload, g):
                    local_bound |= _binding_variables(atom)
        for missing in main_vars - local_bound:
            unsafe.add(missing)

    for el in rule.head.elements:
        if el.condition:
            check_conditional(variables(el.atom), el.condition)
    for b in rule.body:
        if isinstance(b, ConditionalLiteral):
            check_conditional(variables(b.literal.payload), b.condition)

    return tuple(safe_occurrences), unsafe


def _canonical(target, condition):
    """Key identifying an external up to variable renaming."""
    mapping = {}

    def rename(x):
        if isinstance(x, Variable):
            return Variable(mapping.setdefault(x.name, "V%d" % len(mapping)))
        return None

    return (substitute(target, rename),
            tuple(substitute(c.payload, rename) for c in condition))


def inject_externals(program: Program, g: TheoryGrammar) -> Program:
    """Add the two kinds of protective ``#external`` directives.

    Idempotent: externals already present (up to variable renaming) are
    not duplicated.  Raises UnsafeRuleError for unsafe rules.
    """
    seen = set()
    for s in program.statements:
        if isinstance(s, External):
            seen.add(_canonical(s.target, s.condition))

    new_externals: List[External] = []

    def add(target, condition):
        condition = tuple(Literal(True, a) for a in dict.fromkeys(condition))
        key = _canonical(target, condition)
        if key in seen:
            return
        seen.add(key)
        new_externals.append(External(target, condition))

    for rule in program.rules:
        occurrences, unsafe = classify_safety(rule, g)
        if unsafe:
            raise UnsafeRuleError(rule, unsafe)

        # kind 1: protect every theory expression occurring in the body
        for b in rule.body:
            lit = b.literal if isinstance(b, ConditionalLiteral) else b
            if isinstance(lit.payload, TheoryExpression):
                extra = _condition_atoms(b) if isinstance(b, ConditionalLiteral) else ()
                add(lit.payload, occurrences + extra)

        # kind 2: ground every atom a head expression can derive
        for el in rule.head.elements:
            if not isinstance(el.atom, TheoryExpression):
                continue
            extra = tuple(
                a for c in el.condition if c.positive
                and not isinstance(c.payload, Comparison)
                for a in safe_atoms_in(c.payload, g))
            for atom in derivable_atoms_in(el.atom):
                add(atom, occurrences + extra)

    return Program(program.statements + tuple(new_externals))


def _condition_atoms(b: ConditionalLiteral):
    return tuple(c.payload for c in b.condition
                 if c.positive and not isinstance(c.payload, Comparison))


def rewrite_shows(program: Program):
    """Replace ``#show`` directives by internal marker rules, from which
    reification derives show_atom/2 and show_term/2 facts.

    Returns (program', show_all).  ``#show t : C.`` becomes
    ``__show_term(t) :- C.`` in its place, and ``#show p/2.`` becomes
    ``__show_term(p(X0,X1)) :- p(X0,X1).`` after every other statement,
    which keeps the order in which the ground program names user atoms.
    """
    statements, signatures = [], []
    show_all = True
    for s in program.statements:
        if not isinstance(s, Show):
            statements.append(s)
            continue
        show_all = False
        term, condition, into = s.term, s.condition, statements
        if s.signature is not None:
            name, arity = s.signature
            args = tuple(Variable("X%d" % i) for i in range(arity))
            term = Function(name, args) if args else Constant(name)
            condition, into = (Literal(True, term),), signatures
        if term is not None:  # a bare "#show." only switches off show-all
            marker = Function(SHOW_TERM_MARKER, (term,))
            into.append(Rule(Disjunction((HeadElement(marker),)),
                             tuple(condition), location=s.location))
    return Program(tuple(statements + signatures)), show_all


def transform_program(program: Program, g: TheoryGrammar):
    """Full non-ground pass: externals injected, shows rewritten.

    The input program must already be typed (see grammar.typecheck_program).
    Returns (program', show_all).
    """
    program = inject_externals(program, g)
    return rewrite_shows(program)
