"""Non-ground transformations: safety analysis, ``#external`` injection,
and ``#show`` rewriting.

These passes run on a typed program and produce a standard program whose
grounding keeps nested theory expressions alive.  Body theory expressions
get protecting externals (kind 1); atoms nested in head expressions, but
not under ``&not``, get externals that put them into the instantiation
domain (kind 2).
"""

from __future__ import annotations


from .grammar import TheoryGrammar
from .syntax import (
    Comparison, ConditionalLiteral, Constant, Disjunction, External,
    Function, HeadElement, Literal, Program, Rule, Show, TheoryExpression,
    Variable, binding_variables, schedule, substitute, variables,
)

#: Head marker predicate for rewritten ``#show t : C.`` directives; no
#: program can name it, as a name that starts with & is only read as a
#: theory expression, and show_term is no operator of any logic.
SHOW_TERM_MARKER = "&show_term"


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


def _run(literals, g: TheoryGrammar, bound, assigned) -> tuple:
    """Run syntax.schedule over the literals of a body or condition other
    than conditional literals, from the names bound: (their safe atom
    occurrences, the names bound at the end, those left unbound), adding
    each assignment to assigned as (its variable's name, the comparison).
    A positive theory expression binds through its safe atom occurrences,
    and its other variables must be bound, as a negative literal's must."""
    pending, atoms = [], []
    for lit in literals:
        if isinstance(lit, ConditionalLiteral):
            continue
        p = lit.payload
        if not lit.positive or isinstance(p, Comparison):
            pending.append((None, lit.positive, p))
        elif isinstance(p, TheoryExpression):
            safe = list(safe_atoms_in(p, g))
            atoms += safe
            pending += [(None, True, a) for a in safe] + [(None, False, p)]
        else:
            atoms.append(p)
            pending.append((None, True, p))
    steps, bound = schedule(pending, bound)
    assigned += [(a[0], p) for _, _, _, p, a, _ in steps if a]
    return tuple(atoms), bound, {
        v for _, _, p in pending for v in variables(p)} - bound


def _needed(target, atoms, assigned) -> tuple:
    """The comparisons of the assignments in assigned, in schedule order,
    that bind a variable of target or atoms which the atoms do not bind,
    directly or through another of them."""
    bound = set().union(*map(binding_variables, atoms))
    need, keep = variables(target).union(*map(variables, atoms)) - bound, []
    for name, cmp in reversed(assigned):
        if name in need:
            keep.insert(0, cmp)
            need |= variables(cmp) - bound
    return tuple(keep)


def classify_safety(rule: Rule, g: TheoryGrammar) -> tuple:
    """The protecting #externals of rule, (target, condition payloads)
    pairs, and the set of its unbound variables, from one run of
    syntax.schedule over its body and one over each condition from where
    the body's ends; a condition binds for its element only.  An atom
    occurrence is safe iff it is not under default negation and every
    argument position on the path to it is declared safe in the grammar.
    Only safe occurrences and assignments bind: p(X) :- q(X+1). is unsafe.
    """
    assigned, protect = [], []
    occurrences, bound, unsafe = _run(rule.body, g, frozenset(), assigned)

    def scope(names, condition, targets, named):
        """Check that an element's variables names are bound under its
        condition; protect targets by the occurrences, the condition's
        atoms (named, or its safe occurrences) and the assignments needed."""
        inner, more, atoms = bound, assigned, ()
        if condition:
            more = list(assigned)
            atoms, inner, unbound = _run(condition, g, bound, more)
            unsafe.update(unbound)
        if names:
            unsafe.update(names - inner)
        atoms = occurrences + (atoms if named is None else named)
        for t in targets:
            protect.append((t, atoms + _needed(t, atoms, more) if more
                            else atoms))

    for b in rule.body:  # kind 1: protect each theory expression
        if isinstance(b, ConditionalLiteral):
            p = b.literal.payload
            scope(variables(p), b.condition,
                  (p,) if isinstance(p, TheoryExpression) else (),
                  tuple(c.payload for c in b.condition if c.positive
                        and not isinstance(c.payload, Comparison)))
        elif isinstance(b.payload, TheoryExpression):
            scope((), (), (b.payload,), None)
    for el in rule.head.elements:  # kind 2: every atom it can derive
        scope(variables(el.atom), el.condition, derivable_atoms_in(el.atom)
              if isinstance(el.atom, TheoryExpression) else (), None)
    return protect, unsafe


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
    seen = {_canonical(s.target, s.condition)
            for s in program.directives(External)}
    new_externals: list[External] = []
    for rule in program.rules:
        protect, unsafe = classify_safety(rule, g)
        if unsafe:
            raise UnsafeRuleError(rule, unsafe)
        for target, condition in protect:
            condition = tuple(Literal(True, a)
                              for a in dict.fromkeys(condition))
            key = _canonical(target, condition)
            if key not in seen:
                seen.add(key)
                new_externals.append(External(target, condition))

    return Program(program.statements + tuple(new_externals))


def rewrite_shows(program: Program):
    """Replace ``#show`` directives by internal marker rules, from which
    reification derives show_atom/2 and show_term/2 facts.

    Returns (program', show_all).  ``#show t : C.`` becomes
    ``&show_term(t) :- C.`` in its place, and ``#show p/2.`` becomes
    ``&show_term(p(X0,X1)) :- p(X0,X1).`` after every other statement,
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
