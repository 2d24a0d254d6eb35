"""Theory grammars: ``#type`` loading, type assignment, macros, occurrence.

A grammar declares named types with subtype edges, per-operator expression
specs (argument types and safety), and macros.  Typechecking walks an
expression against an expected type, searching the subtype closure and
expanding macros on the fly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from . import parser
from .syntax import (
    ARGUMENT_ONLY, ConditionalLiteral, ConstDef, Constant, External,
    Function, Infimum, Integer, MacroSpec, Program, Rule, Show, String,
    Supremum, TheoryExpression, TypeSpec, Variable, components,
    map_payloads, substitute, variables, walk,
)


class GrammarError(Exception):
    pass


class TypeError_(Exception):
    """Type mismatch while checking an expression against a grammar."""


#: Types available without declaration.
PREDEFINED = ("atom", "number", "string", "infimum", "supremum")

#: Macro expansion recursion bound; exceeding it signals a macro cycle.
MACRO_DEPTH = 64

#: Where a type's expressions may stand: the positions of a rule or an
#: #external, or only as arguments of other expressions.
OCCURRENCES = ("any", "head", "body", "directive", ARGUMENT_ONLY)


class TheoryGrammar:
    """The types of an iterable of TypeSpecs, validated together, by name
    in declaration order; not changed once built."""

    def __init__(self, specs):
        self.types: dict[str, TypeSpec] = {}
        for spec in specs:
            if spec.name in self.types or spec.name in PREDEFINED:
                raise GrammarError("duplicate type declaration %r" % spec.name)
            if spec.occurrence not in OCCURRENCES:
                raise GrammarError("unknown occurrence %r in type %r"
                                   % (spec.occurrence, spec.name))
            self.types[spec.name] = spec
        self._closure: dict[str, tuple[str, ...]] = {}
        self._validate()

    # -- validation ----------------------------------------------------------

    def _validate(self):
        for spec in self.types.values():
            for sub in spec.subtypes:
                if sub not in self.types and sub not in PREDEFINED:
                    raise GrammarError(
                        "type %r references unknown subtype %r" % (spec.name, sub))
            seen = set()
            for e in spec.expressions:
                key = (e.operator, e.arity)
                if key in seen:
                    raise GrammarError(
                        "duplicate operator %s/%d in type %r"
                        % (e.operator, e.arity, spec.name))
                seen.add(key)
            for m in spec.macros:
                declared = {n for n, _ in m.placeholders}
                used = variables(m.expansion)
                pattern_names = variables(m.pattern)
                if not used <= pattern_names:
                    raise GrammarError(
                        "macro expansion in type %r uses placeholders %s "
                        "absent from its pattern"
                        % (spec.name, sorted(used - pattern_names)))
                if not pattern_names <= declared:
                    raise GrammarError(
                        "macro pattern in type %r has undeclared placeholders %s"
                        % (spec.name, sorted(pattern_names - declared)))
        names = list(self.types)  # a predefined type has no subtypes
        number = {t: i for i, t in enumerate(names)}
        for nodes, cyclic in components([[number[s] for s in self._subtypes(t)
                                          if s in number] for t in names]):
            if cyclic:
                raise GrammarError(
                    "cyclic subtypes involving %r" % names[nodes[0]])

    # -- subtype closure -----------------------------------------------------

    def closure(self, name: str) -> tuple[str, ...]:
        """BFS order of name and all types reachable via subtype edges,
        computed on first use."""
        if name not in self._closure:
            order, seen = [name], {name}
            for t in order:  # the list grows as the BFS queue
                for sub in self._subtypes(t):
                    if sub not in seen:
                        seen.add(sub)
                        order.append(sub)
            self._closure[name] = tuple(order)
        return self._closure[name]

    def _subtypes(self, name: str) -> tuple[str, ...]:
        spec = self.types.get(name)
        return spec.subtypes if spec is not None else ()

    def membership_path(self, start: str, goal: str) -> tuple[str, ...] | None:
        """Shortest subtype path from start down to goal, inclusive: the
        branch of closure(start)'s BFS tree that reaches goal, where each
        type's parent is the first type in BFS order that lists it."""
        order = self.closure(start)
        if goal not in order:
            return None
        path = [goal]
        while path[-1] != start:
            path.append(next(t for t in order if path[-1] in self._subtypes(t)))
        return tuple(reversed(path))

    def find_spec(self, expected: str, operator: str, arity: int):
        """Locate (type, ExpressionSpec) for operator/arity under expected."""
        for t in self.closure(expected):
            spec = self.types.get(t)  # None for a predefined type
            for e in spec.expressions if spec else ():
                if e.operator == operator and e.arity == arity:
                    return t, e
        return None

    def find_macros(self, expected: str):
        for t in self.closure(expected):
            spec = self.types.get(t)
            for m in spec.macros if spec else ():
                yield t, m


def load_grammar(text: str, base: TheoryGrammar | None = None) \
        -> TheoryGrammar:
    """Parse one or more ``#type`` blocks and validate them together with
    base's types, if given, which they may name but not declare again."""
    specs = parser.parse_program(text).directives(TypeSpec)
    if not specs:
        raise GrammarError("no #type blocks found")
    return TheoryGrammar(chain(base.types.values() if base else (), specs))


def check_operators(g: TheoryGrammar, logic: TheoryGrammar) -> None:
    """Raise GrammarError on the first expression operator/arity of g
    that the grammar of the logic does not declare.  The logic's meta
    encoding and the oracle give meaning to its operators alone; a new
    name has one only as a macro, which is expanded before either reads
    it."""
    known = {(e.operator, e.arity) for spec in logic.types.values()
             for e in spec.expressions}
    for spec in g.types.values():
        for e in spec.expressions:
            if (e.operator, e.arity) not in known:
                raise GrammarError(
                    "operator &%s/%d of type %r is not an operator of the "
                    "logic; only a macro may name a new one"
                    % (e.operator, e.arity, spec.name))


# ---------------------------------------------------------------------------
# Typechecking and macro expansion


def _check_term(term, expected: str, g: TheoryGrammar):
    """Check a plain term against a (possibly base) type; returns memberships."""
    if isinstance(term, Integer):
        goal = "number"
    elif isinstance(term, String):
        goal = "string"
    elif isinstance(term, Supremum):
        goal = "supremum"
    elif isinstance(term, Infimum):
        goal = "infimum"
    elif isinstance(term, (Constant, Function)):
        goal = "atom"
    elif isinstance(term, Variable):
        # variables may stand for any term; typed at instantiation
        return (expected,)
    else:
        raise TypeError_("term %s cannot be typed" % (term,))
    path = g.membership_path(expected, goal)
    if path is None:
        raise TypeError_("term %s is not of type %r" % (term, expected))
    return path


def typecheck(e, expected: str, g: TheoryGrammar, _depth: int = 0):
    """Assign types to e against the expected type, expanding macros.

    Returns a new node with ``memberships`` filled on every
    TheoryExpression; raises TypeError_ when no spec or macro applies.
    """
    if _depth > MACRO_DEPTH:
        raise TypeError_("macro expansion exceeds depth bound %d" % MACRO_DEPTH)

    if not isinstance(e, TheoryExpression):
        # terms: direct membership, else a bare-placeholder macro may apply
        try:
            _check_term(e, expected, g)
            return e
        except TypeError_:
            expansion = _try_macros(e, expected, g)
            if expansion is not None:
                return typecheck(expansion, expected, g, _depth + 1)
            raise

    if e.memberships and e.memberships[0] == expected:
        return e  # typed against this type already, as a macro argument
    found = g.find_spec(expected, e.operator, len(e.args))
    if found is not None:
        match_type, spec = found
        args = tuple(
            typecheck(a, t, g, _depth) for a, t in zip(e.args, spec.arg_types))
        return TheoryExpression(e.operator, args,
                                g.membership_path(expected, match_type))

    expansion = _try_macros(e, expected, g)
    if expansion is not None:
        return typecheck(expansion, expected, g, _depth + 1)
    raise TypeError_(
        "no operator &%s/%d of type %r" % (e.operator, len(e.args), expected))


def _try_macros(e, expected: str, g: TheoryGrammar):
    for _, macro in g.find_macros(expected):
        binding = _match_macro(macro.pattern, e, macro, g)
        if binding is not None:
            return substitute(macro.expansion, lambda x: binding.get(x.name)
                              if isinstance(x, Variable) else None)
    return None


def _match_macro(pattern, e, macro: MacroSpec, g: TheoryGrammar):
    """Structural match; returns a placeholder binding or None.  Each
    placeholder is bound to its value typed against the placeholder's
    type, which typecheck then takes as it is."""
    if isinstance(pattern, Variable):
        # TheoryGrammar._validate rejects an undeclared placeholder
        ptype = dict(macro.placeholders)[pattern.name]
        try:
            return {pattern.name: typecheck(e, ptype, g)}
        except TypeError_:
            return None
    if isinstance(pattern, TheoryExpression):
        if (not isinstance(e, TheoryExpression)
                or e.operator != pattern.operator
                or len(e.args) != len(pattern.args)):
            return None
        binding = {}
        for p, a in zip(pattern.args, e.args):
            sub = _match_macro(p, a, macro, g)
            if sub is None:
                return None
            for k, v in sub.items():
                if k in binding and binding[k] != v:
                    return None
                binding[k] = v
        return binding
    return {} if pattern == e else None


# ---------------------------------------------------------------------------
# Program-level typing and occurrence checks


def _type_atom_like(x, g: TheoryGrammar):
    """Type a head/body atom position: plain atoms pass, expressions are
    checked against the types allowed outside arguments first, then the
    argument-only ones."""
    if not isinstance(x, TheoryExpression):
        return x
    errors = []
    for t in sorted(g.types,
                    key=lambda t: g.types[t].occurrence == ARGUMENT_ONLY):
        try:
            return typecheck(x, t, g)
        except TypeError_ as exc:
            errors.append(str(exc))
    raise TypeError_("expression %s matches no declared type (%s)"
                     % (x, "; ".join(errors)))


def typecheck_program(program: Program, g: TheoryGrammar) -> Program:
    """Type every theory expression in an atom position of the program,
    macros expanded; check_occurrence then says whether it may stand
    there."""
    return Program(tuple(
        map_payloads(s, lambda x: _type_atom_like(x, g))
        if isinstance(s, (Rule, External, Show)) else s
        for s in program.statements))


def _positions(s):
    """(x, position) for each atom and term of statement s that may hold
    a theory expression: position is head, body, directive or condition
    for an atom, term for a show term or a constant's value."""
    if isinstance(s, Rule):
        for el in s.head.elements:
            yield el.atom, "head"
            yield from ((c.payload, "condition") for c in el.condition)
        for b in s.body:
            conditional = isinstance(b, ConditionalLiteral)
            yield (b.literal if conditional else b).payload, "body"
            if conditional:
                yield from ((c.payload, "condition") for c in b.condition)
    elif isinstance(s, External):
        yield s.target, "directive"
        yield from ((c.payload, "condition") for c in s.condition)
    elif isinstance(s, Show):
        yield s.term, "term"
        yield from ((c.payload, "condition") for c in s.condition)
    elif isinstance(s, ConstDef):
        yield s.value, "term"


def _nested_expression(x, atom=True):
    """A theory expression in x that stands inside a term, or None: only
    an atom position, x itself if atom, and an expression's arguments
    may hold one."""
    if atom and isinstance(x, TheoryExpression):
        return next(filter(None, map(_nested_expression, x.args)), None)
    return next((y for y in walk(x) if isinstance(y, TheoryExpression)),
                None)


def check_occurrence(program: Program, g: TheoryGrammar) -> None:
    """Raise TypeError_ on the first misplaced theory expression of the
    typed program: one inside a term, as in p(&next(a)), a show term or a
    constant's value; one in a condition, where the grounder would read
    it as a domain atom that nothing derives; or one in a head, body or
    directive position that its type's occurrence does not allow.  An
    argument-only type allows none of them."""
    for s in program.statements:
        for x, position in _positions(s):
            e = _nested_expression(x, position != "term")
            if e is not None:
                raise TypeError_("%s: expression %s in term position"
                                 % (_loc(s.location), e))
            if isinstance(x, TheoryExpression) and (
                    position == "condition" or g.types[x.memberships[0]]
                    .occurrence not in ("any", position)):
                raise TypeError_(
                    "%s: expression %s of type %r not allowed in %s position"
                    % (_loc(s.location), x, x.memberships[0], position))


def _loc(location):
    return "%d:%d" % location if location else "?:?"


# ---------------------------------------------------------------------------
# Built-in grammars


TEL_GRAMMAR = """\
#type tel {
  subtypes: atom;
  occurrence: any;
  expressions:
    &true;
    &not(unsafe tel);
    &initial;
    &next(safe tel);
    &eventually(safe tel);
  macros:
    &final := &not(&next(&true));
}
"""

MEL_GRAMMAR = """\
#type ub {
  subtypes: number, supremum;
}
#type interval {
  expressions:
    &i(unsafe number, unsafe ub);
}
#type mel {
  subtypes: atom;
  occurrence: any;
  expressions:
    &true;
    &not(unsafe mel);
    &initial;
    &next(unsafe interval, safe mel);
    &eventually(unsafe interval, safe mel);
  macros:
    &next(F) := &next(&i(0,#sup),F) where F : mel;
    &eventually(F) := &eventually(&i(0,#sup),F) where F : mel;
    &final := &not(&next(&true));
}
"""

DEL_GRAMMAR = TEL_GRAMMAR + """\
#type del {
  subtypes: tel;
  occurrence: any;
  expressions:
    &not(unsafe del);
    &next(safe del);
    &eventually(safe del);
    &eventually(unsafe path, safe del);
    &always(unsafe path, unsafe del);
}
#type path {
  expressions:
    &step;
    &test(unsafe del);
    &seq(unsafe path, unsafe path);
    &choice(unsafe path, unsafe path);
    &star(unsafe path);
  macros:
    A := &seq(&test(A),&step) where A : atom;
}
"""

BUILTIN_GRAMMARS = {
    "tel": TEL_GRAMMAR,
    "mel": MEL_GRAMMAR,
    "del": DEL_GRAMMAR,
}


@lru_cache(maxsize=None)
def builtin_grammar(name: str) -> TheoryGrammar:
    """The builtin grammar of a logic, built on first use and then shared:
    a TheoryGrammar is not changed once built."""
    return load_grammar(BUILTIN_GRAMMARS[name])
