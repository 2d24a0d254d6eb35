"""Theory grammars: ``#type`` loading, type assignment, macros, occurrence.

A grammar declares named types with subtype edges, per-operator expression
specs (argument types and safety), and macros.  Typechecking walks an
expression against an expected type, searching the subtype closure and
expanding macros on the fly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from . import parser
from .syntax import (
    ConditionalLiteral, Constant, External, Function, Infimum, Integer,
    Program, Rule, String, Supremum, TheoryExpression, TypeBlock, Variable,
    expression_variables, map_payloads, substitute,
)


class GrammarError(Exception):
    pass


class TypeError_(Exception):
    """Type mismatch while checking an expression against a grammar."""


#: Types available without declaration.
PREDEFINED = ("atom", "number", "string", "infimum", "supremum")

#: Macro expansion recursion bound; exceeding it signals a macro cycle.
MACRO_DEPTH = 64

#: Default when a ``#type`` block omits ``occurrence``.
ARGUMENT_ONLY = "argument_only"

OCCURRENCES = ("any", "head", "body", "directive", ARGUMENT_ONLY)


@dataclass(frozen=True)
class ExpressionSpec:
    operator: str
    arg_types: Tuple[str, ...]
    arg_safety: Tuple[str, ...]  # entries in {"safe", "unsafe"}

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class MacroSpec:
    pattern: object  # TheoryExpression or Variable placeholder
    expansion: object
    placeholders: Tuple[Tuple[str, str], ...]  # (name, type)

    def placeholder_type(self, name: str) -> Optional[str]:
        for n, t in self.placeholders:
            if n == name:
                return t
        return None


@dataclass
class TypeSpec:
    name: str
    subtypes: Tuple[str, ...] = ()
    expressions: Tuple[ExpressionSpec, ...] = ()
    occurrence: str = ARGUMENT_ONLY
    macros: Tuple[MacroSpec, ...] = ()


class TheoryGrammar:
    """Validated, immutable collection of type specs."""

    def __init__(self, types: "OrderedDict[str, TypeSpec]"):
        self.types = types
        self._closure: Dict[str, Tuple[str, ...]] = {}
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
                used = expression_variables(m.expansion)
                pattern_names = expression_variables(m.pattern)
                if not used <= pattern_names:
                    raise GrammarError(
                        "macro expansion in type %r uses placeholders %s "
                        "absent from its pattern"
                        % (spec.name, sorted(used - pattern_names)))
                if not pattern_names <= declared:
                    raise GrammarError(
                        "macro pattern in type %r has undeclared placeholders %s"
                        % (spec.name, sorted(pattern_names - declared)))
        # one depth-first search over all types: an edge to a type still
        # on the search path closes a cycle
        on_path = {}  # visited type -> whether it is on the path
        for root in self.types:
            if root in on_path:
                continue
            on_path[root] = True
            path = [(root, iter(self._subtypes(root)))]
            while path:
                t, subs = path[-1]
                for sub in subs:
                    if on_path.get(sub):
                        raise GrammarError(
                            "cyclic subtypes involving %r" % sub)
                    if sub not in on_path:
                        on_path[sub] = True
                        path.append((sub, iter(self._subtypes(sub))))
                        break
                else:
                    on_path[t] = False
                    path.pop()

    # -- subtype closure -----------------------------------------------------

    def closure(self, name: str) -> Tuple[str, ...]:
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

    def _subtypes(self, name: str) -> Tuple[str, ...]:
        spec = self.types.get(name)
        return spec.subtypes if spec is not None else ()

    def is_subtype(self, sub: str, sup: str) -> bool:
        return sub in self.closure(sup)

    def membership_path(self, start: str, goal: str) -> Optional[Tuple[str, ...]]:
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
            spec = self.types.get(t)
            if spec is None:
                continue
            for e in spec.expressions:
                if e.operator == operator and e.arity == arity:
                    return t, e
        return None

    def find_macros(self, expected: str):
        for t in self.closure(expected):
            spec = self.types.get(t)
            if spec is None:
                continue
            for m in spec.macros:
                yield t, m

    def root_types(self) -> List[str]:
        """Declared types permitted outside argument positions."""
        return [t for t, s in self.types.items() if s.occurrence != ARGUMENT_ONLY]

    def union(self, other: "TheoryGrammar") -> "TheoryGrammar":
        merged = OrderedDict(self.types)
        for name, spec in other.types.items():
            if name in merged:
                raise GrammarError("duplicate type %r in grammar union" % name)
            merged[name] = spec
        return TheoryGrammar(merged)


# ---------------------------------------------------------------------------
# Loading


def grammar_from_blocks(blocks) -> TheoryGrammar:
    types: "OrderedDict[str, TypeSpec]" = OrderedDict()
    for b in blocks:
        if b.name in types or b.name in PREDEFINED:
            raise GrammarError("duplicate type declaration %r" % b.name)
        if b.occurrence is not None and b.occurrence not in OCCURRENCES:
            raise GrammarError("unknown occurrence %r in type %r"
                               % (b.occurrence, b.name))
        exprs = tuple(
            ExpressionSpec(op, tuple(t for _, t in args), tuple(s for s, _ in args))
            for op, args in b.expressions)
        macros = tuple(MacroSpec(p, e, w) for p, e, w in b.macros)
        types[b.name] = TypeSpec(
            b.name, tuple(b.subtypes), exprs,
            b.occurrence if b.occurrence is not None else ARGUMENT_ONLY,
            macros)
    return TheoryGrammar(types)


def load_grammar(text: str) -> TheoryGrammar:
    """Parse and validate one or more ``#type`` blocks."""
    program = parser.parse_program(text)
    blocks = [s for s in program.statements if isinstance(s, TypeBlock)]
    if not blocks:
        raise GrammarError("no #type blocks found")
    return grammar_from_blocks(blocks)


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
        raise TypeError_("term %s cannot be typed" % term)
    path = g.membership_path(expected, goal)
    if path is None:
        raise TypeError_("term %s is not of type %r" % (term, expected))
    return path


def typecheck(e, expected: str, g: TheoryGrammar, _depth: int = 0):
    """Assign types to e against the expected type, expanding macros.

    Returns a new node with ``assigned_type`` and ``memberships`` filled on
    every TheoryExpression; raises TypeError_ when no spec or macro applies.
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
        path = g.membership_path(expected, match_type)
        return TheoryExpression(e.operator, args,
                                assigned_type=match_type, memberships=path)

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
        ptype = macro.placeholder_type(pattern.name)
        if ptype is None:
            return None
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


def expand_macros(e, g: TheoryGrammar, expected: Optional[str] = None):
    """Fully expand macros in e; typing is a by-product and is kept.

    When expected is omitted, root types are tried in declaration order.
    """
    if expected is not None:
        return typecheck(e, expected, g)
    errors = []
    for t in g.root_types():
        try:
            return typecheck(e, t, g)
        except TypeError_ as exc:
            errors.append(str(exc))
    raise TypeError_("; ".join(errors) or "no root types declared")


# ---------------------------------------------------------------------------
# Program-level typing and occurrence checks


def _type_atom_like(x, g: TheoryGrammar):
    """Type a head/body atom position: plain atoms pass, expressions are
    checked against root types first, then argument-only types."""
    if not isinstance(x, TheoryExpression):
        return x
    errors = []
    candidates = g.root_types() + [
        t for t, s in g.types.items() if s.occurrence == ARGUMENT_ONLY]
    for t in candidates:
        try:
            return typecheck(x, t, g)
        except TypeError_ as exc:
            errors.append(str(exc))
    raise TypeError_("expression %s matches no declared type (%s)"
                     % (x, "; ".join(errors)))


def typecheck_program(program: Program, g: TheoryGrammar) -> Program:
    """Type every theory expression in the program (macros expanded)."""
    return Program(tuple(
        map_payloads(s, lambda x: _type_atom_like(x, g))
        if isinstance(s, (Rule, External)) else s
        for s in program.statements))


def check_occurrence(program: Program, g: TheoryGrammar):
    """Return diagnostics for expressions used in forbidden positions."""
    diagnostics = []

    def check(expr, position, location):
        if not isinstance(expr, TheoryExpression):
            return
        root = expr.memberships[0] if expr.memberships else expr.assigned_type
        spec = g.types.get(root)
        occurrence = spec.occurrence if spec is not None else "any"
        ok = (occurrence == "any"
              or occurrence == position)
        if occurrence == ARGUMENT_ONLY:
            diagnostics.append(
                "%s: expression %s of type %r may only occur as an argument"
                % (_loc(location), expr, root))
        elif not ok:
            diagnostics.append(
                "%s: expression %s of type %r not allowed in %s position"
                % (_loc(location), expr, root, position))

    for s in program.statements:
        if isinstance(s, Rule):
            for el in s.head.elements:
                check(el.atom, "head", s.location)
            for b in s.body:
                lit = b.literal if isinstance(b, ConditionalLiteral) else b
                check(lit.payload, "body", s.location)
        elif isinstance(s, External):
            check(s.target, "directive", s.location)
    return diagnostics


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
