"""Extended reification of ground programs into fact databases.

Besides the standard rule/atom_tuple/literal_tuple/output predicates the
database carries formula/2 (typed subexpressions), external/2 and
show_atom/2 / show_term/2 facts.  Atoms and theory expressions stand in
the facts as the grounder holds them, so &next(a) prints as it is read
and never equals the atom next(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Tuple

from .ground import GroundProgram
from .syntax import (
    Constant, Function, Integer, TheoryExpression,
)
from .transform import SHOW_TERM_MARKER


class ReifyError(Exception):
    pass


@dataclass
class ReifiedDB:
    #: (head_kind, atom_tuple_id, literal_tuple_id)
    rules: List[Tuple[str, int, int]] = field(default_factory=list)
    atom_tuples: Dict[int, tuple] = field(default_factory=dict)
    literal_tuples: Dict[int, tuple] = field(default_factory=dict)
    #: (symbol, literal_tuple_id); facts point at an empty tuple
    outputs: List[tuple] = field(default_factory=list)
    #: (type name, expression or atom)
    formulas: List[tuple] = field(default_factory=list)
    #: (symbol, literal_tuple_id)
    externals: List[tuple] = field(default_factory=list)
    #: ("show_atom" | "show_term", term, literal_tuple_id)
    shows: List[tuple] = field(default_factory=list)

    def core_facts(self) -> list:
        """The core fact atoms: rules, tuples, outputs (no extensions)."""
        out = []
        for kind, h, b in self.rules:
            out.append(Function("rule", (Function(kind, (Integer(h),)),
                                         Function("normal", (Integer(b),)))))
        for i, atoms in self.atom_tuples.items():
            out.append(Function("atom_tuple", (Integer(i),)))
            out.extend(Function("atom_tuple", (Integer(i), Integer(a)))
                       for a in atoms)
        for i, lits in self.literal_tuples.items():
            out.append(Function("literal_tuple", (Integer(i),)))
            out.extend(Function("literal_tuple", (Integer(i), Integer(l)))
                       for l in lits)
        for sym, b in self.outputs:
            out.append(Function("output", (sym, Integer(b))))
        return out

    def facts(self):
        """Every fact atom but the show facts: the core, then the
        formulas, then the externals."""
        yield from self.core_facts()
        for t, e in self.formulas:
            yield Function("formula", (Constant(t), e))
        for sym, b in self.externals:
            yield Function("external", (sym, Integer(b)))


# ---------------------------------------------------------------------------
# Reification


def reify(gp: GroundProgram, show_all: bool = True) -> ReifiedDB:
    """The extended reified database of a ground program.  Atoms are
    numbered from 1 in symbol-table order, show markers left out; atom
    and literal tuples from 0 in order of first use.  A fact is the rule
    of its one head atom with an empty body; its output is conditional
    free, every other atom's is its singleton literal tuple."""
    def marker(atom):
        return isinstance(atom, Function) and atom.name == SHOW_TERM_MARKER

    def intern(tuples, key):
        return tuples.setdefault(key, len(tuples))

    ids = {a: i for i, a in enumerate(
        (a for a in gp.symbol_table if not marker(a)), 1)}
    heads, bodies = {}, {}  # atom and literal tuple -> its id
    db, marker_shows = ReifiedDB(), []
    for kind, head, body in chain(gp.rules, (
            ("disjunction", (f,), ()) for f in gp.facts)):
        body = tuple(ids[a] if pos else -ids[a] for pos, a in body)
        if len(head) == 1 and marker(head[0]):
            marker_shows.append((head[0].args[0], body))
        else:
            db.rules.append((kind, intern(heads, tuple(map(ids.get, head))),
                             intern(bodies, body)))
    output = {a: intern(bodies, () if a in gp.facts else (i,))
              for a, i in ids.items()}
    db.outputs = list(output.items())

    g, formulas = gp.grammar, {}  # ordered set of (type, expression)

    def walk(node):
        if not node.memberships:
            raise ReifyError("expression %s lacks type information; "
                             "run typecheck before reifying" % (node,))
        formulas.update(dict.fromkeys((t, node) for t in node.memberships))
        _, spec = g.find_spec(node.memberships[-1], node.operator,
                              len(node.args))
        for arg, arg_type in zip(node.args, spec.arg_types):
            if isinstance(arg, TheoryExpression):
                walk(arg)
            elif isinstance(arg, (Constant, Function)):  # not numbers etc.
                path = g.membership_path(arg_type, "atom") or ()
                formulas.update(dict.fromkeys((t, arg) for t in path))

    for a in ids:
        if isinstance(a, TheoryExpression):
            if g is None:
                raise ReifyError("expression %s has no grammar; ground "
                                 "with the grammar that typed it" % (a,))
            walk(a)
    db.formulas = list(formulas)
    db.externals = [(a, output[a]) for a in gp.externals]
    if show_all:
        db.shows = [("show_atom", a, b) for a, b in output.items()
                    if not isinstance(a, TheoryExpression)]
    for term, body in marker_shows:
        kind = "show_atom" if isinstance(term, (Constant, Function)) \
            else "show_term"
        db.shows.append((kind, term, intern(bodies, body)))
    db.atom_tuples = {i: t for t, i in heads.items()}
    db.literal_tuples = {i: t for t, i in bodies.items()}
    return db


# ---------------------------------------------------------------------------
# Text emission and parsing


def emit_reified_text(db: ReifiedDB) -> str:
    lines = ["%s." % (a,) for a in db.facts()]
    lines.extend("%s(%s,%d)." % show for show in db.shows)
    return "\n".join(lines)


def parse_reified(text: str) -> ReifiedDB:
    from .parser import parse_program

    program = parse_program(text)
    db = ReifiedDB()
    declared_atom_tuples, declared_literal_tuples = set(), set()

    def intval(t):
        if isinstance(t, Integer):
            return t.value
        raise ReifyError("expected integer, got %s" % (t,))

    for r in program.rules:
        if r.body or len(r.head.elements) != 1 or r.head.elements[0].condition:
            raise ReifyError("not a fact: %s" % (r,))
        a = r.head.elements[0].atom
        if not isinstance(a, Function):
            raise ReifyError("malformed reified fact: %s" % (a,))
        name, args = a.name, a.args
        if name == "rule" and len(args) == 2:
            head, body = args
            if not (isinstance(head, Function) and len(head.args) == 1
                    and head.name in ("disjunction", "choice")
                    and isinstance(body, Function) and body.name == "normal"
                    and len(body.args) == 1):
                raise ReifyError("malformed rule fact: %s" % (a,))
            db.rules.append((head.name, intval(head.args[0]),
                             intval(body.args[0])))
        elif name == "atom_tuple" and len(args) == 1:
            declared_atom_tuples.add(intval(args[0]))
            db.atom_tuples.setdefault(intval(args[0]), ())
        elif name == "atom_tuple" and len(args) == 2:
            i = intval(args[0])
            db.atom_tuples[i] = db.atom_tuples.get(i, ()) + (intval(args[1]),)
        elif name == "literal_tuple" and len(args) == 1:
            declared_literal_tuples.add(intval(args[0]))
            db.literal_tuples.setdefault(intval(args[0]), ())
        elif name == "literal_tuple" and len(args) == 2:
            i = intval(args[0])
            db.literal_tuples[i] = (db.literal_tuples.get(i, ())
                                    + (intval(args[1]),))
        elif name == "output" and len(args) == 2:
            db.outputs.append((args[0], intval(args[1])))
        elif name == "formula" and len(args) == 2:
            if not isinstance(args[0], Constant):
                raise ReifyError("malformed formula fact: %s" % (a,))
            db.formulas.append((args[0].name, args[1]))
        elif name == "external" and len(args) == 2:
            db.externals.append((args[0], intval(args[1])))
        elif name in ("show_atom", "show_term") and len(args) == 2:
            db.shows.append((name, args[0], intval(args[1])))
        else:
            raise ReifyError("unknown reified fact: %s" % (a,))

    for i in db.atom_tuples:
        if i not in declared_atom_tuples:
            raise ReifyError("atom_tuple %d has elements but no declaration" % i)
    for i in db.literal_tuples:
        if i not in declared_literal_tuples:
            raise ReifyError("literal_tuple %d has elements but no declaration" % i)
    for kind, h, b in db.rules:
        if h not in db.atom_tuples:
            raise ReifyError("dangling atom_tuple %d" % h)
        if b not in db.literal_tuples:
            raise ReifyError("dangling literal_tuple %d" % b)
    for sym, b in db.outputs + db.externals:
        if b not in db.literal_tuples:
            raise ReifyError("dangling literal_tuple %d in output/external" % b)
    for _, _, b in db.shows:
        if b not in db.literal_tuples:
            raise ReifyError("dangling literal_tuple %d in show fact" % b)
    return db


# ---------------------------------------------------------------------------
# Isomorphism


def _canonical(db: ReifiedDB, core_only: bool):
    """Renumbering-invariant form.  Atom ids are named through singleton
    output tuples; fact atoms (whose outputs are conditional-free) have no
    identifying tuple and canonicalize anonymously — their symbols are
    still compared through the output facts themselves."""
    id_to_symbol = {}
    for sym, b in db.outputs:
        lits = db.literal_tuples.get(b, ())
        if len(lits) == 1 and lits[0] > 0:
            id_to_symbol[lits[0]] = str(sym)

    def sym(i):
        return id_to_symbol.get(i, "#anon")

    def lit_tuple(b):
        return frozenset(
            (("+" if l > 0 else "-"), sym(abs(l)))
            for l in db.literal_tuples[b])

    def atom_tuple(h):
        return frozenset(sym(a) for a in db.atom_tuples[h])

    rules = frozenset(
        (kind, atom_tuple(h), lit_tuple(b)) for kind, h, b in db.rules)
    outputs = frozenset(
        (str(s), lit_tuple(b)) for s, b in db.outputs)
    if core_only:
        return (rules, outputs)
    formulas = frozenset((t, str(e)) for t, e in db.formulas)
    externals = frozenset((str(s), lit_tuple(b)) for s, b in db.externals)
    shows = frozenset((k, str(t), lit_tuple(b)) for k, t, b in db.shows)
    return (rules, outputs, formulas, externals, shows)


def isomorphic(a: ReifiedDB, b: ReifiedDB, core_only: bool = False) -> bool:
    """True iff the databases are equal up to consistent id renumbering."""
    return _canonical(a, core_only) == _canonical(b, core_only)
