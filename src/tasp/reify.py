"""Extended reification of ground programs into fact databases.

Besides the standard rule/atom_tuple/literal_tuple/output predicates the
database carries formula/2 (typed subexpressions), external/2 and
show_atom/2 / show_term/2 facts.  Theory expressions are encoded as plain
function terms (their operator names are treated as reserved); the
printer restores the ``&`` surface syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .ground import GroundProgram
from .syntax import (
    Constant, Function, Integer, TheoryExpression,
)
from .transform import SHOW_TERM_MARKER


class ReifyError(Exception):
    pass


def encode(x):
    """Theory expressions become plain terms; other terms pass through."""
    if isinstance(x, TheoryExpression):
        args = tuple(encode(a) for a in x.args)
        return Function(x.operator, args) if args else Constant(x.operator)
    if isinstance(x, Function):
        return Function(x.name, tuple(encode(a) for a in x.args))
    return x


@dataclass
class ReifiedDB:
    #: (head_kind, atom_tuple_id, literal_tuple_id)
    rules: List[Tuple[str, int, int]] = field(default_factory=list)
    atom_tuples: Dict[int, tuple] = field(default_factory=dict)
    literal_tuples: Dict[int, tuple] = field(default_factory=dict)
    #: (symbol, literal_tuple_id); facts point at an empty tuple
    outputs: List[tuple] = field(default_factory=list)
    #: (type name, encoded expression)
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


class _Reifier:
    def __init__(self, gp: GroundProgram, show_all: bool):
        self.gp = gp
        self.show_all = show_all
        self.db = ReifiedDB()
        self.atom_ids: Dict = {}
        self._atom_tuple_ids: Dict[tuple, int] = {}
        self._literal_tuple_ids: Dict[tuple, int] = {}

    def _is_marker(self, atom) -> bool:
        return isinstance(atom, Function) and atom.name == SHOW_TERM_MARKER

    def _atom_id(self, atom) -> int:
        if atom not in self.atom_ids:
            self.atom_ids[atom] = len(self.atom_ids) + 1
        return self.atom_ids[atom]

    def _atom_tuple(self, ids: tuple) -> int:
        if ids not in self._atom_tuple_ids:
            i = len(self._atom_tuple_ids)
            self._atom_tuple_ids[ids] = i
            self.db.atom_tuples[i] = ids
        return self._atom_tuple_ids[ids]

    def _literal_tuple(self, lits: tuple) -> int:
        if lits not in self._literal_tuple_ids:
            i = len(self._literal_tuple_ids)
            self._literal_tuple_ids[lits] = i
            self.db.literal_tuples[i] = lits
        return self._literal_tuple_ids[lits]

    def run(self) -> ReifiedDB:
        gp, db = self.gp, self.db
        # number all symbols in first-occurrence order (markers excluded)
        for sym in gp.symbol_table:
            if not self._is_marker(sym):
                self._atom_id(sym)

        marker_shows = []
        for r in gp.rules:
            body = tuple(
                self._atom_id(a) if pos else -self._atom_id(a)
                for pos, a in r.body)
            if len(r.head) == 1 and self._is_marker(r.head[0]):
                marker_shows.append((r.head[0].args[0], body))
                continue
            b = self._literal_tuple(body)
            h = self._atom_tuple(tuple(self._atom_id(a) for a in r.head))
            db.rules.append((r.head_kind, h, b))
        for f in gp.facts:
            if self._is_marker(f):  # a show whose condition is all facts
                marker_shows.append((f.args[0], ()))
                continue
            b = self._literal_tuple(())
            h = self._atom_tuple((self._atom_id(f),))
            db.rules.append(("disjunction", h, b))

        # outputs: facts are conditional-free (empty tuple), the rest get
        # their singleton identifying tuple
        singleton: Dict = {}
        for sym, i in self.atom_ids.items():
            if sym in gp.facts:
                b = self._literal_tuple(())
            else:
                b = self._literal_tuple((i,))
            singleton[sym] = b
            db.outputs.append((encode(sym), b))

        self._collect_formulas()

        for sym in gp.externals:
            db.externals.append((encode(sym), singleton[sym]))

        if self.show_all:
            for sym in self.atom_ids:
                if not isinstance(sym, TheoryExpression):
                    db.shows.append(("show_atom", encode(sym), singleton[sym]))
        for term, body in marker_shows:
            b = self._literal_tuple(body)
            kind = "show_atom" if isinstance(term, (Constant, Function)) \
                else "show_term"
            db.shows.append((kind, encode(term), b))
        return db

    # -- formula facts ------------------------------------------------------

    def _collect_formulas(self):
        g = self.gp.grammar
        if g is None:
            return
        seen = set()

        def emit(types, enc):
            for t in types:
                key = (t, enc)
                if key not in seen:
                    seen.add(key)
                    self.db.formulas.append(key)

        def walk(node):
            if not isinstance(node, TheoryExpression):
                return
            enc = encode(node)
            if not node.memberships:
                raise ReifyError(
                    "expression %s lacks type information; "
                    "run typecheck before reifying" % (node,))
            emit(node.memberships, enc)
            declaring = node.memberships[-1]
            _, spec = g.find_spec(declaring, node.operator, len(node.args))
            for arg, arg_type in zip(node.args, spec.arg_types):
                if isinstance(arg, TheoryExpression):
                    walk(arg)
                elif isinstance(arg, (Constant, Function)):
                    path = g.membership_path(arg_type, "atom")
                    if path:
                        emit(path, encode(arg))
                # numbers/strings/#sup etc. are not formulas

        for sym in self.atom_ids:
            walk(sym)


def reify(gp: GroundProgram, show_all: bool = True) -> ReifiedDB:
    """Build the extended reified database for a ground program."""
    return _Reifier(gp, show_all).run()


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
