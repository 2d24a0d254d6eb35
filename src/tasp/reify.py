"""Extended reification of ground programs into fact databases.

Besides the standard rule/atom_tuple/literal_tuple/output predicates the
database carries formula/2 (typed subexpressions), external/2 and
show_atom/2 / show_term/2 facts.  Atoms and theory expressions stand in
the facts as the grounder holds them, so &next(a) prints as it is read
and never equals the atom next(a).
"""

from __future__ import annotations

from itertools import chain

from .ground import GroundProgram
from .syntax import Constant, Function, Integer, Record, TheoryExpression
from .transform import SHOW_TERM_MARKER


class ReifyError(Exception):
    pass


class ReifiedDB(Record):
    """Lists of rules (head_kind, atom_tuple_id, literal_tuple_id),
    outputs and externals (symbol, literal_tuple_id; a fact's output has
    the empty tuple), formulas (type name, expression or atom) and shows
    ("show_atom" | "show_term", term, literal_tuple_id); dicts of tuples."""

    _fields = ("rules", "atom_tuples", "literal_tuples", "outputs",
               "formulas", "externals", "shows")
    _defaults = {"rules": [], "atom_tuples": {}, "literal_tuples": {},
                 "outputs": [], "formulas": [], "externals": [], "shows": []}

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
    terms = gp.atoms + list(gp.facts)  # a fact's rule follows the table
    num = [ids.get(a) for a in terms]
    heads, bodies = {}, {}  # atom and literal tuple -> its id
    rules, marker_shows = [], []
    for choice, head, body in chain(gp.id_rules, (
            (False, (i,), ()) for i in range(len(gp.atoms), len(terms)))):
        body = tuple([num[l] if l >= 0 else -num[~l] for l in body])
        if len(head) == 1 and marker(terms[head[0]]):
            marker_shows.append((terms[head[0]].args[0], body))
        else:
            rules.append(("choice" if choice else "disjunction",
                          intern(heads, tuple([num[h] for h in head])),
                          intern(bodies, body)))
    output = {a: intern(bodies, () if a in gp.facts else (i,))
              for a, i in ids.items()}

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
    shows = [("show_atom", a, b) for a, b in output.items()
             if not isinstance(a, TheoryExpression)] if show_all else []
    for term, body in marker_shows:
        kind = "show_atom" if isinstance(term, (Constant, Function)) \
            else "show_term"
        shows.append((kind, term, intern(bodies, body)))
    return ReifiedDB(rules, {i: t for t, i in heads.items()},
                     {i: t for t, i in bodies.items()}, list(output.items()),
                     list(formulas), [(a, output[a]) for a in gp.externals],
                     shows)


# ---------------------------------------------------------------------------
# Text emission


def emit_reified_text(db: ReifiedDB) -> str:
    lines = ["%s." % (a,) for a in db.facts()]
    lines.extend("%s(%s,%d)." % show for show in db.shows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Isomorphism


def _canonical(db: ReifiedDB):
    """Renumbering-invariant form of the core facts.  Atom ids are named
    through singleton output tuples; fact atoms (whose outputs are
    conditional-free) have no identifying tuple and canonicalize
    anonymously — their symbols are still compared through the output
    facts themselves."""
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
    return (rules, outputs)


def isomorphic(a: ReifiedDB, b: ReifiedDB) -> bool:
    """True iff the core facts of the databases (rules, tuples, outputs)
    are equal up to consistent id renumbering."""
    return _canonical(a) == _canonical(b)
