"""AST for temporal logic programs with typed theory expressions.

All nodes are immutable; the type annotations produced by the grammar
module are left out of equality and hashing.
"""

from __future__ import annotations

from operator import is_, itemgetter


class Record:
    """The one form of tasp's immutable classes of named fields, in place
    of dataclasses, whose decoration took half a millisecond a class at
    import.  _fields names the fields in argument order, _defaults the
    last ones' defaults.  Making a class compiles its __init__ from one
    template, in about 60 us; a generic *args constructor took twice a
    dataclass's time a record.  As with a frozen dataclass, == and hash
    read the class and every field but a location, and repr names every
    field."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        d, params, sets = cls._defaults, ["self"], []
        for f in cls._fields:
            params.append("%s=_d[%r]" % (f, f) if f in d else f)
            # a list or dict default is copied: no two records share it
            value = "%s.copy() if %s is _d[%r] else %s" % (f, f, f, f) \
                if type(d.get(f)) in (list, dict) else f
            sets.append("_s(self, %r, %s)" % (f, value))
        namespace = {}
        exec("def __init__(%s):\n    %s" % (", ".join(params), "\n    ".join(
            sets) or "pass"), {"_d": d, "_s": object.__setattr__}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields
                      if f != "location"])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__


class ResourceLimit(Exception):
    """Marker of the errors that report a bound on work reached (solver
    steps, grounder atoms and term depth, oracle candidates), not a fault
    in the input; each stage raises a subclass of its own error type."""


# ---------------------------------------------------------------------------
# Terms


# Constant, Integer and Function (TheoryExpression is one) are the terms
# every stage after parsing keys dicts and sets on, so each is a builtin
# value (a str, an int, the tuple (name, args)) whose hash and equality
# run in C.  A term equals the plain value it wraps; values of different
# term classes never equal.


class Constant(str):
    """A symbolic constant: its name, as a str."""

    __slots__ = ()
    name = property(str.__str__)

    def __repr__(self):
        return "Constant(%s)" % str.__repr__(self)


class Integer(int):
    """An integer term, as an int."""

    __slots__ = ()
    value = property(int)
    __str__ = int.__repr__

    def __repr__(self):
        return "Integer(%d)" % self


class String(Record):
    __slots__ = _fields = ("value",)

    def __str__(self):
        return '"%s"' % self.value.replace('\\', '\\\\').replace('"', '\\"')


class Variable(Record):
    __slots__ = _fields = ("name",)

    def __str__(self):
        return self.name


class Function(tuple):
    """name(args...), as the tuple (name, args)."""

    __slots__ = ()
    name = property(itemgetter(0))
    args = property(itemgetter(1))

    def __new__(cls, name, args):
        return tuple.__new__(cls, (name, args))

    def __getnewargs__(self):
        return tuple(self)

    def __str__(self):
        return "%s(%s)" % (self[0], ",".join(map(str, self[1])))

    def __repr__(self):
        return "Function(%r, %r)" % tuple(self)


class Supremum(Record):
    __slots__ = ()

    def __str__(self):
        return "#sup"


class Infimum(Record):
    __slots__ = ()

    def __str__(self):
        return "#inf"


class BinOp(Record):
    __slots__ = _fields = ("op", "left", "right")  # op one of + - * / \ ..

    def __str__(self):
        if self.op == "..":
            return "(%s..%s)" % (self.left, self.right)
        return "(%s%s%s)" % (self.left, self.op, self.right)


class UnaryMinus(Record):
    __slots__ = _fields = ("arg",)

    def __str__(self):
        return "-%s" % (self.arg,)


# Term: Constant, Integer, String, Variable, Function, Supremum, Infimum,
# BinOp or UnaryMinus.

SUP = Supremum()
INF = Infimum()

# ---------------------------------------------------------------------------
# Theory expressions


class TheoryExpression(Function):
    """``&operator(args...)`` as the tuple ("&" + operator, args), so never
    equal to an atom.  memberships, its grammar types from the most general
    (set by typecheck), is left out of == and hash; an untyped one, as
    the grounder builds from a schema, has none."""

    operator = property(lambda self: self[0][1:])
    memberships = ()

    def __new__(cls, operator, args=(), memberships=()):
        self = tuple.__new__(cls, ("&" + operator, args))
        self.memberships = memberships
        return self

    def __getnewargs__(self):
        return self.operator, self[1]

    def __str__(self):
        return Function.__str__(self) if self[1] else self[0]

    def __repr__(self):
        return "TheoryExpression(%r, %r)" % (self.operator, self[1])


# AtomLike, what may stand where an atom stands: Constant, Function or
# TheoryExpression.


# ---------------------------------------------------------------------------
# Literals, rules, directives


class Comparison(Record):
    __slots__ = _fields = ("op", "left", "right")  # op one of = != < <= > >=

    def __str__(self):
        return "%s %s %s" % (self.left, self.op, self.right)


class Literal(Record):
    __slots__ = _fields = ("positive", "payload")  # an AtomLike or Comparison

    def __str__(self):
        if self.positive:
            return str(self.payload)
        return "not %s" % (self.payload,)


class ConditionalLiteral(Record):
    __slots__ = _fields = ("literal", "condition")  # condition: of Literal

    def __str__(self):
        cond = ", ".join(str(c) for c in self.condition)
        return "%s : %s" % (self.literal, cond) if cond else str(self.literal)


# BodyElement: Literal or ConditionalLiteral.


class HeadElement(Record):
    """One disjunct or choice element, optionally conditioned."""

    __slots__ = _fields = ("atom", "condition")  # condition: of Literal
    _defaults = {"condition": ()}

    def __str__(self):
        if self.condition:
            return "%s : %s" % (self.atom, ", ".join(str(c) for c in self.condition))
        return str(self.atom)


class Disjunction(Record):
    __slots__ = _fields = ("elements",)  # none: an integrity constraint
    _defaults = {"elements": ()}

    def __str__(self):
        return "; ".join(str(e) for e in self.elements)


class Choice(Record):
    __slots__ = _fields = ("elements",)  # of HeadElement
    _defaults = {"elements": ()}

    def __str__(self):
        return "{ %s }" % "; ".join(str(e) for e in self.elements)


# Head: Disjunction or Choice.


class Rule(Record):
    __slots__ = _fields = ("head", "body", "location")  # (line, col)
    _defaults = {"body": (), "location": None}

    def __str__(self):
        head = str(self.head)
        if not self.body:
            return "%s." % head if head else ":- ."
        # conditional literals need ";" separators to stay unambiguous
        sep = "; " if any(isinstance(b, ConditionalLiteral)
                          for b in self.body) else ", "
        body = sep.join(str(b) for b in self.body)
        if head:
            return "%s :- %s." % (head, body)
        return ":- %s." % body


class External(Record):
    __slots__ = _fields = ("target", "condition", "location")
    _defaults = {"condition": (), "location": None}

    def __str__(self):
        if self.condition:
            return "#external %s : %s." % (
                self.target, ", ".join(str(c) for c in self.condition))
        return "#external %s." % (self.target,)


class Show(Record):
    """``#show t : C.``, or ``#show p/k.`` with the signature (p, k)."""

    __slots__ = _fields = ("term", "condition", "signature", "location")
    _defaults = {"term": None, "condition": (), "signature": None,
                 "location": None}

    def __str__(self):
        if self.signature is not None:
            return "#show %s/%d." % self.signature
        if self.condition:
            return "#show %s : %s." % (
                self.term, ", ".join(str(c) for c in self.condition))
        return "#show %s." % (self.term,)


class ConstDef(Record):
    __slots__ = _fields = ("name", "value", "location")
    _defaults = {"location": None}

    def __str__(self):
        return "#const %s=%s." % (self.name, self.value)


#: The occurrence of a type whose ``#type`` block names none: its
#: expressions may stand only as arguments of other expressions.
ARGUMENT_ONLY = "argument_only"


class ExpressionSpec(Record):
    """``&operator(safety type, ...)`` in a ``#type`` block: arg_types of
    str, arg_safety of "safe" or "unsafe"."""

    __slots__ = _fields = ("operator", "arg_types", "arg_safety")
    _defaults = {"arg_types": (), "arg_safety": ()}

    @property
    def arity(self) -> int:
        return len(self.arg_types)


class MacroSpec(Record):
    """``pattern := expansion where X : type, ...`` in a ``#type`` block:
    pattern a TheoryExpression or Variable placeholder, placeholders of
    (name, type)."""

    __slots__ = _fields = ("pattern", "expansion", "placeholders")
    _defaults = {"placeholders": ()}


class TypeSpec(Record):
    """A ``#type`` declaration, validated by grammar.TheoryGrammar:
    subtypes of str, expressions of ExpressionSpec, macros of MacroSpec."""

    __slots__ = _fields = ("name", "subtypes", "expressions", "occurrence",
                           "macros", "location")
    _defaults = {"subtypes": (), "expressions": (),
                 "occurrence": ARGUMENT_ONLY, "macros": (), "location": None}


# Directive: External, Show, ConstDef or TypeSpec.
# Statement: Rule or Directive.


class Program(Record):
    __slots__ = _fields = ("statements",)
    _defaults = {"statements": ()}

    @property
    def rules(self) -> tuple:
        return tuple(s for s in self.statements if isinstance(s, Rule))

    def directives(self, kind) -> tuple:
        return tuple(s for s in self.statements if isinstance(s, kind))

    def __str__(self):
        return "\n".join(str(s) for s in self.statements)


# ---------------------------------------------------------------------------
# Traversal helpers


def walk(node):
    """Yield node and every node under it, pre-order: the arguments of
    functions and theory expressions, the operands of arithmetic and both
    sides of a comparison."""
    stack = [node]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, Function):
            stack.extend(reversed(x.args))
        elif isinstance(x, (BinOp, Comparison)):
            stack += x.right, x.left
        elif isinstance(x, UnaryMinus):
            stack.append(x.arg)


def variables(node) -> set:
    """The names of the variables in node, which is bound when they all
    are."""
    found, stack = set(), [node]
    while stack:
        x = stack.pop()
        if isinstance(x, Function):
            stack += x[1]
        elif isinstance(x, Variable):
            found.add(x.name)
        elif isinstance(x, (BinOp, Comparison)):
            stack += x.left, x.right
        elif isinstance(x, UnaryMinus):
            stack.append(x.arg)
    return found


def binding_variables(atom) -> set:
    """The names of the variables that matching atom binds: those outside
    arithmetic, which is evaluated, not matched, so q(X+1) binds none."""
    if isinstance(atom, Function):
        return set().union(*map(binding_variables, atom[1]))
    return {atom.name} if isinstance(atom, Variable) else set()


#: The kinds of the steps of a join (see schedule).
CHECK, ASSIGN, TEST, SCAN = range(4)


def schedule(pending, bound) -> tuple:
    """The one rule of what binds a variable, which the grounder compiles
    and the safety check reads: the steps of a join over pending, a list
    of (i, positive, payload) literals, from the set bound of the names
    bound before it, and the names bound at its end.  Each step takes the
    first processable literal out of pending, as (kind, i, positive,
    payload, assigned, the names bound before it):
      CHECK   a comparison with both sides bound;
      ASSIGN  a positive V = t or t = V with t bound: assigned (V's name, t);
      TEST    an atom whose variables are bound;
      SCAN    a positive atom whose parts outside arithmetic bind every
              variable it holds that is not bound.
    assigned is None for the other kinds.  What stays in pending can never
    be processed."""
    need = []  # each side's names, or the atom's and those it cannot bind
    for _, positive, p in pending:
        if isinstance(p, Comparison):
            need.append((variables(p.left), variables(p.right)))
        else:
            names = variables(p)
            need.append((names, positive and names
                         and names - binding_variables(p)))
    steps = []
    while pending:
        for k, (i, positive, p) in enumerate(pending):
            a, b = need[k]
            if not isinstance(p, Comparison):
                if a <= bound:
                    steps.append((TEST, i, positive, p, None, bound))
                    break
                if positive and b <= bound:
                    steps.append((SCAN, i, positive, p, None, bound))
                    bound = bound | a
                    break
                continue
            left, right = a <= bound, b <= bound
            if left and right:
                steps.append((CHECK, i, positive, p, None, bound))
                break
            var, value = (p.right, p.left) if left else (p.left, p.right)
            if positive and p.op == "=" and (left or right) \
                    and isinstance(var, Variable):
                steps.append((ASSIGN, i, positive, p, (var.name, value),
                              bound))
                bound = bound | {var.name}
                break
        else:
            break
        del pending[k], need[k]
    return steps, bound


def components(succ) -> list:
    """The strongly connected components of the graph in which node v <
    len(succ) has the successors succ[v], as Tarjan's algorithm (SIAM J.
    Comput. 1972, here without recursion) completes them, each after all
    the components it reaches: (its nodes in ascending order, whether it
    is cyclic: more nodes than one, or a self-loop)."""
    n, count = len(succ), 0
    index, low, stack, comps = [-1] * n, [0] * n, [], []
    for root in range(n):
        work = [(root, iter(succ[root]))] if index[root] < 0 else []
        while work:
            v, edges = work[-1]
            if index[v] < 0:  # entered
                count = index[v] = low[v] = count + 1
                stack.append(v)
            for w in edges:
                if index[w] < 0:
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:  # on the stack: finished nodes have n+1
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for u in comp:
                        index[u] = n + 1
                    comps.append((sorted(comp), len(comp) > 1 or v in succ[v]))
    return comps


# ---------------------------------------------------------------------------
# Rebuilding


def with_args(node, args):
    """node, a Function or TheoryExpression, with args (memberships kept)."""
    if isinstance(node, TheoryExpression):
        return TheoryExpression(node.operator, args, node.memberships)
    return Function(node[0], args)


def substitute(node, leaf):
    """node with each leaf x (a term without subterms) replaced by leaf(x),
    unless that is None.  Rebuilds through functions, expressions (see
    with_args), arithmetic and comparisons; returns node itself when
    nothing changed."""
    if isinstance(node, Function):
        args = tuple(substitute(a, leaf) for a in node.args)
        if all(map(is_, args, node.args)):
            return node
        return with_args(node, args)
    if isinstance(node, (BinOp, Comparison)):
        left, right = substitute(node.left, leaf), substitute(node.right, leaf)
        if left is node.left and right is node.right:
            return node
        return type(node)(node.op, left, right)
    if isinstance(node, UnaryMinus):
        arg = substitute(node.arg, leaf)
        return node if arg is node.arg else UnaryMinus(arg)
    new = leaf(node)
    return node if new is None else new


def map_payloads(stmt, f):
    """stmt (a Rule, External or Show) with f applied to every head atom,
    body payload and condition payload."""
    def lit(l):
        return Literal(l.positive, f(l.payload))

    if isinstance(stmt, Show):
        return Show(stmt.term, tuple(map(lit, stmt.condition)),
                    stmt.signature, location=stmt.location)
    if isinstance(stmt, External):
        return External(f(stmt.target), tuple(map(lit, stmt.condition)),
                        location=stmt.location)
    head = type(stmt.head)(tuple(
        HeadElement(f(el.atom), tuple(map(lit, el.condition)))
        for el in stmt.head.elements))
    body = tuple(
        ConditionalLiteral(lit(b.literal), tuple(map(lit, b.condition)))
        if isinstance(b, ConditionalLiteral) else lit(b) for b in stmt.body)
    return Rule(head, body, location=stmt.location)
