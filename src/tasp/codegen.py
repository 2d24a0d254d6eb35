"""Generated join code for the plans that are grounded again.

From its second grounding on, a ground.Plan grounds each job with a Python
function generated from the job's own steps: a first Futamura projection
of Grounder._interpret (_join, _build_instance and _add_derivable), as
Souffle compiles Datalog (Jordan, Scholz, Subotic, *Souffle: on synthesis
of program analyzers*, CAV 2016).  A scan is a for loop over the indices
its list has when the scan starts, the snapshot _join takes; variables
are locals; tests, checks and assignments are inline code; body and head
tuples are built in place; and the heads of an instance are derived as
soon as it is built.  A pooled assignment or head calls the interpreter's
term evaluator on a substitution dict, arithmetic calls the helpers the
evaluator calls, and a comparison is == for = and compare_terms for the
order comparisons, as in ground.holds, so both paths give the same ground
program, warnings and errors.  As in _join and _build_instance, each step
that evaluates a term, and the building of each instance, is guarded by
a try that skips the instance on DropInstance, whether or not it can
drop it.  The code runs in the namespace of the ground module.

Three specializations stay, as each measured as paying.  Deriving a head
atom inline, with no term_depth call where its depth is bounded: without
it a meta build (minimum of 15 x 30 in-process builds) took 1.23 -> 1.46
ms for TELEX n=6, 5.90 -> 6.73 ms for MELEX_SCALED n=5 and 3.75 -> 5.02
ms for DEL_ALTERNATION n=6.  A lone head with a tuple body: without it
del builds were 1-9% slower.  Ordering two integers inline, before
compare_terms: without it the benchmark's traced tel-search meta
grounding took 1.2% longer, in 10 of 10 alternating pairs.

Only the plans of the meta-encodings (meta._schema_plan) are grounded
more than once, so the code covers the step shapes that the tel, mel
and del schema plans hold.  On any other shape (a join left unbound, an
#external, arithmetic in a matched pattern, a negative or comparison
literal in a condition, or an error to raise, among others) JobSource
raises _Unsupported, and the plan stays interpreted.  A plan grounded
once, as every user program is, stays interpreted and never imports
this module: compiling a job costs about half a millisecond, more than
grounding a small program does.
"""

from __future__ import annotations

from . import ground
from .ground import MAX_TERM_DEPTH, _Condition, _pooled, atom_key, term_depth
from .syntax import (
    ASSIGN, CHECK, SCAN, TEST, BinOp, Comparison, Constant, Function, Integer,
    TheoryExpression, UnaryMinus, Variable, walk,
)

_NO_DEPTH = float("-inf")


class _Unsupported(Exception):
    """A step shape the generated code does not cover, named."""


def _is_ground(t) -> bool:
    """Whether t is a value: no variable and nothing to evaluate."""
    if isinstance(t, Function):
        return all(map(_is_ground, t[1]))
    return not isinstance(t, (Variable, BinOp, UnaryMinus))


def _pure(node) -> bool:
    """Whether evaluating node can neither warn nor raise: it has no
    arithmetic and no interval."""
    return not any(isinstance(x, (BinOp, UnaryMinus)) for x in walk(node))


def _lone(rule) -> bool:
    """Whether the head of rule is one atom, without a condition or an
    interval."""
    return len(rule.head) == 1 and rule.head[0][1] is None \
        and not _pooled(rule.head[0][0])


class JobSource:
    """The Python source of the jobs of a plan; _Unsupported if a step
    has a shape the code does not cover.  The source of a job is a
    function that takes the objects the job reads and returns the job's
    function, job(grounder, instances, externals), which joins the job,
    appends its instances to instances and derives their heads, as
    Grounder._interpret does for a rule."""

    def __init__(self, plan):
        self.plan = plan
        #: each job's (source, the objects its function takes)
        self.jobs: list[tuple] = []
        for rule in plan.rules:
            self.objects: dict[int, tuple] = {}  # id -> (name, object)
            self.lines: list[str] = []
            prologue = self._job(rule)
            self.jobs.append(("\n".join(
                ["def job_of(%s):" % ", ".join(
                    name for name, _ in self.objects.values()),
                 "    def job(g, insts, externals):"]
                + ["        " + line for line in prologue]
                + self.lines + ["    return job"]),
                [obj for _, obj in self.objects.values()]))

    def compile(self) -> tuple:
        """The function of each job.  Jobs are compiled one by one: the
        peak memory of compile grows with the source it is given."""
        jobs = []
        for text, objects in self.jobs:
            namespace: dict = {}
            exec(compile(text, "<generated job>", "exec"), vars(ground),
                 namespace)
            jobs.append(namespace["job_of"](*objects))
        return tuple(jobs)

    # -- helpers ----------------------------------------------------------------

    def ref(self, obj) -> str:
        """The name under which the code reads obj."""
        return self.objects.setdefault(
            id(obj), ("k%d" % len(self.objects), obj))[0]

    def emit(self, line):
        self.lines.append("    " * self.indent + line)

    def temp(self, prefix="t") -> str:
        self.temps += 1
        return "%s%d" % (prefix, self.temps)

    def loop(self, header) -> str:
        self.emit(header)
        self.indent += 1
        return "continue"

    def guard(self, lines, skip):
        """Emits lines, which skip the partial instance if undefined
        arithmetic drops it, as _join does for each step."""
        self.emit("try:")
        for line in lines:
            self.emit("    " + line)
        self.emit("except DropInstance:")
        self.emit("    " + skip)

    def bind(self, name, depth) -> str:
        """The local of variable name, now bound to values whose term_depth
        is at most max(a, max_depth + r) for depth (a, r), or any if depth
        is None."""
        self.depths[name] = depth
        return self.names.setdefault(name, "v%d" % len(self.names))

    def depth(self, t):
        """(a, r): the term_depth of the values of t is at most
        max(a, max_depth + r); None if unknown."""
        if _is_ground(t):
            return term_depth(t), _NO_DEPTH
        if isinstance(t, Variable):
            return self.depths.get(t.name)
        if not isinstance(t, Function):
            return 0, _NO_DEPTH  # arithmetic gives an integer
        parts = [self.depth(a) for a in t.args]
        if None in parts:
            return None
        return (1 + max([a for a, _ in parts], default=0),
                1 + max([r for _, r in parts], default=_NO_DEPTH))

    def shallow(self, t) -> bool:
        """Whether every value of head atom t is within the depth bound:
        then it is derived without a term_depth call."""
        d = self.depth(t)
        return d is not None and d[1] <= 0 \
            and d[0] <= MAX_TERM_DEPTH + self.plan.depth

    def subst(self, bound) -> str:
        return "{%s}" % ", ".join(
            "%r: %s" % (name, self.names[name]) for name in sorted(bound))

    def index_list(self, key) -> str:
        """The local of the name/arity list of key."""
        return self.lists.setdefault(key, "l%d" % len(self.lists))

    def name(self, name) -> str:
        return repr(name) if type(name) is str else self.ref(name)

    # -- terms and comparisons --------------------------------------------------

    def expr(self, t, bound) -> str:
        """An expression of the value of t, as ground.value."""
        if _is_ground(t):
            return self.ref(t)
        if isinstance(t, Variable) and t.name in bound:
            return self.names[t.name]
        if isinstance(t, TheoryExpression) and t.memberships:
            raise _Unsupported("a typed theory expression")
        if isinstance(t, Function):
            args = "(%s)" % "".join(
                self.expr(a, bound) + ", " for a in t.args)
            return "_new(%s, (%s, %s))" % (self.ref(type(t)),
                                           self.name(t[0]), args)
        if isinstance(t, UnaryMinus):
            return "negate(%s)" % self.expr(t.arg, bound)
        if isinstance(t, Variable) or t.op == "..":
            raise _Unsupported("an unbound variable or an interval")
        return "arithmetic(%r, %s, %s)" % (
            t.op, self.expr(t.left, bound), self.expr(t.right, bound))

    def comparison(self, cmp, positive, bound):
        """(lines, test): lines to run, then an expression of whether cmp
        holds, if positive, or fails, as ground.holds; not for an interval
        or = against a function with variables.  Two integers are ordered
        inline."""
        op, left, right = cmp.op, cmp.left, cmp.right
        if _pooled(left) or _pooled(right) or op == "=" and isinstance(
                right, Function) and not _is_ground(right):
            raise _Unsupported("an interval or = against a function")
        lines, operands = [], []
        for t in (left, right):
            value = self.expr(t, bound)
            if op != "=" and not (_is_ground(t) or isinstance(t, Variable)):
                lines.append("%s = %s" % (self.temp(), value))
                value = "t%d" % self.temps
            operands.append(value)
        x, y = operands
        if op == "=":
            test = "%s == %s" % (x, y)
        elif any(_is_ground(t) and type(t) is not Integer
                 for t in (left, right)):
            test = "compare_terms(%r, %s, %s)" % (op, x, y)
        else:
            ints = " and ".join("type(%s) is Integer" % v for v, t in (
                (x, left), (y, right)) if not _is_ground(t))
            test = "%s %s %s" % (x, op, y) if not ints else \
                "(%s %s %s if %s else compare_terms(%r, %s, %s))" % (
                    x, op, y, ints, op, x, y)
        return lines, test if positive else "not (%s)" % test

    # -- joins -----------------------------------------------------------------

    def join(self, steps, skip):
        """Emits the join of steps, nested in one loop per scan or pooled
        assignment; skip leaves the current partial instance.  Returns the
        locals of the atoms the steps record, and the skip of the
        innermost level."""
        found = []
        for op, p, x, y, bound in steps:
            if op == CHECK:
                lines, test = self.comparison(p, x, bound)
                self.guard(lines + ["if not %s: %s" % (test, skip)], skip)
            elif op == ASSIGN:
                if not _pooled(p):
                    raise _Unsupported("an assignment of one value")
                values = self.temp()
                self.guard(["%s = values(%s, %s)" % (
                    values, self.ref(p), self.subst(bound))], skip)
                skip = self.loop("for %s in %s:" % (
                    self.bind(x, self.depth(p)), values))
            elif op == TEST:
                atom = self.temp("a")
                lines = ["%s = %s" % (atom, self.expr(p, bound))]
                if x:  # a negative literal is recorded, not tested
                    lines.append("if %s not in derivable: %s" % (atom, skip))
                self.guard(lines, skip)
                found.append(atom)
            elif op == SCAN:
                atom, skip = self.scan(p, x, y, bound, skip)
                found.append(atom)
            else:  # a FAIL step
                raise _Unsupported("a join left unbound")
        return found, skip

    def scan(self, p, shape, pattern, bound, skip):
        atoms = self.index_list(atom_key(p))
        values = shape[1]
        if values:
            # keys are not evaluated without atoms
            self.emit("if not %s: %s" % (atoms, skip))
            keys = "(%s)" % "".join(
                self.expr(p.args[pos], bound) + ", " for pos in values)
            atoms = self.temp()
            self.guard(["%s = arg_index.get((%s, %s), ())" % (
                atoms, self.ref(shape), keys)], skip)
        if not all(_pure(a) for _, a in pattern):
            # _join matches every atom before it extends the first
            raise _Unsupported("arithmetic in a matched pattern")
        atom, i = self.temp("a"), self.temp("i")
        skip = self.loop("for %s in range(len(%s)):" % (i, atoms))
        self.emit("%s = %s[%s]" % (atom, atoms, i))
        args = self.temp()
        self.emit("%s = %s[1]" % (args, atom))
        bound = set(bound)
        for pos, a in pattern:
            self.match(a, "%s[%d]" % (args, pos), 1, bound, skip)
        return atom, skip

    def match(self, p, g, level, bound, skip):
        """Emits the test that value g, at nesting level `level` of a
        scanned atom, matches pattern p, as ground.match; binds the variables
        that p binds first and adds them to bound."""
        if _is_ground(p):
            self.emit("if %s != %s: %s" % (g, self.ref(p), skip))
        elif isinstance(p, Variable):
            if p.name in bound:
                self.emit("if %s != %s: %s" % (g, self.names[p.name], skip))
            else:
                bound.add(p.name)
                self.emit("%s = %s" % (self.bind(p.name, (0, -level)), g))
        else:  # a function without arithmetic
            f, args = self.temp(), self.temp()
            self.emit("%s = %s" % (f, g))
            self.emit("if not (isinstance(%s, Function) and %s[0] == %s "
                      "and len(%s[1]) == %d): %s" % (
                          f, f, self.name(p[0]), f, len(p.args), skip))
            self.emit("%s = %s[1]" % (args, f))
            for k, a in enumerate(p.args):
                self.match(a, "%s[%d]" % (args, k), level + 1, bound, skip)

    def condition(self, c, each, pure):
        """Emits the expansion of condition c, of positive literals, as
        expand_condition: each() emits what one solution does, inside the
        join.  Not if both each() and the join may warn or raise, as
        expand_condition completes the join first."""
        if c.error:
            raise _Unsupported("a condition over a non-domain predicate")
        if c.negatives:
            raise _Unsupported("a negative condition literal")
        if not pure and not all(_pure(term) for _, term, *_ in c.steps):
            raise _Unsupported("an element and its condition both impure")
        base = self.indent
        self.loop("for _ in (None,):")
        self.join(c.steps, "continue")
        each()
        self.indent = base

    # -- one job -----------------------------------------------------------------

    def _job(self, rule) -> list[str]:
        """Emits the body of the function of job rule into self.lines;
        returns the lines that set the locals it reads."""
        if rule.kind == "external":
            raise _Unsupported("an #external")
        self.names, self.depths, self.lists, self.temps = {}, {}, {}, 0
        self.indent = 2
        params = ["%s = g.params[%r]" % (self.bind(name, None), name)
                  for name in self.plan.params]
        found, skip = self.join(rule.steps, "return")
        # undefined arithmetic drops the instance, as in _build_instance
        self.emit("try:")
        self.indent += 1
        self.body(rule, found)
        key = self.head(rule)
        self.indent -= 1
        self.emit("except DropInstance:")
        self.emit("    " + skip)
        self.derive(rule, key)
        return ["derivable = g.derivable", "arg_index = g._arg_index",
                "index = g._index", "insts_append = insts.append"] + params + [
            "%s = index.setdefault(%s, [])" % (name, self.ref(key))
            for key, name in self.lists.items()]

    def body(self, rule, found):
        """Emits body = the body of the instance."""
        if not any(isinstance(e, _Condition) for e in rule.body):
            self.emit("body = (%s)" % "".join(
                "(%r, %s), " % (e[0], found[e[1]]) for e in rule.body))
            return
        self.emit("body = []")
        for e in rule.body:
            if not isinstance(e, _Condition):
                self.emit("body.append((%r, %s))" % (e[0], found[e[1]]))
                continue
            positive, payload = e.literal.positive, e.literal.payload
            if isinstance(payload, Comparison):
                raise _Unsupported("a comparison conditional literal")
            self.condition(e, lambda: self.emit("body.append((%r, %s))" % (
                positive, self.expr(payload, e.bound))), _pure(payload))
        self.emit("body = tuple(body)")

    def head(self, rule):
        """Emits head = the head of the instance, and h = its atom if it
        is the only one, as _build_instance; or heads = its alternatives
        if a head atom is pooled.  Returns the name/arity key of the head
        atoms if they share one and are within the depth bound."""
        atoms = [a for a, _ in rule.head]
        keys = [atom_key(a) if isinstance(a, (Function, Constant)) else None
                for a in atoms]
        key = keys[0] if keys and keys.count(keys[0]) == len(keys) else None
        if any(map(_pooled, atoms)):
            self.emit("heads = g._ground_head(%s, %s)" % (
                self.ref(rule.head), self.subst(rule.bound)))
            return None
        if all(c is None for _, c in rule.head):
            if not all(map(self.shallow, atoms)):
                key = None
            values = [self.expr(a, rule.bound) for a in atoms]
            if len(values) == 1:
                self.emit("h = %s" % values[0])
                self.emit("head = (h,)")
            else:
                self.emit("head = tuple(dict.fromkeys((%s)))" % "".join(
                    v + ", " for v in values))
            return key
        if any(c is None for _, c in rule.head):
            raise _Unsupported("bare and conditioned head elements")
        self.emit("head = []")
        for a, c in rule.head:
            def each():
                nonlocal key
                key = key if self.shallow(a) else None
                self.emit("head.append(%s)" % self.expr(a, c.bound))
            self.condition(c, each, _pure(a))
        self.emit("head = tuple(dict.fromkeys(head))")
        return key

    def derive(self, rule, key):
        """Emits the recording of the instance and the derivation of its
        heads, as Grounder.ground does for each of _build_instance's."""
        if any(_pooled(a) for a, _ in rule.head):
            self.loop("for head in heads:")
        self.emit("insts_append((%r, head, body))" % rule.kind)
        if not _lone(rule):
            self.loop("for h in head:")
        if key is None:
            self.emit("g._add_derivable(h)")
            return
        self.emit("if h not in derivable:")
        self.indent += 1
        self.emit("if len(derivable) > MAX_ATOMS:")
        self.emit("    _atom_bound()")
        self.emit("derivable[h] = None")
        self.emit("%s.append(h)" % self.index_list(key))
        for shape in self.plan.shapes.get(key, ()):
            self.emit("arg_index.setdefault((%s, (%s)), []).append(h)" % (
                self.ref(shape), "".join("h[1][%d], " % pos
                                         for pos in shape[1])))
