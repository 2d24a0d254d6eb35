"""Recursive-descent parser for the clingo-style surface language.

Covers rules, ``&``-prefixed theory expressions, conditional literals,
``#external`` / ``#show`` / ``#const`` directives, and ``#type`` grammar
blocks.  An expression is read wherever a term may stand, as reified
facts hold them; the typechecker rejects one inside a user's term.
Produces the AST of :mod:`tasp.syntax`.
"""

from __future__ import annotations

import re

from .syntax import (
    ARGUMENT_ONLY, BinOp, Choice, Comparison, ConditionalLiteral, ConstDef,
    Constant, Disjunction, ExpressionSpec, External, Function, HeadElement,
    INF, Integer, Literal, MacroSpec, Program, Rule, SUP, Show, String,
    TheoryExpression, TypeSpec, UnaryMinus, Variable,
)


class ParseError(Exception):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%d:%d: %s" % (line, column, message)
        super().__init__(message)
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+)
  | (?P<COMMENT>%[^\n]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<NUMBER>\d+)
  | (?P<HASH>\#(?:sup|inf|[a-z_][a-zA-Z0-9_]*))
  | (?P<NAME>[a-z_][a-zA-Z0-9_]*)
  | (?P<VARIABLE>[A-Z][a-zA-Z0-9_]*)
  | (?P<OP>:-|:=|\.\.|!=|<=|>=|=|<|>|\||[(){}\[\],;:.&+\-*/\\?])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, value, line, m.start() - line_start + 1))
        nl = value.count("\n")
        if nl:
            line += nl
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
_GRAMMAR_FIELDS = {"subtypes", "occurrence", "expressions", "macros"}

#: Bound on term and expression nesting, so that no later stage recurses
#: too deep; argument lists, parentheses, unary minus and each chained
#: binary operator count one level.
MAX_NESTING = 100


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self._anon_counter = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset=1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        t = self.tok
        self.pos += 1
        return t

    def check(self, value) -> bool:
        return self.tok.value == value

    def accept(self, value) -> bool:
        if self.tok.value == value:
            self.pos += 1
            return True
        return False

    def expect(self, value) -> Token:
        if self.tok.value != value:
            self.error("expected %r, found %r" % (value, self.tok.value or "end of input"))
        return self.advance()

    def error(self, message):
        raise ParseError(message, self.tok.line, self.tok.column)

    def enter(self):
        """Go one nesting level down.  A ParseError ends the parse, so
        the error paths need no leave()."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting deeper than %d" % MAX_NESTING)

    def leave(self):
        self.depth -= 1

    # -- entry points -------------------------------------------------------

    def parse_program(self) -> Program:
        statements = []
        while self.tok.kind != "EOF":
            statements.append(self.parse_statement())
        return Program(tuple(statements))

    def parse_statement(self):
        loc = (self.tok.line, self.tok.column)
        if self.tok.kind == "HASH":
            return self.parse_directive(loc)
        constraint = self.accept(":-")
        head = Disjunction(()) if constraint else self.parse_head()
        body = tuple(self.parse_body()) \
            if constraint or self.accept(":-") else ()
        self.expect(".")
        return Rule(head, body, location=loc)

    # -- directives ---------------------------------------------------------

    def parse_directive(self, loc):
        name = self.advance().value
        if name == "#external":
            target = self.parse_atom_like()
            condition = self.parse_optional_condition()
            self.expect(".")
            return External(target, condition, location=loc)
        if name == "#show":
            if self.accept("."):
                return Show(location=loc)
            # signature form: name/arity
            if (self.tok.kind == "NAME" and self.peek().value == "/"):
                pred = self.advance().value
                self.expect("/")
                arity = self.advance()
                if arity.kind != "NUMBER":
                    self.error("expected arity")
                self.expect(".")
                return Show(signature=(pred, int(arity.value)), location=loc)
            term = self.parse_term()
            condition = self.parse_optional_condition()
            self.expect(".")
            return Show(term=term, condition=condition, location=loc)
        if name == "#const":
            cname = self.advance()
            if cname.kind != "NAME":
                self.error("expected constant name")
            self.expect("=")
            value = self.parse_term()
            self.expect(".")
            return ConstDef(cname.value, value, location=loc)
        if name == "#type":
            return self.parse_type_block(loc)
        self.error("unknown directive %r" % name)

    def parse_type_block(self, loc) -> TypeSpec:
        tname = self.advance()
        if tname.kind != "NAME":
            self.error("expected type name")
        self.expect("{")
        subtypes, occurrence = [], ARGUMENT_ONLY
        expressions, macros = [], []
        while not self.check("}"):
            field = self.advance()
            if field.kind != "NAME" or field.value not in _GRAMMAR_FIELDS:
                self.error("expected grammar field, found %r" % field.value)
            self.expect(":")
            if field.value == "subtypes":
                subtypes.append(self.advance().value)
                while self.accept(","):
                    subtypes.append(self.advance().value)
                self.expect(";")
            elif field.value == "occurrence":
                occurrence = self.advance().value
                self.expect(";")
            else:  # expressions or macros, up to the next field or "}"
                items, parse = (expressions, self.parse_expression_spec) \
                    if field.value == "expressions" \
                    else (macros, self.parse_macro_spec)
                while True:
                    items.append(parse())
                    self.expect(";")
                    if self.check("}") or (self.tok.kind == "NAME"
                                           and self.tok.value in _GRAMMAR_FIELDS
                                           and self.peek().value == ":"):
                        break
        self.expect("}")
        self.accept(".")
        return TypeSpec(tname.value, tuple(subtypes), tuple(expressions),
                        occurrence, tuple(macros), location=loc)

    def parse_expression_spec(self) -> ExpressionSpec:
        """``&op`` or ``&op(safe t1, unsafe t2, t3)``; safety defaults unsafe."""
        self.expect("&")
        op = self.advance()
        if op.kind != "NAME":
            self.error("expected operator name")
        types, safety = [], []
        if self.accept("("):
            while True:
                safety.append(self.advance().value
                              if self.tok.value in ("safe", "unsafe")
                              and self.peek().kind == "NAME" else "unsafe")
                tname = self.advance()
                if tname.kind != "NAME":
                    self.error("expected argument type")
                types.append(tname.value)
                if not self.accept(","):
                    break
            self.expect(")")
        return ExpressionSpec(op.value, tuple(types), tuple(safety))

    def parse_macro_spec(self) -> MacroSpec:
        pattern = self.parse_term()
        self.expect(":=")
        expansion = self.parse_term()
        where = []
        if self.tok.value == "where":
            self.advance()
            while True:
                pname = self.advance()
                if pname.kind != "VARIABLE":
                    self.error("expected placeholder name")
                self.expect(":")
                ptype = self.advance()
                where.append((pname.value, ptype.value))
                if not self.accept(","):
                    break
        return MacroSpec(pattern, expansion, tuple(where))

    # -- heads and bodies ---------------------------------------------------

    def parse_head(self):
        if self.accept("{"):
            elements = []
            if not self.check("}"):
                elements.append(self.parse_head_element())
                while self.accept(";"):
                    elements.append(self.parse_head_element())
            self.expect("}")
            return Choice(tuple(elements))
        elements = [self.parse_head_element()]
        while self.tok.value in (";", "|"):
            self.advance()
            elements.append(self.parse_head_element())
        return Disjunction(tuple(elements))

    def parse_head_element(self) -> HeadElement:
        return HeadElement(self.parse_atom_like(),
                           self.parse_optional_condition())

    def parse_body(self):
        elements = [self.parse_body_element()]
        while self.tok.value in (",", ";"):
            self.advance()
            elements.append(self.parse_body_element())
        return elements

    def parse_body_element(self):
        lit = self.parse_literal()
        if self.accept(":"):
            return ConditionalLiteral(lit, tuple(self.parse_condition()))
        return lit

    def parse_condition(self):
        """Comma-separated literals."""
        out = [self.parse_literal()]
        while self.accept(","):
            out.append(self.parse_literal())
        return out

    def parse_optional_condition(self) -> tuple:
        """The literals after a ":", if one follows."""
        return tuple(self.parse_condition()) if self.accept(":") else ()

    def parse_literal(self) -> Literal:
        positive = True
        while self.tok.value == "not":
            self.advance()
            positive = not positive
        left = self.parse_term()
        if self.tok.value in _CMP_OPS:
            op = self.advance().value
            right = self.parse_term()
            return Literal(positive, Comparison(op, left, right))
        if not isinstance(left, (Constant, Function)):
            self.error("expected an atom")
        return Literal(positive, left)

    def parse_atom_like(self):
        atom = self.parse_term()
        if not isinstance(atom, (Constant, Function)):
            self.error("expected an atom or theory expression")
        return atom

    # -- theory expressions -------------------------------------------------

    def parse_theory_expression(self) -> TheoryExpression:
        self.expect("&")
        op = self.advance()
        if op.kind != "NAME":
            self.error("expected theory operator name")
        args = self.parse_arguments() if self.accept("(") else ()
        return TheoryExpression(op.value, args)

    def parse_arguments(self) -> tuple:
        """The terms up to ")", after a "(", one nesting level down."""
        self.enter()
        args = [self.parse_term()]
        while self.accept(","):
            args.append(self.parse_term())
        self.expect(")")
        self.leave()
        return tuple(args)

    # -- terms ---------------------------------------------------------------

    def parse_term(self):
        left = self.parse_additive()
        if self.accept(".."):
            right = self.parse_additive()
            return BinOp("..", left, right)
        return left

    def parse_additive(self):
        depth = self.depth
        left = self.parse_multiplicative()
        while self.tok.value in ("+", "-"):
            op = self.advance().value
            self.enter()
            right = self.parse_multiplicative()
            left = BinOp(op, left, right)
        self.depth = depth
        return left

    def parse_multiplicative(self):
        depth = self.depth
        left = self.parse_unary()
        while self.tok.value in ("*", "/", "\\"):
            op = self.advance().value
            self.enter()
            right = self.parse_unary()
            left = BinOp(op, left, right)
        self.depth = depth
        return left

    def parse_unary(self):
        if self.accept("-"):
            self.enter()
            arg = self.parse_unary()
            self.leave()
            if isinstance(arg, Integer):
                return Integer(-arg.value)
            return UnaryMinus(arg)
        return self.parse_primary()

    def parse_primary(self):
        t = self.tok
        if t.kind == "NUMBER":
            self.advance()
            return Integer(int(t.value))
        if t.kind == "STRING":
            self.advance()
            body = t.value[1:-1]
            return String(body.replace('\\"', '"').replace("\\\\", "\\"))
        if t.kind == "VARIABLE":
            self.advance()
            return Variable(t.value)
        if t.kind == "NAME":
            self.advance()
            if t.value == "_":
                return Variable(self._fresh_anonymous())
            if self.accept("("):
                return Function(t.value, self.parse_arguments())
            return Constant(t.value)
        if t.value == "&":
            return self.parse_theory_expression()
        if t.value == "#sup":
            self.advance()
            return SUP
        if t.value == "#inf":
            self.advance()
            return INF
        if self.accept("("):
            self.enter()
            inner = self.parse_term()
            self.expect(")")
            self.leave()
            return inner
        self.error("unexpected token %r" % (t.value or "end of input"))

    def _fresh_anonymous(self):
        self._anon_counter += 1
        return "_Anon%d" % self._anon_counter


def parse_program(text: str) -> Program:
    """Parse a full program; raises :class:`ParseError` with line/column."""
    return Parser(text).parse_program()


def parse_expression(text: str):
    """Parse a single theory expression or term (used by tests and tools)."""
    p = Parser(text)
    e = p.parse_term()
    if p.tok.kind != "EOF":
        p.error("trailing input after expression")
    return e
