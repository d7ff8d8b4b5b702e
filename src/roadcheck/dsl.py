"""Assertion definition language: lexer, parser, AST, pretty-printer.

Tokens, matched in this order at each position (``digit`` is a Unicode
decimal digit, ``letter`` a Unicode letter):

    newline     := "\\n"
    blanks      := { " " | "\\t" | "\\r" }+
    comment     := "//" { any character but "\\n" }
    NUMBER      := ( digit+ [ "." digit* ] | "." digit+ )
                   [ ("e" | "E") ("+" | "-" | digit) digit* ]
    DURATION    := NUMBER ("ms" | "s")   -- the unit followed by no letter,
                                          -- digit or "_"
    IDENT       := (letter | "_") { letter | digit | "_" }
    STRING      := '"' { "\\" any | any but '"', "\\" and newline } '"'
    PUNCT       := "<=" | ">=" | "==" | "!=" | "{" | "}" | "(" | ")" | ","
                 | ":" | "=" | "<" | ">" | "+" | "-" | "*" | "/"

An exponent sign with no digit after it is a malformed number, and one
too large for a float is an error.  Lines and columns count characters; a
column advances over a string's escaped newline and stays put over a
comment.

Grammar (EBNF):

    document    := { const_decl | assertion_decl }
    const_decl  := "const" IDENT "=" expr
    assertion_decl := "assertion" IDENT "{"
                        "odd:" taglist
                        "type:" kind
                        [ "window:" duration ]
                        [ "severity:" ("safety" | "performance") ]
                        [ "mode:" ("first" | "all") ]
                        [ "on_missing:" ("fail" | "pass" | "not_applicable") ]
                        [ "reference:" expr ]
                        "condition:" expr
                      "}"
    kind        := "invariant" | "execution"
                 | "pre_temporal" | "pre_physical"
                 | "post_temporal" | "post_physical"
    taglist     := IDENT { "," IDENT }
    duration    := NUMBER ("s" | "ms")

    expr        := unary { binop unary }
    unary       := ("not" | "-") unary | atom
    atom        := NUMBER | duration | STRING | "true" | "false"
                 | IDENT "(" [expr {"," expr}] ")" | IDENT | "(" expr ")"

Binary operators by precedence, loosest first (``_LEVELS``): or < and <
comparisons < + - < * /; not and unary minus bind tighter than all of
them.  Each level associates to the left, except that comparisons do not
chain.  An expression's tree is at most ``MAX_DEPTH`` levels deep, and so
is the nesting of parentheses, call arguments and unary operands in its
text.  Numeric literals are unit-polymorphic; duration literals carry
seconds.  A document declares each constant and each assertion id once.

The AST has one node type, ``Expr``: its ``op`` names the kind of node,
``args`` holds the operands and ``value`` a literal or an identifier.
Nodes are equal when their op, args and value are, whatever their spans,
so ``true`` is not ``1.0``.  ``format_document`` writes a document that
``parse`` reads back equal.
"""

from __future__ import annotations

import math
import re

from .record import Record

_CMP_OPS = ("<=", ">=", "==", "!=", "<", ">")
_KINDS = ("invariant", "execution", "pre_temporal", "pre_physical",
          "post_temporal", "post_physical")
# optional fields with a fixed set of values, in the order they may appear:
# (field, token description, error noun, values with the default first)
_OPTIONS = (("severity", "severity", "severity", ("safety", "performance")),
            ("mode", "reference mode", "mode", ("first", "all")),
            ("on_missing", "missing-actor policy", "policy",
             ("fail", "pass", "not_applicable")))

#: binary operators by precedence level, loosest first
_LEVELS = (("or",), ("and",), _CMP_OPS, ("+", "-"), ("*", "/"))
_LEVEL_OF = {op: level for level, ops in enumerate(_LEVELS) for op in ops}
_CMP_LEVEL = _LEVEL_OF["<"]
_UNARY_LEVEL = len(_LEVELS)

#: deepest expression accepted, so that no recursive walk of one overflows
MAX_DEPTH = 200
TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"
#: most nodes in an expression once constants are inlined
MAX_NODES = 10_000


class Span(Record):
    __slots__ = _fields = ("line", "col")


class ParseError(ValueError):
    """Syntax or lexical error with a source location."""

    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        if self.expected:
            message += f" (expected {', '.join(self.expected)})"
        super().__init__(f"{line}:{col}: {message}")


# --- AST ------------------------------------------------------------------

class Expr(Record):
    """An expression node.  ``op`` is "number", "duration" (in seconds),
    "string", "bool", "name", "call", "not", "neg" (unary minus) or a
    binary operator of ``_LEVELS``; ``args`` are the operands or a call's
    arguments, ``value`` a literal's value or a name's or call's
    identifier.  Equality and hashing ignore ``span``."""

    __slots__ = _fields = ("op", "args", "value", "span")
    _compare = ("op", "args", "value")
    _defaults = {"span": Span(0, 0)}


class ConstDecl(Record):
    __slots__ = _fields = ("name", "expr", "span")
    _compare = ("name", "expr")
    _defaults = {"span": Span(0, 0)}


class AssertionDecl(Record):
    """One assertion; ``reference`` is None for an invariant and ``window``
    for an invariant or execution assertion."""

    __slots__ = _fields = ("name", "odd_tags", "kind", "window", "severity",
                           "mode", "on_missing", "reference", "condition",
                           "span")
    _compare = _fields[:-1]
    _defaults = {"span": Span(0, 0)}


class Document(Record):
    __slots__ = _fields = ("consts", "assertions")


# --- Lexer ----------------------------------------------------------------

class Token(Record):
    """``kind`` is IDENT, NUMBER, DURATION, STRING, PUNCT or EOF."""

    __slots__ = _fields = ("kind", "value", "line", "col")


# each match is the blanks before one item; "bad" is any other character
_TOKEN = re.compile(r"""
    (?P<blanks>[ \t\r]*)
    (?: (?P<newline>\n)
      | (?P<comment>//[^\n]*)
      | (?P<NUMBER>(?P<digits>(?:\d+\.?\d*|\.\d+)(?:[eE](?=[-+\d])[-+]?\d*)?)
                   (?:(?P<unit>m?s)(?!\w))?)
      | (?P<IDENT>\w+)
      | (?P<STRING>"(?P<body>(?:\\[\s\S]|[^"\\\n])*)")
      | (?P<PUNCT>[<>=!]=|[{}(),:=<>+\-*/])
      | (?P<bad>[\s\S])
      | \Z )
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\([\s\S])")


def _lex(text: str) -> list[Token]:
    tokens = []
    line = col = 1
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        col += len(m["blanks"])
        kind = m.lastgroup
        if kind == "blanks":            # nothing but blanks after them
            break
        raw = m[kind]
        pos = m.end()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "comment":           # leaves the column where it is
            continue
        if kind == "bad" or (kind == "IDENT" and not (
                raw[0].isalpha() or raw[0] == "_")):
            if raw == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {raw[0]!r}", line, col)
        value = raw
        if kind == "NUMBER":
            try:
                value = float(m["digits"])
            except ValueError:
                raise ParseError(f"malformed number {m['digits']!r}",
                                 line, col) from None
            if value == math.inf:
                raise ParseError(f"number {m['digits']!r} is too large",
                                 line, col)
            if m["unit"]:
                kind = "DURATION"
                if m["unit"] == "ms":
                    value /= 1000.0
        elif kind == "STRING":
            value = _ESCAPE.sub(r"\1", m["body"])
        tokens.append(Token(kind, value, line, col))
        col += len(raw)
    tokens.append(Token("EOF", None, line, col))
    return tokens


# --- Parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0      # operands being parsed, one per nesting level

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def found(self, expected):
        """Report the next token where ``expected`` should stand."""
        tok = self.peek()
        got = repr(tok.value) if tok.kind != "EOF" else "end of input"
        self.error(f"found {got}", expected=(expected,))

    def expect_punct(self, value) -> Token:
        if self.at_punct(value):
            return self.next()
        self.found(repr(value))

    def expect_ident(self, description="identifier") -> Token:
        if self.peek().kind == "IDENT":
            return self.next()
        self.found(description)

    def at_ident(self, value) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value == value

    def at_punct(self, value) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value

    # -- document --

    def parse_document(self) -> Document:
        consts, assertions = {}, {}     # by name
        while self.peek().kind != "EOF":
            if self.at_ident("const"):
                decl, named, noun = self.parse_const(), consts, "const"
            elif self.at_ident("assertion"):
                decl, named = self.parse_assertion(), assertions
                noun = "assertion id"
            else:
                self.error("expected a declaration",
                           expected=("'const'", "'assertion'"))
            if decl.name in named:
                raise ParseError(f"duplicate {noun} {decl.name!r}",
                                 decl.span.line, decl.span.col)
            named[decl.name] = decl
        return Document(tuple(consts.values()), tuple(assertions.values()))

    def parse_const(self) -> ConstDecl:
        kw = self.next()
        name = self.expect_ident("constant name")
        self.expect_punct("=")
        expr = self.parse_expr()
        return ConstDecl(name.value, expr, Span(kw.line, kw.col))

    def _field(self, name) -> bool:
        """Consume ``name ':'`` when present."""
        if self.at_ident(name):
            save = self.pos
            self.next()
            if self.at_punct(":"):
                self.next()
                return True
            self.pos = save
        return False

    def _choice(self, description, noun, values) -> Token:
        """An identifier that must be one of ``values``."""
        tok = self.expect_ident(description)
        if tok.value not in values:
            raise ParseError(f"unknown {noun} {tok.value!r}",
                             tok.line, tok.col, expected=values)
        return tok

    def parse_assertion(self) -> AssertionDecl:
        kw = self.next()
        name = self.expect_ident("assertion name")
        self.expect_punct("{")

        if not self._field("odd"):
            self.error("assertion body must start with the odd tag list",
                       expected=("'odd:'",))
        tags = [self.expect_ident("ODD tag").value]
        while self.at_punct(","):
            self.next()
            tags.append(self.expect_ident("ODD tag").value)

        if not self._field("type"):
            self.error("expected the assertion type", expected=("'type:'",))
        kind_tok = self._choice("assertion kind", "assertion kind", _KINDS)
        kind = kind_tok.value

        window = None
        if self._field("window"):
            tok = self.peek()
            if tok.kind != "DURATION":
                self.error("window must be a duration",
                           expected=("duration like 2s or 500ms",))
            self.next()
            if tok.value <= 0.0:
                raise ParseError("window must be positive", tok.line, tok.col)
            window = tok.value
        if (kind in ("invariant", "execution")) != (window is None):
            need = "require a" if window is None else "take no"
            raise ParseError(f"{kind} assertions {need} window",
                             kind_tok.line, kind_tok.col)

        severity, mode, on_missing = (
            self._choice(*spec).value if self._field(key) else spec[-1][0]
            for key, *spec in _OPTIONS)

        reference = None
        if self._field("reference"):
            reference = self.parse_expr()
        if kind == "invariant" and reference is not None:
            raise ParseError("invariant assertions take no reference",
                             kind_tok.line, kind_tok.col)
        if kind != "invariant" and reference is None:
            self.error(f"{kind} assertions require a reference",
                       expected=("'reference:'",))

        if not self._field("condition"):
            self.error("expected the assertion condition",
                       expected=("'condition:'",))
        condition = self.parse_expr()

        self.expect_punct("}")
        return AssertionDecl(name.value, tuple(tags), kind, window, severity,
                             mode, on_missing, reference, condition,
                             Span(kw.line, kw.col))

    # -- expressions --

    def operator_level(self):
        """The ``_LEVELS`` index of the next token as a binary operator."""
        tok = self.peek()
        return None if tok.kind == "STRING" else _LEVEL_OF.get(tok.value)

    def parse_expr(self, min_level=0) -> Expr:
        """Operators of level ``min_level`` or tighter, by precedence
        climbing: a right operand takes only tighter operators, so each
        level associates to the left."""
        left = self.parse_unary()
        while True:
            level = self.operator_level()
            if level is None or level < min_level:
                return left
            tok = self.next()
            right = self.parse_expr(level + 1)
            left = Expr(tok.value, (left, right), None,
                        Span(tok.line, tok.col))
            if level == _CMP_LEVEL and self.operator_level() == _CMP_LEVEL:
                self.error("comparisons do not chain; parenthesise")

    def parse_unary(self) -> Expr:
        tok = self.peek()
        span = Span(tok.line, tok.col)
        if self.depth == MAX_DEPTH:
            self.error(TOO_DEEP)
        self.depth += 1
        if self.at_ident("not") or self.at_punct("-"):
            op = "not" if self.next().value == "not" else "neg"
            node = Expr(op, (self.parse_unary(),), None, span)
        else:
            node = self.parse_atom()
        self.depth -= 1
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        span = Span(tok.line, tok.col)
        if tok.kind in ("NUMBER", "DURATION", "STRING"):
            self.next()
            return Expr(tok.kind.lower(), (), tok.value, span)
        if tok.kind == "IDENT":
            if tok.value in ("true", "false"):
                self.next()
                return Expr("bool", (), tok.value == "true", span)
            if tok.value in ("and", "or", "not"):
                self.error(f"{tok.value!r} is not a value")
            self.next()
            if not self.at_punct("("):
                return Expr("name", (), tok.value, span)
            self.next()
            args = []
            if not self.at_punct(")"):
                args.append(self.parse_expr())
                while self.at_punct(","):
                    self.next()
                    args.append(self.parse_expr())
            self.expect_punct(")")
            return Expr("call", tuple(args), tok.value, span)
        if self.at_punct("("):
            self.next()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        self.found("an expression")


def _check_depth(exprs):
    """Raise ParseError at a node nested deeper than ``MAX_DEPTH``."""
    stack = [(expr, 1) for expr in exprs]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(TOO_DEEP, node.span.line, node.span.col)
        stack.extend((child, depth + 1) for child in node.args)


def parse(text: str) -> Document:
    """Parse a document; raises ParseError with line:column on bad input."""
    doc = _Parser(_lex(text)).parse_document()
    _check_depth([c.expr for c in doc.consts]
                 + [e for a in doc.assertions
                    for e in (a.reference, a.condition) if e is not None])
    return doc


# --- Pretty-printer -------------------------------------------------------

def _level(node: Expr) -> int:
    """Binding strength: a ``_LEVELS`` index, then unary, then atoms."""
    if node.op in _LEVEL_OF:
        return _LEVEL_OF[node.op]
    if node.op in ("not", "neg"):
        return _UNARY_LEVEL
    return _UNARY_LEVEL + 1


def _operand(node: Expr, min_level: int) -> str:
    text = format_expr(node)
    return f"({text})" if _level(node) < min_level else text


_TO_ESCAPE = re.compile(r'[\\"\n]')


def format_expr(node: Expr) -> str:
    """Deterministic rendering with minimal parentheses."""
    op, value = node.op, node.value
    if op == "number":
        return repr(value)
    if op == "duration":
        return f"{value!r}s"
    if op == "string":
        return '"' + _TO_ESCAPE.sub(r"\\\g<0>", value) + '"'
    if op == "bool":
        return "true" if value else "false"
    if op == "name":
        return value
    if op == "call":
        return f"{value}({', '.join(map(format_expr, node.args))})"
    if op == "not":
        return f"not {_operand(node.args[0], _UNARY_LEVEL)}"
    if op == "neg":
        return f"-{_operand(node.args[0], _UNARY_LEVEL)}"
    if op in _LEVEL_OF:
        # as the parser reads it: a right operand at the same level keeps
        # its parentheses, and so does either side of a comparison
        level = _LEVEL_OF[op]
        left, right = node.args
        lhs = _operand(left, level + (level == _CMP_LEVEL))
        return f"{lhs} {op} {_operand(right, level + 1)}"
    raise TypeError(f"unknown expression op {op!r}")


def format_document(doc: Document) -> str:
    """Canonical text; parse(format_document(parse(s))) == parse(s)."""
    chunks = []
    for const in doc.consts:
        chunks.append(f"const {const.name} = {format_expr(const.expr)}")
    for a in doc.assertions:
        lines = [f"assertion {a.name} {{"]
        lines.append(f"  odd: {', '.join(a.odd_tags)}")
        lines.append(f"  type: {a.kind}")
        if a.window is not None:
            lines.append(f"  window: {a.window!r}s")
        lines.append(f"  severity: {a.severity}")
        lines.append(f"  mode: {a.mode}")
        lines.append(f"  on_missing: {a.on_missing}")
        if a.reference is not None:
            lines.append(f"  reference: {format_expr(a.reference)}")
        lines.append(f"  condition: {format_expr(a.condition)}")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
