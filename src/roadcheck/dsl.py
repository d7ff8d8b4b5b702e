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

An exponent sign with no digit after it is a malformed number.  Lines and
columns count characters; a column advances over a string's escaped
newline and stays put over a comment.

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
seconds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

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


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


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

@dataclass(frozen=True)
class Expr:
    span: Span = field(compare=False, repr=False, kw_only=True,
                       default=Span(0, 0))


@dataclass(frozen=True)
class NumberLit(Expr):
    value: float


@dataclass(frozen=True)
class DurationLit(Expr):
    seconds: float


@dataclass(frozen=True)
class StringLit(Expr):
    value: str


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class NameRef(Expr):
    name: str


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str            # "and", "or", "+", "-", "*", "/"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Compare(Expr):
    op: str            # one of _CMP_OPS
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ConstDecl:
    name: str
    expr: Expr
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class AssertionDecl:
    name: str
    odd_tags: tuple
    kind: str
    window: float | None
    severity: str
    mode: str
    on_missing: str
    reference: Expr | None
    condition: Expr
    span: Span = field(compare=False, repr=False, default=Span(0, 0))


@dataclass(frozen=True)
class Document:
    consts: tuple
    assertions: tuple


def children(node: Expr) -> list:
    """The sub-expressions of ``node``, in field order."""
    out = []
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Expr):
            out.append(value)
        elif isinstance(value, tuple):
            out.extend(value)
    return out


# --- Lexer ----------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str      # IDENT NUMBER DURATION STRING PUNCT EOF
    value: object
    line: int
    col: int


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

_LITERALS = {"NUMBER": NumberLit, "DURATION": DurationLit, "STRING": StringLit}


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
        consts = []
        assertions = []
        names = set()
        while self.peek().kind != "EOF":
            if self.at_ident("const"):
                consts.append(self.parse_const())
            elif self.at_ident("assertion"):
                decl = self.parse_assertion()
                if decl.name in names:
                    raise ParseError(f"duplicate assertion id {decl.name!r}",
                                     decl.span.line, decl.span.col)
                names.add(decl.name)
                assertions.append(decl)
            else:
                self.error("expected a declaration",
                           expected=("'const'", "'assertion'"))
        return Document(consts=tuple(consts), assertions=tuple(assertions))

    def parse_const(self) -> ConstDecl:
        kw = self.next()
        name = self.expect_ident("constant name")
        self.expect_punct("=")
        expr = self.parse_expr()
        return ConstDecl(name=name.value, expr=expr,
                         span=Span(kw.line, kw.col))

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
        return AssertionDecl(name=name.value, odd_tags=tuple(tags), kind=kind,
                             window=window, severity=severity, mode=mode,
                             on_missing=on_missing, reference=reference,
                             condition=condition, span=Span(kw.line, kw.col))

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
            cls = Compare if level == _CMP_LEVEL else BinaryOp
            left = cls(op=tok.value, left=left, right=right,
                       span=Span(tok.line, tok.col))
            if level == _CMP_LEVEL and self.operator_level() == _CMP_LEVEL:
                self.error("comparisons do not chain; parenthesise")

    def parse_unary(self) -> Expr:
        tok = self.peek()
        span = Span(tok.line, tok.col)
        if self.depth == MAX_DEPTH:
            self.error(TOO_DEEP)
        self.depth += 1
        if self.at_ident("not"):
            self.next()
            node = Not(operand=self.parse_unary(), span=span)
        elif self.at_punct("-"):
            self.next()
            node = Neg(operand=self.parse_unary(), span=span)
        else:
            node = self.parse_atom()
        self.depth -= 1
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        span = Span(tok.line, tok.col)
        if tok.kind in _LITERALS:
            self.next()
            return _LITERALS[tok.kind](tok.value, span=span)
        if tok.kind == "IDENT":
            if tok.value in ("true", "false"):
                self.next()
                return BoolLit(value=(tok.value == "true"), span=span)
            if tok.value in ("and", "or", "not"):
                self.error(f"{tok.value!r} is not a value")
            self.next()
            if not self.at_punct("("):
                return NameRef(name=tok.value, span=span)
            self.next()
            args = []
            if not self.at_punct(")"):
                args.append(self.parse_expr())
                while self.at_punct(","):
                    self.next()
                    args.append(self.parse_expr())
            self.expect_punct(")")
            return Call(name=tok.value, args=tuple(args), span=span)
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
        stack.extend((child, depth + 1) for child in children(node))


def parse(text: str) -> Document:
    """Parse a document; raises ParseError with line:column on bad input."""
    doc = _Parser(_lex(text)).parse_document()
    _check_depth([c.expr for c in doc.consts]
                 + [e for a in doc.assertions
                    for e in (a.reference, a.condition) if e is not None])
    return doc


def parse_expression(text: str) -> Expr:
    """Parse a single expression (used for programmatic rule construction)."""
    parser = _Parser(_lex(text))
    expr = parser.parse_expr()
    if parser.peek().kind != "EOF":
        parser.error("trailing input after expression")
    _check_depth([expr])
    return expr


# --- Pretty-printer -------------------------------------------------------

def _level(node: Expr) -> int:
    """Binding strength: a ``_LEVELS`` index, then unary, then atoms."""
    if isinstance(node, (BinaryOp, Compare)):
        return _LEVEL_OF[node.op]
    if isinstance(node, (Not, Neg)):
        return _UNARY_LEVEL
    return _UNARY_LEVEL + 1


def _operand(node: Expr, min_level: int) -> str:
    text = format_expr(node)
    return f"({text})" if _level(node) < min_level else text


def format_expr(node: Expr) -> str:
    """Deterministic rendering with minimal parentheses."""
    if isinstance(node, NumberLit):
        return repr(node.value)
    if isinstance(node, DurationLit):
        return f"{node.seconds!r}s"
    if isinstance(node, StringLit):
        return '"' + node.value.replace('"', '\\"') + '"'
    if isinstance(node, BoolLit):
        return "true" if node.value else "false"
    if isinstance(node, NameRef):
        return node.name
    if isinstance(node, Call):
        return f"{node.name}({', '.join(format_expr(a) for a in node.args)})"
    if isinstance(node, Not):
        return f"not {_operand(node.operand, _UNARY_LEVEL)}"
    if isinstance(node, Neg):
        return f"-{_operand(node.operand, _UNARY_LEVEL)}"
    if isinstance(node, (BinaryOp, Compare)):
        # as the parser reads it: a right operand at the same level keeps
        # its parentheses, and so does either side of a comparison
        level = _LEVEL_OF[node.op]
        lhs = _operand(node.left, level + (level == _CMP_LEVEL))
        return f"{lhs} {node.op} {_operand(node.right, level + 1)}"
    raise TypeError(f"unknown expression node {type(node).__name__}")


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
