"""Type checking and compilation of assertion documents.

Units are part of the type system: quantities carry (metre, second, radian)
exponents, so comparing metres to seconds is a compile-time error.  Bare
numeric literals are unit-polymorphic in comparisons and additions (they
adopt the other side's unit) and act as dimensionless scalars under * and /.
Duration literals are firmly seconds.

String literals type as actor references; whether an actor is actually
present is an evaluation-time concern, not a compile-time one.
"""

from __future__ import annotations

import difflib

from . import dsl
from .dsl import Document, Expr
from .record import Record


class Quantity(Record):
    """Dimension exponents over (metres, seconds, radians)."""

    __slots__ = _fields = ("m", "s", "rad")
    _defaults = {"m": 0, "s": 0, "rad": 0}

    def __str__(self):
        if self == DIMENSIONLESS:
            return "dimensionless"
        parts = []
        for sym, exp in (("m", self.m), ("s", self.s), ("rad", self.rad)):
            if exp == 1:
                parts.append(sym)
            elif exp != 0:
                parts.append(f"{sym}^{exp}")
        return "*".join(parts)


DIMENSIONLESS = Quantity()
METRES = Quantity(m=1)
SECONDS = Quantity(s=1)
MPS = Quantity(m=1, s=-1)
RADIANS = Quantity(rad=1)
AREA = Quantity(m=2)


class _Sentinel:
    def __init__(self, label):
        self.label = label

    def __str__(self):
        return self.label

    __repr__ = __str__


BOOL = _Sentinel("boolean")
POLYGON = _Sentinel("polygon")
ACTOR = _Sentinel("actor")
POLY_NUM = _Sentinel("number")   # unit-polymorphic literal
_LITERAL_TYPES = {"number": POLY_NUM, "duration": SECONDS, "string": ACTOR,
                  "bool": BOOL}


#: name -> (parameter types, return type); the evaluator dispatches each
#: name to the ``engine._BufferedStep`` method of the same name
REGISTRY = {
    "time": ((), SECONDS),
    "speed_of": ((ACTOR,), MPS),
    "box_of": ((ACTOR,), POLYGON),
    "danger_space_of": ((ACTOR,), POLYGON),
    "overlaps": ((POLYGON, POLYGON), BOOL),
    "min_distance": ((POLYGON, POLYGON), METRES),
    "overlap_area": ((POLYGON, POLYGON), AREA),
    "crosses_centreline": ((ACTOR,), BOOL),
    "distance_ahead": ((ACTOR, ACTOR), METRES),
    "sda": ((), METRES),
    "within_lane": ((ACTOR,), BOOL),
    "heading_rel_lane": ((ACTOR,), RADIANS),
    "danger_space_length": ((MPS,), METRES),
}
#: the roles that sda() resolves, in the order that it resolves them
SDA_ROLES = ("av", "ov", "vbp")


class TypeDiagnostic(Record):
    __slots__ = _fields = ("message", "line", "col")

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class TypecheckError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class CompiledAssertion(Record):
    """A type-checked assertion with constants inlined."""

    __slots__ = _fields = ("decl", "reference", "condition")

    @property
    def id(self):
        return self.decl.name


class _Checker:
    def __init__(self):
        self.diagnostics = []

    def fail(self, node, message):
        self.diagnostics.append(
            TypeDiagnostic(message, node.span.line, node.span.col))
        return None

    def unify(self, node, got, want, context):
        """Check ``got`` against ``want``; literals adopt quantities."""
        if got is None or want is None:
            return None
        if want is ACTOR:
            if got is ACTOR:
                return ACTOR
            return self.fail(node, f"{context}: expected an actor reference "
                                   f"(a string), got {got}")
        if want is POLYGON or want is BOOL:
            if got is want:
                return want
            return self.fail(node, f"{context}: expected {want}, got {got}")
        if isinstance(want, Quantity):
            if got is POLY_NUM:
                return want
            if isinstance(got, Quantity) and got == want:
                return want
            return self.fail(node, f"{context}: unit mismatch, expected "
                                   f"{want}, got {got}")
        raise AssertionError(f"unhandled type {want}")

    def infer(self, node):
        op = node.op
        if op in _LITERAL_TYPES:
            return _LITERAL_TYPES[op]
        if op == "name":
            return self.fail(node, f"unresolved name {node.value!r}")
        if op == "call":
            return self._call(node)
        operands = [self.infer(child) for child in node.args]
        if any(t is None for t in operands):
            return None
        if op == "not":
            (inner,) = operands
            if inner is not BOOL:
                return self.fail(node, f"'not' needs a boolean, got {inner}")
            return BOOL
        if op == "neg":
            (inner,) = operands
            if inner is POLY_NUM or isinstance(inner, Quantity):
                return inner
            return self.fail(node, f"'-' needs a quantity, got {inner}")
        lt, rt = operands
        if op in dsl._CMP_OPS:
            if lt is BOOL and rt is BOOL and op in ("==", "!="):
                return BOOL
            ok = self._merge_quantities(node, lt, rt, f"comparison {op!r}")
            return BOOL if ok is not None else None
        if node.op in ("and", "or"):
            for side, t in (("left", lt), ("right", rt)):
                if t is not BOOL:
                    return self.fail(node, f"{node.op!r} needs booleans, "
                                           f"{side} side is {t}")
            return BOOL
        if node.op in ("+", "-"):
            return self._merge_quantities(node, lt, rt,
                                          f"operator {node.op!r}")
        # * and /: literals act as dimensionless scalars
        lq = DIMENSIONLESS if lt is POLY_NUM else lt
        rq = DIMENSIONLESS if rt is POLY_NUM else rt
        for t in (lq, rq):
            if not isinstance(t, Quantity):
                return self.fail(node, f"operator {node.op!r} needs "
                                       f"quantities, got {t}")
        if lt is POLY_NUM and rt is POLY_NUM:
            return POLY_NUM
        sign = 1 if node.op == "*" else -1
        return Quantity(lq.m + sign * rq.m, lq.s + sign * rq.s,
                        lq.rad + sign * rq.rad)

    def _call(self, node):
        name = node.value
        if name not in REGISTRY:
            hint = difflib.get_close_matches(name, REGISTRY, 1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            return self.fail(node, f"unknown function {name!r}{extra}")
        params, ret = REGISTRY[name]
        if len(node.args) != len(params):
            return self.fail(
                node, f"{name}() takes {len(params)} argument(s), "
                      f"got {len(node.args)}")
        ok = True
        for i, (arg, want) in enumerate(zip(node.args, params)):
            got = self.infer(arg)
            if got is None or self.unify(
                    arg, got, want, f"{name}() argument {i + 1}") is None:
                ok = False
        return ret if ok else None

    def _merge_quantities(self, node, lt, rt, context):
        """Both sides must be quantities of one dimension; literals adapt."""
        for t in (lt, rt):
            if not (t is POLY_NUM or isinstance(t, Quantity)):
                return self.fail(node, f"{context}: needs quantities, got {t}")
        if lt is POLY_NUM and rt is POLY_NUM:
            return POLY_NUM
        if lt is POLY_NUM:
            return rt
        if rt is POLY_NUM:
            return lt
        if lt == rt:
            return lt
        return self.fail(node, f"{context}: unit mismatch between "
                               f"{lt} and {rt}")


def _inline_consts(expr, consts, diagnostics):
    """Substitute const references; detects cycles.  Each constant reference
    followed counts as a level towards ``dsl.MAX_DEPTH``, and the result may
    hold at most ``dsl.MAX_NODES`` nodes: constants that each use the one
    before twice would otherwise double it with every line."""
    budget = [dsl.MAX_NODES]

    def too_big(message, node):
        return TypecheckError([TypeDiagnostic(
            f"{message} once constants are inlined",
            node.span.line, node.span.col)])

    def inline(node, stack, depth):
        if depth > dsl.MAX_DEPTH:
            raise too_big(dsl.TOO_DEEP, node)
        name = node.value
        if node.op == "name" and name in consts:
            if name in stack:
                diagnostics.append(TypeDiagnostic(
                    f"constant cycle through {name!r}",
                    node.span.line, node.span.col))
                return node
            return inline(consts[name], stack | {name}, depth + 1)
        budget[0] -= 1
        if budget[0] < 0:
            raise too_big(f"expression has more than {dsl.MAX_NODES} nodes",
                          expr)
        if not node.args:
            return node
        return Expr(node.op, tuple([inline(a, stack, depth + 1)
                                    for a in node.args]), name, node.span)

    return inline(expr, frozenset(), 1)


def typecheck(doc: Document) -> tuple[CompiledAssertion, ...]:
    """Resolve constants, check types and units, return compiled assertions.

    Raises TypecheckError carrying every diagnostic found.
    """
    diagnostics = []
    consts = {const.name: const.expr for const in doc.consts}
    checker = _Checker()

    def boolean(expr, role, name):
        expr = _inline_consts(expr, consts, diagnostics)
        t = checker.infer(expr)
        if t is not None and t is not BOOL:
            checker.fail(expr, f"{role} of {name!r} must be boolean, got {t}")
        return expr

    compiled = []
    for decl in doc.assertions:
        reference = (None if decl.reference is None
                     else boolean(decl.reference, "reference", decl.name))
        condition = boolean(decl.condition, "condition", decl.name)
        compiled.append(CompiledAssertion(decl=decl, reference=reference,
                                          condition=condition))
    diagnostics.extend(checker.diagnostics)
    if diagnostics:
        raise TypecheckError(diagnostics)
    return tuple(compiled)


def read_set(assertions) -> frozenset:
    """The actor ids and role keys that ``assertions`` can resolve: each
    string literal, as written and lower-cased, and the roles of sda()."""
    reads, stack = set(), [a.condition for a in assertions]
    stack += [a.reference for a in assertions if a.reference is not None]
    while stack:
        node = stack.pop()
        if node.op == "string":
            reads.update((node.value, node.value.lower()))
        elif node.op == "call" and node.value == "sda":
            reads.update(SDA_ROLES)
        stack.extend(node.args)
    return frozenset(reads)


def compile_text(text: str) -> tuple[CompiledAssertion, ...]:
    """parse + typecheck in one step."""
    return typecheck(dsl.parse(text))
