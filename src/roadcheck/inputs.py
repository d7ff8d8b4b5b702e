"""The JSON inputs: one field table per kind of object, and one reader.

A map and its lanelets, a trace record, a detection or lane line, a
profile config with its profiles and manoeuvre block, and a calibration
each have a ``Schema``: their fields in reading order, each with a kind and
a default (``REQUIRED`` where there is none), and the pairs of fields that
exclude each other.  ``Schema.read`` words every fault one way,
``<where>: <field> must be …, got …``, ``<where>: missing required field
'<field>'`` or ``<where>: not a JSON object``.  A key that a table does not
name is accepted, and reported once per input and table through
``warnings.warn``: an ``UnknownKeysWarning``, ``<where>: unknown keys
[...]``.  JSON documents and JSON-lines records are decoded here too.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from functools import partial
from itertools import accumulate, repeat


class UnknownKeysWarning(UserWarning):
    """An input holds keys that its schema does not name."""


# How deep arrays and objects may nest in a JSON document or record: far
# enough inside the interpreter's recursion limit (1000 by default) that
# decoding a value and naming it in a message both have stack to spare,
# so that where the limit falls does not depend on the caller's depth.
MAX_NESTING = 512
_ESCAPE = re.compile(r"\\.", re.S)
# drops every ASCII character but quotes and brackets, and makes braces
# brackets
_BRACKETS = str.maketrans("{}", "[]", "".join(
    chr(c) for c in range(128) if chr(c) not in '"[]{}'))
_NESTING_STEP = {"[": 1, "]": -1}


def json_loads(text: str):
    """``json.loads(text)``, except that a value nested more than
    MAX_NESTING deep raises RecursionError before it is decoded.  The
    brackets outside strings (escapes dropped; a string that does not close
    holds the rest) are walked once for their deepest point."""
    if text.count("[") + text.count("{") > MAX_NESTING:
        bare = _ESCAPE.sub("", text) if "\\" in text else text
        brackets = "".join(bare.translate(_BRACKETS).split('"')[::2])
        depths = accumulate(map(_NESTING_STEP.get, brackets, repeat(0)))
        if max(depths, default=0) > MAX_NESTING:
            raise RecursionError(f"JSON nested more than {MAX_NESTING} deep")
    return json.loads(text)


def json_value(text: str, where: str, error, document=False):
    """``text`` decoded as one JSON value, nested at most MAX_NESTING deep;
    a fault raises ``error("<where>: invalid JSON: …")``, worded as
    ``json.loads`` words it, with its line and column in a ``document``."""
    try:
        return json_loads(text)
    except json.JSONDecodeError as exc:
        at = f" at line {exc.lineno}, column {exc.colno}" if document else ""
        message = exc.msg + at
    except RecursionError:
        message = "nested too deeply"
    except ValueError as exc:       # an integer past int_max_str_digits
        message = str(exc)
    raise error(f"{where}: invalid JSON: {message}")


def read_document(source, where: str, error):
    """The JSON value of ``source``: UTF-8 bytes, text or a file of either."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        try:
            source = source.decode()
        except UnicodeDecodeError as exc:
            raise error(f"{where}: {exc}") from None
    return json_value(source, where, error, document=True)


def record_lines(lines):
    """``(index, line)`` of the stripped, non-blank lines of ``lines``;
    blank ones are not counted as records."""
    return enumerate(filter(None, map(str.strip, lines)))


def json_records(lines, error):
    """``(index, value)`` of each JSON-lines record in ``lines``, blank
    lines skipped and not counted; a line that is not one JSON value
    raises ``error("record <index>: invalid JSON: …")``."""
    for index, line in record_lines(lines):
        yield index, json_value(line, f"record {index}", error)


def json_text(value) -> str:
    """``value`` as JSON text, for a message; a value nested too deeply to
    write from the caller's stack depth is named by its type instead."""
    try:
        return json.dumps(value)
    except RecursionError:
        return f"a {type(value).__name__}"


# The kinds of field: each reads the value of a field, or raises ValueError
# naming the field.

def json_number(value, what: str, finite=False) -> float:
    """``value`` as a float if it is a JSON number that a float holds, not
    a boolean or a numeric string (and finite, if ``finite``)."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{what} must be a number, got {json_text(value)}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a number within the range of a "
                         f"float") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def _typed(kind: type, what: str):
    """The kind of the values of one JSON type, ``what``."""
    def read(value, field: str):
        if type(value) is not kind:
            raise ValueError(f"{field} must be {what}, got {json_text(value)}")
        return value
    return read


number = json_number
finite = partial(json_number, finite=True)
string = json_string = _typed(str, "a string")
boolean = _typed(bool, "true or false")
array = _typed(list, "a list")
mapping = _typed(dict, "an object")


def whole(value, field: str) -> int:
    value = json_number(value, field, finite=True)
    if not value.is_integer():
        raise ValueError(f"{field} must be a whole number, got {value}")
    return int(value)


def quantity(value, field: str, positive=False) -> float:
    """A finite number >= 0 (> 0 if ``positive``)."""
    value = json_number(value, field)
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{field} must be finite and {'>' if positive else '>='}"
                         f" 0, got {value}")
    return value


positive = partial(quantity, positive=True)


def anything(value, field: str):
    return value


def points(value, field: str) -> list:
    """A list of [x, y] pairs of numbers, as it is."""
    if type(value) is not list:
        raise ValueError(f"{field} must be a list of [x, y] points, got "
                         f"{json_text(value)}")
    try:
        for x, y in value:      # most often all floats
            if type(x) is not float or type(y) is not float:
                break
        else:
            return value
    except (TypeError, ValueError):
        pass
    for point in value:
        if type(point) is not list or len(point) != 2:
            raise ValueError(f"{field} must be a list of [x, y] points, got "
                             f"{json_text(point)} among them")
        json_number(point[0], field), json_number(point[1], field)
    return value


def names_to(kind):
    """The kind of an object of ``kind`` values; the one of key ``k`` in
    the field ``f`` is named ``f k``."""
    def read(value, field: str) -> dict:
        return {key: kind(item, f"{field} {key}")
                for key, item in mapping(value, field).items()}
    return read


REQUIRED = object()     # the default of a field that has none


class Schema:
    """``where`` names an object in messages, filled in with the ``at`` of
    ``read``; ``fields`` maps each field's name to its kind and its default,
    in reading order; ``exclusive`` pairs fields of which one may be given."""

    __slots__ = ("where", "fields", "exclusive", "_names", "_all")

    def __init__(self, where: str, fields: dict, exclusive=()):
        self.where = where
        self.fields = [(name, kind, default)
                       for name, (kind, default) in fields.items()]
        self.exclusive = exclusive
        self._names = fields.keys()
        # fields that exclude each other are never all given
        self._all = None if exclusive else self._names

    def read(self, obj, error, *at, reported: set | None = None) -> list:
        """The values of the fields of ``obj`` in table order, or their
        defaults where absent; a fault raises ``error("<where>: …")``.
        Keys that no field names, and that ``reported`` does not hold, are
        reported and added to it."""
        if type(obj) is dict and obj.keys() == self._all:
            # every field given and no other: read in one pass
            try:
                return [kind(obj[name], name) for name, kind, _ in self.fields]
            except ValueError as exc:
                raise error(f"{self.where.format(*at)}: {exc}") from None
        where = self.where.format(*at)
        if type(obj) is not dict:
            raise error(f"{where}: not a JSON object")
        unknown = obj.keys() - self._names
        if reported is not None:
            unknown -= reported
            reported |= unknown
        if unknown:
            warnings.warn(UnknownKeysWarning(
                f"{where}: unknown keys {sorted(unknown)}"), stacklevel=2)
        for name, _, default in self.fields:
            if default is REQUIRED and name not in obj:
                raise error(f"{where}: missing required field {name!r}")
        for name, other in self.exclusive:
            if name in obj and other in obj:
                raise error(f"{where}: both {name} and {other} present")
        try:
            return [kind(obj[name], name) if name in obj else default
                    for name, kind, default in self.fields]
        except ValueError as exc:
            raise error(f"{where}: {exc}") from None
