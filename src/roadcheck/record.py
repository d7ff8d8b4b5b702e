"""The base class of the immutable value records.

A record class names its constructor's parameters in ``_fields``, the
defaults of trailing ones in ``_defaults`` and, in ``_compare``, the fields
that equality, hashing and repr read (default: all of them); a slotted
record lists its fields in ``__slots__`` too.  The constructor sets the
fields and then calls ``__post_init__``, which may check them or normalise
them with ``object.__setattr__``; any other assignment raises
``dataclasses.FrozenInstanceError``.  Records of different classes are
never equal.  Unlike a dataclass, a record class has no code generated for
it, so that defining one costs no more than defining a plain class.

The records built per step or per verdict (``engine.Verdict``,
``geometry.Pose2D``, ``trace.DerivedState``) and those built per lanelet at
a map's load (``geometry.ConvexPolygon``, ``worldmap.Lanelet``) define their
own ``__init__`` with the fields as parameters, which sets them directly:
the generic one binds its arguments by name at every call.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields
        # a slot's descriptor sets it directly; a field without one is set
        # as an attribute, not through ``__dict__``, which would make the
        # instance keep a dict of its own instead of sharing its class's keys
        slots = [getattr(cls, name, None) for name in cls._fields]
        cls._setters = tuple(
            slot.__set__ if slot is not None
            else (lambda record, value, name=name:
                  object.__setattr__(record, name, value))
            for name, slot in zip(cls._fields, slots))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_, value in zip(self._setters, args):
            set_(self, value)
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values of a call with keywords or defaults."""
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, "
                            f"got {len(args)}")
        values = list(args)
        for field in self._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def replace(self, **changes):
        """A copy with the fields named in ``changes`` set to their values."""
        return type(self)(*self._bind((), {
            **{f: getattr(self, f) for f in self._fields}, **changes}))

    def __reduce__(self):
        """Copy and pickle through the constructor, not ``__setattr__``."""
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._compare))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
