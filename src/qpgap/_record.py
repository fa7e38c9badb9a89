"""Base class of the package's immutable records.

A record lists its fields in ``__slots__``.  The base constructor binds
its arguments to them: positional ones in slot order, then keywords,
then the class's ``_defaults`` (a dict from field name to default value;
a key that is not a slot fails at class creation).  A missing, unknown
or surplus argument is a ``TypeError`` naming the record.  Once the
fields are set, ``_check()`` runs: a record overrides it to raise on
field values it rejects, and the base accepts any.  A record that
converts its arguments writes its own ``__init__`` instead.

The base supplies what a frozen dataclass generates, without generating
code: a ``repr`` of ``Name(field=value, ...)``, equality and hashing on
the field values, and assignment or deletion raising
``dataclasses.FrozenInstanceError``.  ``_hidden`` names fields left out
of the ``repr`` and ``_uncompared`` fields left out of ``==`` and the
hash.  ``copy`` and ``pickle`` rebuild a record from its field values
without running its checks.
"""

from __future__ import annotations

import operator

_MISSING = object()  # a field with neither an argument nor a default


def _rebuild(cls, values):
    """A ``cls`` record holding ``values``, made without running its checks."""
    record = object.__new__(cls)
    record._assign(*values)
    return record


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__["__slots__"])
        unknown = sorted(set(cls._defaults) - set(cls._fields))
        if unknown:
            raise TypeError(
                f"{cls.__qualname__}._defaults names non-fields {unknown}"
            )
        cls._shown = tuple(n for n in cls._fields if n not in cls._hidden)
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls._fields)
        compared = [n for n in cls._fields if n not in cls._uncompared]
        getter = operator.attrgetter(*compared)
        if len(compared) > 1:
            key = getter
        else:  # attrgetter of one name returns the value, not a tuple
            def key(record):
                return (getter(record),)

        # closures over the key, where methods would look it up per call:
        # the transmon memo hashes and compares TransmonParams per solve
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self._assign(*args)
        self._check()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values, in slot order, of one constructor call."""
        name = type(self).__qualname__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments, got {len(args)}"
            )
        values = list(args)
        defaults = self._defaults
        for field in fields[len(args):]:
            value = kwargs.pop(field, defaults.get(field, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{name}() missing argument {field!r}")
            values.append(value)
        for field in kwargs:
            if field in fields:
                raise TypeError(f"{name}() got two values for {field!r}")
            raise TypeError(f"{name}() got an unknown argument {field!r}")
        return values

    def _check(self) -> None:
        """Raise on field values the record rejects; called on construction."""

    def _assign(self, *values) -> None:
        """Set the fields, in slot order, on a new record."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    # dataclasses is imported on use: loading it costs a cold run ~1.5 ms
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        values = tuple(getattr(self, name) for name in self._fields)
        return _rebuild, (type(self), values)
