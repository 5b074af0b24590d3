"""Immutable value records whose methods are shared, not generated.

A record class extends :class:`Record` and lists its fields as
annotations, in order, each with an optional default; a :class:`Field`
default also carries metadata for the class's own readers::

    class Span(Record):
        start: date
        end: Optional[date] = None

        def __post_init__(self):
            ...  # checks; may store a normalized value with object.__setattr__

Defining the class reads that list once: the fields become its
``__slots__``, and the class gets ``_fields`` (the names, also its
``__match_args__``), ``_field_defaults``, ``_field_metadata`` and
``_key``, an ``operator.attrgetter`` of the fields.  The one
``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` of
:class:`Record` read these, so defining a class compiles no code.  They
behave as those of a frozen dataclass: arguments bind by position or
keyword, ``__post_init__`` runs last, two records are equal only when
they are of the same class and their ``_key`` values are equal, and
assigning or deleting an attribute raises :class:`FrozenInstanceError`.
A class may set its own ``_key`` to leave fields out of equality, and its
own ``__slots__`` for state that is not a field.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

MISSING = object()  # the default of a field that has none


class FrozenInstanceError(AttributeError):
    """An attempt to assign to or delete an attribute of a record."""


class Field:
    """A field default that also carries metadata."""

    __slots__ = ("default", "metadata")

    def __init__(self, default, metadata):
        self.default = default
        self.metadata = metadata


class _RecordType(type):
    def __new__(mcs, name, bases, ns):
        if any(getattr(b, "_fields", ()) for b in bases):
            raise TypeError(f"{name}: a record class must extend Record directly")
        fields = tuple(ns.get("__annotations__", ()))
        defaults, metadata = {}, {}
        for f in fields:
            value = ns.pop(f, MISSING)
            if isinstance(value, Field):
                metadata[f] = value.metadata
                value = value.default
            if value is not MISSING:
                defaults[f] = value
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        cls = super().__new__(mcs, name, bases, ns)
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = defaults
        cls._field_metadata = metadata
        if fields and "_key" not in ns:
            cls._key = attrgetter(*fields)
        # a call that names every field by keyword binds with one C call
        cls._from_kwargs = itemgetter(*fields) if len(fields) > 1 else None
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        return cls


class Record(metaclass=_RecordType):
    """The shared base; see the module docstring."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        for set_field, value in zip(cls._setters, args):
            set_field(self, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call, failing as a dataclass's
        ``__init__`` fails."""
        fields = cls._fields
        if not args and len(kwargs) == len(fields) and cls._from_kwargs is not None:
            try:
                return cls._from_kwargs(kwargs)
            except KeyError:
                pass  # an unexpected keyword in place of a field: reported below
        call = f"{cls.__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(
                f"{call} takes {len(fields) + 1} positional arguments "
                f"but {len(args) + 1} were given"
            )
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        values = list(args)
        missing = []
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in cls._field_defaults:
                values.append(cls._field_defaults[name])
            else:
                missing.append(repr(name))
        if missing:
            listed = missing[0] if len(missing) == 1 else " and ".join(missing)
            if len(missing) > 2:
                listed = ", ".join(missing[:-1]) + ", and " + missing[-1]
            plural = "argument" if len(missing) == 1 else "arguments"
            raise TypeError(
                f"{call} missing {len(missing)} required positional {plural}: {listed}"
            )
        return tuple(values)

    def __eq__(self, other):
        if self.__class__ is other.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
