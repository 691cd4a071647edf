"""The base of every immutable value class.

A record lists its fields in ``__slots__`` (a slot named with a leading
underscore is a cache, not a field).  The base ``__init__`` binds its
arguments to the fields, positional values first, and stores each once
with ``object.__setattr__``; a class writes its own ``__init__`` only to
normalise, validate or default, and calls the base's once.  The base
compares and hashes the fields as a tuple, prints them as
``Name(field=value, ...)`` and refuses assignment.  Unlike the standard
library's record decorator, it imports no ``inspect`` and ``exec``s no
source per class, which a fresh counting process would pay for.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*cls._fields)
        # ``_values(record)`` is the tuple of fields; a bare attrgetter,
        # not a method, is the fastest call for two or more fields.
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            values = self._bind(values, named)
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, values: tuple, named: dict) -> tuple:
        """The field values in order, or a TypeError that names the fields."""
        fields = cls._fields
        takes = f"{cls.__name__}({', '.join(fields)})"
        if len(values) > len(fields):
            raise TypeError(f"{takes} takes {len(fields)} values, got {len(values)}")
        unknown = [name for name in named if name not in fields]
        twice = [name for name in fields[: len(values)] if name in named]
        missing = [name for name in fields[len(values) :] if name not in named]
        for problem, names in (("unknown", unknown), ("repeated", twice), ("missing", missing)):
            if names:
                raise TypeError(f"{takes}: {problem} field(s) {', '.join(names)}")
        return values + tuple(named[name] for name in fields[len(values) :])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # Copy and pickle through __init__: the default path would assign slots.
        return type(self), self._values(self)
