"""Read-only value classes without the dataclasses module, whose import
(inspect, ast, dis, tokenize) costs more than a short command's own work."""

from __future__ import annotations


class Frozen:
    """A read-only record.  Its fields are its __slots__ other than
    "__dict__", set in order by __init__; a "__dict__" slot leaves room for
    a functools.cached_property.  Two records are equal when they are of
    the same class with equal fields, and hash and print by their fields,
    as a frozen dataclass does."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(s for s in cls.__slots__ if s != "__dict__")

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot del {name!r}")

    def __reduce__(self):
        # rebuilt through __init__, which the slot-by-slot default would bypass
        return type(self), self._values()
