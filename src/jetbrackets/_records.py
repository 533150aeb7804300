"""Small record classes with the value semantics of a dataclass.

The engine has four record types: `Pencil` in `schouten`, `GradedSlice` in
`deform`, and `CocyclePair` and `NontrivialAtDegreeZero` in `dkdv`.
`dataclasses` would serve them, but it imports `inspect`, `dis`, `ast` and
`tokenize`, which cost more than the engine's own work in a one-shot CLI
process.  `schouten` loads this module for the dKdV pencil, the first thing
a fresh process certifies.
"""

from __future__ import annotations


class Record:
    """A record whose attributes `_fields` names in order, with the repr,
    class-strict equality and (being mutable) missing hash of `@dataclass`."""

    __slots__ = ()
    _fields: tuple = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    """An immutable `Record`, like `@dataclass(frozen=True)`: hashable, and
    assignment or deletion raises `AttributeError`.  A subclass lists its
    fields in `__slots__` and passes their values, in order, to this
    `__init__`."""

    __slots__ = ()

    def __init__(self, *values):
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: restoring slots
        # one by one would go through __setattr__
        return type(self), self._astuple()
