"""Base for the package's value classes.

A subclass declares its fields in ``__slots__``, names the ones its
constructor takes in ``_fields`` (in constructor order), and writes its
own ``__init__``, setting each field with :data:`set_field`.  The base
derives equality, hashing, ``repr`` and pickling from ``_fields``: their
values, ``_key()``, are what a record compares by and the arguments that
rebuild it through ``__init__``.  Written out rather than generated, so
importing the package compiles no code at run time.
"""

from __future__ import annotations

#: Sets a field from ``__init__``, past the record's ``__setattr__``.
set_field = object.__setattr__


class FrozenRecord:
    """Immutable record: equal when of one class with equal keys, hashed by its key."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__, which re-derives any field not in _fields
        return self.__class__, self._key()
