"""Plain value classes for the package's records.

A partition certificate, an instance file and its task, a pipeline
stage and a pipeline trace are each a small class that lists its fields
in `__slots__` and sets them in its own `__init__`.  `Record` gives
them equality field by field within one class, a `Name(field=value)`
repr and copying by their `__init__`; `FrozenRecord` adds a hash field
by field and refuses assignment once `__init__` has set the fields
through `object.__setattr__`.  These are the methods `dataclasses`
would generate, written once: importing `dataclasses` loads `inspect`
and builds its methods by `exec`, a cost every process of the command
line front end would pay at start-up.
"""

from __future__ import annotations


class Record:
    """Fields in `__slots__`, compared, shown and copied field by field.

    Records of different classes never compare equal.  A mutable
    record is unhashable, as its fields may change."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # `__init__` takes the fields positionally, in slot order
        return type(self), self._values()


class FrozenRecord(Record):
    """A record whose fields are set once, by `__init__`, and hashed."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
