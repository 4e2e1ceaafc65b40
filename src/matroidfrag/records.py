"""Plain value classes for the package's records.

A partition certificate, an instance file and its task, a pipeline
stage and a pipeline trace are each a small class that lists its fields
once, in `__slots__`.  `Record` gives them one constructor, which binds
one positional value to each field in slot order through
`object.__setattr__`; every other assignment and every deletion is
refused, so each record is frozen, as no caller assigns to one.  It
also gives equality and a hash field by field within one class, a
`Name(field=value)` repr and copying by the constructor.  A record
defines its own `__init__` only to validate, normalise or default a
value, and then ends by calling `Record.__init__` with the values in
slot order; only such an `__init__` takes its parameters by name.
These are the methods `dataclasses` would generate, written once:
importing `dataclasses` loads `inspect` and builds its methods by
`exec`, a cost every process of the command line front end would pay
at start-up.
"""

from __future__ import annotations


class Record:
    """Fields in `__slots__`, set once by the constructor, then
    compared, hashed, shown and copied field by field.

    Records of different classes never compare equal.  A record is
    hashable when its values are: one that holds a list or a dict, as
    a pipeline's stages and trace do, raises TypeError when hashed."""

    __slots__ = ()

    def __init__(self, *values):
        """Bind `values` to the fields in slot order; a wrong count is a
        TypeError that names the class."""
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__}: {len(values)} values for "
                            f"{len(names)} fields")
        set_field = object.__setattr__
        for name, value in zip(names, values):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # every constructor takes the fields positionally, in slot order
        return type(self), self._values()
