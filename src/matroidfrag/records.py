"""Plain value classes for the package's records.

A partition certificate, an instance file and its task, a pipeline
stage and a pipeline trace are each a small class that lists its fields
once, in `__slots__`.  `Record` gives them one constructor, which binds
positional and then named values to the fields in slot order, equality
field by field within one class, a `Name(field=value)` repr and copying
by their constructor; `FrozenRecord` adds a hash field by field and
refuses assignment once the constructor has set the fields through
`object.__setattr__`.  A record defines its own `__init__` only to
validate, normalise or default a value, and then ends by calling
`Record.__init__`.  These are the methods `dataclasses` would generate,
written once: importing `dataclasses` loads `inspect` and builds its
methods by `exec`, a cost every process of the command line front end
would pay at start-up.
"""

from __future__ import annotations


class Record:
    """Fields in `__slots__`, compared, shown and copied field by field.

    Records of different classes never compare equal.  A mutable
    record is unhashable, as its fields may change."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values, **named):
        """Bind `values`, then `named`, to the fields in slot order; a
        missing, unknown or twice-given field is a TypeError."""
        names = self.__slots__
        if named or len(values) != len(names):
            rest = names[len(values):]
            if named.keys() != set(rest) or len(values) > len(names):
                what = type(self).__qualname__
                for name in named:
                    if name not in rest:
                        how = "given twice" if name in names else "unknown"
                        raise TypeError(f"{what}: field {name!r} {how}")
                missing = [name for name in rest if name not in named]
                raise TypeError(f"{what}: missing field {missing[0]!r}" if missing else
                                f"{what}: {len(values)} values for {len(names)} fields")
            values += tuple(map(named.__getitem__, rest))
        set_field = object.__setattr__
        for name, value in zip(names, values):
            set_field(self, name, value)

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
        # every constructor takes the fields positionally, in slot order
        return type(self), self._values()


class FrozenRecord(Record):
    """A record whose fields are set once, by its constructor, and hashed."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
