"""The two bases the package's records share. No record comes from the
standard library's class generator: importing it pulls in `inspect`, `ast`
and `dis`, and it and its class generation cost more of `import fivegsim`
than defining every record here.

A frozen record is a `collections.namedtuple` subclass: equal, hashed and
shown by its fields, copied with `_replace`. One that also keeps state
outside its fields (a cached property, a shared table) has an instance
`__dict__` and takes `Frozen` first among its bases. A mutable record is a
`Record`: its fields are its `_fields`, set by its own `__init__`, and
usually its `__slots__` too. A read-only record that must not be a tuple
takes `Frozen` and `Record`.
"""
from __future__ import annotations


class Frozen:
    """Refuses attribute assignment: for a named tuple with a `__dict__`, and
    for a read-only `Record`, whose `__init__` sets its fields through
    `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """A mutable record over its class's `_fields`, in order: equal to a
    record of its own class with equal fields, unhashable, and shown as
    `Name(field=value, ...)` without the fields in `_unshown`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()  # the fields repr leaves out

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._unshown
        )
        return f"{type(self).__qualname__}({shown})"
