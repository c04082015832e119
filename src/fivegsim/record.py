"""The two bases the package's records share. No record comes from the
standard library's class generator: importing it pulls in `inspect`, `ast`
and `dis`, and it and its class generation cost more of `import fivegsim`
than defining every record here.

A frozen record is a `collections.namedtuple` subclass: equal, hashed and
shown by its fields, copied with `_replace`. One that also keeps state
outside its fields (a cached property, a shared table) has an instance
`__dict__` and takes `Frozen` first among its bases; one whose `__new__`
checks its fields takes `Frozen` too, so that a copy is checked as well. A
mutable record is a `Record`: it declares its `_fields`, usually as its
`__slots__` too, and the defaults of the optional ones in `_defaults`, and
`Record` writes its `__init__`. A read-only record that must not be a tuple
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

    @classmethod
    def _make(cls, values):
        """What a named tuple's `_replace` builds through: the class itself,
        so its `__new__` checks a copy as it checks the original."""
        return cls(*values)


def _init_of(cls):
    """`cls.__init__` over `cls._fields`, in order, built once from source as
    `collections.namedtuple` builds its `__new__`: a field not in
    `cls._defaults` is required, a default that is a class is a factory
    called when the argument is None or left out, and any other default is
    the argument's default."""
    namespace = {"__builtins__": {}, "_set": object.__setattr__}
    params, lines = [], []
    for name in cls._fields:
        value = name
        if name not in cls._defaults:
            params.append(name)
        elif isinstance(cls._defaults[name], type):
            namespace[f"_new_{name}"] = cls._defaults[name]
            params.append(f"{name}=None")
            value = f"_new_{name}() if {name} is None else {name}"
        else:
            namespace[f"_default_{name}"] = cls._defaults[name]
            params.append(f"{name}=_default_{name}")
        lines.append(f"_set(self, {name!r}, {value})" if issubclass(cls, Frozen) else f"self.{name} = {value}")
    body = "".join(f"\n    {line}" for line in lines or ["pass"])
    exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
    init = namespace["__init__"]
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """A mutable record over its class's `_fields`, in order: built by the
    `__init__` that `_init_of` writes, unless the class defines its own;
    equal to a record of its own class with equal fields, unhashable, and
    shown as `Name(field=value, ...)` without the fields in `_unshown`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}  # field -> its default, or a class that makes it
    _unshown: tuple[str, ...] = ()  # the fields repr leaves out

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _init_of(cls)

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
