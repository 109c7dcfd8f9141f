"""Immutable value records: `__slots__` classes made from their annotations.

A record class lists its fields as annotations, with optional trailing
defaults, in its body::

    class SourceSpan(Record):
        line: int
        col: int = 1

and gets:

- one ``__init__``, generated when the class is created, with a parameter
  per field and the field's default; Python binds the arguments and raises
  the ``TypeError`` for a missing, extra or unknown one;
- equality with a record of the same class whose fields are equal, and
  the hash of the field tuple;
- a ``repr`` of its fields in order, ``SourceSpan(line=3, col=1)``;
- ``AttributeError`` on assignment or deletion;
- ``copy`` and ``pickle`` through the constructor.

A record class may extend one record class.  Its fields are the base's,
with their defaults, then its own, and its ``__slots__`` holds only its
own.  Redeclaring an inherited field is a ``TypeError``, and so is a
required field after a defaulted one, across the boundary too.  A record
still equals only a record of its own class.

Names in a class's own ``__slots__`` become extra slots that are not
fields: ``"__dict__"`` lets `functools.cached_property` keep a lazily
built index, and a record may cache a derived value in a slot of its own.
A class body may not define ``__init__``: that is a ``TypeError``, so a
hand-written one is never silently replaced by the generated one.
"""

from __future__ import annotations

from operator import attrgetter


def _make_init(cls, fields: tuple[str, ...], defaults: dict) -> None:
    """Give `cls` an ``__init__(self, <fields>)`` that sets each field's
    slot through the slot's own ``__set__``, a global of the generated code."""
    scope = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    scope.update((f"_default_{f}", value) for f, value in defaults.items())
    scope["__name__"] = cls.__module__
    params = "".join(f", {f}=_default_{f}" if f in defaults else f", {f}" for f in fields)
    body = "".join(f"    _set_{f}(self, {f})\n" for f in fields) or "    pass\n"
    source = f"def __init__(self{params}):\n{body}"
    exec(compile(source, f"<record {cls.__name__}>", "exec"), scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        if "__init__" in namespace:
            raise TypeError(f"{name}: a record's __init__ is generated from its fields")
        own = tuple(namespace.get("__annotations__", ()))
        base = bases[0] if bases else object  # its fields and defaults come first
        inherited = getattr(base, "_fields", ())
        if redeclared := [f for f in own if f in inherited]:
            raise TypeError(f"{name}: field {redeclared[0]!r} is inherited from {base.__name__}")
        fields = inherited + own
        defaults = dict(getattr(base, "_defaults", {}))
        defaults.update((f, namespace.pop(f)) for f in own if f in namespace)
        for before, after in zip(fields, fields[1:]):
            if before in defaults and after not in defaults:
                raise TypeError(f"{name}: field {after!r} without a default "
                                f"follows field {before!r} with one")
        namespace["__slots__"] = own + tuple(namespace.get("__slots__", ()))
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields, cls._defaults = fields, defaults
        _make_init(cls, fields, defaults)
        # The field tuple, for equality, hashing and pickling.
        if len(fields) > 1:
            cls._values = attrgetter(*fields)
        elif fields:
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda record: (get(record),))
        else:
            cls._values = staticmethod(lambda record: ())
        return cls


class Record(metaclass=_RecordType):
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)
