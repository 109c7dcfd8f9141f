"""Immutable value records: tuple subtypes made from their annotations.

A record class lists its fields as annotations, with optional trailing
defaults, in its body::

    class SourceSpan(Record):
        line: int
        col: int = 1

and gets:

- one ``__new__``, generated when the class is created, with a parameter
  per field and the field's default; Python binds the arguments and raises
  the ``TypeError`` for a missing, extra or unknown one;
- the tuple of its fields, in order, each also read by name through
  namedtuple's own field getter, so a record unpacks and indexes;
- equality only with a record of the same class whose fields are equal
  (never with a plain tuple), the hash of the field tuple, and no ordering;
- a ``repr`` of its fields in order, ``SourceSpan(line=3, col=1)``;
- ``AttributeError`` on assignment or deletion;
- ``copy`` and ``pickle`` through the constructor.

A record class may extend one record class: its fields are the base's,
with their defaults, then its own.  Redeclaring an inherited field is a
``TypeError``, and so is a required field after a defaulted one, across
the boundary too, and so is a class body that defines ``__new__`` or
``__init__``.  A tuple subtype has no slot but ``"__dict__"``:
``__slots__ = ("__dict__",)`` lets `functools.cached_property` keep a
lazily built index, and any other ``__slots__`` is a ``TypeError``.
"""

from __future__ import annotations

from collections import _tuplegetter


def _make_new(namespace: dict, fields: tuple[str, ...], defaults: dict):
    """A ``__new__(cls, <fields>)`` for the class body `namespace`."""
    scope = {f"_default_{f}": value for f, value in defaults.items()}
    scope.update(__name__=namespace["__module__"], _tuple_new=tuple.__new__)
    params = "".join(f", {f}=_default_{f}" if f in defaults else f", {f}" for f in fields)
    values = "".join(f"{f}, " for f in fields)
    source = f"def __new__(cls{params}):\n    return _tuple_new(cls, ({values}))\n"
    qualname = namespace["__qualname__"]
    exec(compile(source, f"<record {qualname}>", "exec"), scope)
    scope["__new__"].__qualname__ = f"{qualname}.__new__"
    return scope["__new__"]


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        if clash := {"__new__", "__init__"} & namespace.keys():
            raise TypeError(f"{name}: a record's {min(clash)} is generated from its fields")
        own = tuple(namespace.get("__annotations__", ()))
        base = bases[0]  # its fields and defaults come first
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
        # "__dict__" is the one slot a tuple subtype gets, by having no __slots__.
        if (slots := tuple(namespace.pop("__slots__", ()))) not in ((), ("__dict__",)):
            raise TypeError(f"{name}: a record has no slot but '__dict__', not {slots}")
        if not slots:
            namespace["__slots__"] = ()
        namespace.update((f, _tuplegetter(i, None)) for i, f in enumerate(fields) if f in own)
        namespace.update(_fields=fields, _defaults=defaults,
                         __new__=_make_new(namespace, fields, defaults))
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordType):
    """Base of the immutable records; see the module docstring."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        # Defined too, or `!=` would be tuple's and find a plain tuple equal.
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__  # the field tuple's hash, computed in C

    def __lt__(self, other: object):
        raise TypeError(f"{self.__class__.__name__} records are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(self)
