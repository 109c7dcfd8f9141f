"""Immutable value records: `__slots__` classes made from their annotations.

A record class lists its fields as annotations, with optional trailing
defaults, in its body::

    class SourceSpan(Record):
        line: int
        col: int = 1

and gets, without generating code per class:

- positional and keyword construction, defaults for omitted fields;
- equality with a record of the same class whose fields are equal, and
  the hash of the field tuple;
- a ``repr`` of its fields in order, ``SourceSpan(line=3, col=1)``;
- ``AttributeError`` on assignment or deletion;
- ``copy`` and ``pickle`` through the constructor.

Names in a class's own ``__slots__`` become extra slots that are not
fields: ``"__dict__"`` lets `functools.cached_property` keep a lazily
built index, and a record may cache a derived value in a slot of its own.
A record whose construction is hot may write its own ``__init__``; it
fills its slots with `init_field`, which bypasses the refusal.
"""

from __future__ import annotations

from operator import attrgetter

#: ``init_field(record, name, value)``: fill a slot of a record being built.
init_field = object.__setattr__


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        for before, after in zip(fields, fields[1:]):
            if before in defaults and after not in defaults:
                raise TypeError(f"{name}: field {after!r} without a default "
                                f"follows field {before!r} with one")
        namespace["__slots__"] = fields + tuple(namespace.get("__slots__", ()))
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields = fields
        cls._defaults = tuple(defaults.values())  # those of the last fields
        cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)
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

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, from the arguments or the defaults."""
        fields, defaults = cls._fields, cls._defaults
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        first_default = len(fields) - len(defaults)
        for i in range(len(args), len(fields)):
            name = fields[i]
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif i >= first_default:
                values.append(defaults[i - first_default])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return tuple(values)

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
