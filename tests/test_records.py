"""The record contract: every public record is built positionally or by
keyword, equal and hashed by its fields, immutable, shown in field order,
and filled with its defaults where a field is omitted."""

import copy
import inspect
import itertools
import operator
import pickle
from functools import cached_property

import pytest

import tmkit
from tmkit.match import Edge, Node, NodeMapping
from tmkit.records import Record
from tmkit.sim import ExploreConfig, Firing, NetConfig, SimConfig

#: The defaults each public record declares, by class name.
DEFAULTS = {
    "BehaviorGraph": {"nodes": (), "edges": ()},
    "Diagnostic": {"subject": "", "span": None},
    "Edge": {"thing": ""},
    "Event": {"description": None, "time": None, "span": None},
    "ExploreConfig": {
        "capacities": 1,
        "initial_events": None,
        "channels": "declared",
        "max_states": 10_000,
        "terminal_events": None,
    },
    "ExploreResult": {},
    "Firing": {},
    "FlowArc": {"span": None},
    "MatchPolicy": {"match_thing_labels": True, "match_role_names": True},
    "NetConfig": {"capacities": 1, "initial_events": None, "channels": "declared"},
    "Node": {"is_env": False},
    "NodeMapping": {},
    "RenderOptions": {"view": "static", "show_thing_labels": True},
    "SimConfig": {
        "capacities": 1,
        "initial_events": None,
        "channels": "declared",
        "max_steps": 100,
        "seed": 0,
    },
    "SimplifiedGraph": {},
    "SourceSpan": {},
    "StageRef": {},
    "TMModel": {},
    "Thimac": {"children": (), "stages": frozenset()},
    "Trace": {"firings": ()},
    "TriggerArc": {"span": None},
}

RECORDS = sorted(
    {
        value
        for value in (getattr(tmkit, name) for name in tmkit.__all__)
        if isinstance(value, type) and issubclass(value, Record)
    }
    | {Node, Edge, Firing, NetConfig},
    key=lambda cls: cls.__name__,
)


def fields(cls):
    return cls._fields


def values(cls, tag="v"):
    """One hashable value per field, each a new string object."""
    return tuple("".join([tag, str(i)]) for i in range(len(fields(cls))))


def test_the_public_records_are_the_expected_ones():
    assert [cls.__name__ for cls in RECORDS] == sorted(DEFAULTS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_records(cls):
    a, b = cls(*values(cls)), cls(*values(cls))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values(cls))
    assert cls(**dict(zip(fields(cls), values(cls)))) == a
    for i in range(len(fields(cls))):
        other = list(values(cls))
        other[i] = "changed"
        assert cls(*other) != a


def test_records_of_different_classes_are_never_equal():
    for c1, c2 in itertools.permutations(RECORDS, 2):
        if len(fields(c1)) == len(fields(c2)):
            assert c1(*values(c1)) != c2(*values(c2)), (c1, c2)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(*values(cls))
    for name in fields(cls):
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == cls(*values(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_lists_the_fields_in_order(cls):
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields(cls), values(cls)))
    assert repr(cls(*values(cls))) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_omitted_fields_take_their_defaults(cls):
    defaults = DEFAULTS[cls.__name__]
    required = [f for f in fields(cls) if f not in defaults]
    assert list(fields(cls)[: len(required)]) == required
    given = dict(zip(required, values(cls)))
    for record in (cls(*given.values()), cls(**given)):
        for name in fields(cls):
            assert getattr(record, name) == given.get(name, defaults.get(name))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_copy_and_pickle_by_value(cls):
    record = cls(*values(cls))
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    for clone in (copy.copy(record), copy.deepcopy(record), *pickled):
        assert clone == record and type(clone) is cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_signature_is_the_fields_with_their_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == fields(cls)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == DEFAULTS[cls.__name__]


def test_a_required_field_may_not_follow_a_defaulted_one():
    with pytest.raises(TypeError, match="field 'b' without a default follows field 'a'"):
        class Bad(Record):
            a: int = 0
            b: int


def test_a_record_extends_a_record_with_its_fields_first():
    class Sub(SimConfig):
        extra: int = 0

    assert Sub._fields == (*SimConfig._fields, "extra")
    # A record is the tuple of its fields, the base's first.
    assert tuple(Sub(2, None, "inferred", 5, 6, 7)) == (2, None, "inferred", 5, 6, 7)
    assert tuple(SimConfig(seed=1)) == (1, None, "declared", 100, 1)
    assert tuple(ExploreConfig(max_states=3)) == (1, None, "declared", 3, None)
    *_, extra = Sub(extra=7)
    assert extra == Sub(extra=7)[-1] == 7
    params = inspect.signature(Sub).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        (f, DEFAULTS["SimConfig"][f]) for f in SimConfig._fields
    ] + [("extra", 0)]
    assert Sub().capacities == 1 and Sub(extra=3).extra == 3
    assert Sub(2, None, "inferred", 5, 6, 7) == Sub(
        capacities=2, channels="inferred", max_steps=5, seed=6, extra=7
    )
    assert repr(SimConfig(seed=1)) == (
        "SimConfig(capacities=1, initial_events=None, channels='declared', "
        "max_steps=100, seed=1)"
    )


def test_a_record_may_not_define_its_own_init():
    with pytest.raises(TypeError, match="Bad: a record's __init__ is generated"):
        class Bad(Record):
            a: int

            def __init__(self, a):
                pass

    with pytest.raises(TypeError, match="Bad: a record's __new__ is generated"):
        class Bad(Record):
            a: int

            def __new__(cls, a):
                return tuple.__new__(cls, (a,))


def test_a_record_has_no_slot_but_its_dict():
    for slots in (("cache",), ("__dict__", "cache"), ("__weakref__",)):
        with pytest.raises(TypeError, match=r"Bad: a record has no slot but '__dict__'"):
            class Bad(Record):
                __slots__ = slots
                a: int

    class Cached(Record):
        __slots__ = ("__dict__",)
        a: int

        @cached_property
        def double(self):
            return self.a * 2

    record = Cached(2)
    assert record.double == 4 and record.__dict__ == {"double": 4}
    assert tuple(record) == (2,) and record == Cached(2)
    assert not hasattr(NetConfig(), "__dict__")


def test_an_inherited_field_may_not_be_redeclared():
    with pytest.raises(TypeError, match="field 'seed' is inherited from SimConfig"):
        class Bad(SimConfig):
            seed: int = 1


def test_a_required_field_may_not_follow_an_inherited_defaulted_one():
    with pytest.raises(TypeError, match="field 'extra' without a default follows field 'seed'"):
        class Bad(SimConfig):
            extra: int


def test_a_subclass_record_never_equals_its_base():
    class Same(NetConfig):
        pass

    assert Same._fields == NetConfig._fields
    assert Same() != NetConfig() and NetConfig() != Same()
    assert SimConfig() != NetConfig() != ExploreConfig()
    assert len({Same(), NetConfig()}) == 2


def test_a_subclass_record_copies_and_pickles_by_value():
    record = SimConfig(capacities=2, initial_events=frozenset({"E1"}), seed=4)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is SimConfig


def test_wrong_arguments_are_type_errors():
    kind = tmkit.StageKind.CREATE
    for cls, args, kwargs in (
        (Node, ("n1",), {}),
        (Node, ("n1", "A", kind, False, "extra"), {}),
        (Node, ("n1", "A", kind), {"colour": "red"}),
        (Node, ("n1", "A", kind), {"id": "n2"}),
        (tmkit.StageRef, ("A",), {}),
        (Firing, ("E1",), {}),
        (tmkit.SimConfig, (), {"max_step": 1}),
        (tmkit.SourceSpan, (1, 2, 3), {}),
        # A diagnostic's severity comes from its code, not an argument.
        (tmkit.Diagnostic, ("E_X", "m"), {"severity": tmkit.Severity.ERROR}),
        (tmkit.Diagnostic, (tmkit.Severity.ERROR, "E_X", "m", "", None), {}),
    ):
        # The message names the record whose generated `__new__` was called.
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\)"):
            cls(*args, **kwargs)


def test_a_mapping_is_true_when_it_maps_something():
    assert not NodeMapping(())
    assert NodeMapping((("a", "b"),))
    # Its length is its number of pairs, not of fields.
    assert len(NodeMapping((("a", "b"), ("c", "d")))) == 2


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_never_equals_a_plain_tuple(cls):
    record, plain = cls(*values(cls)), values(cls)
    equal = cls(*values(cls))  # equal, but another object
    assert {record: 1}[equal] == 1 and equal in {record} and not equal != record
    # The hash of the field tuple, so sets and dicts of records iterate in
    # the order the field values give.
    assert hash(record) == hash(plain) and tuple(record) == plain
    assert not record == plain and record != plain
    assert not plain == record and plain != record
    assert record not in {plain: 1} and plain not in {record: 1}
    assert record not in {plain} and plain not in {record}
    assert len({record, plain}) == 2 and len({record: 1, plain: 2}) == 2
    assert record not in [plain] and plain not in [record]
    assert record != "v0" and "v0" != record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_not_ordered(cls):
    record = cls(*values(cls))
    for other in (cls(*values(cls, "w")), values(cls, "w"), ("Z",)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(record, other)
            with pytest.raises(TypeError):
                compare(other, record)
    with pytest.raises(TypeError):
        sorted([cls(*values(cls, "b")), cls(*values(cls, "a"))])
