"""The record contract: every public record is built positionally or by
keyword, equal and hashed by its fields, immutable, shown in field order,
and filled with its defaults where a field is omitted."""

import copy
import inspect
import itertools
import pickle

import pytest

import tmkit
from tmkit.corpus import Fixture
from tmkit.match import Edge, Node, NodeMapping
from tmkit.records import Record
from tmkit.sim import Firing

#: The defaults each public record declares, by class name.
DEFAULTS = {
    "BehaviorGraph": {"nodes": (), "edges": ()},
    "Diagnostic": {"subject": "", "span": None},
    "Edge": {"thing": ""},
    "Event": {"description": None, "time": None, "span": None},
    "ExploreConfig": {
        "capacities": 1,
        "max_states": 10_000,
        "initial_events": None,
        "terminal_events": None,
        "channels": "declared",
    },
    "ExploreResult": {},
    "Firing": {},
    "FlowArc": {"span": None},
    "MatchPolicy": {"match_thing_labels": True, "match_role_names": True},
    "Node": {"is_env": False},
    "NodeMapping": {},
    "RenderOptions": {"view": "static", "show_thing_labels": True},
    "SimConfig": {
        "capacities": 1,
        "max_steps": 100,
        "seed": 0,
        "initial_events": None,
        "channels": "declared",
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
    | {Node, Edge, Firing},
    key=lambda cls: cls.__name__,
)


def fields(cls):
    return tuple(cls.__annotations__)


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
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
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


def test_wrong_arguments_are_type_errors():
    kind = tmkit.StageKind.CREATE
    for cls, args, kwargs in (
        (Node, ("n1",), {}),
        (Node, ("n1", "A", kind, False, "extra"), {}),
        (Node, ("n1", "A", kind), {"colour": "red"}),
        (Node, ("n1", "A", kind), {"id": "n2"}),
        (tmkit.StageRef, ("A",), {}),
        (Firing, (0, "E1"), {}),
        (tmkit.SimConfig, (), {"max_step": 1}),
        (tmkit.SourceSpan, (1, 2, 3), {}),
    ):
        # The message names the record whose constructor was called.
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\)"):
            cls(*args, **kwargs)


def test_a_mapping_is_true_when_it_maps_something():
    assert not NodeMapping(())
    assert NodeMapping((("a", "b"),))


def test_each_fixture_has_goldens_of_its_own():
    a, b = Fixture("a", "text"), Fixture("b", "text")
    assert a.goldens == {} and a.goldens is not b.goldens


def test_cached_indexes_are_built_on_first_use():
    model = tmkit.assemble_model(tmkit.parse("flow X: A.create -> A.process\n"))
    assert "_arcs_by_end" not in model.__dict__
    assert len(model.arcs_from(tmkit.StageRef("A", tmkit.StageKind.CREATE))) == 1
    assert "_arcs_by_end" in model.__dict__
