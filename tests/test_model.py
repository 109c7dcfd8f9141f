"""Assembly: implicit declaration, uniqueness errors, determinism, and
the adjacency index against full scans of the arc tuples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    DanglingRefError,
    DuplicateArcError,
    DuplicatePathError,
    OverlapAmbiguityError,
    StageKind,
    StageRef,
    UnknownParentError,
    assemble_model,
    canonical_signature,
    check_behavior,
    check_static,
    parse,
    simplify,
)
from tmkit.behavior import check_all_events
from tmkit.corpus import ALL_NAMES
from tmkit.model import (
    BehaviorDecl,
    EventDecl,
    FlowDecl,
    InvalidArcError,
    ThimacDecl,
    TriggerDecl,
)

from helpers import (
    bitmap_dependencies,
    brute_force_reach_goal,
    load_model,
    scan_arcs_from,
    scan_arcs_into,
    scan_region_arcs,
)


def _coffee_decls():
    return [
        ThimacDecl("Mill"),
        FlowDecl(
            "Beans",
            (StageRef("Mill", StageKind.RECEIVE), StageRef("Mill", StageKind.PROCESS)),
        ),
        FlowDecl(
            "Electricity",
            (StageRef("Mill", StageKind.TRANSFER), StageRef("Mill", StageKind.RECEIVE)),
        ),
        TriggerDecl(
            StageRef("Mill", StageKind.PROCESS), StageRef("Powder", StageKind.CREATE)
        ),
    ]


def test_empty_model_has_only_anonymous_root():
    model = assemble_model([])
    assert list(model.thimacs) == [""]
    assert model.flows == ()
    assert model.triggers == ()


def test_coffee_mill_shape():
    model = assemble_model(_coffee_decls())
    # root, Mill, and the implicitly created Powder
    assert len(model.thimacs) == 3
    assert set(model.thimacs) == {"", "Mill", "Powder"}
    assert len(model.flows) == 2
    assert len(model.triggers) == 1
    assert model.thimacs["Mill"].stages == {
        StageKind.RECEIVE,
        StageKind.PROCESS,
        StageKind.TRANSFER,
    }
    assert model.thimacs["Powder"].stages == {StageKind.CREATE}


def test_duplicate_thimac_path_rejected():
    with pytest.raises(DuplicatePathError):
        assemble_model([ThimacDecl("Mill"), ThimacDecl("Mill")])


def test_implicit_then_explicit_is_not_a_duplicate():
    decls = _coffee_decls()
    model = assemble_model(decls + [ThimacDecl("Powder")])
    assert "Powder" in model.thimacs
    with pytest.raises(DuplicatePathError):
        assemble_model(decls + [ThimacDecl("Powder"), ThimacDecl("Powder")])


def test_unknown_parent_for_explicit_dotted_path():
    with pytest.raises(UnknownParentError):
        assemble_model([ThimacDecl("Mill.Motor")])
    model = assemble_model([ThimacDecl("Mill"), ThimacDecl("Mill.Motor")])
    assert model.thimacs["Mill"].children == ("Mill.Motor",)


def test_implicit_reference_creates_ancestors():
    model = assemble_model(
        [
            FlowDecl(
                "X",
                (
                    StageRef("A.B.C", StageKind.RELEASE),
                    StageRef("A.B.C", StageKind.TRANSFER),
                ),
            )
        ]
    )
    assert set(model.thimacs) == {"", "A", "A.B", "A.B.C"}


def test_duplicate_flow_arc_rejected():
    ref1 = StageRef("A", StageKind.CREATE)
    ref2 = StageRef("A", StageKind.PROCESS)
    with pytest.raises(DuplicateArcError):
        assemble_model([FlowDecl("X", (ref1, ref2)), FlowDecl("X", (ref1, ref2))])
    # same endpoints under a different thing label are fine
    model = assemble_model([FlowDecl("X", (ref1, ref2)), FlowDecl("Y", (ref1, ref2))])
    assert len(model.flows) == 2


def test_duplicate_trigger_rejected():
    src = StageRef("A", StageKind.PROCESS)
    dst = StageRef("B", StageKind.CREATE)
    with pytest.raises(DuplicateArcError):
        assemble_model([TriggerDecl(src, dst), TriggerDecl(src, dst)])


def test_self_trigger_rejected():
    ref = StageRef("A", StageKind.PROCESS)
    with pytest.raises(InvalidArcError):
        assemble_model([TriggerDecl(ref, ref)])


def test_behavior_self_loop_rejected():
    decls = [
        FlowDecl(
            "X", (StageRef("A", StageKind.CREATE), StageRef("A", StageKind.PROCESS))
        ),
        EventDecl("E1", (StageRef("A", StageKind.CREATE),)),
    ]
    with pytest.raises(InvalidArcError):
        assemble_model(decls + [BehaviorDecl(("E1", "E1"))])


def test_behavior_unknown_event_rejected():
    with pytest.raises(DanglingRefError):
        assemble_model([BehaviorDecl(("E1", "E2"))])


def test_event_arc_member_pulls_in_endpoints():
    decls = [
        FlowDecl(
            "X", (StageRef("A", StageKind.CREATE), StageRef("A", StageKind.PROCESS))
        ),
        EventDecl("E1", ("F1",)),
    ]
    model = assemble_model(decls)
    assert set(model.events["E1"].region) == {
        StageRef("A", StageKind.CREATE),
        StageRef("A", StageKind.PROCESS),
    }
    with pytest.raises(DanglingRefError):
        assemble_model(decls + [EventDecl("E2", ("T1",))])


def test_model_is_immutable():
    model = assemble_model(_coffee_decls())
    with pytest.raises(TypeError):
        model.thimacs["New"] = None
    with pytest.raises(AttributeError):
        model.name = "other"


def test_assembly_is_deterministic():
    text = (
        "thimac Mill\n"
        "flow Beans: Mill.transfer -> Mill.receive -> Mill.process\n"
        "trigger Mill.process ~> Powder.create\n"
    )
    m1 = assemble_model(parse(text))
    m2 = assemble_model(parse(text))
    assert canonical_signature(simplify(m1)) == canonical_signature(simplify(m2))
    assert dict(m1.thimacs) == dict(m2.thimacs)
    assert m1.flows == m2.flows


# ---------------------------------------------------------------------------
# Adjacency index
# ---------------------------------------------------------------------------

_REFS = [StageRef(f"T{i}", kind) for i in range(3) for kind in StageKind]


@st.composite
def _models(draw):
    """Small random models: flow and trigger arcs among 15 stages, two to
    four event regions over the stages the arcs touch (they may overlap,
    and may name one missing stage), and a random chronology, cycles
    allowed."""
    ref = st.sampled_from(_REFS)
    flows = draw(
        st.lists(st.tuples(st.sampled_from("ab"), ref, ref), unique=True, max_size=10)
    )
    triggers = draw(
        st.lists(
            st.tuples(ref, ref).filter(lambda t: t[0] != t[1]), unique=True, max_size=5
        )
    )
    touched = {r for _, src, dst in flows for r in (src, dst)}
    touched |= {r for pair in triggers for r in pair}
    member = st.sampled_from(
        sorted(touched, key=str) + [StageRef("Ghost", StageKind.CREATE)]
    )
    region = st.lists(member, min_size=1, max_size=5, unique=True)
    regions = draw(st.lists(region, min_size=2, max_size=4))
    names = [f"E{i}" for i in range(len(regions))]
    edge = st.tuples(st.sampled_from(names), st.sampled_from(names))
    chronology = draw(st.lists(edge.filter(lambda e: e[0] != e[1]), max_size=6))
    decls = [FlowDecl(label, (src, dst)) for label, src, dst in flows]
    decls += [TriggerDecl(src, dst) for src, dst in triggers]
    decls += [EventDecl(name, tuple(r)) for name, r in zip(names, regions)]
    decls += [BehaviorDecl(pair) for pair in chronology]
    return assemble_model(decls)


def _connected_by_scan(model, region) -> bool:
    parent = {ref: ref for ref in region}

    def root(ref):
        while parent[ref] != ref:
            ref = parent[ref]
        return ref

    for arc in scan_region_arcs(model, region):
        parent[root(arc.source)] = root(arc.target)
    return len({root(ref) for ref in region}) == 1


def _assert_index_matches_scans(model):
    ghost = StageRef("Ghost", StageKind.CREATE)
    for ref in model.stage_refs() + [ghost]:
        assert model.arcs_from(ref) == scan_arcs_from(model, ref)
        assert model.arcs_into(ref) == scan_arcs_into(model, ref)

    orphans = {
        d.subject for d in check_static(model) if d.code == "W_ORPHAN_STAGE"
    }
    assert orphans == {
        str(ref)
        for ref in model.stage_refs()
        if not scan_arcs_from(model, ref) and not scan_arcs_into(model, ref)
    }

    disconnected = set()
    for event in model.events.values():
        region = set(event.region)
        indexed = {
            a for ref in region for a in model.arcs_from(ref) if a.target in region
        }
        assert indexed == set(scan_region_arcs(model, region))
        resolved = all(model.resolves(ref) for ref in region)
        if region and resolved and not _connected_by_scan(model, region):
            disconnected.add(event.name)
    flagged = {
        d.subject
        for d in check_all_events(model)
        if d.code == "E_DISCONNECTED_REGION"
    }
    assert flagged == disconnected

    owners = {}
    for event in model.events.values():
        for ref in event.region:
            owners[ref] = owners.get(ref, 0) + 1
    if any(
        owners.get(a.source, 0) >= 2 and owners.get(a.target, 0) >= 2
        for a in model.flows + model.triggers
    ):
        with pytest.raises(OverlapAmbiguityError):
            check_behavior(model)
        return
    behavior = model.behavior
    deps = bitmap_dependencies(model)
    expected = [
        ("E_CHRONOLOGY_GAP", f"({a}, {b})")
        for a, b in deps
        if a not in brute_force_reach_goal(behavior.edges, behavior.nodes, {b})
    ]
    expected += [
        ("W_UNSUPPORTED_EDGE", f"({a}, {b})")
        for a, b in behavior.edges
        if (a, b) not in deps
    ]
    found = [(d.code, d.subject) for d in check_behavior(model)]
    assert sorted(found) == sorted(expected)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_index_matches_scans_on_fixtures(name):
    _assert_index_matches_scans(load_model(name))


@given(_models())
@settings(max_examples=150, deadline=None)
def test_index_matches_scans_on_random_models(model):
    _assert_index_matches_scans(model)
