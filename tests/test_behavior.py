"""Regions, dependency inference, chronology checks, non-functional events."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    OverlapAmbiguityError,
    StageKind,
    UnknownGoalError,
    assemble_model,
    check_behavior,
    check_event_region,
    infer_dependencies,
    nonfunctional_events,
    parse,
)
from tmkit.behavior import check_all_events
from tmkit.model import (
    BehaviorDecl,
    BehaviorGraph,
    Event,
    EventDecl,
    FlowDecl,
    StageRef,
    TriggerDecl,
)

from helpers import (
    bitmap_dependencies,
    brute_force_reach_goal,
    load_model,
    reachable_from,
    reference_check_behavior,
    reference_check_event_region,
    region_models,
    scan_stage_refs,
    variant,
)


def ref(text):
    path, _, kind = text.rpartition(".")
    return StageRef(path, StageKind(kind))


def test_automobile_move_region_is_valid():
    model = load_model("automobile")
    region = (
        ref("Place1.release"),
        ref("Place1.transfer"),
        ref("Place2.transfer"),
        ref("Place2.receive"),
    )
    assert check_event_region(model, Event("move", region)) == []


def test_empty_region_diagnosed():
    model = load_model("automobile")
    diags = check_event_region(model, Event("E", ()))
    assert [d.code for d in diags] == ["E_EMPTY_REGION"]


def test_unresolved_ref_diagnosed():
    model = load_model("automobile")
    diags = check_event_region(model, Event("E", (ref("Ghost.create"),)))
    assert [d.code for d in diags] == ["E_UNRESOLVED_REF"]


def test_disconnected_region_diagnosed():
    model = load_model("automobile")
    region = (ref("Automobile.transfer"), ref("Place2.process"))
    diags = check_event_region(model, Event("E", region))
    assert [d.code for d in diags] == ["E_DISCONNECTED_REGION"]


def test_region_connected_through_trigger_arc():
    model = load_model("automobile")
    region = (ref("Place2.process"), ref("Delivery.create"))
    assert check_event_region(model, Event("E", region)) == []


def test_fixture_events_all_valid():
    for name in ("automobile", "coffee-mill", "pump", "producer-consumer"):
        model = load_model(name)
        for event in model.events.values():
            assert check_event_region(model, event) == [], (name, event.name)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(model=region_models())
def test_region_checks_match_the_search_per_event(model):
    events = list(model.events.values())
    expected = [reference_check_event_region(model, event) for event in events]
    assert [check_event_region(model, event) for event in events] == expected
    assert check_all_events(model) == [d for diags in expected for d in diags]


def test_automobile_dependencies():
    model = load_model("automobile")
    assert infer_dependencies(model) == {("E1", "E2"), ("E2", "E3")}


def test_coffee_mill_dependencies():
    model = load_model("coffee-mill")
    assert infer_dependencies(model) == {
        ("E1", "E3"),
        ("E2", "E3"),
        ("E3", "E4"),
    }


def test_single_event_covering_whole_model_has_no_dependencies():
    pump = load_model("pump")
    whole = Event("All", tuple(scan_stage_refs(pump)))
    assert infer_dependencies(variant(pump, events=[whole])) == set()


def test_overlap_ambiguity_reported():
    e1 = Event("X", (ref("Pump.transfer"), ref("Pump.receive")))
    e2 = Event("Y", (ref("Pump.transfer"), ref("Pump.receive")))
    model = variant(load_model("pump"), events=[e1, e2])
    with pytest.raises(OverlapAmbiguityError) as exc_info:
        infer_dependencies(model)
    assert exc_info.value.arc_ids


def test_a_stage_listed_twice_counts_once():
    model = assemble_model(
        parse("flow x: A.create -> A.release -> A.transfer -> B.transfer -> B.receive -> B.process")
    )
    t, u = ref("A.transfer"), ref("B.transfer")
    twice = variant(model, events=[Event("E1", (t, t)), Event("E2", (u, u))])
    once = variant(model, events=[Event("E1", (t,)), Event("E2", (u,))])
    assert infer_dependencies(twice) == infer_dependencies(once) == {("E1", "E2")}
    assert check_all_events(twice) == check_all_events(once) == []
    for name in ("automobile", "coffee-mill", "pump", "producer-consumer"):
        model = load_model(name)
        twice = variant(
            model,
            events=[
                Event(e.name, e.region * 2, e.description, e.time, e.span)
                for e in model.events.values()
            ],
        )
        assert infer_dependencies(twice) == infer_dependencies(model), name
        assert check_all_events(twice) == check_all_events(model), name


def test_dependencies_match_bitmap_oracle_on_fixtures():
    for name in ("automobile", "coffee-mill", "pump", "boiling", "submit-order"):
        model = load_model(name)
        assert infer_dependencies(model) == bitmap_dependencies(model), name


def _random_chain_model(rng):
    # One long legal relay line, split into two regions at a random point.
    n = rng.randint(2, 6)
    line = [
        StageRef("T0", StageKind.CREATE),
        StageRef("T0", StageKind.RELEASE),
        StageRef("T0", StageKind.TRANSFER),
    ]
    line.extend(StageRef(f"T{i}", StageKind.TRANSFER) for i in range(1, n))
    line.append(StageRef(f"T{n - 1}", StageKind.RECEIVE))
    decls = [
        FlowDecl("Thing", tuple(line[:3])),
        FlowDecl("Relay", tuple(line[2:])),
    ]
    split = rng.randint(1, len(line) - 1)
    decls.append(EventDecl("L", tuple(line[:split])))
    decls.append(EventDecl("R", tuple(line[split:])))
    return assemble_model(decls)


def test_random_partition_matches_arc_scan():
    rng = random.Random(20240)
    for _ in range(25):
        model = _random_chain_model(rng)
        assert infer_dependencies(model) == bitmap_dependencies(model)


def test_dependency_inference_is_monotone_in_arcs():
    base = parse(
        "flow X: A.create -> A.release\n"
        "flow Y: B.create -> B.release\n"
        "event E1 { A.create, A.release }\n"
        "event E2 { B.create, B.release }\n"
    )
    before = infer_dependencies(assemble_model(base))
    more = parse(
        "flow X: A.create -> A.release\n"
        "flow Y: B.create -> B.release\n"
        "trigger A.create ~> B.create\n"
        "event E1 { A.create, A.release }\n"
        "event E2 { B.create, B.release }\n"
    )
    after = infer_dependencies(assemble_model(more))
    assert before <= after


def test_automobile_chronology_is_consistent():
    model = load_model("automobile")
    assert check_behavior(model) == []


def test_missing_event_in_chronology_is_a_gap():
    # Declared chronology without E2: the (E2, E3) dependency has no order.
    partial = BehaviorGraph(("E1", "E3", "E4"), (("E1", "E3"), ("E3", "E4")))
    diags = check_behavior(variant(load_model("coffee-mill"), behavior=partial))
    assert [d.code for d in diags] == ["E_CHRONOLOGY_GAP"]
    assert "E2" in diags[0].subject


def test_unsupported_declared_edge_warns():
    extra = BehaviorGraph(
        ("E1", "E2", "E3", "E4"),
        (("E1", "E2"), ("E2", "E3"), ("E2", "E4"), ("E3", "E4")),
    )
    diags = check_behavior(variant(load_model("pump"), behavior=extra))
    assert [d.code for d in diags] == ["W_UNSUPPORTED_EDGE"]
    assert "E3" in diags[0].subject


def test_empty_behavior_over_zero_events_is_fine():
    model = assemble_model(parse("flow X: A.create -> A.process"))
    assert check_behavior(model) == []


def test_transitive_closure_always_passes():
    model = load_model("submit-order")
    inferred = infer_dependencies(model)
    nodes = tuple(model.events)
    closure = BehaviorGraph(nodes, tuple(sorted(inferred)))
    diags = check_behavior(variant(model, behavior=closure))
    assert all(d.code != "E_CHRONOLOGY_GAP" for d in diags)


def _relay_decls(names, pairs):
    """One event per name, each over its own `create` stage, and a trigger
    for each (earlier, later) name pair: the inferred relation is `pairs`."""
    stage = {name: StageRef(name, StageKind.CREATE) for name in names}
    decls = [EventDecl(name, (stage[name],)) for name in names]
    decls += [TriggerDecl(stage[a], stage[b]) for a, b in pairs]
    return decls


@st.composite
def _cyclic_chronologies(draw):
    """A model whose inferred relation and declared chronology are random
    self-loop-free digraphs over up to 8 events, so both have cycles and
    back edges; some events may be missing from the chronology's nodes,
    and its edges may name events that are not among them."""
    names = [f"E{i}" for i in range(draw(st.integers(1, 8)))]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1]
    )
    inferred = draw(st.lists(pairs, unique=True, max_size=12))
    model = assemble_model(_relay_decls(names, inferred))
    nodes = draw(st.lists(st.sampled_from(names), unique=True))
    edges = draw(st.lists(pairs, max_size=12))
    return variant(model, behavior=BehaviorGraph(tuple(nodes), tuple(edges)))


@given(_cyclic_chronologies())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_chronology_check_matches_search_per_node(model):
    diags = check_behavior(model)
    subjects = (
        [d.subject for d in diags if d.code == "E_CHRONOLOGY_GAP"],
        [d.subject for d in diags if d.code == "W_UNSUPPORTED_EDGE"],
    )
    assert subjects == reference_check_behavior(model)
    assert len(diags) == sum(map(len, subjects))


def test_long_cycle_and_chain_check_without_recursion():
    n = 5000
    cycle = [f"C{i}" for i in range(n)]
    chain = [f"P{i}" for i in range(n)]
    ring = list(zip(cycle, cycle[1:] + cycle[:1]))
    line = list(zip(chain, chain[1:]))
    back = (chain[-1], chain[0])  # inferred, but the chain never orders it
    decls = _relay_decls(cycle + chain, ring + line + [back])
    decls += [BehaviorDecl(tuple(cycle + cycle[:1])), BehaviorDecl(tuple(chain))]
    diags = check_behavior(assemble_model(decls))
    assert [(d.code, d.subject) for d in diags] == [
        ("E_CHRONOLOGY_GAP", f"({chain[-1]}, {chain[0]})")
    ]


def test_pump_noise_event_is_nonfunctional():
    model = load_model("pump")
    assert nonfunctional_events(model.behavior, {"E3"}) == {"E4"}


def test_goals_equal_all_nodes_gives_empty_set():
    model = load_model("pump")
    assert nonfunctional_events(model.behavior, set(model.behavior.nodes)) == set()


def test_unknown_goal_raises():
    model = load_model("pump")
    with pytest.raises(UnknownGoalError):
        nonfunctional_events(model.behavior, {"E99"})


@st.composite
def _random_chronology(draw):
    """A chronology on 1-8 nodes and its goals: a DAG (edges i -> j for
    i < j) or a graph with cycles (edges i -> j for any i != j)."""
    n = draw(st.integers(min_value=1, max_value=8))
    cyclic = draw(st.booleans())
    nodes = tuple(f"N{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(n):
            if (i < j or cyclic and i != j) and draw(st.booleans()):
                edges.append((nodes[i], nodes[j]))
    goals = draw(st.sets(st.sampled_from(nodes), min_size=1))
    return BehaviorGraph(nodes, tuple(edges)), goals


@given(_random_chronology())
@settings(max_examples=120, deadline=None)
def test_nonfunctional_matches_path_enumeration(case):
    behavior, goals = case
    expected = set(behavior.nodes) - brute_force_reach_goal(
        behavior.edges, behavior.nodes, goals
    )
    assert nonfunctional_events(behavior, goals) == expected


@given(_random_chronology())
@settings(max_examples=120, deadline=None)
def test_nonfunctional_never_contains_goal_ancestors(case):
    behavior, goals = case
    result = nonfunctional_events(behavior, goals)
    ancestors = {
        n for n in behavior.nodes if goals & (reachable_from(behavior, n) | {n})
    }
    assert result & ancestors == set()
