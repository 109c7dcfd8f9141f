"""Token simulation and state-space exploration."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    ConfigError,
    ExploreConfig,
    NoInitialEventsError,
    SimConfig,
    assemble_model,
    check_behavior,
    explore_state_space,
    infer_dependencies,
    parse,
    simulate,
)
from tmkit.model import BehaviorGraph
from tmkit.sim import build_net

from helpers import (
    load_model,
    reference_build_net,
    reference_explore_state_space,
    reference_simulate,
    variant,
)

ALL_FIXTURES = (
    "automobile",
    "coffee-mill",
    "pump",
    "window",
    "boiling",
    "distillation",
    "pay-service",
    "add-service",
    "producer-consumer",
    "submit-order",
    "hammer-nails",
    "add-service-alt",
)


def test_producer_consumer_alternates_strictly():
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(max_steps=10, seed=5))
    names = [f.event for f in trace.firings]
    assert names == ["Produce", "Consume"] * 5


def test_max_steps_zero_gives_empty_trace():
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(max_steps=0))
    assert trace.firings == ()
    assert trace.to_jsonl() == ""


def test_negative_max_steps_rejected():
    model = load_model("producer-consumer")
    with pytest.raises(ConfigError):
        simulate(model, SimConfig(max_steps=-1))


def test_zero_capacity_rejected():
    # An int capacity is checked even when the net has no channel to use it.
    edgeless = variant(assemble_model([]), behavior=BehaviorGraph(("A",), ()))
    for model in (load_model("producer-consumer"), edgeless):
        with pytest.raises(ConfigError):
            simulate(model, SimConfig(capacities=0))
        with pytest.raises(ConfigError):
            explore_state_space(model, ExploreConfig(capacities=-2))


def test_capacity_for_a_pair_that_is_not_a_channel_rejected():
    # E1 -> E2 is a channel in both modes; ("Nope", "X") and E2 -> E1 are not.
    model = assemble_model(
        parse(
            "flow X: A.create -> A.release\n"
            "event E1 { A.create }\nevent E2 { A.release }\nbehavior E1 -> E2"
        )
    )
    for channels in ("declared", "inferred"):
        ok = {("E1", "E2"): 2}
        assert simulate(model, SimConfig(capacities=ok, channels=channels)).firings
        assert explore_state_space(model, ExploreConfig(capacities=ok, channels=channels))
        for key in (("Nope", "X"), ("E2", "E1")):
            bad = {("E1", "E2"): 2, key: 0}
            with pytest.raises(ConfigError, match=re.escape(repr(key))):
                simulate(model, SimConfig(capacities=bad, channels=channels))
            with pytest.raises(ConfigError, match=re.escape(repr(key))):
                explore_state_space(model, ExploreConfig(capacities=bad, channels=channels))


def test_coffee_mill_fires_in_topological_order_then_halts():
    model = load_model("coffee-mill")
    for seed in range(8):
        trace = simulate(model, SimConfig(max_steps=50, seed=seed))
        names = [f.event for f in trace.firings]
        assert sorted(names[:2]) == ["E1", "E2"]
        assert names[2:] == ["E3", "E4"]


def test_capacity_bounds_hold_on_every_step():
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(max_steps=200, seed=11))
    for firing in trace.firings:
        for _, count in firing.marking:
            assert 0 <= count <= 1


def test_producer_consumer_conservation():
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(max_steps=1000, seed=3))
    produced = consumed = 0
    for firing in trace.firings:
        if firing.event == "Produce":
            produced += 1
        else:
            consumed += 1
        assert produced - consumed in (0, 1)


def test_trace_is_deterministic_byte_for_byte():
    model = load_model("coffee-mill")
    a = simulate(model, SimConfig(max_steps=100, seed=9)).to_jsonl()
    b = simulate(model, SimConfig(max_steps=100, seed=9)).to_jsonl()
    assert a == b


def test_trace_jsonl_shape():
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(max_steps=2))
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["step"] == 0
    assert first["event"] == "Produce"
    assert first["marking"] == {"Consume->Produce": 0, "Produce->Consume": 1}


def test_explore_producer_consumer():
    model = load_model("producer-consumer")
    result = explore_state_space(model, ExploreConfig())
    assert result.reachable_count == 2
    assert result.deadlocks == ()
    assert result.bounded


def test_explore_without_produce_to_consume_channel():
    # The cycle with the Produce->Consume channel removed and nothing
    # seeded can never start: the initial marking is the unique deadlock.
    broken = BehaviorGraph(("Produce", "Consume"), (("Consume", "Produce"),))
    model = variant(load_model("producer-consumer"), behavior=broken)
    result = explore_state_space(model, ExploreConfig(initial_events=frozenset()))
    assert result.reachable_count == 1
    assert result.deadlocks == ((("Consume->Produce", 0),),)
    with pytest.raises(NoInitialEventsError):
        simulate(model, SimConfig(initial_events=frozenset()))


def test_acyclic_coffee_mill_completes_normally():
    model = load_model("coffee-mill")
    result = explore_state_space(model, ExploreConfig())
    assert result.deadlocks == ()
    assert result.bounded


def test_drained_halt_is_deadlock_when_terminal_set_empty():
    model = load_model("coffee-mill")
    result = explore_state_space(
        model, ExploreConfig(terminal_events=frozenset())
    )
    assert len(result.deadlocks) == 1
    assert all(count == 0 for _, count in result.deadlocks[0])


def test_unknown_terminal_event_rejected():
    behavior = BehaviorGraph(("A", "B"), (("A", "B"),))
    model = variant(assemble_model([]), behavior=behavior)
    with pytest.raises(ConfigError, match="terminal event.* not in the behavior: Zz"):
        explore_state_space(model, ExploreConfig(terminal_events=frozenset({"Zz"})))
    # A known terminal set still decides how the drained halt counts.
    drained = ((("->A", 0), ("A->B", 0)),)
    assert explore_state_space(
        model, ExploreConfig(terminal_events=frozenset())
    ).deadlocks == drained
    assert explore_state_space(
        model, ExploreConfig(terminal_events=frozenset({"B"}))
    ).deadlocks == ()


def test_starved_join_is_a_deadlock():
    # Without E2 the grind never has both inputs: tokens stick on E1->E3.
    partial = BehaviorGraph(
        ("E1", "E3", "E4"), (("E1", "E3"), ("E2", "E3"), ("E3", "E4"))
    )
    model = variant(load_model("coffee-mill"), behavior=partial)
    result = explore_state_space(
        model, ExploreConfig(initial_events=frozenset({"E1"}))
    )
    assert len(result.deadlocks) == 1
    marking = dict(result.deadlocks[0])
    assert marking["E1->E3"] == 1


def test_state_limit_reports_partial_flagged():
    model = load_model("producer-consumer")
    result = explore_state_space(model, ExploreConfig(max_states=1))
    assert not result.bounded
    assert result.reachable_count == 1


def test_inferred_channels_mode():
    model = load_model("coffee-mill")
    trace = simulate(model, SimConfig(max_steps=50, seed=0, channels="inferred"))
    names = [f.event for f in trace.firings]
    assert names[2:] == ["E3", "E4"]


def test_unknown_initial_event_rejected():
    model = load_model("coffee-mill")
    with pytest.raises(ConfigError):
        simulate(model, SimConfig(initial_events=frozenset({"E99"})))


def test_default_initial_event_outside_the_net_rejected():
    # A source-free behaviour starts at its first edge's head, which must
    # be one of the net's events (here the model declares none).
    behavior = BehaviorGraph((), (("A", "B"), ("B", "A")))
    with pytest.raises(ConfigError, match="not in the behavior: A"):
        simulate(variant(assemble_model([]), behavior=behavior))


@pytest.mark.parametrize("keyword", ["events", "behavior"])
@pytest.mark.parametrize(
    "run",
    [check_behavior, infer_dependencies, simulate, explore_state_space, build_net],
    ids=lambda run: run.__name__,
)
def test_analyses_take_no_other_chronology(run, keyword):
    # Another chronology or event set is another model (see `variant`).
    model = load_model("coffee-mill")
    args = (model, ExploreConfig()) if run is build_net else (model,)
    replacement = model.behavior if keyword == "behavior" else model.events.values()
    with pytest.raises(TypeError, match=keyword):
        run(*args, **{keyword: replacement})


def test_explore_json_is_stable():
    model = load_model("producer-consumer")
    a = explore_state_space(model, ExploreConfig()).to_json()
    b = explore_state_space(model, ExploreConfig()).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["reachableCount"] == 2
    assert payload["bounded"] is True


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_simulated_markings_are_explored(name):
    model = load_model(name)
    explored = explore_state_space(model, ExploreConfig(max_states=10_000))
    assert explored.bounded
    seen_markings = set()
    for seed in range(20):
        trace = simulate(model, SimConfig(max_steps=60, seed=seed))
        for firing in trace.firings:
            seen_markings.add(firing.marking)
    # Recompute the explored set as marking item tuples, on the reference net.
    net = reference_build_net(model, ExploreConfig())
    frontier = [net.initial]
    reach = {net.initial}
    while frontier:
        marking = frontier.pop()
        for node in net.enabled_nodes(marking):
            nxt = net.fire(marking, node)
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    reach_items = {net.marking_items(m) for m in reach}
    assert seen_markings <= reach_items


def test_repeated_behavior_edge_is_one_channel():
    # `assemble_model` drops repeated edges; a hand-built graph may keep them.
    empty = assemble_model([])
    once = variant(empty, behavior=BehaviorGraph(("A", "B"), (("A", "B"), ("B", "A"))))
    twice = variant(
        empty, behavior=BehaviorGraph(("A", "B"), (("A", "B"), ("B", "A"), ("A", "B")))
    )
    config = SimConfig(max_steps=6, seed=1)
    trace = simulate(twice, config)
    assert trace == simulate(once, config)
    assert [f.event for f in trace.firings] == ["A", "B"] * 3
    assert explore_state_space(twice, ExploreConfig()) == (
        explore_state_space(once, ExploreConfig())
    )


@pytest.mark.parametrize("capacity", range(1, 10))
def test_channel_fills_to_capacity(capacity):
    # P keeps its self-loop token (the loop needs room for it too) and feeds
    # Q: P->Q reaches every count up to its capacity, including a packed
    # field's top value.
    behavior = BehaviorGraph(("P", "Q"), (("P", "P"), ("P", "Q")))
    model = variant(assemble_model([]), behavior=behavior)
    capacities = {("P", "P"): 2, ("P", "Q"): capacity}
    explore = ExploreConfig(capacities=capacities)
    result = explore_state_space(model, explore)
    assert result == reference_explore_state_space(model, explore)
    assert result.reachable_count == capacity + 1
    sim = SimConfig(capacities=capacities, max_steps=200, seed=capacity)
    trace = simulate(model, sim)
    assert trace == reference_simulate(model, sim)
    assert max(dict(f.marking)["P->Q"] for f in trace.firings) == capacity


@pytest.mark.parametrize("terminal", [None, frozenset()])
@pytest.mark.parametrize("max_states", [10_000, 500])
def test_truncated_exploration_matches_reference(max_states, terminal):
    # 5 parallel 3-event chains: 4**5 markings, more than Hypothesis draws,
    # so truncation at 500 cuts the breadth-first order mid-level.
    nodes = tuple(f"c{i}e{j}" for i in range(5) for j in range(3))
    edges = tuple(
        (f"c{i}e{j}", f"c{i}e{j + 1}") for i in range(5) for j in range(2)
    )
    model = variant(assemble_model([]), behavior=BehaviorGraph(nodes, edges))
    config = ExploreConfig(max_states=max_states, terminal_events=terminal)
    result = explore_state_space(model, config)
    assert result == reference_explore_state_space(model, config)
    assert result.reachable_count == min(4**5, max_states)
    assert result.bounded == (max_states >= 4**5)
    # With an empty terminal set the drained marking, found last, is a deadlock.
    assert len(result.deadlocks) == (terminal is not None and result.bounded)


def _assert_net_matches_reference(model, config):
    """`build_net`'s tables against the reference net's channels: `near[p]`
    (and `stale[p]`) holds exactly the events with an input channel that
    share a channel with p; the initial marking, its enabled events and the
    sinks agree."""
    net = build_net(model, config)
    ref = reference_build_net(model, config)
    position = {name: p for p, name in enumerate(ref.nodes)}
    tested = {name for name in ref.nodes if ref.incoming[name]}
    for p, name in enumerate(ref.nodes):
        shared = {
            end
            for ch in ref.incoming[name] + ref.outgoing[name]
            for end in (ch.src, ch.dst)
        }
        near = {q for q, *_ in net.near[p]}
        assert near == {position[n] for n in shared & tested}
        assert net.stale[p] == near
    assert [net.nodes[p] for p in net.enabled] == ref.enabled_nodes(ref.initial)
    assert net.decode(net.initial) == ref.marking_items(ref.initial)
    assert net.sinks == tuple(n for n in ref.nodes if not ref.outgoing[n])


@pytest.mark.parametrize("channels", ["declared", "inferred"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_net_tables_match_reference_on_fixtures(name, channels):
    _assert_net_matches_reference(load_model(name), ExploreConfig(channels=channels))


@st.composite
def token_runs(draw):
    """A model and one simulate and one explore config.  Either a fixture in
    either channel mode, or a random behavior graph (cycles, sources,
    self-loops, no repeated edge) on an empty model."""
    if draw(st.booleans()):
        model = load_model(draw(st.sampled_from(ALL_FIXTURES)))
        nodes = tuple(model.events)
        channels = draw(st.sampled_from(["declared", "inferred"]))
        if channels == "declared":
            edges = list(model.behavior.edges)
        else:
            edges = sorted(infer_dependencies(model))
    else:
        nodes = tuple(f"e{i}" for i in range(draw(st.integers(1, 5))))
        pairs = [(a, b) for a in nodes for b in nodes]
        ring = list(zip(nodes, nodes[1:] + nodes[:1])) if draw(st.booleans()) else []
        extra = draw(st.lists(st.sampled_from(pairs), max_size=7))
        edges = list(dict.fromkeys(ring + extra))
        model = variant(assemble_model([]), behavior=BehaviorGraph(nodes, tuple(edges)))
        channels = "declared"
    if draw(st.booleans()):
        capacities = draw(st.integers(1, 9))
    else:
        capacities = {e: draw(st.integers(1, 9)) for e in edges if draw(st.booleans())}
    initial = draw(st.none() | st.frozensets(st.sampled_from(nodes + ("zz",)), max_size=3))
    terminal = draw(st.none() | st.frozensets(st.sampled_from(nodes), max_size=2))
    sim = SimConfig(
        capacities=capacities,
        max_steps=draw(st.integers(-1, 40)),
        seed=draw(st.integers(0, 5)),
        initial_events=initial,
        channels=channels,
    )
    explore = ExploreConfig(
        capacities=capacities,
        max_states=draw(st.integers(1, 300)),
        initial_events=initial,
        terminal_events=terminal,
        channels=channels,
    )
    return model, sim, explore


def _outcome(run, *args):
    try:
        return run(*args)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def _capacity_of(channel_id, capacities):
    src, dst = channel_id.split("->")
    if not src:
        return 1  # a start channel
    if isinstance(capacities, int):
        return capacities
    return capacities.get((src, dst), 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(token_runs())
def test_engine_matches_reference_and_respects_capacities(run):
    model, sim, explore = run
    if not isinstance(_outcome(build_net, model, explore), type):
        _assert_net_matches_reference(model, explore)
    trace = _outcome(simulate, model, sim)
    assert trace == _outcome(reference_simulate, model, sim)
    result = _outcome(explore_state_space, model, explore)
    assert result == _outcome(reference_explore_state_space, model, explore)
    if isinstance(trace, type) or isinstance(result, type):
        return

    def assert_within_capacity(items):
        for channel_id, count in items:
            assert 0 <= count <= _capacity_of(channel_id, sim.capacities), items

    for firing in trace.firings:
        assert_within_capacity(firing.marking)
    net = reference_build_net(model, explore)
    reach = {net.initial}
    frontier = [net.initial]
    while frontier and len(reach) < explore.max_states:
        marking = frontier.pop()
        assert_within_capacity(net.marking_items(marking))
        for node in net.enabled_nodes(marking):
            nxt = net.fire(marking, node)
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    for marking in frontier:
        assert_within_capacity(net.marking_items(marking))
    if result.bounded:
        assert len(reach) == result.reachable_count
