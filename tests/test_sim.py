"""Token simulation and state-space exploration."""

import hashlib
import json
import random
import re
import time
import types

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tmkit import (
    ConfigError,
    ExploreConfig,
    ExploreResult,
    NoInitialEventsError,
    SimConfig,
    assemble_model,
    check_behavior,
    explore_state_space,
    infer_dependencies,
    parse,
    simulate,
)
from tmkit import cli, sim
from tmkit.model import BehaviorGraph
from tmkit.sim import Firing, Trace, _Net, _retest, build_net, encode_batches, simulate_firings

from helpers import (
    load_model,
    reference_build_net,
    reference_explore_state_space,
    reference_halt,
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


@pytest.mark.parametrize("max_states", [0, -5])
def test_max_states_below_one_rejected(max_states):
    # Not even the initial marking fits, so no result can respect the limit.
    model = load_model("pump")
    with pytest.raises(ConfigError, match="max_states must be >= 1"):
        explore_state_space(model, ExploreConfig(max_states=max_states))


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


def test_inferred_channels_start_at_the_head_of_the_first_chain():
    # The cycle has no source, so the run starts at `Produce`, the head of
    # the declared chain, not at the source of the least inferred channel
    # (`Consume->Produce`).
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(channels="inferred", max_steps=2))
    assert [f.event for f in trace.firings] == ["Produce", "Consume"]
    assert trace == reference_simulate(model, SimConfig(channels="inferred", max_steps=2))
    result = explore_state_space(model, ExploreConfig(channels="inferred"))
    assert result.reachable_count == 2
    assert result.deadlocks == ()


def test_simulate_makes_one_record_per_distinct_firing():
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(max_steps=1000, seed=3))
    assert len(trace.firings) == 1000
    assert len({id(f) for f in trace.firings}) == len(set(trace.firings)) == 2


def test_a_repeated_firing_is_looked_up_not_recomputed(monkeypatch):
    # The engine re-tests and decodes once per distinct firing; `build_net`
    # re-tests once more for the initial marking.
    calls = {"_retest": 0, "decode": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr("tmkit.sim._retest", counted("_retest", _retest))
    monkeypatch.setattr(_Net, "decode", counted("decode", _Net.decode))
    model = load_model("producer-consumer")
    config = SimConfig(max_steps=1000)
    trace = simulate(model, config)
    assert calls == {"_retest": 2 + 1, "decode": 2}
    assert trace == reference_simulate(model, config)


def test_encoding_a_stream_of_fresh_records_reuses_no_line():
    # Records that are freed after their line could share an id; the encoder
    # keeps them, so each fresh record gets its own line, within a batch and
    # across batches.
    events = [f"E{i % 7}" for i in range(50)]
    for size in (None, 1, 3, 8, 50, 64):
        batches = list(encode_batches((Firing(e, ((e, 1),)) for e in events), size))
        lines = "".join(batches).splitlines()
        assert [json.loads(line)["event"] for line in lines] == events
        assert [json.loads(line)["step"] for line in lines] == list(range(50))
        assert [b.count("\n") for b in batches[:-1]] == [size] * (len(batches) - 1)
        assert 0 < batches[-1].count("\n") <= (size or 50)


def test_a_batch_size_below_one_is_a_value_error():
    firings = [Firing("E1", (("E1", 1),)), Firing("E2", (("E2", 1),))]
    for size in (0, -1):
        with pytest.raises(ValueError, match=rf"^size must be at least 1, got {size}$"):
            list(encode_batches(firings, size))
    for size in (None, 1):
        lines = "".join(encode_batches(firings, size)).splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["E1", "E2"]


def _draw_lengths(rng: random.Random, steps: int) -> list[int]:
    """`steps` lengths in 1..70, every power of two and 2**k +- 1 among them."""
    special = sorted({m for k in range(7) for m in (2**k - 1, 2**k, 2**k + 1) if 1 <= m <= 70})
    lengths = special + [rng.randint(1, 70) for _ in range(steps - len(special))]
    rng.shuffle(lengths)
    return lengths


def test_the_engine_draws_as_random_choice(monkeypatch):
    # The engine inlines `Random(seed).choice`.  Every firing of this net is
    # new (each position adds 1), so the engine asks `_retest` for the
    # enabled positions after each one; the patched `_retest` answers with
    # 0..n-1 for the next drawn length n, so the position fired is the index
    # drawn.  The indices, and the generator's state after the run, must be
    # `choice`'s.
    nodes = tuple(f"E{p}" for p in range(70))
    made = []

    def recorded_random(seed):
        made.append(random.Random(seed))
        return made[-1]

    monkeypatch.setattr("tmkit.sim.random", types.SimpleNamespace(Random=recorded_random))
    for seed in range(60):
        lengths = _draw_lengths(random.Random(1000 + seed), 200)
        net = _Net(
            nodes=nodes, initial=1, enabled=tuple(range(lengths[0])),
            delta=(1,) * 70, near=({},) * 70, sinks=(), fields=(), part_of=(0,) * 70,
            part_masks=(0,), channels=(),
        )
        answers = iter(lengths[1:] + [1])
        monkeypatch.setattr("tmkit.sim.build_net", lambda model, config: net)
        monkeypatch.setattr("tmkit.sim._retest", lambda *_: list(range(next(answers))))
        config = SimConfig(max_steps=len(lengths), seed=seed)
        drawn = [int(f.event[1:]) for f in simulate_firings(None, config)]
        reference = random.Random(seed)
        assert drawn == [reference.choice(range(n)) for n in lengths]
        assert made[-1].getstate() == reference.getstate()


def _cycles_text(k: int) -> str:
    """k independent two-event cycles A{i} -> B{i} -> A{i}."""
    return "".join(
        f"flow F{i}: T{i}.create -> T{i}.release\n"
        f"event A{i} {{ T{i}.create }}\nevent B{i} {{ T{i}.release }}\n"
        f"behavior A{i} -> B{i} -> A{i}\n"
        for i in range(k)
    )


# sha256 of `simulate(...).to_jsonl()` at 10,001 steps: three of `tm
# simulate`'s batches.  The cycles run at capacity 2 with every event
# initial, so each channel starts with one token and k to 2k events are
# enabled at every step.
LONG_TRACE_SHA256 = {
    (3, 0): "980bd4804ffd586d3473f14755bf3d71d440166a1bc58ac2f16b2355ef39e2ac",
    (3, 1): "a2b726bcd098c45f5195defb10e04894fdca764f0bd8c32562753c51dfd1f95a",
    (3, 2): "102168f19d1b084b0dfd4cde7df8cbc8f2289ef7ed356d4bbfe5d5d0f9ad2ce8",
    (5, 0): "073aae15de8b5b74e59c0a8ef5fe1f55a2936c5f75730c0b9f68cae3a891fde0",
    (5, 1): "9abb15d03ff670180717208f497e2f89042426efe84c75281244df80723e88c5",
    (5, 2): "c705c2d55c197e331090ee7b3f4672dfdb0efa400c8a0bb73f0f90940bb499fb",
    (7, 0): "2a85f5deb5a9f927a87f9276b32af8935603a88ac844f395bf66c89ca13234c0",
    (7, 1): "a0bee52c0b1a5343f11f83e7b891aee25e3c97e05bc2a756f107d505b266d735",
    (7, 2): "c26d253817a49e4e500f244c677b7222494049a341549bfcd86da57f9ba7f04d",
    ("producer-consumer", 0): "dff735b952b6cab425a2953591f2cda7464ca19205b85b40186f24467d299709",
    ("producer-consumer", 1): "dff735b952b6cab425a2953591f2cda7464ca19205b85b40186f24467d299709",
    ("producer-consumer", 2): "dff735b952b6cab425a2953591f2cda7464ca19205b85b40186f24467d299709",
}


@pytest.mark.parametrize("net, seed", sorted(LONG_TRACE_SHA256, key=str))
def test_long_traces_are_pinned(net, seed):
    if net == "producer-consumer":
        model = load_model(net)
        config = SimConfig(max_steps=10_001, seed=seed)
    else:
        model = assemble_model(parse(_cycles_text(net)))
        config = SimConfig(
            capacities=2, initial_events=frozenset(model.events), max_steps=10_001, seed=seed
        )
    text = simulate(model, config).to_jsonl()
    assert text.count("\n") == 10_001
    assert hashlib.sha256(text.encode()).hexdigest() == LONG_TRACE_SHA256[net, seed]


def test_equal_separate_records_encode_like_shared_ones():
    # `simulate` shares its records; equal records that are separate objects,
    # and records that share a marking, encode alike.
    produce = (("Consume->Produce", 0), ("Produce->Consume", 1))
    consume = (("Consume->Produce", 1), ("Produce->Consume", 0))
    model = load_model("producer-consumer")
    shared = simulate(model, SimConfig(max_steps=6)).firings
    assert shared == (Firing("Produce", produce), Firing("Consume", consume)) * 3
    separate = [Firing(f.event, tuple(list(f.marking))) for f in shared]
    assert len({id(f) for f in separate}) == 6
    assert Trace(tuple(separate)).to_jsonl() == Trace(shared).to_jsonl()
    one_marking = Trace((Firing("Produce", produce), Firing("Consume", produce)))
    lines = one_marking.to_jsonl().splitlines()
    assert [json.loads(line)["event"] for line in lines] == ["Produce", "Consume"]


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


@pytest.mark.parametrize(
    "run, config_type",
    [
        (simulate, SimConfig),
        (reference_simulate, SimConfig),
        (explore_state_space, ExploreConfig),
        (reference_explore_state_space, ExploreConfig),
    ],
)
def test_repeated_behavior_node_is_a_config_error(run, config_type):
    # `assemble_model` never repeats a node; a hand-built graph may.
    behavior = BehaviorGraph(
        ("A", "B", "A", "C", "D"), (("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"))
    )
    model = variant(assemble_model([]), behavior=behavior)
    with pytest.raises(ConfigError, match=r"event\(s\) repeated in the behavior: A$"):
        run(model, config_type(initial_events=frozenset({"A", "C"})))


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


def _parallel_chains(k):
    """`k` independent 3-event chains: 4**k markings, in `k` parts."""
    nodes = tuple(f"c{i}e{j}" for i in range(k) for j in range(3))
    edges = tuple(
        (f"c{i}e{j}", f"c{i}e{j + 1}") for i in range(k) for j in range(2)
    )
    return variant(assemble_model([]), behavior=BehaviorGraph(nodes, edges))


@pytest.mark.parametrize("terminal", [None, frozenset()])
@pytest.mark.parametrize("max_states", [10_000, 500])
def test_truncated_exploration_matches_reference(max_states, terminal):
    # 5 parallel 3-event chains: 4**5 markings, more than Hypothesis draws,
    # so truncation at 500 cuts the breadth-first order mid-level.
    model = _parallel_chains(5)
    config = ExploreConfig(max_states=max_states, terminal_events=terminal)
    result = explore_state_space(model, config)
    assert result == _reference_outcome(model, config)
    assert result.reachable_count == min(4**5, max_states)
    assert result.bounded == (max_states >= 4**5)
    # With an empty terminal set the drained marking is a deadlock, found
    # also when the breadth-first order would meet it past the limit.
    assert len(result.deadlocks) == (terminal is not None)


def _assert_net_matches_reference(model, config):
    """`build_net`'s tables against the reference net's channels: `near[p]`
    keys exactly the events with an input channel that share a channel with
    p; the initial marking, its enabled events and the sinks agree."""
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
        assert set(net.near[p]) == {position[n] for n in shared & tested}
    assert [net.nodes[p] for p in net.enabled] == ref.enabled_nodes(ref.initial)
    assert net.decode(net.initial) == ref.marking_items(ref.initial)
    assert net.sinks == tuple(n for n in ref.nodes if not ref.outgoing[n])

    # The parts, numbered by first position, are the components that the
    # channels make of the events.
    component = {name: {name} for name in ref.nodes}
    for ch in ref.channels:
        if ch.src in component and ch.dst in component:
            joined = component[ch.src] | component[ch.dst]
            for name in joined:
                component[name] = joined
    assert list(dict.fromkeys(net.part_of)) == list(range(len(net.part_masks)))
    for p, name in enumerate(ref.nodes):
        assert {net.nodes[q] for q, part in enumerate(net.part_of)
                if part == net.part_of[p]} == component[name]
    # Each channel's field lies in its endpoints' part's mask, and in no
    # mask when neither endpoint is an event.
    for cid, at, mask in net.fields:
        ends = {net.part_of[position[n]] for n in cid.split("->") if n in position}
        holding = {k for k, bits in enumerate(net.part_masks) if bits & mask << at}
        assert holding == ends and len(ends) <= 1
        for k in ends:
            assert mask << at & ~net.part_masks[k] == 0


@pytest.mark.parametrize("channels", ["declared", "inferred"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_net_tables_match_reference_on_fixtures(name, channels):
    model, config = load_model(name), ExploreConfig(channels=channels)
    _assert_net_matches_reference(model, config)
    # The window's daylight and ventilation share no chronology edge.
    assert len(build_net(model, config).part_masks) == (2 if name == "window" else 1)


def _random_graph(draw, prefix):
    """Events `{prefix}0`, `{prefix}1`, ... and channels among them: cycles,
    sources, self-loops, no repeated edge."""
    nodes = tuple(f"{prefix}{i}" for i in range(draw(st.integers(1, 5))))
    pairs = [(a, b) for a in nodes for b in nodes]
    ring = list(zip(nodes, nodes[1:] + nodes[:1])) if draw(st.booleans()) else []
    extra = draw(st.lists(st.sampled_from(pairs), max_size=7))
    return nodes, list(dict.fromkeys(ring + extra))


def _net_inputs(draw, nodes, edges):
    """Capacities, initial events (maybe one outside the net) and terminal
    events for a net on `nodes` and `edges`."""
    if draw(st.booleans()):
        capacities = draw(st.integers(1, 9))
    else:
        capacities = {e: draw(st.integers(1, 9)) for e in edges if draw(st.booleans())}
    initial = draw(st.none() | st.frozensets(st.sampled_from(nodes + ("zz",)), max_size=3))
    terminal = draw(st.none() | st.frozensets(st.sampled_from(nodes), max_size=2))
    return capacities, initial, terminal


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
        nodes, edges = _random_graph(draw, "e")
        model = variant(assemble_model([]), behavior=BehaviorGraph(nodes, tuple(edges)))
        channels = "declared"
    capacities, initial, terminal = _net_inputs(draw, nodes, edges)
    sim = SimConfig(
        capacities=capacities,
        max_steps=draw(st.integers(-1, 200)),
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


def _reference_outcome(model, config):
    """What `explore_state_space` gives (or the type it raises): the count
    and `bounded` of the breadth-first reference, and its deadlocks, which
    are those of its run without the limit when `max_states` cuts it."""
    cut = _outcome(reference_explore_state_space, model, config)
    if isinstance(cut, type) or cut.bounded:
        return cut
    whole = reference_explore_state_space(model, ExploreConfig(
        capacities=config.capacities, initial_events=config.initial_events,
        terminal_events=config.terminal_events, channels=config.channels,
        max_states=10**6,
    ))
    assert whole.bounded
    return ExploreResult(cut.reachable_count, whole.deadlocks, bounded=False)


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
    assert result == _reference_outcome(model, explore)
    if isinstance(trace, type) or isinstance(result, type):
        return
    # Each line is the firing's own `json.dumps`, with its index as its step.
    assert trace.to_jsonl().splitlines() == [
        json.dumps({"event": f.event, "marking": dict(f.marking), "step": i}, sort_keys=True)
        for i, f in enumerate(trace.firings)
    ]

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


@st.composite
def token_unions(draw):
    """A disjoint union of 2 to 4 random graphs (as in `token_runs`), each
    with its own event names, and its capacities, initial and terminal
    events."""
    nodes, edges = (), []
    for k in range(draw(st.integers(2, 4))):
        part_nodes, part_edges = _random_graph(draw, f"p{k}e")
        nodes += part_nodes
        edges += part_edges
    model = variant(assemble_model([]), behavior=BehaviorGraph(nodes, tuple(edges)))
    return model, _net_inputs(draw, nodes, edges)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(token_unions(), st.integers(-2, 2))
def test_explore_of_disjoint_nets_matches_reference(union, offset):
    # A union has a part per graph at least, and its markings are the
    # product of the parts' (counted here up to 600).  `max_states` just
    # below the product makes a part spend its share; at or above it, the
    # parts are multiplied.
    model, (capacities, initial, terminal) = union

    def config(max_states):
        return ExploreConfig(capacities=capacities, initial_events=initial,
                             terminal_events=terminal, max_states=max_states)

    whole = _outcome(reference_explore_state_space, model, config(600))
    if isinstance(whole, type):
        assert _outcome(explore_state_space, model, config(600)) is whole
        return
    assert len(build_net(model, config(1)).part_masks) >= 2
    max_states = max(1, whole.reachable_count + offset)
    result = explore_state_space(model, config(max_states))
    assert result == _reference_outcome(model, config(max_states))
    if whole.bounded:
        assert result.bounded == (max_states >= whole.reachable_count)


def test_twelve_parallel_chains_multiply():
    # 4**12 markings: the parts are explored alone and multiplied.
    model = _parallel_chains(12)
    start = time.perf_counter()
    result = explore_state_space(model, ExploreConfig(max_states=20_000_000))
    elapsed = time.perf_counter() - start
    assert result == ExploreResult(reachable_count=4**12, deadlocks=(), bounded=True)
    assert elapsed < 1.0
    # Over the default limit the seventh part spends its share, so the
    # count stops at the limit; the one run still sees every chain drain.
    truncated = explore_state_space(model, ExploreConfig())
    assert truncated == ExploreResult(reachable_count=10_000, deadlocks=(), bounded=False)


def test_channels_with_an_end_outside_the_net():
    # B->X leaves the net and Y->A enters it, so each belongs to the part of
    # its one event; Y->Z has no event end and belongs to no part.  C, with
    # no channel, is a part of its own.
    behavior = BehaviorGraph(
        ("A", "B", "C"), (("A", "B"), ("B", "X"), ("Y", "A"), ("Y", "Z"))
    )
    model = variant(assemble_model([]), behavior=behavior)
    config = ExploreConfig(initial_events=frozenset({"A"}), capacities={("B", "X"): 3})
    _assert_net_matches_reference(model, config)
    net = build_net(model, config)
    assert net.part_of == (0, 0, 1)
    assert net.part_masks[1] == 0
    result = explore_state_space(model, config)
    assert result == reference_explore_state_space(model, config)


def _fork_join(k, starved=False, idle=False):
    """`.tm` text: a fork F into `k` 3-event chains that join at J, with
    4**k + 2 markings.  Starved, J also waits on W, which waits on J, so
    each chain halts with its token before J (4**k + 1 markings).  Idle,
    the first event, I, has no behavior edge."""
    chains = [["F", *(f"C{i}E{j}" for j in range(3)), "J"] for i in range(k)]
    names = ["I"] * idle + ["F", *(e for c in chains for e in c[1:-1]), "J"] + ["W"] * starved
    lines = ["thimac T { process }"]
    lines += [f"event {name} {{ T.process }}" for name in names]
    lines += [f"behavior {' -> '.join(chain)}" for chain in chains]
    lines += ["behavior J -> W -> J"] * starved
    return "\n".join(lines) + "\n"


def test_one_run_decides_the_deadlock_of_a_starved_fork_join(tmp_path, capsys):
    # 4**12 + 1 markings, but one run of 37 firings finds the deadlock:
    # each chain's token waits before J.  So `max_states=1` is enough.
    text = _fork_join(12, starved=True)
    model = assemble_model(parse(text))
    start = time.perf_counter()
    result = explore_state_space(model, ExploreConfig(max_states=1))
    elapsed = time.perf_counter() - start
    assert (result.reachable_count, result.bounded) == (1, False)
    (deadlock,) = result.deadlocks
    assert {cid: n for cid, n in deadlock if n} == {f"C{i}E2->J": 1 for i in range(12)}
    assert elapsed < 0.1
    f = tmp_path / "starved.tm"
    f.write_text(text, encoding="utf-8")
    assert cli.run(["explore", str(f), "--max-states", "1"]) == cli.LIMIT
    out, err = capsys.readouterr()
    assert out == result.to_json() + "\n"
    assert "reachableCount is partial" in err


def test_a_truncated_net_is_searched_once_per_part(monkeypatch):
    # The idle event, with no channel, is a part of its own.  Over the
    # limit, each part is searched once, up to its share, and the whole
    # net is not searched again.
    model = assemble_model(parse(_fork_join(7, idle=True)))
    config = ExploreConfig(initial_events=frozenset({"F"}))
    calls = []
    search = sim._search

    def counted(net, start, enabled, max_states):
        calls.append((start, max_states))
        return search(net, start, enabled, max_states)

    monkeypatch.setattr(sim, "_search", counted)
    result = explore_state_space(model, config)
    assert result == ExploreResult(reachable_count=10_000, deadlocks=(), bounded=False)
    net = build_net(model, config)
    assert net.part_masks[0] == 0 and len(net.part_masks) == 2
    assert calls == [(net.initial & mask, 10_000) for mask in net.part_masks]


def test_a_long_run_s_deadlock_is_solved_without_running_it(tmp_path, capsys):
    # One token laps a 1,000-event ring, and each time R0 fires it also puts
    # a token on R0->D.  D never fires: it waits on W, which waits on V,
    # which waits on W.  So the net halts when R0->D is full, after about
    # 2 M firings.
    names = [f"R{i}" for i in range(1000)]
    text = "thimac T { process }\n"
    text += "".join(f"event {n} {{ T.process }}\n" for n in names + ["D", "W", "V"])
    text += f"behavior {' -> '.join(names + names[:1])}\n"
    text += "behavior R0 -> D\nbehavior W -> D\nbehavior W -> V -> W\n"
    model = assemble_model(parse(text))
    start = time.perf_counter()
    result = explore_state_space(model, ExploreConfig(capacities=2000, max_states=1))
    elapsed = time.perf_counter() - start
    (deadlock,) = result.deadlocks
    assert {cid: n for cid, n in deadlock if n} == {"R0->D": 2000, "R999->R0": 1}
    assert len(deadlock) == 1004 and elapsed < 0.1
    f = tmp_path / "ring.tm"
    f.write_text(text, encoding="utf-8")
    assert cli.run(["explore", str(f), "--capacity", "2000", "--max-states", "1"]) == cli.LIMIT
    out, err = capsys.readouterr()
    assert out == result.to_json() + "\n"
    assert "the deadlocks are exact" in err


def _trigger_model(names, edges):
    """A model of the events `names`, E0, E1, ..., with the chronology
    `edges`.  Its triggers join the same pairs of distinct events, so in
    either channel mode the net is that graph (less its self-loops under
    "inferred")."""
    text = "".join(f"thimac T{i} {{ process }}\nevent E{i} {{ T{i}.process }}\n"
                   for i in range(len(names)))
    text += "".join(f"trigger T{a[1:]}.process ~> T{b[1:]}.process\n" for a, b in edges if a != b)
    return variant(assemble_model(parse(text)), behavior=BehaviorGraph(tuple(names), tuple(edges)))


@st.composite
def halting_nets(draw):
    """A model of 1 to 8 events (see `_trigger_model`) and one explore
    config.  The chronology is a random graph with cycles and self-loops,
    often of several parts.  Capacities 1 to 4, random initial events, and
    no terminal event, so every halt is a deadlock."""
    names = [f"E{i}" for i in range(draw(st.integers(1, 8)))]
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    ring = list(zip(names, names[1:] + names[:1])) if draw(st.booleans()) else []
    edges = list(dict.fromkeys(ring + draw(st.lists(pairs, max_size=10))))
    model = _trigger_model(names, edges)
    channels = draw(st.sampled_from(["declared", "inferred"]))
    if channels == "inferred":
        edges = [(a, b) for a, b in edges if a != b]
    if draw(st.booleans()):
        capacities = draw(st.integers(1, 4))
    else:
        capacities = {e: draw(st.integers(1, 4)) for e in edges if draw(st.booleans())}
    initial = draw(st.none() | st.frozensets(st.sampled_from(names)))
    config = ExploreConfig(capacities=capacities, initial_events=initial, channels=channels,
                           terminal_events=frozenset(), max_states=10**5)
    return model, config


@settings(max_examples=300, derandomize=True, deadline=None)
@given(halting_nets())
def test_one_run_ends_at_the_only_halted_marking(run):
    # The net is persistent, so it halts at one marking or none, and every
    # run ends there: the solve finds it without one.
    model, config = run
    reference = reference_explore_state_space(model, config)
    assume(reference.bounded)
    assert len(reference.deadlocks) <= 1
    net = build_net(model, config)
    halted = sim._halt(net)
    assert reference.deadlocks == (() if halted is None else (net.decode(halted),))


def _larger_net(rng):
    """A model of 2 to 40 events (see `_trigger_model`) and one explore
    config, drawn from `rng`.  One to four parts, each a ring or a chain,
    with a join of up to three events into one, random edges and
    self-loops.  Capacities 1 to 6, random initial events, either channel
    mode."""
    names = [f"E{i}" for i in range(rng.randint(2, 40))]
    cuts = sorted(rng.sample(range(1, len(names)), min(rng.randint(0, 3), len(names) - 1)))
    edges = []
    for part in (names[a:b] for a, b in zip([0, *cuts], [*cuts, len(names)])):
        edges += zip(part, part[1:] + part[:1] if rng.random() < 0.5 else part[1:])
        join = rng.choice(part)
        edges += [(rng.choice(part), join) for _ in range(rng.randint(0, 3))]
        edges += [(rng.choice(part), rng.choice(part)) for _ in range(rng.randint(0, 4))]
        edges += [(e, e) for e in rng.sample(part, rng.randint(0, min(2, len(part))))]
    edges = list(dict.fromkeys(edges))
    model = _trigger_model(names, edges)
    channels = rng.choice(["declared", "inferred"])
    if channels == "inferred":
        edges = [(a, b) for a, b in edges if a != b]
    if rng.random() < 0.5:
        capacities = rng.randint(1, 6)
    else:
        capacities = {e: rng.randint(1, 6) for e in edges if rng.random() < 0.5}
    initial = rng.sample(names, rng.randint(0, min(3, len(names))))
    initial = None if rng.random() < 0.3 else frozenset(initial)
    return model, ExploreConfig(capacities=capacities, initial_events=initial, channels=channels)


def test_the_solve_matches_a_run_on_larger_nets():
    # Nets too large for the breadth-first reference: the run that fires
    # the lowest enabled event, to its halt or to a repeat, is the oracle.
    never = 0
    for seed in range(400):
        net = build_net(*_larger_net(random.Random(seed)))
        halted = sim._halt(net)
        assert halted == reference_halt(net, 10**6), seed
        never += halted is None
    assert 40 < never < 360  # both verdicts are drawn often
