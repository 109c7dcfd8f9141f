"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or the whole suite); every
criterion carries its runtime budget and tolerance inline.
"""

import itertools
import json
import random
import sys
import time

import pytest

from tmkit import (
    ExploreConfig,
    MatchPolicy,
    RenderOptions,
    SimConfig,
    StageKind,
    assemble_model,
    canonical_signature,
    check_behavior,
    check_static,
    explore_state_space,
    find_shared_functionality,
    flow_adjacency_legal,
    format_model,
    infer_dependencies,
    isomorphic,
    nonfunctional_events,
    parse,
    simplify,
    simulate,
    to_dot,
)
from tmkit.behavior import check_all_events
from tmkit.corpus import ALL_NAMES, FIXTURE_NAMES, fixture_source
from tmkit.diagnostics import Severity
from tmkit.model import BehaviorGraph

from helpers import (
    brute_force_isomorphic,
    check_dot_syntax,
    load_model,
    permute_graph,
    random_digraph,
    reference_build_net,
    run_tm,
    variant,
)

ROLES_OFF = MatchPolicy(match_role_names=False)


def _pass(number: int, text: str) -> None:
    sys.__stdout__.write(f"ACCEPTANCE {number:2d}: PASS - {text}\n")
    sys.__stdout__.flush()


def test_criterion_01_adjacency_table_totality():
    start = time.monotonic()
    combos = list(itertools.product(StageKind, StageKind, (True, False)))
    assert len(combos) == 50
    legal = [(s, d, same) for s, d, same in combos if flow_adjacency_legal(s, d, same)]
    assert len(legal) == 8
    same_thimac = {(s, d) for s, d, same in legal if same}
    cross = {(s, d) for s, d, same in legal if not same}
    assert same_thimac == {
        (StageKind.CREATE, StageKind.PROCESS),
        (StageKind.CREATE, StageKind.RELEASE),
        (StageKind.RECEIVE, StageKind.PROCESS),
        (StageKind.RECEIVE, StageKind.RELEASE),
        (StageKind.PROCESS, StageKind.RELEASE),
        (StageKind.RELEASE, StageKind.TRANSFER),
        (StageKind.TRANSFER, StageKind.RECEIVE),
    }
    assert cross == {(StageKind.TRANSFER, StageKind.TRANSFER)}
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(1, f"all 50 combinations checked, exactly 8 legal ({elapsed:.3f}s)")


def test_criterion_02_fixture_validity():
    start = time.monotonic()
    for name in FIXTURE_NAMES:
        model = assemble_model(parse(fixture_source(name)))
        diags = check_static(model) + check_all_events(model) + check_behavior(model)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors == [], (name, errors)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _pass(2, f"all {len(FIXTURE_NAMES)} fixtures check clean ({elapsed:.3f}s)")


def test_criterion_03_chronology_reproduction():
    auto = infer_dependencies(load_model("automobile"))
    assert auto == {("E1", "E2"), ("E2", "E3")}
    mill = infer_dependencies(load_model("coffee-mill"))
    assert mill == {("E1", "E3"), ("E2", "E3"), ("E3", "E4")}
    _pass(3, "automobile and coffee-mill dependency sets match exactly")


def test_criterion_04_nonfunctional_detection():
    model = load_model("pump")
    assert nonfunctional_events(model.behavior, {"E3"}) == {"E4"}
    _pass(4, "pump with goals={E3} yields exactly {E4}")


def test_criterion_05_duplication_detection():
    pay = simplify(load_model("pay-service"))
    alt = simplify(load_model("add-service-alt"))
    full = simplify(load_model("add-service"))
    mapping = isomorphic(pay, alt, ROLES_OFF)
    assert mapping is not None

    result = run_tm(["dedup", "fixture:pay-service", "fixture:add-service-alt"])
    assert result.returncode == 0
    assert json.loads(result.stdout.splitlines()[0])["isomorphic"] is True

    shared = find_shared_functionality(pay, full, min_size=2, policy=ROLES_OFF)
    assert not shared.approximate
    top_mapping, top_size = shared.matches[0]
    assert top_size == 13
    targets = set(top_mapping.as_dict().values())
    alt_nodes = {n.id for n in alt.nodes}
    assert targets == alt_nodes  # the alternative-flow fragment itself
    _pass(5, "pay-service duplicates add-service-alt; largest shared "
             "fragment in full add-service is the 13-node alternative flow")


def _pair_suite(count: int):
    rng = random.Random(20260810)
    pairs = []
    while len(pairs) < count:
        n = rng.choice((2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 7))
        labeled = rng.random() < 0.5
        labels = ("r", "s") if labeled else ("",)
        things = ("", "t") if labeled else ("",)
        g1 = random_digraph(rng, n, labels=labels, things=things)
        style = len(pairs) % 3
        if style == 0:
            g2 = permute_graph(g1, rng)
        elif style == 1:
            g2 = random_digraph(rng, n, labels=labels, things=things)
        else:
            # mutate one edge of a permuted copy
            g2 = permute_graph(g1, rng)
            if g2.edges:
                edges = list(g2.edges)
                victim = edges.pop(rng.randrange(len(edges)))
                g2 = type(g2)(g2.nodes, tuple(edges))
        pairs.append((g1, g2))
    return pairs


def test_criterion_06_isomorphism_oracle_equivalence():
    start = time.monotonic()
    pairs = _pair_suite(520)
    iso_count = 0
    for g1, g2 in pairs:
        ours = isomorphic(g1, g2, ROLES_OFF)
        brute = brute_force_isomorphic(g1, g2, ROLES_OFF)
        assert (ours is None) == (brute is None)
        if ours is not None:
            iso_count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert iso_count > 0 and iso_count < len(pairs)
    _pass(6, f"{len(pairs)} pairs (<=7 nodes, {iso_count} isomorphic) agree "
             f"with brute force 100% ({elapsed:.1f}s)")


def test_criterion_07_permutation_closure():
    start = time.monotonic()
    rng = random.Random(7)
    for name in ALL_NAMES:
        g = simplify(load_model(name))
        sig = canonical_signature(g)
        for _ in range(100):
            permuted = permute_graph(g, rng)
            assert canonical_signature(permuted) == sig, name
            assert isomorphic(g, permuted) is not None, name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _pass(7, f"{len(ALL_NAMES)} corpus graphs x 100 permutations: signature "
             f"invariant, isomorphism found ({elapsed:.1f}s)")


def test_criterion_08_producer_consumer_synchronization():
    model = load_model("producer-consumer")
    trace = simulate(model, SimConfig(max_steps=1000, seed=2))
    assert len(trace.firings) == 1000
    produced = consumed = 0
    for firing in trace.firings:
        if firing.event == "Produce":
            produced += 1
        else:
            consumed += 1
        assert produced - consumed in (0, 1)

    explored = explore_state_space(model, ExploreConfig())
    assert explored.reachable_count == 2
    assert explored.deadlocks == ()

    broken = BehaviorGraph(("Produce", "Consume"), (("Consume", "Produce"),))
    result = explore_state_space(
        variant(model, behavior=broken), ExploreConfig(initial_events=frozenset())
    )
    assert result.reachable_count == 1
    assert result.deadlocks == ((("Consume->Produce", 0),),)
    _pass(8, "alternation invariant over 1000 steps; 2 reachable markings, "
             "no deadlocks; channel removal leaves the initial marking as "
             "the unique deadlock")


def test_criterion_09_simulation_exploration_consistency():
    for name in ALL_NAMES:
        model = load_model(name)
        explored = explore_state_space(model, ExploreConfig(max_states=10_000))
        assert explored.bounded, name
        net = reference_build_net(model, ExploreConfig())
        reach = {net.initial}
        frontier = [net.initial]
        while frontier:
            marking = frontier.pop()
            for node in net.enabled_nodes(marking):
                nxt = net.fire(marking, node)
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        assert len(reach) == explored.reachable_count, name
        reach_items = {net.marking_items(m) for m in reach}
        for seed in range(20):
            trace = simulate(model, SimConfig(max_steps=60, seed=seed))
            for firing in trace.firings:
                assert firing.marking in reach_items, (name, seed)
    _pass(9, f"20 seeded runs per fixture stay inside the explored set "
             f"({len(ALL_NAMES)} fixtures)")


def test_criterion_10_round_trip_stability():
    for name in ALL_NAMES:
        m1 = assemble_model(parse(fixture_source(name)))
        sig1 = canonical_signature(simplify(m1))
        text1 = format_model(m1)
        m2 = assemble_model(parse(text1))
        assert canonical_signature(simplify(m2)) == sig1, name
        text2 = format_model(m2)
        assert text2 == text1, name
    _pass(10, "parse-assemble-format round trip preserves signatures; "
              "fmt is byte-idempotent on all fixtures")


def test_criterion_11_render_well_formedness():
    for name in ALL_NAMES:
        model = load_model(name)
        for view in ("static", "behavior", "simplified"):
            obj = simplify(model) if view == "simplified" else model
            opts = RenderOptions(view=view)
            first = to_dot(obj, opts)
            assert to_dot(obj, opts) == first, (name, view)
            assert check_dot_syntax(first), (name, view)
    _pass(11, "every fixture renders valid, byte-deterministic DOT in all "
              "three views")
