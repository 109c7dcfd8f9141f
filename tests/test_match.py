"""Simplification, signatures, isomorphism, and shared functionality."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import (
    AmbiguousSpliceError,
    MatchPolicy,
    Severity,
    StageKind,
    assemble_model,
    canonical_signature,
    check_static,
    find_shared_functionality,
    isomorphic,
    parse,
    simplify,
    verify_mapping,
)
from tmkit.match import STRICT, NodeMapping, signature

from helpers import (
    brute_force_isomorphic,
    brute_force_mcs_size,
    digraph_pairs,
    embedding_mcs_size,
    induced_subgraph,
    load_model,
    make_graph,
    permute_graph,
    random_digraph,
    reference_isomorphic,
    reference_signature,
    scan_adjacency,
    scan_verify_mapping,
    weakly_connected,
)

C, P = StageKind.CREATE, StageKind.PROCESS
ROLES_OFF = MatchPolicy(match_role_names=False)
THINGS_OFF = MatchPolicy(match_thing_labels=False)


def simplify_text(text):
    return simplify(assemble_model(parse(text)))


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------

def test_full_chain_splices_to_one_edge():
    g = simplify_text(
        "flow Thing: A.create -> A.release -> A.transfer -> B.transfer "
        "-> B.receive -> B.process"
    )
    assert [(n.id, n.role, n.kind) for n in g.nodes] == [
        ("A.create", "A", C),
        ("B.process", "B", P),
    ]
    assert [(e.src, e.dst, e.kind, e.thing) for e in g.edges] == [
        ("A.create", "B.process", "flow", "Thing")
    ]


def test_ladder_of_elided_diamonds_splices_in_linear_time():
    # Each rung X{i}.transfer -> Y{i}a|b.transfer -> X{i+1}.transfer doubles
    # the simple paths from S to T; the splice walk must not list them.
    k = 20
    lines = ["flow t: S.create -> S.release -> S.transfer -> X0.transfer"]
    for i in range(k):
        for side in "ab":
            lines.append(
                f"flow t: X{i}.transfer -> Y{i}{side}.transfer -> X{i + 1}.transfer"
            )
    lines.append(f"flow t: X{k}.transfer -> T.transfer -> T.receive -> T.process")
    model = assemble_model(parse("\n".join(lines) + "\n"))
    assert not [d for d in check_static(model) if d.severity is Severity.ERROR]
    start = time.perf_counter()
    g = simplify(model)
    elapsed = time.perf_counter() - start
    assert [n.id for n in g.nodes] == ["S.create", "T.process"]
    assert [(e.src, e.dst) for e in g.edges] == [("S.create", "T.process")]
    assert elapsed < 1.0


def test_boundary_only_model_gets_env_nodes():
    g = simplify_text(
        "flow Thing: A.release -> A.transfer -> B.transfer -> B.receive"
    )
    assert all(n.is_env for n in g.nodes)
    assert len(g.nodes) == 2
    (edge,) = g.edges
    assert edge.src == "env:A.release"
    assert edge.dst == "env:B.receive"


def test_trigger_endpoints_remap_through_elision():
    g = simplify_text(
        "flow Thing: A.create -> A.release -> A.transfer -> B.transfer -> B.receive -> B.process\n"
        "trigger B.receive ~> C.create\n"
    )
    assert ("A.create", "C.create", "trigger", "") in [
        (e.src, e.dst, e.kind, e.thing) for e in g.edges
    ]


def test_ambiguous_splice_reported():
    with pytest.raises(AmbiguousSpliceError) as exc_info:
        simplify_text(
            "flow X: A.create -> A.release -> A.transfer -> B.transfer -> B.receive -> B.process\n"
            "flow Y: A.release -> A.transfer -> C.transfer -> C.receive -> C.process\n"
        )
    assert exc_info.value.stage.kind in (
        StageKind.RELEASE,
        StageKind.TRANSFER,
    )


def test_pay_service_nodes_are_exactly_create_and_process_stages():
    model = load_model("pay-service")
    g = simplify(model)
    expected = {
        str(ref)
        for ref in model.stage_refs()
        if ref.kind in (StageKind.CREATE, StageKind.PROCESS)
    }
    assert {n.id for n in g.nodes} == expected
    assert len(g.nodes) == 13
    assert not any(n.is_env for n in g.nodes)


def test_edge_list_text_is_sorted():
    g = simplify(load_model("pump"))
    lines = g.edge_list_text().splitlines()
    assert lines == sorted(lines)
    assert "env:Pump.transfer -> Pump.process [flow, Water]" in lines


# ---------------------------------------------------------------------------
# canonical_signature
# ---------------------------------------------------------------------------

def test_empty_graph_signature_constant():
    assert canonical_signature(make_graph([], [])) == "tmg:0:0:empty"


def test_signature_invariant_under_permutation():
    rng = random.Random(7)
    for name in ("pump", "coffee-mill", "pay-service"):
        g = simplify(load_model(name))
        sig = canonical_signature(g)
        for _ in range(20):
            assert canonical_signature(permute_graph(g, rng)) == sig


def test_signature_distinguishes_edge_labels():
    g1 = make_graph(
        [("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "water")]
    )
    g2 = make_graph(
        [("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "steam")]
    )
    assert canonical_signature(g1) != canonical_signature(g2)


def test_signature_distinguishes_edge_kind():
    g1 = make_graph([("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "")])
    g2 = make_graph([("a", "A", C), ("b", "B", P)], [("a", "b", "trigger", "")])
    assert canonical_signature(g1) != canonical_signature(g2)


def test_signature_policy_projection():
    g1 = make_graph([("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "x")])
    g2 = make_graph([("c", "Q", C), ("d", "R", P)], [("c", "d", "flow", "x")])
    assert signature(g1, STRICT) != signature(g2, STRICT)
    assert signature(g1, ROLES_OFF) == signature(g2, ROLES_OFF)


# ---------------------------------------------------------------------------
# isomorphic
# ---------------------------------------------------------------------------

def test_self_isomorphism_under_permutation():
    rng = random.Random(99)
    g = simplify(load_model("coffee-mill"))
    for _ in range(10):
        permuted = permute_graph(g, rng)
        mapping = isomorphic(g, permuted)
        assert mapping is not None
        assert verify_mapping(g, permuted, mapping)


def test_mapping_preserves_label_classes():
    rng = random.Random(3)
    g = simplify(load_model("boiling"))
    permuted = permute_graph(g, rng)
    mapping = isomorphic(g, permuted)
    labels2 = {n.id: n.label() for n in permuted.nodes}
    for u, w in mapping.as_dict().items():
        assert g.node_by_id(u).label() == labels2[w]


def test_pay_service_duplicates_add_service_alt():
    gp = simplify(load_model("pay-service"))
    ga = simplify(load_model("add-service-alt"))
    mapping = isomorphic(gp, ga, ROLES_OFF)
    assert mapping is not None
    assert verify_mapping(gp, ga, mapping, ROLES_OFF)
    assert isomorphic(gp, ga, STRICT) is None


def test_isomorphic_refines_each_graph_once(monkeypatch):
    from tmkit import match

    calls = []
    refine = match._refine_colors

    def counting(g, policy):
        calls.append(g)
        return refine(g, policy)

    monkeypatch.setattr(match, "_refine_colors", counting)
    gp = simplify(load_model("pay-service"))
    ga = simplify(load_model("add-service-alt"))
    assert isomorphic(gp, ga, ROLES_OFF) is not None
    assert calls == [gp, ga]


def test_returned_mapping_is_lexicographically_least():
    # Two disconnected identical 2-cycles: the least mapping keeps the
    # lexicographically first candidates for the first nodes.
    nodes = [("a1", "X", C), ("a2", "X", P), ("b1", "X", C), ("b2", "X", P)]
    edges = [
        ("a1", "a2", "flow", ""),
        ("a2", "a1", "trigger", ""),
        ("b1", "b2", "flow", ""),
        ("b2", "b1", "trigger", ""),
    ]
    g = make_graph(nodes, edges)
    mapping = isomorphic(g, g, ROLES_OFF)
    assert mapping.as_dict() == {"a1": "a1", "a2": "a2", "b1": "b1", "b2": "b2"}

    # Two directed 6-cycles, every node one colour.  v1 sits three steps
    # from v0; its least candidate w2 (two steps) fits v0 alone, but then
    # v2 has nowhere to go, so the search must back up and take w3.
    cycle1 = ["v0", "v2", "v3", "v1", "v4", "v5"]
    cycle2 = [f"w{i}" for i in range(6)]
    g1, g2 = (
        make_graph(
            [(v, "X", C) for v in cycle],
            [(a, b, "flow", "") for a, b in zip(cycle, cycle[1:] + cycle[:1])],
        )
        for cycle in (cycle1, cycle2)
    )
    assert isomorphic(g1, g2).as_dict() == {
        "v0": "w0", "v1": "w3", "v2": "w1", "v3": "w2", "v4": "w4", "v5": "w5"
    }


def test_isomorphic_maps_graphs_deeper_than_the_recursion_limit():
    # One search level per node: a 1,300-node chain maps without a
    # RecursionError.  Distinct thing labels give every node its own
    # colour after one refinement round, so the test stays fast.
    n = 1300
    nodes = [(f"v{i}", "X", P) for i in range(n)]
    edges = [(f"v{i}", f"v{i + 1}", "flow", f"t{i}") for i in range(n - 1)]
    g = make_graph(nodes, edges)
    permuted = permute_graph(g, random.Random(8))
    mapping = isomorphic(g, permuted)
    assert mapping is not None and len(mapping) == n
    assert verify_mapping(g, permuted, mapping)


def test_non_isomorphic_small_digraphs_rejected():
    g1 = make_graph(
        [("a", "", C), ("b", "", C), ("c", "", C)],
        [("a", "b", "flow", ""), ("b", "c", "flow", "")],
    )
    g2 = make_graph(
        [("x", "", C), ("y", "", C), ("z", "", C)],
        [("x", "y", "flow", ""), ("x", "z", "flow", "")],
    )
    assert isomorphic(g1, g2, ROLES_OFF) is None
    assert brute_force_isomorphic(g1, g2, ROLES_OFF) is None


def test_agrees_with_brute_force_on_random_pairs():
    # The second draw adds self-loops and parallel edges, which the
    # feasibility rule compares as loops and per-neighbour label counts.
    for seed, extra in ((4242, {}), (4343, dict(loops=True, parallel=True))):
        rng = random.Random(seed)
        draw = dict(labels=("r", "s"), things=("", "t"), **extra)
        for trial in range(60):
            n = rng.randint(2, 5)
            g1 = random_digraph(rng, n, **draw)
            if trial % 2:
                g2 = permute_graph(g1, rng)
            else:
                g2 = random_digraph(rng, n, **draw)
            ours = isomorphic(g1, g2, ROLES_OFF)
            brute = brute_force_isomorphic(g1, g2, ROLES_OFF)
            assert (ours is None) == (brute is None), (g1, g2)
            if ours is not None:
                assert verify_mapping(g1, g2, ours, ROLES_OFF)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(pair=digraph_pairs(), data=st.data())
def test_index_and_search_agree_with_the_scans(pair, data):
    g1, g2 = pair
    ids1 = [n.id for n in g1.nodes]
    ids2 = data.draw(st.permutations([n.id for n in g2.nodes]))
    partial = dict(zip(ids1, ids2[: data.draw(st.integers(0, len(ids2)))]))
    for policy in (STRICT, ROLES_OFF, THINGS_OFF):
        for g in pair:
            assert g.adjacency(policy) == scan_adjacency(g, policy)
            assert g.adjacency(policy) is g.adjacency(policy)
            assert signature(g, policy) == reference_signature(g, policy)
        found = isomorphic(g1, g2, policy)
        assert found == reference_isomorphic(g1, g2, policy)
        candidates = [partial] + ([found.as_dict()] if found else [])
        for pairs in candidates:
            expected = scan_verify_mapping(g1, g2, pairs, policy)
            assert verify_mapping(g1, g2, NodeMapping(tuple(pairs.items())), policy) == expected


# ---------------------------------------------------------------------------
# find_shared_functionality
# ---------------------------------------------------------------------------

def test_identical_graphs_share_everything():
    g = simplify(load_model("pump"))
    shared = find_shared_functionality(g, g, min_size=2)
    assert shared.matches
    mapping, size = shared.matches[0]
    assert size == len(g.nodes)
    assert mapping.as_dict() == {n.id: n.id for n in g.nodes}
    assert not shared.approximate


def test_pay_service_fragment_inside_full_add_service():
    gp = simplify(load_model("pay-service"))
    gf = simplify(load_model("add-service"))
    shared = find_shared_functionality(gp, gf, min_size=2)
    assert not shared.approximate
    mapping, size = shared.matches[0]
    assert size == 13
    targets = set(mapping.as_dict().values())
    # the largest shared fragment is the alternative flow, not the menu
    # or the main flow
    assert all(".Menu." not in t and "KnownService" not in t for t in targets)
    assert "System.ServiceRecord.create" in targets


def test_min_size_filters_small_fragments():
    gp = simplify(load_model("pay-service"))
    gf = simplify(load_model("add-service"))
    shared = find_shared_functionality(gp, gf, min_size=13)
    assert all(size >= 13 for _, size in shared.matches)
    assert shared.matches


def test_min_size_below_two_rejected():
    g = simplify(load_model("pump"))
    with pytest.raises(ValueError):
        find_shared_functionality(g, g, min_size=1)


def test_planted_fragment_is_found():
    rng = random.Random(17)
    # A distinctive 4-node labeled path planted into two otherwise
    # unrelated random graphs.
    fragment_nodes = [
        ("f0", "seed0", C),
        ("f1", "seed1", P),
        ("f2", "seed2", C),
        ("f3", "seed3", P),
    ]
    fragment_edges = [
        ("f0", "f1", "flow", "alpha"),
        ("f1", "f2", "trigger", ""),
        ("f2", "f3", "flow", "beta"),
    ]

    def host(prefix):
        extra_nodes = [(f"{prefix}{i}", "bulk", C) for i in range(4)]
        extra_edges = [
            (f"{prefix}0", f"{prefix}1", "flow", "x"),
            (f"{prefix}2", f"{prefix}3", "trigger", ""),
            (f"{prefix}1", "f0", "flow", "bridge"),
        ]
        return make_graph(fragment_nodes + extra_nodes, fragment_edges + extra_edges)

    g1, g2 = host("g"), host("h")
    shared = find_shared_functionality(g1, g2, min_size=4)
    assert shared.matches
    _, size = shared.matches[0]
    assert size >= 4
    planted = {"f0", "f1", "f2", "f3"}
    found_sets = [set(m.as_dict()) for m, _ in shared.matches]
    assert any(planted <= s for s in found_sets)


def test_shared_fragments_are_valid_mappings():
    gp = simplify(load_model("pay-service"))
    gf = simplify(load_model("add-service"))
    shared = find_shared_functionality(gp, gf, min_size=3)
    for mapping, size in shared.matches:
        assert len(mapping) == size
        assert verify_mapping(gp, gf, mapping, ROLES_OFF)


def test_shared_size_matches_brute_force_on_tiny_graphs():
    rng = random.Random(31)
    for _ in range(15):
        g1 = random_digraph(rng, rng.randint(2, 5), labels=("r", "s"))
        g2 = random_digraph(rng, rng.randint(2, 5), labels=("r", "s"))
        from helpers import brute_force_mcs_size

        expected = brute_force_mcs_size(g1, g2, ROLES_OFF)
        shared = find_shared_functionality(g1, g2, min_size=2, policy=ROLES_OFF)
        got = shared.matches[0][1] if shared.matches else 0
        if expected >= 2:
            assert got == expected
        else:
            assert got == 0


def _random_digraph_pairs(low, high):
    """Two independent random digraphs of `low`-`high` nodes from a seed:
    one role and plain edges, or two roles with self-loops and parallel
    edges."""
    draws = [
        dict(labels=("r",)),
        dict(labels=("r", "s"), things=("", "t"), loops=True, parallel=True),
    ]

    def pair(seed, draw):
        rng = random.Random(seed)
        return tuple(random_digraph(rng, rng.randint(low, high), **draw) for _ in range(2))

    return st.builds(pair, st.integers(0, 2**32), st.sampled_from(draws))


def _assert_greedy_cover(g1, g2, min_size, policy, mcs_size):
    # Each fragment is a maximum common connected induced fragment of the
    # nodes no earlier fragment used (by the `mcs_size` oracle), and what
    # is left holds none of min_size nodes.
    shared = find_shared_functionality(g1, g2, min_size=min_size, policy=policy)
    assert not shared.approximate
    free1, free2 = {n.id for n in g1.nodes}, {n.id for n in g2.nodes}
    sizes = [size for _, size in shared.matches]
    assert sizes == sorted(sizes, reverse=True)
    for mapping, size in shared.matches:
        pairs = mapping.as_dict()
        assert len(pairs) == len(set(pairs.values())) == len(mapping) == size >= min_size
        assert set(pairs) <= free1 and set(pairs.values()) <= free2
        assert weakly_connected(g1, pairs)
        assert verify_mapping(g1, g2, mapping, policy)
        rest1, rest2 = induced_subgraph(g1, free1), induced_subgraph(g2, free2)
        assert size == mcs_size(rest1, rest2, policy)
        free1 -= set(pairs)
        free2 -= set(pairs.values())
    rest1, rest2 = induced_subgraph(g1, free1), induced_subgraph(g2, free2)
    assert mcs_size(rest1, rest2, policy) < min_size


_POLICIES = st.sampled_from([ROLES_OFF, STRICT, THINGS_OFF])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    pair=st.one_of(digraph_pairs(), _random_digraph_pairs(2, 6)),
    min_size=st.integers(2, 3),
    policy=_POLICIES,
)
def test_shared_fragments_are_a_greedy_cover_of_maximum_fragments(pair, min_size, policy):
    _assert_greedy_cover(*pair, min_size, policy, brute_force_mcs_size)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pair=_random_digraph_pairs(6, 9), min_size=st.integers(2, 3), policy=_POLICIES)
def test_greedy_cover_of_larger_graphs_matches_embedding_oracle(pair, min_size, policy):
    _assert_greedy_cover(*pair, min_size, policy, embedding_mcs_size)


def test_thirty_node_paths_give_one_exact_fragment():
    nodes1 = [(f"a{i}", "r", C) for i in range(30)]
    edges1 = [(f"a{i}", f"a{i + 1}", "flow", "x") for i in range(29)]
    nodes2 = [(f"b{i}", "r", C) for i in range(30)]
    edges2 = [(f"b{i}", f"b{i + 1}", "flow", "x") for i in range(29)]
    g1, g2 = make_graph(nodes1, edges1), make_graph(nodes2, edges2)
    shared = find_shared_functionality(g1, g2, min_size=5)
    assert not shared.approximate
    ((mapping, size),) = shared.matches
    assert size == 30
    assert mapping.as_dict() == {f"a{i}": f"b{i}" for i in range(30)}


def test_spent_budget_flags_approximate_and_dedup_exits_three(monkeypatch, capsys):
    from tmkit import cli, match

    gp = simplify(load_model("pay-service"))
    gf = simplify(load_model("add-service"))
    monkeypatch.setattr(match, "SEARCH_NODE_BUDGET", 5)
    shared = find_shared_functionality(gp, gf, min_size=2)
    assert shared.approximate
    assert 0 < len(shared.matches) and shared.matches[0][1] < 13
    for mapping, size in shared.matches:
        assert len(mapping) == size >= 2
        assert verify_mapping(gp, gf, mapping, ROLES_OFF)

    assert cli.run(["dedup", "fixture:pay-service", "fixture:add-service"]) == 3
    err = capsys.readouterr().err
    assert "search-node budget (SEARCH_NODE_BUDGET = 5)" in err
    assert "approximate" in err


def test_shared_results_are_deterministic():
    gp = simplify(load_model("pay-service"))
    gf = simplify(load_model("add-service"))
    a = find_shared_functionality(gp, gf, min_size=2)
    b = find_shared_functionality(gp, gf, min_size=2)
    assert a == b
    sizes = [size for _, size in a.matches]
    assert sizes == sorted(sizes, reverse=True)
