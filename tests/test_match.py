"""Simplification, signatures, isomorphism, and shared functionality."""

import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmkit import (
    AmbiguousSpliceError,
    MatchPolicy,
    SearchLimitError,
    Severity,
    StageKind,
    assemble_model,
    check_static,
    find_shared_functionality,
    isomorphic,
    parse,
    signature,
    simplify,
    verify_mapping,
)
from tmkit import match
from tmkit.corpus import ALL_NAMES
from tmkit.match import STRICT, NodeMapping, _masks
from tmkit.model import AssemblyError, EventDecl, FlowDecl, StageRef, TriggerDecl

from helpers import (
    SRC,
    _reference_partition,
    _reference_refine_colors,
    brute_force_isomorphic,
    brute_force_mcs_size,
    digraph_pairs,
    embedding_mcs_size,
    induced_subgraph,
    load_model,
    make_graph,
    permute_graph,
    random_digraph,
    reference_find_shared_functionality,
    reference_isomorphic,
    reference_signature,
    reference_simplify,
    scan_index,
    scan_stage_refs,
    scan_ties,
    scan_verify_mapping,
    splice_models,
    weakly_connected,
)

C, P = StageKind.CREATE, StageKind.PROCESS
ROLES_OFF = MatchPolicy(match_role_names=False)
THINGS_OFF = MatchPolicy(match_thing_labels=False)
_POLICIES = st.sampled_from([ROLES_OFF, STRICT, THINGS_OFF])


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


def _splice_outcome(run, model):
    """The simplified graph, or the stage an AmbiguousSpliceError names."""
    try:
        return run(model)
    except AmbiguousSpliceError as exc:
        return exc.stage


@settings(max_examples=400, derandomize=True, deadline=None)
@given(model=splice_models())
def test_simplify_matches_the_reference(model):
    assert _splice_outcome(simplify, model) == _splice_outcome(reference_simplify, model)


def test_stages_of_the_grand_thimac_are_an_assembly_error():
    # Only declarations built by hand can name the grand thimac "": no .tm
    # text can, so `simplify` and `fmt` never meet one.
    grand = StageRef("", P)
    for decl in (
        FlowDecl("x", (StageRef("A", C), grand)),
        FlowDecl("y", (grand, StageRef("B", P))),
        TriggerDecl(StageRef("A", C), grand),
        EventDecl("E", (StageRef("A", C), grand)),
    ):
        with pytest.raises(AssemblyError, match="grand thimac") as caught:
            assemble_model([decl])
        assert caught.value.code == "E_ASSEMBLY"


def test_pay_service_nodes_are_exactly_create_and_process_stages():
    model = load_model("pay-service")
    g = simplify(model)
    expected = {
        str(ref)
        for ref in scan_stage_refs(model)
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
# signature
# ---------------------------------------------------------------------------

def test_empty_graph_signature_constant():
    assert signature(make_graph([], [])) == "tmg:0:0:empty"


def test_signature_invariant_under_permutation():
    rng = random.Random(7)
    for name in ("pump", "coffee-mill", "pay-service"):
        g = simplify(load_model(name))
        sig = signature(g)
        for _ in range(20):
            assert signature(permute_graph(g, rng)) == sig


def test_signature_distinguishes_edge_labels():
    g1 = make_graph(
        [("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "water")]
    )
    g2 = make_graph(
        [("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "steam")]
    )
    assert signature(g1) != signature(g2)


def test_signature_distinguishes_edge_kind():
    g1 = make_graph([("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "")])
    g2 = make_graph([("a", "A", C), ("b", "B", P)], [("a", "b", "trigger", "")])
    assert signature(g1) != signature(g2)


def test_signature_policy_projection():
    g1 = make_graph([("a", "A", C), ("b", "B", P)], [("a", "b", "flow", "x")])
    g2 = make_graph([("c", "Q", C), ("d", "R", P)], [("c", "d", "flow", "x")])
    assert signature(g1, STRICT) != signature(g2, STRICT)
    assert signature(g1, ROLES_OFF) == signature(g2, ROLES_OFF)


def test_signature_tells_corpus_graphs_apart_as_the_reference_does():
    graphs = {name: simplify(load_model(name)) for name in ALL_NAMES}
    for policy in (STRICT, ROLES_OFF):
        ours = {name: signature(g, policy) for name, g in graphs.items()}
        reference = {name: reference_signature(g, policy) for name, g in graphs.items()}
        for a in ALL_NAMES:
            for b in ALL_NAMES:
                assert (ours[a] == ours[b]) == (reference[a] == reference[b]), (a, b)


def _colour_classes(g, policy):
    """The node sets of `g`'s refined colours."""
    part = match._Partition.of((g,), policy)
    part.refine()
    return frozenset(
        tuple(sorted(part.ids[x] for x in part.elems[a:b]))
        for a, b in zip(part.start, part.end)
    )


@st.composite
def _sparse_digraphs(draw):
    """A digraph of up to 16 nodes and twice as many edges, with up to four
    roles, self-loops and parallel edges."""
    n = draw(st.integers(1, 16))
    roles = draw(st.sampled_from(["r", "rs", "rst", "rstu"]))
    kinds = st.sampled_from((C, P))
    nodes = [(f"v{i}", draw(st.sampled_from(roles)), draw(kinds)) for i in range(n)]
    labels = st.sampled_from([("flow", ""), ("flow", "t"), ("trigger", "")])
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), labels)
    edges = draw(st.lists(ends, max_size=2 * n))
    return make_graph(nodes, [(f"v{a}", f"v{b}", *label) for a, b, label in edges])


#: Role a's first colour splits role b's colour while that is still queued,
#: and only the larger part, {v1, v4}, tells v1 from v4: each part of a
#: queued colour must be queued.
_SPLIT_WHILE_QUEUED = make_graph(
    [("v0", "b", C), ("v1", "b", C), ("v2", "a", C), ("v3", "a", C), ("v4", "b", C)],
    [("v4", "v1", "flow", ""), ("v2", "v2", "flow", ""), ("v3", "v1", "flow", ""),
     ("v3", "v4", "flow", "")],
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(g=_sparse_digraphs(), seed=st.integers(0, 2**32), policy=_POLICIES)
@example(g=_SPLIT_WHILE_QUEUED, seed=0, policy=STRICT)
def test_refinement_matches_the_reference_and_ignores_names(g, seed, policy):
    # The queue-driven refinement ends in the reference's partition (the
    # coarsest equitable one), and renaming changes no signature.
    reference = _reference_partition(_reference_refine_colors(g, policy))
    assert _colour_classes(g, policy) == reference
    renamed = permute_graph(g, random.Random(seed))
    assert signature(renamed, policy) == signature(g, policy)
    found = isomorphic(g, renamed, policy)
    assert found is not None and verify_mapping(g, renamed, found, policy)


def test_signatures_do_not_depend_on_the_hash_seed():
    # Colours are numbered in processing order, never by set order or
    # hash(), so a fresh interpreter with another string hash seed agrees.
    code = (
        "from tmkit import MatchPolicy, assemble_model, parse, signature, simplify\n"
        "from tmkit.corpus import ALL_NAMES, fixture_source\n"
        "for name in ALL_NAMES:\n"
        "    g = simplify(assemble_model(parse(fixture_source(name))))\n"
        "    print(signature(g), signature(g, MatchPolicy(match_role_names=False)))\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
        )
        for seed in "01"
    ]
    assert [out.returncode for out in outputs] == [0, 0], outputs[0].stderr
    assert len(outputs[0].stdout.splitlines()) == len(ALL_NAMES)
    assert outputs[0].stdout == outputs[1].stdout


def _uniform_path(n):
    nodes = [(f"v{i}", "X", P) for i in range(n)]
    return make_graph(nodes, [(f"v{i}", f"v{i + 1}", "flow", "") for i in range(n - 1)])


def _best_seconds(run, repeats=3):
    """The least wall time of `repeats` calls of `run`, and its last result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_signature_of_a_long_uniform_path_is_fast():
    # One label on every node and edge: refinement peels the path from both
    # ends, one node a step, and a queue of splitters keeps that linear.
    g = _uniform_path(1600)
    seconds, sig = _best_seconds(lambda: signature(g))
    assert sig == signature(permute_graph(g, random.Random(2)))
    assert sig != signature(_uniform_path(1599))
    assert seconds < 0.5


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
    nodes1 = {n.id: n for n in g.nodes}
    labels2 = {n.id: n.label() for n in permuted.nodes}
    for u, w in mapping.as_dict().items():
        assert nodes1[u].label() == labels2[w]


def test_pay_service_duplicates_add_service_alt():
    gp = simplify(load_model("pay-service"))
    ga = simplify(load_model("add-service-alt"))
    mapping = isomorphic(gp, ga, ROLES_OFF)
    assert mapping is not None
    assert verify_mapping(gp, ga, mapping, ROLES_OFF)
    assert isomorphic(gp, ga, STRICT) is None


def test_isomorphic_refines_the_pair_once_jointly(monkeypatch):
    calls = []
    build = match._Partition.of

    def counting(graphs, policy):
        calls.append(graphs)
        return build(graphs, policy)

    monkeypatch.setattr(match._Partition, "of", staticmethod(counting))
    gp = simplify(load_model("pay-service"))
    ga = simplify(load_model("add-service-alt"))
    assert isomorphic(gp, ga, ROLES_OFF) is not None
    assert calls == [(gp, ga)]


def test_matching_builds_one_index_per_graph_and_policy(monkeypatch):
    built = []
    build = match.GraphIndex.of

    def counting(g, policy):
        built.append((g, policy))
        return build(g, policy)

    monkeypatch.setattr(match.GraphIndex, "of", staticmethod(counting))
    gp = simplify(load_model("pay-service"))
    ga = simplify(load_model("add-service-alt"))
    mapping = isomorphic(gp, ga, ROLES_OFF)
    assert find_shared_functionality(gp, ga, policy=ROLES_OFF).matches
    assert verify_mapping(gp, ga, mapping, ROLES_OFF)
    assert signature(gp, ROLES_OFF) == signature(ga, ROLES_OFF)
    assert built == [(gp, ROLES_OFF), (ga, ROLES_OFF)]


@pytest.mark.parametrize(
    "entry", ["signature", "isomorphic", "verify_mapping", "find_shared_functionality"]
)
@pytest.mark.parametrize(
    "nodes, edges, message",
    [
        ([("a", "X", C), ("a", "X", P)], [], "node id 'a' is repeated"),
        ([("a", "X", C)], [("a", "b", "flow", "")], "edge a -> b names an absent node"),
    ],
    ids=["repeated-id", "absent-end"],
)
def test_malformed_graph_is_rejected(entry, nodes, edges, message):
    g = make_graph(nodes, edges)
    run = {
        "signature": lambda: signature(g),
        "isomorphic": lambda: isomorphic(g, g),
        "verify_mapping": lambda: verify_mapping(g, g, NodeMapping((("a", "a"),))),
        "find_shared_functionality": lambda: find_shared_functionality(g, g),
    }[entry]
    with pytest.raises(ValueError, match=message):
        run()


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


def _parallel_and_looped(edges1, edges2):
    """A pair over nodes a, b, c (g1) and x, y, z (g2), one label each."""
    return (
        make_graph([("a", "r", P), ("b", "r", P), ("c", "r", C)], edges1),
        make_graph([("x", "r", P), ("y", "r", P), ("z", "r", C)], edges2),
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(pair=digraph_pairs(), perm=st.permutations(range(6)), cut=st.integers(0, 6))
# Parallel edges with one label, against the same edges renamed.
@example(pair=_parallel_and_looped(
    [("a", "b", "flow", "t"), ("a", "b", "flow", "t"), ("b", "c", "flow", "")],
    [("y", "x", "flow", "t"), ("y", "x", "flow", "t"), ("x", "z", "flow", "")],
), perm=(1, 0, 2, 3, 4, 5), cut=2)
# Parallel edges with two labels (one label when things are ignored).
@example(pair=_parallel_and_looped(
    [("a", "b", "flow", "t"), ("a", "b", "flow", ""), ("b", "a", "trigger", "")],
    [("x", "y", "flow", ""), ("x", "y", "flow", "u"), ("y", "x", "trigger", "")],
), perm=(0, 1, 2, 3, 4, 5), cut=3)
# A self-loop carrying two labels, on a node with other edges.
@example(pair=_parallel_and_looped(
    [("a", "a", "flow", "t"), ("a", "a", "trigger", ""), ("a", "b", "flow", "t")],
    [("x", "x", "trigger", ""), ("x", "x", "flow", "t"), ("x", "y", "flow", "t")],
), perm=(0, 1, 2, 3, 4, 5), cut=1)
# A node whose only edge is a self-loop.
@example(pair=_parallel_and_looped(
    [("c", "c", "flow", "t"), ("a", "b", "flow", "")],
    [("z", "z", "flow", "t"), ("y", "x", "flow", "")],
), perm=(2, 1, 0, 3, 4, 5), cut=3)
def test_index_and_search_agree_with_the_scans(pair, perm, cut):
    g1, g2 = pair
    ids1 = [n.id for n in g1.nodes]
    ids2 = [g2.nodes[i].id for i in perm if i < len(g2.nodes)]
    partial = dict(zip(ids1, ids2[:cut]))
    for policy in (STRICT, ROLES_OFF, THINGS_OFF):
        for g in pair:
            index, scanned = g.index(policy), scan_index(g, policy)
            assert index == scanned
            # The fragment search's neighbour groups, keyed (label, edge
            # labels), are the scanned (edge labels, label) pairs per node.
            *_, groups = _masks(index)
            assert {
                u: frozenset((edges, label) for label, edges in groups[r])
                for r, u in enumerate(index.order)
            } == scan_ties(g, policy)
            assert [list(index.near[u]) for u in index.order] == [
                list(scanned.near[u]) for u in scanned.order
            ]
            assert index is g.index(policy)
        # Signatures tell the pair apart exactly when the reference's do.
        assert (signature(g1, policy) == signature(g2, policy)) == (
            reference_signature(g1, policy) == reference_signature(g2, policy)
        )
        found = isomorphic(g1, g2, policy)
        assert found == reference_isomorphic(g1, g2, policy)
        candidates = [partial] + ([found.as_dict()] if found else [])
        for pairs in candidates:
            expected = scan_verify_mapping(g1, g2, pairs, policy)
            assert verify_mapping(g1, g2, NodeMapping(tuple(pairs.items())), policy) == expected


def _rings(sizes, rng, prefix="n"):
    """Disjoint directed rings of `sizes` one-label process nodes, the names
    shuffled over them."""
    names = [f"{prefix}{i}" for i in range(sum(sizes))]
    rng.shuffle(names)
    edges, at = [], 0
    for size in sizes:
        ring = names[at:at + size]
        at += size
        edges += [(a, b, "flow", "") for a, b in zip(ring, ring[1:] + ring[:1])]
    return make_graph([(v, "X", P) for v in sorted(names)], edges)


@st.composite
def _refinement_blind_pairs(draw):
    """Pairs that colour refinement cannot tell apart, isomorphic or not:
    one ring against k rings, or a 2-regular digraph (each node has one
    edge of each label out and one in) against a renamed copy, a copy with
    two edges' ends swapped, or another such digraph."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        cuts = [0, *sorted(draw(st.sets(st.integers(1, n - 1)))), n]
        sizes = [b - a for a, b in zip(cuts, cuts[1:])]
        rng = random.Random(draw(st.integers(0, 2**32)))
        return _rings([n], rng, "v"), _rings(sizes, rng, "w")

    def regular():
        edges = []
        for thing in ("a", "b"):
            image = draw(st.permutations(range(n)))
            edges += [[i, j, "flow", thing] for i, j in enumerate(image)]
        return edges

    edges1 = regular()
    how = draw(st.sampled_from(["renamed", "rewired", "independent"]))
    edges2 = regular() if how == "independent" else [e[:] for e in edges1]
    if how == "rewired":
        i, j = draw(st.permutations(range(len(edges2))))[:2]
        if edges2[i][3] == edges2[j][3]:
            edges2[i][1], edges2[j][1] = edges2[j][1], edges2[i][1]
    rename = draw(st.permutations(range(n)))
    g1 = make_graph([(f"v{i}", "X", P) for i in range(n)],
                    [(f"v{a}", f"v{b}", k, t) for a, b, k, t in edges1])
    g2 = make_graph([(f"w{i}", "X", P) for i in range(n)],
                    [(f"w{rename[a]}", f"w{rename[b]}", k, t) for a, b, k, t in edges2])
    return g1, g2


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pair=_refinement_blind_pairs())
def test_search_decides_pairs_that_refinement_cannot_tell_apart(pair):
    g1, g2 = pair
    assert signature(g1) == signature(g2)
    found = isomorphic(g1, g2)
    assert found == reference_isomorphic(g1, g2)
    if found is not None:
        assert verify_mapping(g1, g2, found)


def test_one_ring_against_two_rings_is_rejected_quickly():
    # Every node has one edge in and one out, so refinement alone leaves
    # one colour; refining after each tentative pair rejects each start.
    rng = random.Random(12)
    g1, g2 = _rings([200], rng), _rings([100, 100], rng)
    assert signature(g1) == signature(g2)
    seconds, found = _best_seconds(lambda: isomorphic(g1, g2))
    assert found is None
    assert seconds < 0.5


def _trigger_chain_text(names):
    lines = [f"thimac {name} {{ process }}" for name in names]
    lines += [f"trigger {a}.process ~> {b}.process" for a, b in zip(names, names[1:])]
    return "\n".join(lines) + "\n"


def test_an_800_stage_trigger_chain_maps_onto_a_renamed_copy_quickly():
    names = [f"S{i}" for i in range(800)]
    shuffled = [f"T{i}" for i in range(800)]
    random.Random(4).shuffle(shuffled)
    g1, g2 = (
        simplify(assemble_model(parse(_trigger_chain_text(chain))))
        for chain in (names, shuffled)
    )
    seconds, found = _best_seconds(lambda: isomorphic(g1, g2, ROLES_OFF))
    assert found is not None and len(found) == 800
    assert found.as_dict()["S0.process"] == f"{shuffled[0]}.process"
    assert verify_mapping(g1, g2, found, ROLES_OFF)
    assert seconds < 1.0


def test_spent_budget_leaves_isomorphic_undecided(monkeypatch):
    rng = random.Random(6)
    g1, g2 = _rings([12], rng), _rings([6, 6], rng)
    assert isomorphic(g1, g2) is None
    monkeypatch.setattr(match, "SEARCH_NODE_BUDGET", 5)
    with pytest.raises(SearchLimitError, match=r"SEARCH_NODE_BUDGET = 5\)") as exc_info:
        isomorphic(g1, g2)
    assert exc_info.value.budget == 5
    # Each call has its own allowance: a pair that refines to singletons
    # needs one tried pair per node.
    chain = make_graph(
        [(f"v{i}", "X", P) for i in range(5)],
        [(f"v{i}", f"v{i + 1}", "flow", "") for i in range(4)],
    )
    for _ in range(3):
        assert len(isomorphic(chain, chain)) == 5


# ---------------------------------------------------------------------------
# find_shared_functionality
# ---------------------------------------------------------------------------

def test_identical_graphs_share_everything():
    # Fragments are connected, so a graph against itself gives one fragment
    # per weakly connected component of two or more nodes, mapped onto a
    # whole component (an equal one, not always itself), largest first.
    for name in ALL_NAMES:
        g = simplify(load_model(name))
        shared = find_shared_functionality(g, g, min_size=2)
        assert not shared.approximate, name
        sizes = [size for _, size in shared.matches]
        assert sizes == sorted(sizes, reverse=True), name
        joined = {v for e in g.edges if e.src != e.dst for v in (e.src, e.dst)}
        for side in (0, 1):
            covered = set()
            for mapping, size in shared.matches:
                nodes = {pair[side] for pair in mapping.pairs}
                assert len(nodes) == size and weakly_connected(g, nodes), name
                assert all((e.src in nodes) == (e.dst in nodes) for e in g.edges), name
                covered |= nodes
            assert joined <= covered, name


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


def test_a_long_path_of_distinct_roles_covers_itself_quickly():
    # Under STRICT every node has its own label, so there are as many pools
    # as nodes: a search node must not count every pool again.
    n = 2400
    g = make_graph([(f"v{i:04}", f"R{i}", P) for i in range(n)],
                   [(f"v{i:04}", f"v{i + 1:04}", "flow", "x") for i in range(n - 1)])
    seconds, shared = _best_seconds(lambda: find_shared_functionality(g, g, policy=STRICT))
    assert not shared.approximate
    ((mapping, size),) = shared.matches
    assert size == n and all(u == w for u, w in mapping.pairs)
    assert seconds < 0.5


def _request_chain(prefix, thing, n=10):
    """A chain of `n` create -> process flows, each with its own thing
    label, where each process triggers the next create."""
    nodes, edges = [], []
    for i in range(n):
        c, p = f"{prefix}{i}c", f"{prefix}{i}p"
        nodes += [(c, f"{prefix}{i}", C), (p, f"{prefix}{i}", P)]
        edges.append((c, p, "flow", f"{thing}{i}"))
        if i:
            edges.append((f"{prefix}{i - 1}p", c, "trigger", ""))
    return make_graph(nodes, edges)


def test_each_cover_step_stops_at_the_previous_fragment_size(monkeypatch):
    # No flow label is shared, so the cover is the 9 trigger edges, each a
    # fragment of 2.  Once the first is found, every later step stops at its
    # first fragment of 2: 400 search nodes suffice (the whole search of
    # every step takes over 1,000).
    g1, g2 = _request_chain("a", "x"), _request_chain("b", "y")
    full = find_shared_functionality(g1, g2)
    monkeypatch.setattr(match, "SEARCH_NODE_BUDGET", 400)
    shared = find_shared_functionality(g1, g2)
    assert not shared.approximate and shared == full
    assert shared.matches == tuple(
        (NodeMapping(((f"a{i}p", f"b{i}p"), (f"a{i + 1}c", f"b{i + 1}c"))), 2)
        for i in range(9)
    )


def test_the_cover_builds_no_search_on_fewer_than_min_size_unused_nodes(monkeypatch):
    # A 5-node path inside a 6-node one: the first fragment uses every node
    # of g1, so the cover ends without a second search.
    searches = []
    search = match._Search

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(match, "_Search", counted)
    g1 = make_graph([(f"a{i}", "r", C) for i in range(5)],
                    [(f"a{i}", f"a{i + 1}", "flow", "x") for i in range(4)])
    g2 = make_graph([(f"b{i}", "r", C) for i in range(6)],
                    [(f"b{i}", f"b{i + 1}", "flow", "x") for i in range(5)])
    shared = find_shared_functionality(g1, g2)
    assert [size for _, size in shared.matches] == [5]
    assert len(searches) == 1


def _looped_pairs_with_env(low, high):
    """Two independent random digraphs of `low`-`high` nodes from a seed,
    with env nodes, self-loops, parallel edges and two thing labels."""
    def pair(seed):
        rng = random.Random(seed)
        draw = dict(labels=("r", "s", "env"), things=("", "t"), loops=True, parallel=True)
        return tuple(random_digraph(rng, rng.randint(low, high), **draw) for _ in range(2))

    return st.builds(pair, st.integers(0, 2**32))


def _one_label_pair(nodes1, edges1, nodes2, edges2):
    """A pair of one-label graphs whose nodes are numbered a<i> and b<i>."""
    return tuple(
        make_graph([(f"{x}{i}", "r", P) for i in nodes],
                   [(f"{x}{i}", f"{x}{j}", "flow", "") for i, j in edges])
        for x, nodes, edges in (("a", nodes1, edges1), ("b", nodes2, edges2))
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    pair=st.one_of(digraph_pairs(), _looped_pairs_with_env(1, 10)),
    min_size=st.integers(2, 4),
    policy=_POLICIES,
    budget=st.sampled_from([1, 3, 8, 25, 80, match.SEARCH_NODE_BUDGET]),
)
# A class splits into groups of v's neighbours: the group whose first g1
# node comes first is branched on first.
@example(pair=_one_label_pair(
    [0, 1, 3, 5, 9, 10], [(1, 0), (1, 5), (5, 3), (9, 5), (10, 1)],
    [3, 5, 6, 9, 10], [(3, 6), (10, 3), (10, 5)],
), min_size=2, policy=ROLES_OFF, budget=20)
# The nodes of a class that meet neither v nor w come before its groups.
@example(pair=_one_label_pair(
    [0, 2, 3, 7], [(0, 3), (0, 7), (2, 0), (3, 7), (7, 2)],
    [3, 4, 5, 6], [(3, 5), (5, 6), (6, 3), (6, 4)],
), min_size=3, policy=ROLES_OFF, budget=20)
def test_search_matches_the_list_based_reference(pair, min_size, policy, budget):
    # Equal covers at small budgets, approximate ones with their best
    # fragments so far, show that both searches open the same nodes in the
    # same order.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(match, "SEARCH_NODE_BUDGET", budget)
        assert find_shared_functionality(*pair, min_size, policy) == (
            reference_find_shared_functionality(*pair, min_size, policy)
        )


def test_fixture_pairs_match_the_list_based_reference():
    graphs = [simplify(load_model(name)) for name in ALL_NAMES]
    for policy in (STRICT, ROLES_OFF):
        for g1 in graphs:
            for g2 in graphs:
                assert find_shared_functionality(g1, g2, 2, policy) == (
                    reference_find_shared_functionality(g1, g2, 2, policy)
                )


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
