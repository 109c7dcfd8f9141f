"""Shared test helpers: fixture loading, independent oracles, a DOT
grammar checker, and random graph generators."""

from __future__ import annotations

import itertools
import random
import re

from tmkit import assemble_model, parse
from tmkit.corpus import fixture_source
from tmkit.match import Edge, MatchPolicy, Node, SimplifiedGraph
from tmkit.model import StageKind, TMModel


def load_model(name: str) -> TMModel:
    return assemble_model(parse(fixture_source(name)))


# ---------------------------------------------------------------------------
# Graph construction and permutation
# ---------------------------------------------------------------------------

def make_graph(nodes, edges) -> SimplifiedGraph:
    """nodes: [(id, role, kind)]; edges: [(src, dst, kind, thing)]."""
    return SimplifiedGraph(
        tuple(
            Node(nid, role, kind, is_env=(role == "env"))
            for nid, role, kind in nodes
        ),
        tuple(Edge(*e) for e in edges),
    )


def permute_graph(g: SimplifiedGraph, rng: random.Random) -> SimplifiedGraph:
    """Rename every node id to a fresh random id, keeping labels."""
    ids = [n.id for n in g.nodes]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    rename = {old: f"n{i}_{new}" for i, (old, new) in enumerate(zip(ids, shuffled))}
    nodes = tuple(
        Node(rename[n.id], n.role, n.kind, n.is_env)
        for n in sorted(g.nodes, key=lambda n: rename[n.id])
    )
    edges = tuple(
        Edge(rename[e.src], rename[e.dst], e.kind, e.thing) for e in g.edges
    )
    return SimplifiedGraph(nodes, edges)


def random_digraph(rng: random.Random, n: int, labels=("a",), things=("",)) -> SimplifiedGraph:
    """A random labeled digraph with `n` nodes (no parallel edges)."""
    nodes = [
        (f"v{i}", rng.choice(labels), rng.choice((StageKind.CREATE, StageKind.PROCESS)))
        for i in range(n)
    ]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                kind = rng.choice(("flow", "trigger"))
                thing = rng.choice(things) if kind == "flow" else ""
                edges.append((f"v{i}", f"v{j}", kind, thing))
    return make_graph(nodes, edges)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def brute_force_isomorphic(
    g1: SimplifiedGraph, g2: SimplifiedGraph, policy: MatchPolicy = MatchPolicy()
) -> dict | None:
    """Exhaustive bijection enumeration; usable up to ~7 nodes."""
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return None
    ids1 = sorted(n.id for n in g1.nodes)
    ids2 = sorted(n.id for n in g2.nodes)
    labels1 = {n.id: n.label(policy.match_role_names) for n in g1.nodes}
    labels2 = {n.id: n.label(policy.match_role_names) for n in g2.nodes}

    def edge_multiset(g, mapping=None):
        out = {}
        for e in g.edges:
            key = (e.src, e.dst, e.label(policy.match_thing_labels))
            if mapping:
                key = (mapping[e.src], mapping[e.dst], e.label(policy.match_thing_labels))
            out[key] = out.get(key, 0) + 1
        return out

    target = edge_multiset(g2)
    for perm in itertools.permutations(ids2):
        mapping = dict(zip(ids1, perm))
        if any(labels1[u] != labels2[w] for u, w in mapping.items()):
            continue
        if edge_multiset(g1, mapping) == target:
            return mapping
    return None


def brute_force_mcs_size(
    g1: SimplifiedGraph, g2: SimplifiedGraph, policy: MatchPolicy
) -> int:
    """Size of the maximum common connected induced subgraph, by brute
    force over subset pairs and bijections; usable up to ~6 nodes."""
    ids1 = [n.id for n in g1.nodes]
    ids2 = [n.id for n in g2.nodes]
    labels1 = {n.id: n.label(policy.match_role_names) for n in g1.nodes}
    labels2 = {n.id: n.label(policy.match_role_names) for n in g2.nodes}

    def edge_map(g):
        out = {}
        for e in g.edges:
            key = (e.src, e.dst)
            out.setdefault(key, []).append(e.label(policy.match_thing_labels))
        return {k: sorted(v) for k, v in out.items()}

    em1, em2 = edge_map(g1), edge_map(g2)

    def connected(subset):
        subset = set(subset)
        if not subset:
            return False
        seen = {next(iter(subset))}
        changed = True
        while changed:
            changed = False
            for (a, b) in em1:
                if a in subset and b in subset:
                    if (a in seen) != (b in seen):
                        seen |= {a, b}
                        changed = True
        return seen == subset

    best = 0
    for size in range(min(len(ids1), len(ids2)), 0, -1):
        for subset1 in itertools.combinations(ids1, size):
            if not connected(subset1):
                continue
            for subset2 in itertools.combinations(ids2, size):
                for perm in itertools.permutations(subset2):
                    mapping = dict(zip(subset1, perm))
                    if any(labels1[u] != labels2[w] for u, w in mapping.items()):
                        continue
                    ok = True
                    for u in subset1:
                        for v in subset1:
                            if em1.get((u, v)) != em2.get(
                                (mapping[u], mapping[v])
                            ):
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        return size
        if best:
            break
    return best


def brute_force_reach_goal(edges, nodes, goals) -> set:
    """Nodes that reach a goal, by enumerating simple paths."""
    succ = {n: [] for n in nodes}
    for a, b in edges:
        succ[a].append(b)

    def reaches(start) -> bool:
        if start in goals:
            return True
        stack = [(start, frozenset({start}))]
        while stack:
            cur, seen = stack.pop()
            for nxt in succ[cur]:
                if nxt in goals:
                    return True
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}))
        return False

    return {n for n in nodes if reaches(n)}


def scan_arcs_from(model: TMModel, ref) -> tuple:
    """Arcs whose source is `ref`, by a full scan: flows, then triggers."""
    return tuple(a for a in model.flows + model.triggers if a.source == ref)


def scan_arcs_into(model: TMModel, ref) -> tuple:
    """Arcs whose target is `ref`, by a full scan: flows, then triggers."""
    return tuple(a for a in model.flows + model.triggers if a.target == ref)


def scan_region_arcs(model: TMModel, region) -> list:
    """Arcs with both endpoints in `region`, by a full scan."""
    stages = set(region)
    return [
        a
        for a in model.flows + model.triggers
        if a.source in stages and a.target in stages
    ]


def scan_successors(behavior, name: str) -> tuple:
    """Successors of `name` in a behavior graph, by scanning every edge."""
    return tuple(b for a, b in behavior.edges if a == name)


def bitmap_dependencies(model: TMModel) -> set[tuple[str, str]]:
    """Second, independent dependency computation: per-event membership
    bitmaps intersected against each arc's endpoints."""
    names = list(model.events)
    bit = {name: 1 << i for i, name in enumerate(names)}
    mask: dict = {}
    for event in model.events.values():
        for ref in event.region:
            mask[ref] = mask.get(ref, 0) | bit[event.name]
    pairs = set()
    for arc in list(model.flows) + list(model.triggers):
        src_bits = mask.get(arc.source, 0)
        dst_bits = mask.get(arc.target, 0)
        for a in names:
            if not src_bits & bit[a]:
                continue
            for b in names:
                if a != b and dst_bits & bit[b]:
                    pairs.add((a, b))
    return pairs


# ---------------------------------------------------------------------------
# DOT grammar checker
# ---------------------------------------------------------------------------

_DOT_TOKEN = re.compile(
    r"""\s*(?:
        (?P<comment>//[^\n]*|\#[^\n]*) |
        (?P<string>"(?:[^"\\]|\\.)*") |
        (?P<arrow>->) |
        (?P<punct>[{}\[\];=,]) |
        (?P<number>-?\d+(?:\.\d+)?) |
        (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    )""",
    re.VERBOSE,
)


def check_dot_syntax(text: str) -> bool:
    """Validate text against the DOT subset the renderer may emit:
    `digraph ID { stmt* }` with node, edge, subgraph, and attribute
    statements.  Independent of the renderer."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            return False
        pos = m.end()
        if m.lastgroup != "comment":
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append(("eof", ""))

    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def take(kind=None, value=None):
        tok = tokens[state["i"]]
        if kind and tok[0] != kind:
            return None
        if value and tok[1] != value:
            return None
        state["i"] += 1
        return tok

    def take_id():
        return take("ident") or take("string") or take("number")

    def attr_list() -> bool:
        if not take("punct", "["):
            return True
        while True:
            if take("punct", "]"):
                return True
            if not take_id():
                return False
            if not take("punct", "="):
                return False
            if not take_id():
                return False
            take("punct", ",")

    def stmt_list() -> bool:
        while True:
            if peek() == ("punct", "}"):
                return True
            if peek()[0] == "eof":
                return False
            if peek() == ("ident", "subgraph"):
                take()
                take_id()
                if not take("punct", "{"):
                    return False
                if not stmt_list():
                    return False
                if not take("punct", "}"):
                    return False
                take("punct", ";")
                continue
            if not take_id():
                return False
            if take("punct", "="):
                if not take_id():
                    return False
            elif take("arrow"):
                if not take_id():
                    return False
                while take("arrow"):
                    if not take_id():
                        return False
                if not attr_list():
                    return False
            else:
                if not attr_list():
                    return False
            take("punct", ";")

    if not take("ident", "digraph"):
        return False
    take_id()
    if not take("punct", "{"):
        return False
    if not stmt_list():
        return False
    if not take("punct", "}"):
        return False
    return peek()[0] == "eof"
