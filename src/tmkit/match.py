"""Release/transfer/receive elision, canonical signatures, labeled-graph
isomorphism, and shared-functionality detection.

Simplification keeps only create and process stages as nodes; every
maximal flow path whose interior is pure release/transfer/receive
collapses to a single labeled edge.  Flow paths that begin or end at the
model boundary get explicit environment nodes so distinct external
sources stay distinct.  The resulting labeled digraphs are what the
duplication analyses compare.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .diagnostics import TMError
from .model import FlowArc, StageKind, StageRef, TMModel

FLOW = "flow"
TRIGGER = "trigger"

#: Label of every environment node.
ENV_ROLE = "env"


class AmbiguousSpliceError(TMError):
    """An elided stage fans out toward two or more distinct create/process
    stages, so the spliced edge would be ambiguous."""

    def __init__(self, stage: StageRef):
        self.stage = stage
        super().__init__(
            f"elided stage {stage} reaches more than one create/process stage"
        )


@dataclass(frozen=True)
class Node:
    id: str
    role: str
    kind: StageKind
    is_env: bool = False

    def label(self, match_role_names: bool = True) -> tuple:
        role = self.role if match_role_names else ""
        return (self.is_env, role, self.kind.value)


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: str  # FLOW or TRIGGER
    thing: str = ""

    def label(self, match_thing_labels: bool = True) -> tuple:
        thing = self.thing if match_thing_labels else ""
        return (self.kind, thing)


@dataclass(frozen=True)
class MatchPolicy:
    match_thing_labels: bool = True
    match_role_names: bool = True


STRICT = MatchPolicy()


@dataclass(frozen=True)
class SimplifiedGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def node_by_id(self, node_id: str) -> Node:
        return self._index[node_id]

    @cached_property
    def _index(self) -> dict[str, Node]:
        return {n.id: n for n in self.nodes}

    def edge_list_text(self) -> str:
        """The sorted-edge-list form used in golden files: one line per
        edge, `fromId -> toId [kind, thing]`."""
        lines = sorted(
            f"{e.src} -> {e.dst} [{e.kind}, {e.thing}]" for e in self.edges
        )
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class NodeMapping:
    """A bijection between (subsets of) two graphs' node sets."""

    pairs: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SharedFunctionality:
    """Maximal common connected fragments, largest first.  `approximate`
    is set when the search was beam-limited instead of exhaustive."""

    matches: tuple[tuple[NodeMapping, int], ...]
    approximate: bool = False


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

_KEEP = (StageKind.CREATE, StageKind.PROCESS)


def simplify(model: TMModel) -> SimplifiedGraph:
    """Collapse the model to its create/process skeleton.

    Requires a statically valid model (zero Error diagnostics); an
    interior elided stage with two distinct create/process successors
    raises AmbiguousSpliceError rather than picking one.
    """
    def flows(ref: StageRef, forward: bool) -> list[FlowArc]:
        arcs = model.arcs_from(ref) if forward else model.arcs_into(ref)
        return [arc for arc in arcs if isinstance(arc, FlowArc)]

    all_refs = model.stage_refs()
    kept = [ref for ref in all_refs if ref.kind in _KEEP]

    nodes: dict[str, Node] = {}
    for ref in kept:
        nodes[str(ref)] = Node(str(ref), ref.thimac, ref.kind)

    def env_node(ref: StageRef) -> str:
        node_id = f"env:{ref}"
        if node_id not in nodes:
            nodes[node_id] = Node(node_id, ENV_ROLE, StageKind.CREATE, is_env=True)
        return node_id

    forward_memo: dict[StageRef, frozenset[StageRef]] = {}
    backward_memo: dict[StageRef, frozenset[StageRef]] = {}

    def endpoints(ref: StageRef, forward: bool) -> frozenset[StageRef]:
        """Create/process stages (or boundary dead ends) reachable from an
        elided stage walking along the flow direction."""
        memo = forward_memo if forward else backward_memo
        if ref in memo:
            return memo[ref]
        result: set[StageRef] = set()
        stack = [(ref, frozenset({ref}))]
        while stack:
            cur, on_path = stack.pop()
            arcs = flows(cur, forward)
            if not arcs:
                result.add(cur)
                continue
            for arc in arcs:
                nxt = arc.target if forward else arc.source
                if nxt.kind in _KEEP:
                    result.add(nxt)
                elif nxt not in on_path:
                    stack.append((nxt, on_path | {nxt}))
        memo[ref] = frozenset(result)
        return memo[ref]

    def splice(ref: StageRef, forward: bool) -> str:
        """Map an arbitrary stage to its node: itself if kept, otherwise
        the unique create/process stage (or boundary) it leads to."""
        if ref.kind in _KEEP:
            return str(ref)
        ends = endpoints(ref, forward)
        if len(ends) > 1:
            raise AmbiguousSpliceError(ref)
        if not ends:
            return env_node(ref)
        end = next(iter(ends))
        return str(end) if end.kind in _KEEP else env_node(end)

    edges: dict[tuple[str, str, str, str], Edge] = {}

    def add_edge(src: str, dst: str, kind: str, thing: str) -> None:
        key = (src, dst, kind, thing)
        if key not in edges:
            edges[key] = Edge(src, dst, kind, thing)

    # Flow edges: walk forward from every path start (a kept stage, or an
    # elided stage nothing flows into).
    starts = [
        ref
        for ref in all_refs
        if ref.kind in _KEEP or not flows(ref, forward=False)
    ]
    for start in starts:
        for arc in flows(start, forward=True):
            src = str(start) if start.kind in _KEEP else env_node(start)
            dst = splice(arc.target, forward=True)
            add_edge(src, dst, FLOW, arc.label)

    # Trigger edges: elided endpoints are remapped to the nearest kept
    # stage along the flow direction (upstream for origins, downstream
    # for destinations).
    for trig in model.triggers:
        src = splice(trig.source, forward=False)
        dst = splice(trig.target, forward=True)
        add_edge(src, dst, TRIGGER, "")

    ordered_nodes = tuple(nodes[nid] for nid in sorted(nodes))
    ordered_edges = tuple(
        edges[k] for k in sorted(edges, key=lambda k: (k[0], k[1], k[2], k[3]))
    )
    return SimplifiedGraph(ordered_nodes, ordered_edges)


# ---------------------------------------------------------------------------
# Canonical signatures (color refinement)
# ---------------------------------------------------------------------------

def _refine_colors(g: SimplifiedGraph, policy: MatchPolicy) -> dict[str, str]:
    """Stable per-node colors from iterated neighborhood refinement.

    Colors are content hashes, so equal structures get equal colors even
    across different graphs.
    """
    colors = {
        n.id: _digest(json.dumps(n.label(policy.match_role_names)))
        for n in g.nodes
    }
    out_adj: dict[str, list[Edge]] = {n.id: [] for n in g.nodes}
    in_adj: dict[str, list[Edge]] = {n.id: [] for n in g.nodes}
    for e in g.edges:
        out_adj[e.src].append(e)
        in_adj[e.dst].append(e)

    for _ in range(max(1, len(g.nodes))):
        new_colors = {}
        for n in g.nodes:
            outs = sorted(
                (list(e.label(policy.match_thing_labels)), colors[e.dst])
                for e in out_adj[n.id]
            )
            ins = sorted(
                (list(e.label(policy.match_thing_labels)), colors[e.src])
                for e in in_adj[n.id]
            )
            new_colors[n.id] = _digest(
                json.dumps([colors[n.id], outs, ins], sort_keys=True)
            )
        if _partition(new_colors) == _partition(colors):
            colors = new_colors
            break
        colors = new_colors
    return colors


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _partition(colors: dict[str, str]) -> frozenset[tuple[str, ...]]:
    groups: dict[str, list[str]] = {}
    for node, color in colors.items():
        groups.setdefault(color, []).append(node)
    return frozenset(tuple(sorted(members)) for members in groups.values())


def signature(g: SimplifiedGraph, policy: MatchPolicy = STRICT) -> str:
    """A string invariant under node renumbering.

    Equal graphs up to renumbering get equal signatures; unequal
    signatures prove non-isomorphism (the converse does not hold).
    """
    return _signature(g, _refine_colors(g, policy))


def _signature(g: SimplifiedGraph, colors: dict[str, str]) -> str:
    if not g.nodes:
        return "tmg:0:0:empty"
    descriptors = sorted(colors[n.id] for n in g.nodes)
    return f"tmg:{len(g.nodes)}:{len(g.edges)}:" + _digest("|".join(descriptors))


def canonical_signature(g: SimplifiedGraph) -> str:
    """Signature under the strict policy (all labels significant)."""
    return signature(g, STRICT)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def _edge_label_multiset(
    edges: Iterable[Edge], policy: MatchPolicy
) -> dict[tuple[str, str], dict[tuple, int]]:
    out: dict[tuple[str, str], dict[tuple, int]] = {}
    for e in edges:
        labels = out.setdefault((e.src, e.dst), {})
        lab = e.label(policy.match_thing_labels)
        labels[lab] = labels.get(lab, 0) + 1
    return out


def _consistent(
    edges1: dict, edges2: dict, mapping: dict[str, str], u: str, w: str
) -> bool:
    """Whether mapping u to w keeps every edge between u and the already
    mapped nodes (and u's self-loops) label-for-label."""
    if edges1.get((u, u)) != edges2.get((w, w)):
        return False
    for v, x in mapping.items():
        if edges1.get((u, v)) != edges2.get((w, x)):
            return False
        if edges1.get((v, u)) != edges2.get((x, w)):
            return False
    return True


def isomorphic(
    g1: SimplifiedGraph, g2: SimplifiedGraph, policy: MatchPolicy = STRICT
) -> NodeMapping | None:
    """Find a label-preserving bijection making the edge sets correspond.

    Stage kinds always have to match; role names and thing labels match
    per the policy.  Returns the lexicographically least valid mapping
    under node id order, or None.  Signature and color-class mismatches
    reject quickly before the backtracking search runs.
    """
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return None
    colors1 = _refine_colors(g1, policy)
    colors2 = _refine_colors(g2, policy)
    if _signature(g1, colors1) != _signature(g2, colors2):
        return None

    by_color: dict[str, list[str]] = {}
    for node in g2.nodes:
        by_color.setdefault(colors2[node.id], []).append(node.id)
    for members in by_color.values():
        members.sort()

    edges1 = _edge_label_multiset(g1.edges, policy)
    edges2 = _edge_label_multiset(g2.edges, policy)
    order = sorted(colors1)

    # Depth-first search with an explicit stack, so graphs of any size stay
    # clear of the recursion limit: pending[i] yields the untried candidates
    # for order[i], and mapping holds order[:len(mapping)] in that order.
    mapping: dict[str, str] = {}
    used: set[str] = set()
    pending: list[Iterator[str]] = []
    while len(mapping) < len(order):
        u = order[len(mapping)]
        if len(pending) == len(mapping):
            pending.append(iter(by_color.get(colors1[u], ())))
        for w in pending[-1]:
            if w not in used and _consistent(edges1, edges2, mapping, u, w):
                mapping[u] = w
                used.add(w)
                break
        else:
            if not mapping:
                return None
            pending.pop()
            used.remove(mapping.popitem()[1])
    return NodeMapping(tuple(sorted(mapping.items())))


def verify_mapping(
    g1: SimplifiedGraph,
    g2: SimplifiedGraph,
    mapping: NodeMapping,
    policy: MatchPolicy = STRICT,
) -> bool:
    """Mechanical validity check: the mapping is injective, preserves the
    policy-selected labels, and carries g1's (induced) edge multiset
    exactly onto g2's."""
    pairs = mapping.as_dict()
    image = set(pairs.values())
    if len(image) != len(pairs):
        return False
    idx1, idx2 = g1._index, g2._index
    for u, w in pairs.items():
        if u not in idx1 or w not in idx2:
            return False
        if idx1[u].label(policy.match_role_names) != idx2[w].label(
            policy.match_role_names
        ):
            return False
    edges1 = _edge_label_multiset(
        (e for e in g1.edges if e.src in pairs and e.dst in pairs), policy
    )
    edges2 = _edge_label_multiset(
        (e for e in g2.edges if e.src in image and e.dst in image), policy
    )
    mapped = {
        (pairs[a], pairs[b]): labels for (a, b), labels in edges1.items()
    }
    return mapped == edges2


# ---------------------------------------------------------------------------
# Shared functionality (maximal common connected subgraphs)
# ---------------------------------------------------------------------------

_EXACT_NODE_LIMIT = 25
_STATE_LIMIT = 500_000


def find_shared_functionality(
    g1: SimplifiedGraph,
    g2: SimplifiedGraph,
    min_size: int = 2,
    policy: MatchPolicy = MatchPolicy(match_role_names=False),
) -> SharedFunctionality:
    """Maximal common connected induced fragments of >= `min_size` nodes.

    Exhaustive and exact while both graphs have at most 25 nodes; larger
    inputs fall back to a bounded search and the result is flagged
    approximate.  Matches come back largest first, deterministically.
    """
    if min_size < 2:
        raise ValueError("min_size must be >= 2")

    exact = max(len(g1.nodes), len(g2.nodes)) <= _EXACT_NODE_LIMIT

    labels1 = {n.id: n.label(policy.match_role_names) for n in g1.nodes}
    labels2 = {n.id: n.label(policy.match_role_names) for n in g2.nodes}
    edges1 = _edge_label_multiset(g1.edges, policy)
    edges2 = _edge_label_multiset(g2.edges, policy)

    adj1: dict[str, set[str]] = {n.id: set() for n in g1.nodes}
    for e in g1.edges:
        adj1[e.src].add(e.dst)
        adj1[e.dst].add(e.src)

    seeds = [
        (u.id, w.id)
        for u in g1.nodes
        for w in g2.nodes
        if labels1[u.id] == labels2[w.id]
        and _consistent(edges1, edges2, {}, u.id, w.id)
    ]

    visited: set[frozenset[tuple[str, str]]] = set()
    maximal: dict[frozenset[tuple[str, str]], dict[str, str]] = {}
    truncated = False

    def extensions(mapping: dict[str, str]) -> list[tuple[str, str]]:
        frontier = set()
        for u in mapping:
            frontier.update(adj1[u])
        frontier -= set(mapping)
        used2 = set(mapping.values())
        out = []
        for u in sorted(frontier):
            for w in sorted(labels2):
                # The cheap label test rejects most pairs, so it goes first.
                if w in used2 or labels1[u] != labels2[w]:
                    continue
                if _consistent(edges1, edges2, mapping, u, w):
                    out.append((u, w))
        return out

    def grow(mapping: dict[str, str]) -> None:
        nonlocal truncated
        key = frozenset(mapping.items())
        if key in visited:
            return
        if len(visited) >= _STATE_LIMIT:
            truncated = True
            return
        visited.add(key)
        exts = extensions(mapping)
        if not exts:
            maximal[key] = dict(mapping)
            return
        if not exact:
            exts = exts[:8]
        for u, w in exts:
            mapping[u] = w
            grow(mapping)
            del mapping[u]

    for u, w in sorted(seeds):
        grow({u: w})

    results = []
    for pairs in maximal.values():
        if len(pairs) >= min_size:
            mapping = NodeMapping(tuple(sorted(pairs.items())))
            results.append((mapping, len(pairs)))
    results.sort(key=lambda item: (-item[1], item[0].pairs))
    return SharedFunctionality(tuple(results), approximate=(not exact) or truncated)
