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
from collections.abc import Iterator
from functools import cached_property

from .diagnostics import ModelError
from .model import FlowArc, StageKind, StageRef, TMModel
from .records import Record

FLOW = "flow"
TRIGGER = "trigger"

#: Label of every environment node.
ENV_ROLE = "env"


class AmbiguousSpliceError(ModelError):
    """An elided stage fans out toward two or more distinct create/process
    stages, so the spliced edge would be ambiguous."""

    code = "E_AMBIGUOUS_SPLICE"

    def __init__(self, stage: StageRef):
        self.stage = stage
        super().__init__(
            f"elided stage {stage} reaches more than one create/process stage"
        )


class Node(Record):
    id: str
    role: str
    kind: StageKind
    is_env: bool = False

    def label(self, match_role_names: bool = True) -> tuple:
        role = self.role if match_role_names else ""
        return (self.is_env, role, self.kind.value)


class Edge(Record):
    src: str
    dst: str
    kind: str  # FLOW or TRIGGER
    thing: str = ""

    def label(self, match_thing_labels: bool = True) -> tuple:
        thing = self.thing if match_thing_labels else ""
        return (self.kind, thing)


class MatchPolicy(Record):
    match_thing_labels: bool = True
    match_role_names: bool = True


STRICT = MatchPolicy()


class GraphIndex(Record):
    """What matching reads of one simplified graph under one policy, per
    node id.  `SimplifiedGraph.index` builds it and keeps it."""

    #: The node label with the multiset of self-loop labels.
    labels: dict[str, tuple]
    #: Per neighbour, in `order`: the edge labels toward it and from it,
    #: each a sorted tuple of (label, count), or None for no edge.
    near: dict[str, dict[str, tuple]]
    #: Node ids by falling neighbour count, then by id.
    order: list[str]

    @classmethod
    def of(cls, g: SimplifiedGraph, policy: MatchPolicy) -> GraphIndex:
        """The index of `g` from one pass over its edges.  Raises ValueError
        for a repeated node id or an edge that names an absent node."""
        roles, things = policy.match_role_names, policy.match_thing_labels
        labels: dict[str, tuple] = {}
        for n in g.nodes:
            if n.id in labels:
                raise ValueError(f"node id {n.id!r} is repeated")
            labels[n.id] = n.label(roles)
        # Per node and neighbour (itself for a self-loop): the label counts
        # of the edges toward that neighbour and from it.
        counts: dict[str, dict[str, tuple[dict, dict]]] = {u: {} for u in labels}
        for e in g.edges:
            if e.src not in labels or e.dst not in labels:
                raise ValueError(f"edge {e.src} -> {e.dst} names an absent node")
            label = e.label(things)
            for u, x, side in ((e.src, e.dst, 0), (e.dst, e.src, 1)):
                tally = counts[u].setdefault(x, ({}, {}))[side]
                tally[label] = tally.get(label, 0) + 1
        for u, nbrs in counts.items():
            loops = nbrs.pop(u, ({}, {}))[0]
            labels[u] = (labels[u], tuple(sorted(loops.items())) or None)
        order = sorted(counts, key=lambda u: (-len(counts[u]), u))
        rank = {u: i for i, u in enumerate(order)}
        near = {
            u: {
                x: (tuple(sorted(nbrs[x][0].items())) or None,
                    tuple(sorted(nbrs[x][1].items())) or None)
                for x in sorted(nbrs, key=rank.__getitem__)
            }
            for u, nbrs in counts.items()
        }
        return cls(labels, near, order)


class SimplifiedGraph(Record):
    __slots__ = ("__dict__",)  # for the cached indices

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def index(self, policy: MatchPolicy = STRICT) -> GraphIndex:
        """The graph's `GraphIndex` under `policy`, built on first use."""
        if policy not in self._indices:
            self._indices[policy] = GraphIndex.of(self, policy)
        return self._indices[policy]

    @cached_property
    def _indices(self) -> dict[MatchPolicy, GraphIndex]:
        return {}

    def edge_list_text(self) -> str:
        """The sorted-edge-list form used in golden files: one line per
        edge, `fromId -> toId [kind, thing]`."""
        lines = sorted(
            f"{e.src} -> {e.dst} [{e.kind}, {e.thing}]" for e in self.edges
        )
        return "\n".join(lines) + ("\n" if lines else "")


class NodeMapping(Record):
    """A bijection between (subsets of) two graphs' node sets."""

    pairs: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


class SharedFunctionality(Record):
    """A disjoint cover of maximum common connected fragments, largest
    first.  `approximate` is set when the search ran out of its
    `SEARCH_NODE_BUDGET` before the cover was complete."""

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
        seen = {ref}
        stack = [ref]
        while stack:
            cur = stack.pop()
            arcs = flows(cur, forward)
            if not arcs:
                result.add(cur)
                continue
            for arc in arcs:
                nxt = arc.target if forward else arc.source
                if nxt.kind in _KEEP:
                    result.add(nxt)
                elif nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
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
    ordered_edges = tuple(edges[k] for k in sorted(edges))
    return SimplifiedGraph(ordered_nodes, ordered_edges)


# ---------------------------------------------------------------------------
# Canonical signatures (color refinement)
# ---------------------------------------------------------------------------

def _refine_colors(g: SimplifiedGraph, policy: MatchPolicy) -> dict[str, str]:
    """Stable per-node colors from iterated neighborhood refinement.

    Colors are content hashes, so equal structures get equal colors even
    across different graphs.  A new color hashes the old one, so a round
    can only split classes: refinement is stable once their number stops
    growing.
    """
    index = g.index(policy)
    colors = {u: _digest(json.dumps(label)) for u, (label, _) in index.labels.items()}

    # Each node's edges out, then in (a self-loop in both), as (label, other end).
    ends = {u: ([], []) for u in colors}
    for u, (_, loops) in index.labels.items():
        for x, key in [(u, (loops, loops)), *index.near[u].items()]:
            for side, labels in zip(ends[u], key):
                for label, count in labels or ():
                    side += [(list(label), x)] * count

    def tally(side: list) -> list:
        return sorted((label, colors[x]) for label, x in side)

    classes = len(set(colors.values()))
    for _ in range(max(1, len(g.nodes))):
        colors = {
            u: _digest(json.dumps([colors[u], tally(outs), tally(ins)]))
            for u, (outs, ins) in ends.items()
        }
        previous, classes = classes, len(set(colors.values()))
        if classes == previous:
            break
    return colors


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def signature(g: SimplifiedGraph, policy: MatchPolicy = STRICT) -> str:
    """A string invariant under node renumbering.

    Equal graphs up to renumbering get equal signatures; unequal
    signatures prove non-isomorphism (the converse does not hold).
    """
    descriptors = sorted(_refine_colors(g, policy).values())
    if not descriptors:
        return "tmg:0:0:empty"
    return f"tmg:{len(g.nodes)}:{len(g.edges)}:" + _digest("|".join(descriptors))


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def _consistent(near_u: dict, near_w: dict, mapping: dict, used: set) -> bool:
    """Whether mapping u to w, two nodes with equal labels (self-loops
    included), keeps every edge between u and the mapped nodes
    label-for-label.  Only neighbours are read: each mapped neighbour of u
    meets its image with the same labels, and w has no other mapped
    neighbour (VF2's feasibility rule)."""
    mapped = 0
    for v, key in near_u.items():
        if v in mapping:
            if near_w.get(mapping[v]) != key:
                return False
            mapped += 1
    return mapped == sum(x in used for x in near_w)


def isomorphic(
    g1: SimplifiedGraph, g2: SimplifiedGraph, policy: MatchPolicy = STRICT
) -> NodeMapping | None:
    """Find a label-preserving bijection making the edge sets correspond.

    Stage kinds always have to match; role names and thing labels match
    per the policy.  Returns the lexicographically least valid mapping
    under node id order, or None.  Unequal node or edge counts, or unequal
    multisets of refined colors, reject before the backtracking search runs.
    """
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return None
    colors1 = _refine_colors(g1, policy)
    colors2 = _refine_colors(g2, policy)
    if sorted(colors1.values()) != sorted(colors2.values()):
        return None

    index1, index2 = g1.index(policy), g2.index(policy)
    # Candidates by colour and label (self-loops included), in id order.
    by_color: dict[tuple, list[str]] = {}
    for node in sorted(colors2):
        by_color.setdefault((colors2[node], index2.labels[node]), []).append(node)
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
            pending.append(iter(by_color.get((colors1[u], index1.labels[u]), ())))
        for w in pending[-1]:
            if w not in used and _consistent(index1.near[u], index2.near[w], mapping, used):
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
    index1, index2 = g1.index(policy), g2.index(policy)
    pairs = mapping.as_dict()
    image = set(pairs.values())
    return len(image) == len(pairs) and all(
        u in index1.labels
        and index1.labels[u] == index2.labels.get(w)
        and {pairs[v]: key for v, key in index1.near[u].items() if v in pairs}
        == {x: key for x, key in index2.near[w].items() if x in image}
        for u, w in pairs.items()
    )


# ---------------------------------------------------------------------------
# Shared functionality (a disjoint cover of maximum common fragments)
# ---------------------------------------------------------------------------

#: Search nodes one `find_shared_functionality` call may open over its whole
#: cover: each tried pair, and each node left out of the mapping.
SEARCH_NODE_BUDGET = 100_000

#: A label class next to the mapped nodes: unmapped nodes of g1 and of g2
#: that meet every mapped node the same way, so any of its g1 nodes may map
#: to any of its g2 nodes.
_Class = tuple[list[str], list[str]]


def find_shared_functionality(
    g1: SimplifiedGraph,
    g2: SimplifiedGraph,
    min_size: int = 2,
    policy: MatchPolicy = MatchPolicy(match_role_names=False),
) -> SharedFunctionality:
    """A greedy disjoint cover of maximum common connected induced fragments.

    The first fragment is a maximum common connected induced subgraph; each
    later one is a maximum one on the nodes no earlier fragment uses, on
    either side.  The cover stops when the next fragment would have fewer
    than `min_size` nodes, so fragments come back in non-increasing size.
    Of equal fragments the one the search meets first wins: it starts in
    the smallest label class and tries nodes by falling degree, then by id.
    Every fragment is exact unless the search opens `SEARCH_NODE_BUDGET`
    nodes; then the cover ends with the best fragment found so far and the
    result is flagged approximate.
    """
    if min_size < 2:
        raise ValueError("min_size must be >= 2")
    sides = (g1.index(policy), g2.index(policy))
    ties = (_ties(sides[0]), _ties(sides[1]))
    used: tuple[set[str], set[str]] = (set(), set())
    budget = SEARCH_NODE_BUDGET
    matches: list[tuple[NodeMapping, int]] = []
    while budget >= 0:
        search = _Search(sides, ties, used)
        pairs, budget = search.largest(min_size - 1, budget)
        if not pairs:
            break
        matches.append((NodeMapping(tuple(sorted(pairs))), len(pairs)))
        used[0].update(u for u, _ in pairs)
        used[1].update(w for _, w in pairs)
    return SharedFunctionality(tuple(matches), approximate=budget < 0)


def _ties(index: GraphIndex) -> dict[str, frozenset[tuple]]:
    """Per node: the (edge labels, neighbour label) pairs of its neighbours.
    Two nodes with none in common start no fragment of two or more."""
    labels = index.labels
    return {
        u: frozenset((key, labels[x]) for x, key in nbrs.items())
        for u, nbrs in index.near.items()
    }


class _Search:
    """Connected McSplit (McCreesh, Prosser & Trimble, IJCAI 2017) on the
    nodes not yet `used` by the cover.

    Unmapped nodes next to the mapped ones sit in explicit label classes,
    which each search node copies as it splits them.  Every other free node
    waits in its label's pool: these nodes meet no mapped node, so a pool is
    one class that never needs splitting.  Pool membership is shared by the
    whole search: a node leaves its pool when it is mapped, gains a mapped
    neighbour or is left out at the root, and an undo trail puts it back on
    backtracking.  So a search node costs time in the degrees of the pair it
    maps and the size of the classes next to the mapping, not in graph size.
    """

    def __init__(
        self,
        sides: tuple[GraphIndex, GraphIndex],
        ties: tuple[dict, dict],
        used: tuple[set[str], set[str]],
    ):
        self.sides = sides
        self.ties = ties
        #: Per label: its pooled nodes of g1 and of g2, in `order`.
        self.pools: dict[tuple, _Class] = {}
        for u in sides[0].order:
            if u not in used[0]:
                self.pools.setdefault(sides[0].labels[u], ([], []))[0].append(u)
        for w in sides[1].order:
            if w not in used[1] and (pool := self.pools.get(sides[1].labels[w])):
                pool[1].append(w)
        self.pools = {label: pool for label, pool in self.pools.items() if pool[1]}
        # Nodes out of every pool: those of a label the other side lacks
        # and those an earlier fragment used stay out for good.
        members = [
            {u for pool in self.pools.values() for u in pool[side]} for side in (0, 1)
        ]
        self.out = tuple(set(s.labels) - members[side] for side, s in enumerate(sides))
        self.counts = {label: list(map(len, pool)) for label, pool in self.pools.items()}
        #: Sum over pools of the smaller side: what the pools add to a bound.
        self.pooled = sum(min(c) for c in self.counts.values())
        self.trail: list[tuple[int, str]] = []

    def take(self, side: int, x: str) -> None:
        """Take x out of its pool, unless it is out already."""
        if x in self.out[side]:
            return
        self.out[side].add(x)
        self.trail.append((side, x))
        count = self.counts[self.sides[side].labels[x]]
        if count[side] <= count[1 - side]:
            self.pooled -= 1
        count[side] -= 1

    def undo(self, length: int) -> None:
        """Return every node taken since the trail had `length` entries."""
        while len(self.trail) > length:
            side, x = self.trail.pop()
            self.out[side].discard(x)
            count = self.counts[self.sides[side].labels[x]]
            if count[side] < count[1 - side]:
                self.pooled += 1
            count[side] += 1

    def largest(self, floor: int, budget: int) -> tuple[list[tuple[str, str]], int]:
        """A largest common connected induced fragment of more than `floor`
        pairs, or [] if there is none, and the budget left.  A negative
        budget means the search stopped early with the best fragment so far."""
        ties1, ties2 = self.ties
        best: list[tuple[str, str]] = []
        incumbent, target = floor, self.pooled
        mapping: list[tuple[str, str]] = []
        # Depth-first search with an explicit stack.  A frame is a search
        # node: its classes, the class i it branches on (None: a pool, at the
        # root), that class's first g1 node v and its g2 candidates, the
        # choices left for v (j < len(right) maps v to right[j]; the last
        # leaves v out), the node's bound, its mapping size and trail length.
        frame = self._branch([], 0, incumbent)
        stack = [frame] if frame else []
        while stack:
            classes, i, v, right, choices, bound, size, marks = stack[-1]
            del mapping[size:]
            self.undo(marks)
            j = next(choices)
            if bound <= incumbent:
                stack.pop()
                continue
            # A first pair whose nodes have no neighbour in common (same node
            # label, same edge labels) cannot grow: skip it unopened.
            if j < len(right) and not size and ties1[v].isdisjoint(ties2[right[j]]):
                continue
            budget -= 1
            if budget < 0:
                break
            if j < len(right):
                w = right[j]
                mapping.append((v, w))
                if len(mapping) > incumbent:
                    best, incumbent = list(mapping), len(mapping)
                    if incumbent == target:
                        break
                child = self._split(classes, i, j, v, w)
            else:
                # The last choice: below this node v stays unmapped.
                stack.pop()
                if i is None:
                    self.take(0, v)
                    child = classes
                else:
                    left = classes[i][0][1:]
                    rest = [(left, right)] if left else []
                    child = classes[:i] + rest + classes[i + 1:]
            frame = self._branch(child, len(mapping), incumbent)
            if frame:
                stack.append(frame)
        return best, budget

    def _branch(self, classes: list[_Class], size: int, incumbent: int) -> tuple | None:
        """The frame of a search node, or None when McSplit's bound (each
        class and pool adds its smaller side) cannot beat the incumbent or
        nothing may extend the mapping.  The root branches on the pool with
        the smallest larger side, any other node on such a class: only nodes
        next to the mapped ones may join, so fragments stay connected."""
        bound = size + self.pooled + sum(min(map(len, c)) for c in classes)
        if bound <= incumbent:
            return None
        if size:
            if not classes:
                return None
            i = min(range(len(classes)), key=lambda k: max(map(len, classes[k])))
            left, right = classes[i]
            v = left[0]
        else:
            label = min(
                (label for label, count in self.counts.items() if min(count)),
                key=lambda label: max(self.counts[label]),
            )
            i = None
            left, right = self.pools[label]
            v = next(x for x in left if x not in self.out[0])
        choices = iter(range(len(right) + 1))
        return classes, i, v, right, choices, bound, size, len(self.trail)

    def _split(
        self, classes: list[_Class], i: int | None, j: int, v: str, w: str
    ) -> list[_Class]:
        """The classes after mapping v (the first g1 node of class i, or of a
        pool) to its j-th candidate w: each class splits by the edge labels
        its nodes share with v (on the g1 side) or w (on the g2 side), pooled
        neighbours of v and w form new classes, and parts with an empty side
        go."""
        near_v, near_w = self.sides[0].near[v], self.sides[1].near[w]
        out: list[_Class] = []
        for k, (left, right) in enumerate(classes):
            if k == i:
                left, right = left[1:], right[:j] + right[j + 1:]
            hits_v = [x for x in left if x in near_v]
            hits_w = [y for y in right if y in near_w]
            if not hits_v and not hits_w:
                if left and right:
                    out.append((left, right))
                continue
            # Only the neighbours of v and w move; the rest keep the class.
            if len(hits_v) < len(left) and len(hits_w) < len(right):
                out.append((
                    [x for x in left if x not in near_v],
                    [y for y in right if y not in near_w],
                ))
            out.extend(self._group(hits_v, hits_w, near_v, near_w))
        self.take(0, v)
        self.take(1, w)
        out1, out2 = self.out
        fresh_v = [x for x in near_v if x not in out1]
        fresh_w = [y for y in near_w if y not in out2]
        for x in fresh_v:
            self.take(0, x)
        for y in fresh_w:
            self.take(1, y)
        out.extend(self._group(fresh_v, fresh_w, near_v, near_w))
        return out

    def _group(
        self,
        xs: list[str],
        ys: list[str],
        near_v: dict[str, tuple],
        near_w: dict[str, tuple],
    ) -> list[_Class]:
        """Neighbours of v (xs) and of w (ys) grouped by node label and the
        edge labels they share with v or w; groups with an empty side go."""
        labels1, labels2 = self.sides[0].labels, self.sides[1].labels
        parts: dict[tuple, _Class] = {}
        for x in xs:
            parts.setdefault((labels1[x], near_v[x]), ([], []))[0].append(x)
        for y in ys:
            if (part := parts.get((labels2[y], near_w[y]))) is not None:
                part[1].append(y)
        return [part for part in parts.values() if part[1]]
