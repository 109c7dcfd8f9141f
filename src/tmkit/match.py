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

from collections import deque
from collections.abc import Iterator
from functools import cached_property

from .diagnostics import ModelError, TMError
from .model import _KIND_NAME, KIND_ORDER, FlowArc, StageKind, StageRef, TMModel
from .records import Record

FLOW = "flow"
TRIGGER = "trigger"

#: Label of every environment node.
ENV_ROLE = "env"

#: Search nodes one `isomorphic` call may open (each tried pair), and one
#: `find_shared_functionality` call over its whole cover (each tried pair,
#: and each node left out of the mapping).
SEARCH_NODE_BUDGET = 100_000


class AmbiguousSpliceError(ModelError):
    """An elided stage fans out toward two or more distinct create/process
    stages, so the spliced edge would be ambiguous."""

    code = "E_AMBIGUOUS_SPLICE"

    def __init__(self, stage: StageRef):
        self.stage = stage
        super().__init__(
            f"elided stage {stage} reaches more than one create/process stage"
        )


class SearchLimitError(TMError):
    """`isomorphic` tried `SEARCH_NODE_BUDGET` pairs without a verdict: the
    graphs may or may not be isomorphic."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(
            "isomorphism search stopped at its search-node budget "
            f"(SEARCH_NODE_BUDGET = {budget}); the verdict is undecided"
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
            # `Node.label`, inline.
            labels[n.id] = (n.is_env, n.role if roles else "", _KIND_NAME[n.kind])
        # Per node and neighbour (itself for a self-loop): the labels of the
        # edges toward that neighbour and from it.
        sides: dict[str, dict[str, tuple[list, list]]] = {u: {} for u in labels}
        for e in g.edges:
            src, dst = e.src, e.dst
            if src not in labels or dst not in labels:
                raise ValueError(f"edge {src} -> {dst} names an absent node")
            label = (e.kind, e.thing if things else "")  # `Edge.label`, inline
            if (pair := sides[src].get(dst)) is None:
                sides[src][dst] = ([label], [])
            else:
                pair[0].append(label)
            if src != dst:
                if (pair := sides[dst].get(src)) is None:
                    sides[dst][src] = ([], [label])
                else:
                    pair[1].append(label)
        for u, nbrs in sides.items():
            loops = nbrs.pop(u, None)
            labels[u] = (labels[u], _counted(loops[0]) if loops else None)
        order = sorted(sides, key=lambda u: (-len(sides[u]), u))
        rank = {u: i for i, u in enumerate(order)}
        near = {
            u: {
                x: (_counted(nbrs[x][0]), _counted(nbrs[x][1]))
                for x in (sorted(nbrs, key=rank.__getitem__) if len(nbrs) > 1 else nbrs)
            }
            for u, nbrs in sides.items()
        }
        return cls(labels, near, order)


def _counted(labels: list[tuple]) -> tuple | None:
    """The sorted (label, count) pairs of `labels`, or None for none."""
    if len(labels) == 1:
        return ((labels[0], 1),)
    if not labels:
        return None
    counts: dict[tuple, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return tuple(sorted(counts.items()))


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
    """A bijection between (subsets of) two graphs' node sets.  Its `len`
    is its number of pairs, not of fields, and it is true when it has one."""

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
    raises AmbiguousSpliceError rather than picking one.  One pass over
    `model.flows` gives each stage its flows out and in.
    """
    # Per stage: the flows leaving it and the flows entering it, in model
    # order.
    after: dict[StageRef, list[FlowArc]] = {}
    before: dict[StageRef, list[FlowArc]] = {}
    for arc in model.flows:
        if (out := after.get(arc.source)) is None:
            after[arc.source] = [arc]
        else:
            out.append(arc)
        if (into := before.get(arc.target)) is None:
            before[arc.target] = [arc]
        else:
            into.append(arc)

    nodes: dict[str, Node] = {}
    for path, thimac in model.thimacs.items():
        if path:
            for kind in _KEEP:
                if kind in thimac.stages:
                    node_id = f"{path}.{_KIND_NAME[kind]}"
                    nodes[node_id] = Node(node_id, path, kind)

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
        memo, arcs_of = (forward_memo, after) if forward else (backward_memo, before)
        if ref in memo:
            return memo[ref]
        result: set[StageRef] = set()
        seen = {ref}
        stack = [ref]
        while stack:
            cur = stack.pop()
            arcs = arcs_of.get(cur)
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
    # elided stage nothing flows into) outside the grand thimac, in
    # path-then-kind order: of several ambiguous splices, the one met first
    # in that order raises.
    starts = sorted(
        (ref for ref in after if ref.thimac and (ref.kind in _KEEP or ref not in before)),
        key=lambda ref: (ref.thimac, KIND_ORDER.index(ref.kind)),
    )
    for start in starts:
        src = str(start) if start.kind in _KEEP else env_node(start)
        for arc in after[start]:
            add_edge(src, splice(arc.target, forward=True), FLOW, arc.label)

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
# Colour refinement
# ---------------------------------------------------------------------------

class _Partition:
    """A colouring of the nodes of one graph, or of two graphs side by side
    in one colour space, refined until equitable: nodes of one colour have,
    per edge label and direction, as many edges into each colour.

    Nodes are ints, each graph's in id order and g1's before g2's.  Colours
    are ints too, and each colour's nodes form one block of `elems`, so a
    split moves only the nodes it touches.  Refinement pops splitter
    colours from a FIFO queue; a colour that splits while not queued queues
    all its parts but the largest (Hopcroft's rule; Cardon & Crochemore,
    TCS 19, 1982), so one refinement costs O(m log n).  New colours are
    numbered in the order of processing: splitters in queue order, then the
    colours they touch and their parts in sorted order.  That order never
    reads a node id, so the colouring is invariant under renaming.
    """

    def __init__(
        self,
        ids: list[str],
        keys: list,
        into: list[list[tuple[int, int]]],
        labels: list[tuple],
        n1: int,
    ):
        #: Per node: its id, its initial label, and the (arc type, node) pairs
        #: whose node gains that arc into a splitter the node joins.
        self.ids, self.keys, self.into = ids, keys, into
        #: The edge labels, in sorted order: label i gives arc types 2i, 2i + 1.
        self.labels = labels
        n = len(keys)
        #: The number of g1 nodes, and whether g2's nodes follow them.  In a
        #: pair a colour is balanced when it holds as many g1 as g2 nodes.
        self.n1, self.pair = n1, n1 < n
        #: The nodes, each colour's in one block, and each node's position
        #: and colour.  Colour c's block is elems[start[c]:end[c]].
        self.elems = elems = sorted(range(n), key=keys.__getitem__)
        self.start = [p for p in range(n) if not p or keys[elems[p]] != keys[elems[p - 1]]]
        self.end = [*self.start[1:], n] if n else []
        self.pos = [0] * n
        self.cls = [0] * n
        for c, (a, b) in enumerate(zip(self.start, self.end)):
            for p in range(a, b):
                self.pos[elems[p]] = p
                self.cls[elems[p]] = c
        #: Per colour: how many g1 nodes it holds.
        self.ones = [sum(u < n1 for u in elems[a:b]) for a, b in zip(self.start, self.end)]
        self.queued = [True] * len(self.start)
        self.queue = deque(range(len(self.start)))
        #: Per split: the colour that split and its first new colour.
        self.trail: list[tuple[int, int]] = []

    @classmethod
    def of(cls, graphs: tuple[SimplifiedGraph, ...], policy: MatchPolicy) -> _Partition:
        """The initial colouring of one graph, by node label, or of a pair,
        by node label with self-loop labels.  Raises ValueError for a
        malformed graph, as `GraphIndex.of` does."""
        ids: list[str] = []
        keys: list = []
        # Per edge or self-loop: its ends as ints, its label and its count.
        edges: list[tuple[int, tuple, int, int]] = []
        for g in graphs:
            index = g.index(policy)
            number = {u: len(ids) + i for i, u in enumerate(sorted(index.labels))}
            ids += number
            for u, x in number.items():
                label, loops = index.labels[u]
                keys.append((label, loops or ()) if len(graphs) == 2 else label)
                edges += [(x, loop, x, count) for loop, count in loops or ()]
                for v, (outs, _) in index.near[u].items():
                    edges += [(x, out, number[v], count) for out, count in outs or ()]
        # An edge x -> y with the i-th edge label in sorted order counts for
        # x toward y's colour (arc type 2i) and for y toward x's (2i + 1).
        labels = sorted({label for _, label, _, _ in edges})
        label_ids = {label: i for i, label in enumerate(labels)}
        into: list[list[tuple[int, int]]] = [[] for _ in keys]
        for x, label, y, count in edges:
            i = 2 * label_ids[label]
            into[y] += [(i, x)] * count
            into[x] += [(i + 1, y)] * count
        return cls(ids, keys, into, labels, len(graphs[0].nodes))

    def balanced(self) -> bool:
        """Whether every colour holds as many g1 nodes as g2 nodes."""
        return not self.pair or all(
            2 * ones == hi - lo for ones, lo, hi in zip(self.ones, self.start, self.end)
        )

    def refine(self) -> bool:
        """Refine until equitable and return True.  For a pair, stop as soon
        as a split leaves a colour unbalanced, and return False."""
        queue, queued, into, elems = self.queue, self.queued, self.into, self.elems
        while queue:
            s = queue.popleft()
            queued[s] = False
            # Per node with an arc into s: the types of those arcs.
            hits: dict[int, list[int]] = {}
            for v in elems[self.start[s]:self.end[s]]:
                for a, u in into[v]:
                    if u in hits:
                        hits[u].append(a)
                    else:
                        hits[u] = [a]
            if not self._split(hits):
                for c in queue:
                    queued[c] = False
                queue.clear()
                return False
        return True

    def _split(self, hits: dict[int, list[int]]) -> bool:
        """Split each colour by its nodes' multisets of arc types in `hits`
        (absent: none).  Returns False when a part is unbalanced."""
        cls, elems, pos, start, end = self.cls, self.elems, self.pos, self.start, self.end
        ones, queued, n1, pair = self.ones, self.queued, self.n1, self.pair
        touched: dict[int, list[int]] = {}
        for u in hits:
            c = cls[u]
            if c in touched:
                touched[c].append(u)
            else:
                touched[c] = [u]
        balanced = True
        for c in sorted(touched):
            lo, hi = start[c], end[c]
            if hi - lo == 1:
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for u in touched[c]:
                key = tuple(sorted(hits[u]))
                if key in groups:
                    groups[key].append(u)
                else:
                    groups[key] = [u]
            untouched = len(touched[c]) < hi - lo
            if len(groups) == 1 and not untouched:
                continue
            # The parts run [untouched | least key | ... | greatest key] in
            # the block.  The first part keeps colour c, and the others get
            # new colours in that order: move them to the block's end, the
            # greatest key first.
            keys = sorted(groups)
            del keys[: not untouched]
            first = len(start)
            self.trail.append((c, first))
            new = range(first, first + len(keys))
            start += new  # placeholders, set below
            end += new
            ones += new
            queued += [False] * len(new)
            for d in reversed(new):
                end[d] = hi
                g1 = 0
                for u in groups[keys[d - first]]:
                    hi -= 1
                    p, x = pos[u], elems[hi]
                    elems[p], pos[x] = x, p
                    elems[hi], pos[u] = u, hi
                    cls[u] = d
                    g1 += u < n1
                start[d] = hi
                ones[d] = g1
                ones[c] -= g1
            end[c] = hi
            parts = [c, *new]
            if pair:
                balanced = balanced and all(2 * ones[d] == end[d] - start[d] for d in parts)
            if not queued[c]:
                sizes = [end[d] - start[d] for d in parts]
                del parts[sizes.index(max(sizes))]
            for d in parts:
                if not queued[d]:
                    queued[d] = True
                    self.queue.append(d)
        return balanced

    def individualize(self, u: int, w: int) -> bool:
        """Give g1 node u and g2 node w, of one balanced colour, a colour of
        their own and refine; False when a colour ends up unbalanced.  A
        colour of just u and w is left as it is."""
        c = self.cls[u]
        if self.end[c] - self.start[c] == 2:
            return True
        self._split({u: [], w: []})  # both parts are balanced
        return self.refine()

    def undo(self, mark: int) -> None:
        """Merge back every split made since the trail had `mark` entries."""
        cls, elems, start, end = self.cls, self.elems, self.start, self.end
        while len(self.trail) > mark:
            c, first = self.trail.pop()
            for p in range(start[first], end[-1]):
                cls[elems[p]] = c
            end[c] = end[-1]
            self.ones[c] += sum(self.ones[first:])
            del self.ones[first:]
            del start[first:], end[first:], self.queued[first:]

    def digest(self) -> str:
        """A digest of the colouring's quotient: per colour its label and
        size, and per pair of colours and edge label the number of edges."""
        import hashlib

        cls, start, end = self.cls, self.start, self.end
        colours = [(self.keys[self.elems[a]], b - a) for a, b in zip(start, end)]
        arcs: dict[tuple[int, int, int], int] = {}
        for y, near in enumerate(self.into):
            for a, x in near:
                if a % 2 == 0:
                    key = (cls[x], a // 2, cls[y])
                    arcs[key] = arcs.get(key, 0) + 1
        text = repr((self.labels, colours, sorted(arcs.items())))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def signature(g: SimplifiedGraph, policy: MatchPolicy = STRICT) -> str:
    """A string invariant under node renumbering: the node and edge counts
    and a digest of the graph's colour refinement.

    Equal graphs up to renumbering get equal signatures; unequal
    signatures prove non-isomorphism.  The converse does not hold: equal
    signatures mean only that colour refinement (1-dimensional
    Weisfeiler-Leman) cannot tell the graphs apart.
    """
    part = _Partition.of((g,), policy)
    if not g.nodes:
        return "tmg:0:0:empty"
    part.refine()
    return f"tmg:{len(g.nodes)}:{len(g.edges)}:" + part.digest()


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def isomorphic(
    g1: SimplifiedGraph, g2: SimplifiedGraph, policy: MatchPolicy = STRICT
) -> NodeMapping | None:
    """Find a label-preserving bijection making the edge sets correspond.

    Stage kinds always have to match; role names and thing labels match
    per the policy.  Returns the lexicographically least valid mapping
    under node id order, or None.  Unequal node or edge counts reject at
    once.  Otherwise both graphs are refined together, in one colour space,
    and a colour with unequal numbers of g1 and g2 nodes rejects.  The
    search then maps g1's nodes in id order, each to the g2 nodes of its
    colour in id order; after each tentative pair it gives the two nodes a
    colour of their own, refines again and backs up on an unbalanced
    colour (McKay & Piperno, J. Symb. Comput. 60, 2014).  Each tried pair
    is one search node; after `SEARCH_NODE_BUDGET` of them the search
    raises SearchLimitError, and the verdict is undecided.
    """
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return None
    part = _Partition.of((g1, g2), policy)
    if not (part.balanced() and part.refine()):
        return None
    n1 = len(g1.nodes)
    budget = SEARCH_NODE_BUDGET
    # Depth-first search with an explicit stack, so graphs of any size stay
    # clear of the recursion limit: node u is g1's u-th node by id, mapping
    # holds the images of nodes 0..len(mapping)-1, and pending[u] holds
    # u's untried candidates with the trail length to undo to.
    mapping: list[int] = []
    pending: list[tuple[Iterator[int], int]] = []
    while len(mapping) < n1:
        u = len(mapping)
        if len(pending) == u:
            c = part.cls[u]
            block = part.elems[part.start[c]:part.end[c]]
            pending.append((iter(sorted(x for x in block if x >= n1)), len(part.trail)))
        candidates, mark = pending[-1]
        for w in candidates:
            part.undo(mark)
            budget -= 1
            if budget < 0:
                raise SearchLimitError(SEARCH_NODE_BUDGET)
            if part.individualize(u, w):
                mapping.append(w)
                break
        else:
            if not mapping:
                return None
            pending.pop()
            mapping.pop()
    ids = part.ids
    return NodeMapping(tuple((ids[u], ids[w]) for u, w in enumerate(mapping)))


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
    index1, index2 = g1.index(policy), g2.index(policy)
    sides = (_masks(index1), _masks(index2))
    used = [0, 0]
    budget = SEARCH_NODE_BUDGET
    matches: list[tuple[NodeMapping, int]] = []
    # An exact step searched a superset of the nodes the next one may use,
    # so no later fragment is larger: the next search stops at this size.
    ceiling = min(len(g1.nodes), len(g2.nodes))
    free = ceiling  # the smaller side's unused nodes: fewer than min_size find nothing
    while budget >= 0 and free >= min_size:
        pairs, budget = _Search(sides, used).largest(min_size - 1, ceiling, budget)
        if not pairs:
            break
        ceiling = len(pairs)
        free -= ceiling
        ids = sorted((index1.order[v], index2.order[w]) for v, w in pairs)
        matches.append((NodeMapping(tuple(ids)), ceiling))
        for v, w in pairs:
            used[0] |= 1 << v
            used[1] |= 1 << w
    return SharedFunctionality(tuple(matches), approximate=budget < 0)


def _masks(index: GraphIndex) -> tuple:
    """The fragment search's view of `index`, each node numbered by its rank
    in `order`, so a set of nodes is an int whose bit r is the node of rank
    r: per label, the mask of its nodes (labels in the order of their first
    node); and per node, its label, the mask of its neighbours, and its
    neighbours' masks by (node label, edge labels toward and from)."""
    bits = {u: 1 << r for r, u in enumerate(index.order)}
    labels, near = index.labels, index.near
    by_label: dict[tuple, int] = {}
    groups: list[dict[tuple, int]] = []
    for u in index.order:
        by_label[labels[u]] = by_label.get(labels[u], 0) | bits[u]
        group: dict[tuple, int] = {}
        for x, edges in near[u].items():
            key = (labels[x], edges)
            group[key] = group.get(key, 0) | bits[x]
        groups.append(group)
    ranked = [labels[u] for u in index.order]
    return by_label, ranked, [sum(group.values()) for group in groups], groups


class _Search:
    """Connected McSplit (McCreesh, Prosser & Trimble, IJCAI 2017) on the
    nodes not yet `used` by the cover, on bitsets (San Segundo,
    Rodriguez-Losada & Jimenez, Comput. Oper. Res. 38(2), 2011).

    A node is its rank in its graph's `order` and a set of nodes is an int,
    so a set's lowest bit is its first node in `order`.  Unmapped nodes next
    to the mapped ones sit in label classes, each a pair of masks (g1, g2),
    which a search node splits with ANDs by the neighbour groups of the pair
    it maps.  Every other free node waits in its label's pool: these nodes
    meet no mapped node, so a pool is one class that never needs splitting.
    A node leaves its pool when it is mapped, gains a mapped neighbour or is
    left out at the root, so the pooled nodes are one mask per side, which
    each search frame carries: backtracking restores two ints.  A search
    node costs a few big-int operations per class next to the mapping and
    per pool label, or per node leaving a pool when those are fewer.
    """

    def __init__(self, sides: tuple[tuple, tuple], used: list[int]):
        by_label1, self.labels1, self.near1, self.groups1 = sides[0]
        by_label2, self.labels2, self.near2, self.groups2 = sides[1]
        pools = {}
        for label, nodes in by_label1.items():
            if (left := nodes & ~used[0]) and (right := by_label2.get(label, 0) & ~used[1]):
                pools[label] = (left, right)
        #: Per label with unused nodes on both sides, in the order of its
        #: first unused g1 node: those nodes of g1 and of g2.  Nodes of a
        #: label the other side lacks, and those an earlier fragment used,
        #: stay out of every pool for good.
        self.pools = dict(sorted(pools.items(), key=lambda item: item[1][0] & -item[1][0]))
        self.pooled = (sum(p[0] for p in pools.values()), sum(p[1] for p in pools.values()))

    def largest(
        self, floor: int, ceiling: int, budget: int
    ) -> tuple[list[tuple[int, int]], int]:
        """A largest common connected induced fragment of more than `floor`
        pairs of ranks, or [] if there is none, and the budget left.  The
        caller knows that no fragment has more than `ceiling` pairs, so the
        first of `ceiling` pairs ends the search.  A negative budget means
        the search stopped early with the best fragment so far."""
        groups1, groups2 = self.groups1, self.groups2
        best: list[tuple[int, int]] = []
        incumbent = floor
        mapping: list[tuple[int, int]] = []
        # Depth-first search with an explicit stack.  A frame is a search
        # node: its classes, the class i it branches on (None: a pool, at the
        # root), that class's first g1 node v, v's untried g2 candidates (a
        # mask; once it is empty, v is left out), the node's bound, its
        # mapping size, its pooled nodes of g1 and of g2, and what the pools
        # add to its bound.
        held = self._held(0, 0, 0, *self.pooled)
        frame = self._branch([], 0, incumbent, *self.pooled, held)
        target = min(held, ceiling)
        stack = [frame] if frame else []
        while stack:
            frame = stack[-1]
            classes, i, v, right, bound, size, pooled1, pooled2, held = frame
            del mapping[size:]
            if bound <= incumbent:
                stack.pop()
                continue
            if right:
                low = right & -right
                frame[3] = right ^ low
                w = low.bit_length() - 1
                # A first pair whose nodes have no neighbour in common (same
                # node label, same edge labels) cannot grow: skip it unopened.
                if not size and groups1[v].keys().isdisjoint(groups2[w]):
                    continue
            budget -= 1
            if budget < 0:
                break
            if right:
                mapping.append((v, w))
                if len(mapping) > incumbent:
                    best, incumbent = list(mapping), len(mapping)
                    if incumbent == target:
                        break
                child, after1, after2 = self._split(classes, i, v, w, pooled1, pooled2)
            else:
                # The last choice: below this node v stays unmapped.
                stack.pop()
                after1, after2 = pooled1 & ~(1 << v), pooled2
                child = classes
                if i is not None:
                    left, right = classes[i]
                    left &= ~(1 << v)
                    child = classes[:i] + ([(left, right)] if left else []) + classes[i + 1:]
            if after1 != pooled1 or after2 != pooled2:
                held = self._held(held, pooled1, pooled2, after1, after2)
            frame = self._branch(child, len(mapping), incumbent, after1, after2, held)
            if frame:
                stack.append(frame)
        return best, budget

    def _held(self, held: int, pooled1: int, pooled2: int, after1: int, after2: int) -> int:
        """What the pools add to a bound (each its smaller side) once their
        nodes shrink from pooled1 and pooled2, which add `held`, to after1
        and after2.  Whichever is fewer is counted again: every pool, or the
        pools of the nodes that left."""
        gone1, gone2 = pooled1 ^ after1, pooled2 ^ after2
        pools = self.pools.values()
        if len(pools) > gone1.bit_count() + gone2.bit_count():
            touched = set()
            for gone, labels in ((gone1, self.labels1), (gone2, self.labels2)):
                while gone:
                    low = gone & -gone
                    touched.add(labels[low.bit_length() - 1])
                    gone ^= low
            pools = [self.pools[label] for label in touched]
        else:  # every pool, counted afresh
            held = pooled1 = pooled2 = 0
        for left, right in pools:
            a, b = (left & pooled1).bit_count(), (right & pooled2).bit_count()
            c, d = (left & after1).bit_count(), (right & after2).bit_count()
            held += (c if c < d else d) - (a if a < b else b)
        return held

    def _branch(
        self, classes: list[tuple[int, int]], size: int, incumbent: int,
        pooled1: int, pooled2: int, held: int,
    ) -> list | None:
        """The frame of a search node, or None when McSplit's bound (each
        class and pool adds its smaller side) cannot beat the incumbent or
        nothing may extend the mapping.  The root branches on the pool with
        the smallest larger side, any other node on such a class: only nodes
        next to the mapped ones may join, so fragments stay connected."""
        bound, larger = size + held, []
        for left, right in classes:
            a, b = left.bit_count(), right.bit_count()
            bound += a if a < b else b
            larger.append(b if a < b else a)
        if bound <= incumbent:
            return None
        if size:
            if not classes:
                return None
            i = larger.index(min(larger))
            left, right = classes[i]
        else:
            i = None
            left, right = min(
                ((left & pooled1, right & pooled2) for left, right in self.pools.values()
                 if left & pooled1 and right & pooled2),
                key=lambda pool: max(pool[0].bit_count(), pool[1].bit_count()),
            )
        v = (left & -left).bit_length() - 1
        return [classes, i, v, right, bound, size, pooled1, pooled2, held]

    def _split(
        self, classes: list[tuple[int, int]], i: int | None, v: int, w: int,
        pooled1: int, pooled2: int,
    ) -> tuple[list[tuple[int, int]], int, int]:
        """The classes and pooled nodes after mapping v (the first g1 node
        of class i, or of a pool) to w.  Each class splits by the edge labels
        its nodes share with v or w: the rest first, then the groups.  The
        pooled neighbours of v and w leave their pools for new classes, and
        parts with an empty side go."""
        near_v, near_w = self.near1[v], self.near2[w]
        groups_v, groups_w = self.groups1[v], self.groups2[w]
        out: list[tuple[int, int]] = []
        for k, (left, right) in enumerate(classes):
            if k == i:
                left, right = left & ~(1 << v), right & ~(1 << w)
            hits_v, hits_w = left & near_v, right & near_w
            if not (hits_v or hits_w):
                if left and right:
                    out.append((left, right))
                continue
            # Only the neighbours of v and w move; the rest keep the class.
            if left != hits_v and right != hits_w:
                out.append((left ^ hits_v, right ^ hits_w))
            if hits_v and hits_w:
                out += _group(hits_v, hits_w, groups_v, groups_w)
        fresh_v, fresh_w = near_v & pooled1, near_w & pooled2
        if fresh_v and fresh_w:
            out += _group(fresh_v, fresh_w, groups_v, groups_w)
        return out, pooled1 & ~(near_v | 1 << v), pooled2 & ~(near_w | 1 << w)


def _group(
    xs: int, ys: int, groups_v: dict[tuple, int], groups_w: dict[tuple, int]
) -> list[tuple[int, int]]:
    """Neighbours of v (xs) and of w (ys) grouped by node label and the edge
    labels they share with v or w, in the order of their first g1 node;
    groups with an empty side go."""
    parts = []
    for key, nodes in groups_v.items():
        if (left := xs & nodes) and (right := ys & groups_w.get(key, 0)):
            parts.append((left, right))
    if len(parts) > 1:
        parts.sort(key=lambda part: part[0] & -part[0])
    return parts
