"""Shared test helpers: fixture loading, the CLI runner, independent
oracles, a DOT grammar checker, and random graph and text generators."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from hypothesis import strategies as st

from tmkit import assemble_model, parse
from tmkit.behavior import infer_dependencies
from tmkit.corpus import ALL_NAMES, fixture_source
from tmkit.diagnostics import Diagnostic, Severity, SourceSpan
from tmkit.dsl import ParseError
from tmkit.match import STRICT, Edge, MatchPolicy, Node, NodeMapping, SimplifiedGraph
from tmkit.model import (
    KIND_ORDER,
    BehaviorDecl,
    BehaviorGraph,
    Declaration,
    Event,
    EventDecl,
    FlowDecl,
    ModelDecl,
    StageKind,
    StageRef,
    ThimacDecl,
    TMModel,
    TriggerDecl,
    kind_from_name,
)
from tmkit.sim import (
    ConfigError,
    ExploreConfig,
    ExploreResult,
    Firing,
    NoInitialEventsError,
    SimConfig,
    Trace,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def load_model(name: str) -> TMModel:
    return assemble_model(parse(fixture_source(name)))


def variant(
    model: TMModel,
    behavior: BehaviorGraph | None = None,
    events: Iterable[Event] | None = None,
) -> TMModel:
    """`model` with another chronology and/or event set, all else the same.
    The analyses read only the model, so that is how a test hands them one."""
    return TMModel(
        model.name,
        model.thimacs,
        model.flows,
        model.triggers,
        model.events if events is None else {e.name: e for e in events},
        model.behavior if behavior is None else behavior,
    )


def run_tm(args, env=None, **kwargs):
    # The child sees a minimal environment, plus `env`, but always imports
    # the tmkit of this checkout (first on PYTHONPATH), installed or not.
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(SRC) + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "tmkit", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={
            "TM_COLOR": "never",
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": pythonpath,
            **(env or {}),
        },
        **kwargs,
    )


@st.composite
def mutated_corpus_text(draw, pieces, text=None):
    """Corpus text (or `text`) with 1-4 edits: `pieces` spliced in, or lines
    dropped, copied or swapped."""
    if text is None:
        text = fixture_source(draw(st.sampled_from(ALL_NAMES)))
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines(keepends=True)
        op = draw(st.sampled_from(["splice", "drop-line", "copy-line", "swap-lines"]))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if op == "drop-line":
            del lines[i]
        elif op == "copy-line":
            lines.insert(j, lines[i])
        elif op == "swap-lines":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            start = draw(st.integers(0, len(text)))
            end = draw(st.integers(start, min(len(text), start + 30)))
            insert = "".join(draw(st.lists(st.sampled_from(pieces), max_size=4)))
            lines = [text[:start], insert, text[end:]]
        text = "".join(lines)
    return text


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


def random_digraph(
    rng: random.Random, n: int, labels=("a",), things=("",), loops=False, parallel=False
) -> SimplifiedGraph:
    """A random labeled digraph with `n` nodes: self-loops only if `loops`,
    and up to two edges per ordered pair only if `parallel`."""
    nodes = [
        (f"v{i}", rng.choice(labels), rng.choice((StageKind.CREATE, StageKind.PROCESS)))
        for i in range(n)
    ]
    edges = []
    for i in range(n):
        for j in range(n):
            if (i != j or loops) and rng.random() < 0.35:
                for _ in range(rng.randint(1, 2) if parallel else 1):
                    kind = rng.choice(("flow", "trigger"))
                    thing = rng.choice(things) if kind == "flow" else ""
                    edges.append((f"v{i}", f"v{j}", kind, thing))
    return make_graph(nodes, edges)


@st.composite
def digraph_pairs(draw):
    """Two small labeled digraphs with self-loops and parallel edges: the
    second a renumbered copy of the first, such a copy with one edge
    changed, or drawn independently with as many nodes."""
    n = draw(st.integers(1, 6))
    kinds = st.sampled_from((StageKind.CREATE, StageKind.PROCESS))
    edge_labels = st.sampled_from([("flow", ""), ("flow", "t"), ("trigger", "")])

    def graph():
        nodes = [(f"v{i}", draw(st.sampled_from("rs")), draw(kinds)) for i in range(n)]
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), edge_labels)
        edges = [(a, b, *label) for a, b, label in draw(st.lists(ends, max_size=3 * n))]
        return nodes, edges

    nodes, edges = graph()
    g1 = make_graph(nodes, [(f"v{a}", f"v{b}", k, t) for a, b, k, t in edges])
    how = draw(st.sampled_from(["copy", "changed copy", "independent"]))
    if how == "independent":
        nodes, edges = graph()
        return g1, make_graph(nodes, [(f"v{a}", f"v{b}", k, t) for a, b, k, t in edges])
    rename = [f"w{i}" for i in draw(st.permutations(range(n)))]
    edges = [(rename[a], rename[b], k, t) for a, b, k, t in edges]
    if how == "changed copy" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        a, b, k, t = edges[i]
        edges[i] = draw(st.sampled_from([(b, a, k, t), (a, b, k, "u"), (a, a, k, t)]))
    nodes = [(rename[int(v[1:])], role, kind) for v, role, kind in nodes]
    return g1, make_graph(sorted(nodes), edges)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

class ReferenceToken(NamedTuple):
    kind: str  # IDENT | STRING | -> | ~> | { | } | : | , | @ | . | EOF
    value: str
    line: int
    col: int

    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col)


def reference_tokenize(text: str, diags: list[Diagnostic]) -> list[ReferenceToken]:
    """A character-at-a-time tokenizer with a line and a column per token."""
    tokens: list[ReferenceToken] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "-" and text[i : i + 2] == "->":
            tokens.append(ReferenceToken("->", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch == "~" and text[i : i + 2] == "~>":
            tokens.append(ReferenceToken("~>", "~>", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in "{}:,@.":
            tokens.append(ReferenceToken(ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            buf = []
            closed = False
            while i < n:
                c = text[i]
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    closed = True
                    break
                buf.append(c)
                i += 1
                col += 1
            if not closed:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "E_SYNTAX",
                        "unterminated string literal",
                        span=SourceSpan(start_line, start_col),
                    )
                )
            tokens.append(ReferenceToken("STRING", "".join(buf), start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(ReferenceToken("IDENT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "E_SYNTAX",
                f"unexpected character {ch!r}",
                span=SourceSpan(start_line, start_col),
            )
        )
        i += 1
        col += 1
    tokens.append(ReferenceToken("EOF", "", line, col))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: list[ReferenceToken], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> ReferenceToken:
        return self.tokens[self.pos]

    def advance(self) -> ReferenceToken:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def match(self, kind: str) -> bool:
        return self.cur.kind == kind

    def accept(self, kind: str) -> ReferenceToken | None:
        if self.match(kind):
            return self.advance()
        return None

    def expect(self, kind: str, what: str, code: str = "E_SYNTAX") -> ReferenceToken | None:
        if self.match(kind):
            return self.advance()
        self.error(f"expected {what}, found {self._describe(self.cur)}", code)
        return None

    @staticmethod
    def _describe(tok: ReferenceToken) -> str:
        if tok.kind == "EOF":
            return "end of input"
        if tok.kind in ("IDENT", "STRING"):
            return f"{tok.value!r}"
        return f"{tok.kind!r}"

    def error(self, message: str, code: str = "E_SYNTAX", tok: ReferenceToken | None = None) -> None:
        tok = tok or self.cur
        self.diags.append(
            Diagnostic(Severity.ERROR, code, message, span=tok.span())
        )

    def sync(self, start: int) -> None:
        """Skip the rest of the failed statement that began at token
        `start`, so later errors are still found: stop at a statement
        keyword that starts a line or at an enclosing block's `}`, or just
        after the `}` that closes the last brace the statement opened."""
        depth = sum(_REFERENCE_BRACES.get(t.kind, 0) for t in self.tokens[start : self.pos])
        while not self.match("EOF"):
            tok = self.cur
            starts_line = self.tokens[self.pos - 1].line < tok.line
            if tok.kind == "}" and depth == 0:
                return
            if tok.kind == "IDENT" and tok.value in _REFERENCE_STATEMENTS and starts_line:
                return
            self.advance()
            depth += _REFERENCE_BRACES.get(tok.kind, 0)
            if tok.kind == "}" and depth == 0:
                return

    # -- grammar ------------------------------------------------------------

    def parse_file(self) -> list[Declaration]:
        decls: list[Declaration] = []
        in_model_block = False
        while not self.match("EOF"):
            if self.match("}"):
                if in_model_block:
                    self.advance()
                    in_model_block = False
                    continue
                self.error("unmatched '}'")
                self.advance()
                continue
            tok, start = self.cur, self.pos
            if tok.kind != "IDENT":
                self.error(f"expected a statement, found {self._describe(tok)}")
                self.advance()
                self.sync(start)
                continue
            before = len(self.diags)
            statement = _REFERENCE_STATEMENTS.get(tok.value)
            if statement is None:
                self.error(f"unknown statement {tok.value!r}")
                self.advance()
            else:
                decl = statement(self)
                if decl is not None:
                    decls.append(decl)
                    in_model_block = in_model_block or isinstance(decl, ModelDecl)
            if len(self.diags) > before:
                self.sync(start)
        if in_model_block:
            self.error("missing '}' at end of model block", "E_UNTERMINATED_BLOCK")
        return decls

    def parse_model_header(self) -> ModelDecl | None:
        start = self.advance()
        name = self.expect("IDENT", "model name")
        if name is None:
            return None
        if self.expect("{", "'{' after model name") is None:
            return None
        return ModelDecl(name.value, start.span())

    def parse_thimac(self) -> ThimacDecl | None:
        start = self.advance()
        parts = self.dotted("a name")
        if parts is None:
            return None
        path = ".".join(t.value for t in parts)
        stages: list = []
        if self.accept("{"):
            while not self.match("}") and not self.match("EOF"):
                tok = self.expect("IDENT", "stage kind")
                if tok is None:
                    return None
                kind = self._kind(tok)
                if kind is None:
                    return None
                stages.append(kind)
            if self.expect("}", "'}' closing stage list") is None:
                return None
        return ThimacDecl(path, tuple(stages), start.span())

    def dotted(self, what: str) -> list[ReferenceToken] | None:
        """Read `IDENT ('.' IDENT)*`; `what` names the expected first token."""
        tok = self.expect("IDENT", what)
        if tok is None:
            return None
        parts = [tok]
        while self.accept("."):
            tok = self.expect("IDENT", "name after '.'")
            if tok is None:
                return None
            parts.append(tok)
        return parts

    def _kind(self, tok: ReferenceToken) -> StageKind | None:
        """The stage kind `tok` names, or None after reporting it."""
        kind = kind_from_name(tok.value)
        if kind is None:
            self.error(
                f"{tok.value!r} is not a stage kind "
                f"(expected one of {', '.join(k.value for k in KIND_ORDER)})",
                "E_UNKNOWN_KIND",
                tok,
            )
        return kind

    def stage_ref(self, parts: list[ReferenceToken]) -> StageRef | None:
        """`thimac.path.kind` from dotted tokens, at least two of them."""
        kind = self._kind(parts[-1])
        if kind is None:
            return None
        return StageRef(".".join(t.value for t in parts[:-1]), kind)

    def parse_stage_ref(self) -> StageRef | None:
        parts = self.dotted("a stage reference")
        if parts is None:
            return None
        if len(parts) < 2:
            self.error(
                f"stage reference needs a thimac and a stage kind, got {parts[0].value!r}",
                tok=parts[0],
            )
            return None
        return self.stage_ref(parts)

    def parse_flow(self) -> FlowDecl | None:
        start = self.advance()
        label = self.expect("IDENT", "thing label")
        if label is None:
            return None
        if self.expect(":", "':' after thing label") is None:
            return None
        chain: list[StageRef] = []
        ref = self.parse_stage_ref()
        if ref is None:
            return None
        chain.append(ref)
        while self.accept("->"):
            ref = self.parse_stage_ref()
            if ref is None:
                return None
            chain.append(ref)
        if len(chain) < 2:
            self.error("flow chain needs at least two stage references", tok=start)
            return None
        return FlowDecl(label.value, tuple(chain), start.span())

    def parse_trigger(self) -> TriggerDecl | None:
        start = self.advance()
        source = self.parse_stage_ref()
        if source is None:
            return None
        if self.expect("~>", "'~>' between trigger endpoints") is None:
            return None
        target = self.parse_stage_ref()
        if target is None:
            return None
        return TriggerDecl(source, target, start.span())

    def parse_event(self) -> EventDecl | None:
        start = self.advance()
        name = self.expect("IDENT", "event name")
        if name is None:
            return None
        description = None
        time = None
        tok = self.accept("STRING")
        if tok is not None:
            description = tok.value
        if self.accept("@"):
            tok = self.expect("STRING", "time annotation string after '@'")
            if tok is None:
                return None
            time = tok.value
        if self.expect("{", "'{' opening the event region") is None:
            return None
        members: list[StageRef | str] = []
        more = not self.match("}")  # `{ }` is an empty region
        while more:
            parts = self.dotted("a region member")
            if parts is None:
                return None
            if len(parts) == 1:
                members.append(parts[0].value)  # arc id reference
            else:
                ref = self.stage_ref(parts)
                if ref is None:
                    return None
                members.append(ref)
            more = self.accept(",") is not None
        if self.expect("}", "'}' closing the event region", "E_UNTERMINATED_BLOCK") is None:
            return None
        return EventDecl(
            name.value, tuple(members), description, time, start.span()
        )

    def parse_behavior(self) -> BehaviorDecl | None:
        start = self.advance()
        chain: list[str] = []
        tok = self.expect("IDENT", "event name")
        if tok is None:
            return None
        chain.append(tok.value)
        while self.accept("->"):
            tok = self.expect("IDENT", "event name after '->'")
            if tok is None:
                return None
            chain.append(tok.value)
        if len(chain) < 2:
            self.error("behavior chain needs at least two event names", tok=start)
            return None
        return BehaviorDecl(tuple(chain), start.span())


_REFERENCE_BRACES = {"{": 1, "}": -1}

_REFERENCE_STATEMENTS = {
    "model": _ReferenceParser.parse_model_header,
    "thimac": _ReferenceParser.parse_thimac,
    "flow": _ReferenceParser.parse_flow,
    "trigger": _ReferenceParser.parse_trigger,
    "event": _ReferenceParser.parse_event,
    "behavior": _ReferenceParser.parse_behavior,
}


def reference_parse(text: str) -> list[Declaration]:
    """The parser that `tmkit.dsl.parse` replaced: its statement grammar and
    recovery over `reference_tokenize`'s tokens, each with a line and a
    column."""
    diags: list[Diagnostic] = []
    tokens = reference_tokenize(text, diags)
    decls = _ReferenceParser(tokens, diags).parse_file()
    if diags:
        raise ParseError(diags)
    return decls


def scan_adjacency(g: SimplifiedGraph, policy: MatchPolicy) -> dict:
    """`SimplifiedGraph.adjacency` by a plain scan of every edge for every
    node: out-neighbours, then in-neighbours, each with its label counts."""
    index = {}
    for n in g.nodes:
        outs, ins = {}, {}
        for e in g.edges:
            label = e.label(policy.match_thing_labels)
            if e.src == n.id:
                outs.setdefault(e.dst, Counter())[label] += 1
            if e.dst == n.id:
                ins.setdefault(e.src, Counter())[label] += 1
        index[n.id] = (outs, ins)
    return index


def scan_verify_mapping(
    g1: SimplifiedGraph, g2: SimplifiedGraph, pairs: dict, policy: MatchPolicy
) -> bool:
    """`verify_mapping` by counting the induced labeled edges on each side."""
    labels1 = {n.id: n.label(policy.match_role_names) for n in g1.nodes}
    labels2 = {n.id: n.label(policy.match_role_names) for n in g2.nodes}
    image = set(pairs.values())
    if len(image) != len(pairs) or any(
        labels1.get(u) is None or labels1.get(u) != labels2.get(w)
        for u, w in pairs.items()
    ):
        return False
    things = policy.match_thing_labels
    mapped = Counter(
        (pairs[e.src], pairs[e.dst], e.label(things))
        for e in g1.edges
        if e.src in pairs and e.dst in pairs
    )
    target = Counter(
        (e.src, e.dst, e.label(things))
        for e in g2.edges
        if e.src in image and e.dst in image
    )
    return mapped == target


# The colour refinement and quadratic backtracking search that the
# neighbour-only feasibility rule replaced, kept verbatim as an oracle for
# `tmkit.match.isomorphic` and `tmkit.match.signature`.

def _reference_refine_colors(g: SimplifiedGraph, policy: MatchPolicy) -> dict[str, str]:
    """Stable per-node colors from iterated neighborhood refinement.

    Colors are content hashes, so equal structures get equal colors even
    across different graphs.
    """
    colors = {
        n.id: _reference_digest(json.dumps(n.label(policy.match_role_names)))
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
            new_colors[n.id] = _reference_digest(
                json.dumps([colors[n.id], outs, ins], sort_keys=True)
            )
        if _reference_partition(new_colors) == _reference_partition(colors):
            colors = new_colors
            break
        colors = new_colors
    return colors


def _reference_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _reference_partition(colors: dict[str, str]) -> frozenset[tuple[str, ...]]:
    groups: dict[str, list[str]] = {}
    for node, color in colors.items():
        groups.setdefault(color, []).append(node)
    return frozenset(tuple(sorted(members)) for members in groups.values())


def _reference_signature(g: SimplifiedGraph, colors: dict[str, str]) -> str:
    if not g.nodes:
        return "tmg:0:0:empty"
    descriptors = sorted(colors[n.id] for n in g.nodes)
    return f"tmg:{len(g.nodes)}:{len(g.edges)}:" + _reference_digest("|".join(descriptors))


def _reference_edge_label_multiset(
    edges: Iterable[Edge], policy: MatchPolicy
) -> dict[tuple[str, str], dict[tuple, int]]:
    out: dict[tuple[str, str], dict[tuple, int]] = {}
    for e in edges:
        labels = out.setdefault((e.src, e.dst), {})
        lab = e.label(policy.match_thing_labels)
        labels[lab] = labels.get(lab, 0) + 1
    return out


def _reference_consistent(
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


def reference_isomorphic(
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
    colors1 = _reference_refine_colors(g1, policy)
    colors2 = _reference_refine_colors(g2, policy)
    if _reference_signature(g1, colors1) != _reference_signature(g2, colors2):
        return None

    by_color: dict[str, list[str]] = {}
    for node in g2.nodes:
        by_color.setdefault(colors2[node.id], []).append(node.id)
    for members in by_color.values():
        members.sort()

    edges1 = _reference_edge_label_multiset(g1.edges, policy)
    edges2 = _reference_edge_label_multiset(g2.edges, policy)
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
            if w not in used and _reference_consistent(edges1, edges2, mapping, u, w):
                mapping[u] = w
                used.add(w)
                break
        else:
            if not mapping:
                return None
            pending.pop()
            used.remove(mapping.popitem()[1])
    return NodeMapping(tuple(sorted(mapping.items())))


def reference_signature(g: SimplifiedGraph, policy: MatchPolicy) -> str:
    return _reference_signature(g, _reference_refine_colors(g, policy))


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


def embedding_mcs_size(
    g1: SimplifiedGraph, g2: SimplifiedGraph, policy: MatchPolicy
) -> int:
    """Size of the maximum common connected induced subgraph, as the largest
    connected node set of g1 that embeds into g2 as an induced subgraph: every
    connected set, largest first, tried by backtracking over injections;
    usable up to ~9 nodes."""
    def edge_map(g):
        out = {}
        for e in g.edges:
            out.setdefault((e.src, e.dst), []).append(e.label(policy.match_thing_labels))
        return {k: sorted(v) for k, v in out.items()}

    em1, em2 = edge_map(g1), edge_map(g2)
    labels1 = {n.id: n.label(policy.match_role_names) for n in g1.nodes}
    labels2 = {n.id: n.label(policy.match_role_names) for n in g2.nodes}
    near = {n.id: set() for n in g1.nodes}
    for a, b in em1:
        near[a].add(b)
        near[b].add(a)

    sets, frontier = set(), {frozenset([v]) for v in near}
    while frontier:
        sets |= frontier
        frontier = {s | {x} for s in frontier for v in s for x in near[v] - s} - sets

    def embeds(order, image):
        if len(image) == len(order):
            return True
        u = order[len(image)]
        for w in labels2:
            if w in image.values() or labels1[u] != labels2[w]:
                continue
            if all(
                em1.get((u, v)) == em2.get((w, x)) and em1.get((v, u)) == em2.get((x, w))
                for v, x in [*image.items(), (u, w)]
            ):
                image[u] = w
                if embeds(order, image):
                    return True
                del image[u]
        return False

    for subset in sorted(sets, key=len, reverse=True):
        if embeds(sorted(subset), {}):
            return len(subset)
    return 0


def induced_subgraph(g: SimplifiedGraph, keep) -> SimplifiedGraph:
    """The nodes of `g` in `keep` and every edge between two of them."""
    keep = set(keep)
    return SimplifiedGraph(
        tuple(n for n in g.nodes if n.id in keep),
        tuple(e for e in g.edges if e.src in keep and e.dst in keep),
    )


def weakly_connected(g: SimplifiedGraph, nodes) -> bool:
    """Whether `nodes` induce a connected subgraph of `g`, edge directions
    ignored."""
    nodes = set(nodes)
    near = {v: set() for v in nodes}
    for e in g.edges:
        if e.src in nodes and e.dst in nodes:
            near[e.src].add(e.dst)
            near[e.dst].add(e.src)
    start = next(iter(nodes))
    seen, stack = {start}, [start]
    while stack:
        for v in near[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    return seen == nodes


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


def reachable_from(behavior: BehaviorGraph, start: str) -> set[str]:
    """Nodes reachable from `start` by one or more behavior edges, by one
    breadth-first search."""
    successors: dict[str, list[str]] = {}
    for a, b in behavior.edges:
        successors.setdefault(a, []).append(b)
    seen: set[str] = set()
    queue = deque(successors.get(start, ()))
    while queue:
        cur = queue.popleft()
        if cur in seen:
            continue
        seen.add(cur)
        queue.extend(successors.get(cur, ()))
    return seen


def reference_check_behavior(model: TMModel) -> tuple[list[str], list[str]]:
    """The subjects of `check_behavior`'s E_CHRONOLOGY_GAP and
    W_UNSUPPORTED_EDGE diagnostics, in order, from one search per node."""
    behavior = model.behavior
    inferred = infer_dependencies(model)
    reach = {name: reachable_from(behavior, name) for name in behavior.nodes}
    gaps = [f"({a}, {b})" for a, b in sorted(inferred) if b not in reach.get(a, set())]
    unsupported = [f"({a}, {b})" for a, b in behavior.edges if (a, b) not in inferred]
    return gaps, unsupported


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


# ---------------------------------------------------------------------------
# Reference token engine: the channel-object engine that numbered channels
# replaced, kept as an oracle.  Only the top-level names differ from the
# original; the result and config types are the library's own, so results
# compare equal.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ReferenceChannel:
    """A bounded buffer carrying tokens from one event to another.  A
    start channel has an empty `src` and exists only to bootstrap its
    target once."""

    src: str
    dst: str
    capacity: int = 1

    @property
    def id(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass
class _ReferenceNet:
    nodes: tuple[str, ...]
    channels: tuple[_ReferenceChannel, ...]
    incoming: dict[str, tuple[_ReferenceChannel, ...]]
    outgoing: dict[str, tuple[_ReferenceChannel, ...]]
    initial: tuple[int, ...]  # token counts, aligned with `channels`

    def enabled(self, marking: tuple[int, ...], node: str) -> bool:
        ins = self.incoming[node]
        if not ins:
            # Nothing feeds this event and it has no start channel.
            return False
        for ch in ins:
            if marking[self.index[ch]] < 1:
                return False
        for ch in self.outgoing[node]:
            if marking[self.index[ch]] >= ch.capacity:
                return False
        return True

    def fire(self, marking: tuple[int, ...], node: str) -> tuple[int, ...]:
        counts = list(marking)
        for ch in self.incoming[node]:
            counts[self.index[ch]] -= 1
        for ch in self.outgoing[node]:
            counts[self.index[ch]] += 1
        return tuple(counts)

    def enabled_nodes(self, marking: tuple[int, ...]) -> list[str]:
        return [n for n in self.nodes if self.enabled(marking, n)]

    def marking_items(self, marking: tuple[int, ...]) -> tuple[tuple[str, int], ...]:
        return tuple(
            sorted((ch.id, marking[i]) for i, ch in enumerate(self.channels))
        )

    def __post_init__(self):
        self.index = {ch: i for i, ch in enumerate(self.channels)}


def _reference_edges_for(
    model: TMModel, mode: str
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    nodes = tuple(model.events) or model.behavior.nodes
    if mode == "inferred":
        return nodes, tuple(sorted(infer_dependencies(model)))
    if mode != "declared":
        raise ConfigError(f"unknown channel mode {mode!r}")
    return nodes, model.behavior.edges


def reference_build_net(
    model: TMModel, config: SimConfig | ExploreConfig
) -> _ReferenceNet:
    nodes, edges = _reference_edges_for(model, config.channels)
    if isinstance(config.capacities, int) and config.capacities <= 0:
        raise ConfigError(f"every channel has capacity {config.capacities}")
    if not isinstance(config.capacities, int):
        for key in config.capacities:
            if key not in edges:
                raise ConfigError(f"capacity given for {key!r}, which is not a channel")

    def capacity(edge: tuple[str, str]) -> int:
        if isinstance(config.capacities, int):
            cap = config.capacities
        else:
            cap = config.capacities.get(edge, 1)
        if cap <= 0:
            raise ConfigError(f"channel {edge[0]}->{edge[1]} has capacity {cap}")
        return cap

    channels = [_ReferenceChannel(a, b, capacity((a, b))) for a, b in edges]
    incoming: dict[str, list[_ReferenceChannel]] = {n: [] for n in nodes}
    outgoing: dict[str, list[_ReferenceChannel]] = {n: [] for n in nodes}
    for ch in channels:
        if ch.dst in incoming:
            incoming[ch.dst].append(ch)
        if ch.src in outgoing:
            outgoing[ch.src].append(ch)

    initial = config.initial_events
    if initial is None:
        sources = [n for n in nodes if not incoming[n]]
        if sources:
            initial = frozenset(sources)
        elif edges:
            initial = frozenset({edges[0][0]})
        else:
            initial = frozenset()
    else:
        unknown = set(initial) - set(nodes)
        if unknown:
            raise ConfigError(
                f"initial event(s) not in the behavior: {', '.join(sorted(unknown))}"
            )

    tokens: dict[_ReferenceChannel, int] = {ch: 0 for ch in channels}
    for name in sorted(initial):
        if incoming[name]:
            for ch in incoming[name]:
                tokens[ch] = min(ch.capacity, tokens[ch] + 1)
        else:
            start = _ReferenceChannel("", name, 1)
            channels.append(start)
            incoming[name].append(start)
            tokens[start] = 1

    return _ReferenceNet(
        nodes=nodes,
        channels=tuple(channels),
        incoming={n: tuple(chs) for n, chs in incoming.items()},
        outgoing={n: tuple(chs) for n, chs in outgoing.items()},
        initial=tuple(tokens[ch] for ch in channels),
    )


def reference_simulate(model: TMModel, config: SimConfig | None = None) -> Trace:
    """Run one seeded execution; deterministic for a given configuration.

    At each step one enabled event is picked by the seeded RNG and fired;
    the run stops at `max_steps` or when nothing is enabled.  Raises
    NoInitialEventsError when the initial marking is empty (nothing could
    ever fire), and ConfigError for non-positive capacities.
    """
    config = config or SimConfig()
    if config.max_steps < 0:
        raise ConfigError("max_steps must be >= 0")
    net = reference_build_net(model, config)
    if config.max_steps == 0 or not net.nodes:
        return Trace()
    if sum(net.initial) == 0:
        raise NoInitialEventsError(
            "no tokens and no start channels; nothing can ever fire"
        )
    rng = random.Random(config.seed)
    marking = net.initial
    firings: list[Firing] = []
    for step in range(config.max_steps):
        enabled = net.enabled_nodes(marking)
        if not enabled:
            break
        event = rng.choice(enabled)
        marking = net.fire(marking, event)
        for count, ch in zip(marking, net.channels):
            assert 0 <= count <= ch.capacity, "capacity bound violated"
        firings.append(Firing(step, event, net.marking_items(marking)))
    return Trace(tuple(firings))


def reference_explore_state_space(
    model: TMModel, config: ExploreConfig | None = None
) -> ExploreResult:
    """Breadth-first enumeration of every reachable marking.

    A halted marking (no event enabled) counts as a normal completion
    only when all channels have drained, at least one firing led to it,
    and the terminal set (by default: events with no outgoing channels)
    is non-empty; every other halt is a deadlock.  When `max_states` is
    exhausted the partial result is returned with `bounded` False.
    """
    config = config or ExploreConfig()
    net = reference_build_net(model, config)

    if config.terminal_events is not None:
        terminal = set(config.terminal_events)
    else:
        terminal = {n for n in net.nodes if not net.outgoing[n]}

    seen: dict[tuple[int, ...], None] = {net.initial: None}
    queue = deque([net.initial])
    deadlocks: list[tuple[tuple[str, int], ...]] = []
    bounded = True
    while queue:
        marking = queue.popleft()
        enabled = net.enabled_nodes(marking)
        if not enabled:
            drained = sum(marking) == 0
            completed = drained and marking != net.initial and bool(terminal)
            if not completed:
                deadlocks.append(net.marking_items(marking))
            continue
        for node in enabled:
            nxt = net.fire(marking, node)
            if nxt not in seen:
                if len(seen) >= config.max_states:
                    bounded = False
                    continue
                seen[nxt] = None
                queue.append(nxt)
    return ExploreResult(
        reachable_count=len(seen),
        deadlocks=tuple(sorted(deadlocks)),
        bounded=bounded,
    )
