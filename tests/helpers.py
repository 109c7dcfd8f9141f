"""Shared test helpers: fixture loading, the CLI runner, independent
oracles, a DOT grammar checker, and random graph and text generators."""

from __future__ import annotations

import argparse
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

from tmkit import assemble_model, match, parse
from tmkit.behavior import infer_dependencies
from tmkit.cli import (
    cmd_check,
    cmd_dedup,
    cmd_explore,
    cmd_fmt,
    cmd_render,
    cmd_simplify,
    cmd_simulate,
)
from tmkit.corpus import ALL_NAMES, fixture_source
from tmkit.diagnostics import Diagnostic, SourceSpan, sort_diagnostics
from tmkit.dsl import ParseError
from tmkit.match import (
    ENV_ROLE,
    FLOW,
    STRICT,
    TRIGGER,
    AmbiguousSpliceError,
    Edge,
    GraphIndex,
    MatchPolicy,
    Node,
    NodeMapping,
    SharedFunctionality,
    SimplifiedGraph,
)
from tmkit.model import (
    KIND_ORDER,
    BehaviorDecl,
    BehaviorGraph,
    Declaration,
    Event,
    EventDecl,
    FlowArc,
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
    _Net,
    _retest,
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


def tm_env(env=None) -> dict[str, str]:
    """A child's environment: a minimal one, plus `env`, that always imports
    the tmkit of this checkout (first on PYTHONPATH), installed or not."""
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = str(SRC) + (os.pathsep + inherited if inherited else "")
    return {
        "TM_COLOR": "never",
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": pythonpath,
        **(env or {}),
    }


def run_tm(args, env=None, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "tmkit", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=tm_env(env),
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
        self.diags.append(Diagnostic(code, message, span=tok.span()))

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


def scan_index(g: SimplifiedGraph, policy: MatchPolicy) -> GraphIndex:
    """`SimplifiedGraph.index` by a plain scan of every edge for every node:
    its label and self-loops, its neighbours (by falling neighbour count,
    then id) with the edge labels toward and from each."""
    def counted(src: str, dst: str) -> tuple | None:
        labels = Counter(
            e.label(policy.match_thing_labels)
            for e in g.edges
            if (e.src, e.dst) == (src, dst)
        )
        return tuple(sorted(labels.items())) or None

    ids = [n.id for n in g.nodes]
    around = {
        u: {x for e in g.edges for x in (e.src, e.dst) if u in (e.src, e.dst)} - {u}
        for u in ids
    }
    order = sorted(ids, key=lambda u: (-len(around[u]), u))
    labels = {n.id: (n.label(policy.match_role_names), counted(n.id, n.id)) for n in g.nodes}
    near = {
        u: {x: (counted(u, x), counted(x, u)) for x in order if x in around[u]}
        for u in ids
    }
    return GraphIndex(labels, near, order)


def scan_ties(g: SimplifiedGraph, policy: MatchPolicy) -> dict[str, frozenset[tuple]]:
    """Per node, the (edge labels toward and from, label) of each neighbour,
    by a plain scan: the keys of the fragment search's neighbour groups."""
    index = scan_index(g, policy)
    return {
        u: frozenset((key, index.labels[x]) for x, key in index.near[u].items())
        for u in index.labels
    }


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


# The list-based fragment search that the bitset `_Search` replaced, kept
# as an oracle for `tmkit.match.find_shared_functionality`: it must return
# an equal result, approximate covers included, at any budget.

#: A label class next to the mapped nodes: unmapped nodes of g1 and of g2
#: that meet every mapped node the same way, so any of its g1 nodes may map
#: to any of its g2 nodes.
_Class = tuple[list[str], list[str]]


def reference_find_shared_functionality(
    g1: SimplifiedGraph,
    g2: SimplifiedGraph,
    min_size: int = 2,
    policy: MatchPolicy = MatchPolicy(match_role_names=False),
) -> SharedFunctionality:
    """`find_shared_functionality` with node-id lists for classes and pools
    and an undo trail for the pooled nodes; it reads
    `match.SEARCH_NODE_BUDGET` when called."""
    if min_size < 2:
        raise ValueError("min_size must be >= 2")
    sides = (g1.index(policy), g2.index(policy))
    ties = (_ties(sides[0]), _ties(sides[1]))
    used: tuple[set[str], set[str]] = (set(), set())
    budget = match.SEARCH_NODE_BUDGET
    matches: list[tuple[NodeMapping, int]] = []
    ceiling = min(len(g1.nodes), len(g2.nodes))
    while budget >= 0:
        search = _ReferenceSearch(sides, ties, used)
        pairs, budget = search.largest(min_size - 1, ceiling, budget)
        if not pairs:
            break
        ceiling = len(pairs)
        matches.append((NodeMapping(tuple(sorted(pairs))), ceiling))
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


class _ReferenceSearch:
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

    def largest(
        self, floor: int, ceiling: int, budget: int
    ) -> tuple[list[tuple[str, str]], int]:
        """A largest common connected induced fragment of more than `floor`
        pairs, or [] if there is none, and the budget left.  The caller
        knows that no fragment has more than `ceiling` pairs, so the first
        of `ceiling` pairs ends the search.  A negative budget means the
        search stopped early with the best fragment so far."""
        ties1, ties2 = self.ties
        best: list[tuple[str, str]] = []
        incumbent, target = floor, min(self.pooled, ceiling)
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


def scan_stage_refs(model: TMModel) -> list[StageRef]:
    """Every stage of every thimac but the grand one, each as a new
    `StageRef`, in path-then-kind order."""
    refs = []
    for path in sorted(model.thimacs):
        if path:
            for kind in KIND_ORDER:
                if kind in model.thimacs[path].stages:
                    refs.append(StageRef(path, kind))
    return refs


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



# The per-event region check and the simplification that one pass over the
# arcs replaced, kept as oracles for `tmkit.check_all_events`,
# `tmkit.check_event_region` and `tmkit.simplify`.  Both scan every arc
# for each stage they visit.

def reference_check_event_region(model: TMModel, event: Event) -> list[Diagnostic]:
    """Check one event's region: non-empty, resolved, weakly connected."""
    diags: list[Diagnostic] = []
    if not event.region:
        diags.append(
            Diagnostic(
                "E_EMPTY_REGION",
                f"event {event.name!r} has an empty region",
                subject=event.name,
                span=event.span,
            )
        )
        return diags

    unresolved = [ref for ref in event.region if not model.resolves(ref)]
    for ref in unresolved:
        diags.append(
            Diagnostic(
                "E_UNRESOLVED_REF",
                f"event {event.name!r} names {ref}, which is not a stage "
                "of the model",
                subject=str(ref),
                span=event.span,
            )
        )
    if unresolved:
        return sort_diagnostics(diags)

    stages = set(event.region)
    neighbors: dict[StageRef, set[StageRef]] = {ref: set() for ref in stages}
    for ref in stages:
        for arc in scan_arcs_from(model, ref):
            if arc.target in stages:
                neighbors[ref].add(arc.target)
                neighbors[arc.target].add(ref)
    seen: set[StageRef] = set()
    queue = deque([event.region[0]])
    seen.add(event.region[0])
    while queue:
        cur = queue.popleft()
        for nxt in neighbors[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if seen != stages:
        missing = sorted(str(r) for r in stages - seen)
        diags.append(
            Diagnostic(
                "E_DISCONNECTED_REGION",
                f"event {event.name!r}'s region is not connected; "
                f"unreached: {', '.join(missing)}",
                subject=event.name,
                span=event.span,
            )
        )
    return sort_diagnostics(diags)


_KEEP = (StageKind.CREATE, StageKind.PROCESS)


def reference_simplify(model: TMModel) -> SimplifiedGraph:
    """Collapse the model to its create/process skeleton.

    Requires a statically valid model (zero Error diagnostics); an
    interior elided stage with two distinct create/process successors
    raises AmbiguousSpliceError rather than picking one.
    """
    def flows(ref: StageRef, forward: bool) -> list[FlowArc]:
        arcs = scan_arcs_from(model, ref) if forward else scan_arcs_into(model, ref)
        return [arc for arc in arcs if isinstance(arc, FlowArc)]

    all_refs = scan_stage_refs(model)
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


_ELIDED = (StageKind.RELEASE, StageKind.TRANSFER, StageKind.RECEIVE)
# Arcs run among these thimacs' stages; "A.x" sorts between "A" and "B".
_ARC_PATHS = ("A", "A.x", "B", "C")


@st.composite
def splice_models(draw) -> TMModel:
    """Models for `simplify`, assembled from a few pieces over one small
    pool of stages, so pieces share stages: chains that may start or end
    at an elided stage (the boundary), elided diamonds, cycles of elided
    stages, triggers that touch an elided stage, and declared thimacs
    whose stages no arc touches.  Flows come in a drawn order, so of
    several ambiguous splices any may be declared first."""
    paths = st.sampled_from(_ARC_PATHS)

    def stage(kinds=KIND_ORDER) -> StageRef:
        return StageRef(draw(paths), draw(st.sampled_from(kinds)))

    def elided() -> StageRef:
        return stage(_ELIDED)

    flows: dict[tuple[str, StageRef, StageRef], None] = {}
    triggers: dict[tuple[StageRef, StageRef], None] = {}
    decls: list[Declaration] = []

    def flow(*chain: StageRef) -> None:
        label = draw(st.sampled_from("xy"))
        for src, dst in zip(chain, chain[1:]):
            flows[label, src, dst] = None

    pieces = ("chain", "diamond", "cycle", "trigger", "thimac")
    for i in range(draw(st.integers(1, 6))):
        piece = draw(st.sampled_from(pieces))
        if piece == "chain":
            flow(*[stage() for _ in range(draw(st.integers(2, 4)))])
        elif piece == "diamond":
            top, bottom = elided(), elided()
            flow(stage(), top, elided(), bottom, stage())
            flow(top, elided(), bottom)
        elif piece == "cycle":
            ring = [elided() for _ in range(draw(st.integers(1, 3)))]
            flow(*ring, ring[0])
            if draw(st.booleans()):
                flow(stage(), ring[0])
            if draw(st.booleans()):
                flow(ring[-1], stage())
        elif piece == "trigger":
            ends = [elided(), stage()]
            if draw(st.booleans()):
                ends.reverse()
            if ends[0] != ends[1]:
                triggers[tuple(ends)] = None
        else:
            kinds = draw(st.sets(st.sampled_from(KIND_ORDER), min_size=1))
            decls.append(ThimacDecl(f"D{i}", tuple(kinds)))
    arcs = [FlowDecl(label, (src, dst)) for label, src, dst in flows]
    arcs += [TriggerDecl(src, dst) for src, dst in triggers]
    decls += draw(st.permutations(arcs))
    return assemble_model(decls)


@st.composite
def region_models(draw) -> TMModel:
    """Models whose events overlap, name unresolved stages (of an unknown
    thimac, or a kind their thimac lacks), are empty, or name arcs by id;
    flows and triggers run among a few thimacs' stages."""
    pool = [StageRef(path, kind) for path in ("A", "B", "C") for kind in KIND_ORDER]
    ends = st.sampled_from(pool)
    decls: list[Declaration] = []
    flows: dict[tuple[StageRef, StageRef], None] = {}
    for src, dst in draw(st.lists(st.tuples(ends, ends), max_size=10)):
        flows[src, dst] = None
    decls += [FlowDecl("x", pair) for pair in flows]
    triggers = {
        (src, dst): None
        for src, dst in draw(st.lists(st.tuples(ends, ends), max_size=4))
        if src != dst
    }
    decls += [TriggerDecl(src, dst) for src, dst in triggers]
    named = sorted({ref for pair in [*flows, *triggers] for ref in pair}, key=pool.index)
    ids = [f"F{i + 1}" for i in range(len(flows))]
    ids += [f"T{i + 1}" for i in range(len(triggers))]

    def member() -> StageRef | str:
        pick = draw(st.integers(0, 9))
        if named and pick < 6:
            return draw(st.sampled_from(named))
        if named and pick < 8:
            return draw(st.sampled_from(ids))
        if pick < 9:
            return draw(ends)  # unresolved when no arc names this stage
        return StageRef("Ghost", draw(st.sampled_from(KIND_ORDER)))

    for i in range(draw(st.integers(1, 5))):
        region = tuple(member() for _ in range(draw(st.integers(0, 4))))
        decls.append(EventDecl(f"E{i}", region))
    return assemble_model(decls)


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
    repeated = sorted({name for name in nodes if nodes.count(name) > 1})
    if repeated:
        raise ConfigError(f"event(s) repeated in the behavior: {', '.join(repeated)}")
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
            initial = frozenset({(model.behavior.edges or edges)[0][0]})
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
    for _ in range(config.max_steps):
        enabled = net.enabled_nodes(marking)
        if not enabled:
            break
        event = rng.choice(enabled)
        marking = net.fire(marking, event)
        for count, ch in zip(marking, net.channels):
            assert 0 <= count <= ch.capacity, "capacity bound violated"
        firings.append(Firing(event, net.marking_items(marking)))
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


def reference_halt(net: _Net, steps: int) -> int | None:
    """The marking at which `net` halts, or None when it never halts, found
    by running it: `sim._halt` solves for it instead.

    The net is persistent, so it halts at one marking or none, and every
    maximal run ends there (Keller, LNCS 24, 1975).  This run fires the
    lowest enabled position; one that repeats a marking never halts.
    Brent's test (BIT 20, 1980) keeps only the marking after the last
    power-of-two step, and sees a repeat within four times the run's
    distinct markings.  A run that neither halts nor repeats within `steps`
    firings raises RuntimeError."""
    delta, near = net.delta, net.near
    marking, enabled = net.initial, net.enabled
    saved, step = marking, 0
    while enabled:
        if step == steps:
            raise RuntimeError(f"no halt and no repeat in {steps} firings")
        p = enabled[0]
        marking += delta[p]
        if marking == saved:
            return None
        enabled = _retest(enabled, marking, near[p])
        step += 1
        if not step & (step - 1):
            saved = marking
    return marking


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return convert


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that `tm` used before `cli.parse_args`: an oracle
    for which command lines are usage errors and what the others set."""
    parser = argparse.ArgumentParser(
        prog="tm",
        description="Thinging-machine model toolkit: check, render, "
        "simulate, and compare .tm models.",
    )
    parser.add_argument(
        "--fixtures",
        action="store_true",
        help="list the embedded fixture corpus and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="parse and validate a model")
    p_check.add_argument("file", help=".tm file or fixture:NAME")
    p_check.set_defaults(func=cmd_check)

    p_fmt = sub.add_parser("fmt", help="canonically reformat a model")
    p_fmt.add_argument("file")
    p_fmt.set_defaults(func=cmd_fmt)

    p_simplify = sub.add_parser(
        "simplify", help="print the create/process edge list"
    )
    p_simplify.add_argument("file")
    p_simplify.set_defaults(func=cmd_simplify)

    p_render = sub.add_parser("render", help="emit DOT")
    p_render.add_argument("file")
    p_render.add_argument(
        "--view", choices=("static", "behavior", "simplified"), default="static"
    )
    p_render.add_argument("-o", "--output", default=None)
    p_render.add_argument("--no-thing-labels", action="store_true")
    p_render.set_defaults(func=cmd_render)

    # The token net's inputs (`sim.NetConfig`), shared by simulate and explore.
    net = argparse.ArgumentParser(add_help=False)
    net.add_argument("file")
    net.add_argument("--capacity", type=_int_at_least(1), default=1)
    net.add_argument("--channels", choices=("declared", "inferred"), default="declared")

    p_sim = sub.add_parser("simulate", parents=[net], help="run a seeded token simulation")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-steps", type=_int_at_least(0), default=100)
    p_sim.set_defaults(func=cmd_simulate)

    p_explore = sub.add_parser("explore", parents=[net], help="enumerate reachable markings")
    p_explore.add_argument("--max-states", type=_int_at_least(1), default=10_000)
    p_explore.set_defaults(func=cmd_explore)

    p_dedup = sub.add_parser(
        "dedup", help="compare two models for duplicated functionality"
    )
    p_dedup.add_argument("file1")
    p_dedup.add_argument("file2")
    p_dedup.add_argument(
        "--min-size",
        type=_int_at_least(2),
        default=2,
        metavar="K",
        help="smallest shared fragment to report (at least 2)",
    )
    p_dedup.add_argument(
        "--match-roles",
        action="store_true",
        help="require thimac role names to match, not just structure",
    )
    p_dedup.set_defaults(func=cmd_dedup)

    return parser
