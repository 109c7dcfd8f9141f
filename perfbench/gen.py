"""Seeded `.tm` inputs for the benchmark, each with its known answers.

Every input is built here as text, and the facts the benchmark checks
tmkit's output against follow from how that text was built: which
stages, arcs, events and behavior edges it declares, which diagnostics
`tm check` must report, what the simplified create/process graph is,
and what exploration and simulation must find.  No known answer is
computed by tmkit.

The model shape is the request/response walk of the corpus's
`add-service` and `pay-service`: each event moves one artifact from a
sender role to a receiver role through six stages, and the receiver's
process stage triggers the creation of the next artifact.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

KINDS = ("create", "process", "release", "transfer", "receive")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Model:
    """Generated `.tm` text plus the structure it declares."""

    text: str
    stages: frozenset[str]
    flows: frozenset[tuple[str, str, str]]  # (thing label, source, target)
    triggers: frozenset[tuple[str, str]]
    events: dict[str, frozenset[str]]
    behavior: frozenset[tuple[str, str]]
    # `tm check`: (code, subject) of every diagnostic it must print.
    diagnostics: tuple[tuple[str, str], ...]
    # The simplified graph as `src -> dst [kind, thing]` lines, sorted.
    simplified: str
    labels: tuple[str, ...]  # thing label of each event, in creation order


def word(rng: random.Random, size: int = 5) -> str:
    return rng.choice(_LETTERS.upper()) + "".join(
        rng.choice(_LETTERS) for _ in range(size - 1)
    )


class _Builder:
    """Accumulates request/response events and triggers for one model."""

    def __init__(self, rng: random.Random, roles: tuple[str, str] | None = None):
        self.rng = rng
        self.roles = roles or (word(rng) + "A", word(rng) + "B")
        self.stem = word(rng, 3)
        self.statements: list[str] = []
        self.behavior_lines: list[str] = []
        self.stages: set[str] = set()
        self.flows: set[tuple[str, str, str]] = set()
        self.triggers: set[tuple[str, str]] = set()
        self.events: dict[str, frozenset[str]] = {}
        self.behavior: set[tuple[str, str]] = set()
        self.ends: dict[str, tuple[str, str, str]] = {}  # event -> (create, process, label)
        self.order: list[str] = []

    def event(self, sender: int, label: str | None = None) -> str:
        """Add one artifact moving from roles[sender] to the other role."""
        i = len(self.order)
        name = f"{self.stem}{i}"
        label = label or f"{word(self.rng, 4)}{i}"
        src, dst = self.roles[sender], self.roles[1 - sender]
        refs = [
            f"{src}.{label}.create",
            f"{src}.{label}.release",
            f"{src}.{label}.transfer",
            f"{dst}.{label}.transfer",
            f"{dst}.{label}.receive",
            f"{dst}.{label}.process",
        ]
        self.statements.append(f"flow {label}: " + " -> ".join(refs))
        self.flows.update((label, a, b) for a, b in zip(refs, refs[1:]))
        self.stages.update(refs)
        members = refs[:]
        self.rng.shuffle(members)
        self.statements.append(
            f'event {name} "{src} hands {label} to {dst}" @ "t{i}" '
            "{ " + ", ".join(members) + " }"
        )
        self.events[name] = frozenset(refs)
        self.ends[name] = (refs[0], refs[-1], label)
        self.order.append(name)
        return name

    def trigger(self, a: str, b: str) -> None:
        source, target = self.ends[a][1], self.ends[b][0]
        self.statements.append(f"trigger {source} ~> {target}")
        self.triggers.add((source, target))

    def segment(
        self,
        count: int,
        sender: int,
        after: str | None = None,
        labels: list[str] | None = None,
    ) -> list[str]:
        """`count` events, each triggered by the one before (the first by
        `after`, when given); senders alternate as in a dialogue."""
        names: list[str] = []
        for k in range(count):
            names.append(self.event((sender + k) % 2, labels[k] if labels else None))
            prev = names[-2] if k else after
            if prev is not None:
                self.trigger(prev, names[-1])
        return names

    def declare_behavior(self, chain: list[str]) -> None:
        self.behavior_lines.append("behavior " + " -> ".join(chain))
        self.behavior.update(zip(chain, chain[1:]))

    def sender_after(self, event: str) -> int:
        """The role that receives `event`, and so sends what it triggers."""
        return 1 - self.roles.index(self.ends[event][0].split(".")[0])

    def build(self, name: str, diagnostics=()) -> Model:
        body = list(self.statements)
        self.rng.shuffle(body)
        lines = [f"thimac {r}" for r in self.roles] + body + self.behavior_lines
        text = f"model {name} {{\n" + "".join(f"  {l}\n" for l in lines) + "}\n"
        edges = [f"{c} -> {p} [flow, {label}]" for c, p, label in self.ends.values()]
        edges += [f"{s} -> {t} [trigger, ]" for s, t in self.triggers]
        return Model(
            text=text,
            stages=frozenset(self.stages),
            flows=frozenset(self.flows),
            triggers=frozenset(self.triggers),
            events=dict(self.events),
            behavior=frozenset(self.behavior),
            diagnostics=tuple(diagnostics),
            simplified="".join(line + "\n" for line in sorted(edges)),
            labels=tuple(self.ends[e][2] for e in self.order),
        )


def chain_model(rng: random.Random, n: int, variant: str = "plain") -> Model:
    """A request/response chain of `n` events.

    `gap` leaves the middle behavior edge undeclared, so `tm check` must
    report exactly one E_CHRONOLOGY_GAP for it.  `fanout` lets the middle
    event of the main chain start a second branch of n // 4 events, as
    the menu of `add-service` does; it stays clean.  Only names and
    statement order depend on the seed, so the work per op does not.
    """
    b = _Builder(rng)
    name = f"{variant}_{word(rng).lower()}"
    if variant == "fanout":
        branch = n // 4
        main = b.segment(n - branch, rng.randrange(2))
        fork = main[len(main) // 2]
        side = b.segment(branch, b.sender_after(fork), after=fork)
        b.declare_behavior(main)
        b.declare_behavior([fork] + side)
        return b.build(name)
    events = b.segment(n, rng.randrange(2))
    if variant == "plain":
        b.declare_behavior(events)
        return b.build(name)
    if variant != "gap":
        raise ValueError(f"unknown chain variant {variant!r}")
    cut = n // 2
    b.declare_behavior(events[: cut + 1])
    b.declare_behavior(events[cut + 1 :])
    gap = ("E_CHRONOLOGY_GAP", f"({events[cut]}, {events[cut + 1]})")
    return b.build(name, [gap])


def path_chain(
    rng: random.Random, n: int, labels: list[str] | None = None
) -> Model:
    """A plain chain, with the given thing labels when there are any; its
    simplified graph is a single directed path."""
    b = _Builder(rng)
    b.declare_behavior(b.segment(n, 0, labels=labels))
    return b.build(f"path_{word(rng).lower()}")


def parallel_chains(rng: random.Random, k: int, length: int = 3) -> Model:
    """`k` independent chains of `length` events: (length + 1) ** k
    reachable markings, and every halt drains, so no deadlock."""
    b = _Builder(rng)
    for _ in range(k):
        b.declare_behavior(b.segment(length, rng.randrange(2)))
    return b.build(f"parallel_{word(rng).lower()}")


def deadlock_net(
    rng: random.Random, lengths: list[int]
) -> tuple[Model, int, dict[str, int]]:
    """One component per entry: a chain of `length` events feeding a join
    J whose other input comes from Z, and Z waits on J.  Each component
    halts after its chain with one token left before J.  Returns the
    model, its prod(length + 1) reachable markings, and its one deadlock
    as a channel -> tokens marking."""
    b = _Builder(rng)
    states, deadlock = 1, {}
    for length in lengths:
        lead = b.segment(length, rng.randrange(2))
        join, wait = b.segment(2, b.sender_after(lead[-1]), after=lead[-1])
        b.trigger(wait, join)
        chain = lead + [join, wait, join]
        b.declare_behavior(chain)
        states *= length + 1
        deadlock[f"->{lead[0]}"] = 0
        deadlock.update((f"{x}->{y}", 0) for x, y in zip(chain, chain[1:]))
        deadlock[f"{lead[-1]}->{join}"] = 1
    return b.build(f"deadlock_{word(rng).lower()}"), states, deadlock


def ring(rng: random.Random, n: int) -> Model:
    """`n` events in one behavior cycle.  The net starts with a single
    token before the first event, so firing i is event i mod n."""
    b = _Builder(rng)
    events = b.segment(n, 0)
    b.trigger(events[-1], events[0])
    b.declare_behavior(events + [events[0]])
    return b.build(f"ring_{word(rng).lower()}")


# ---------------------------------------------------------------------------
# Role renaming of arbitrary `.tm` text (the fixtures)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r'"(?:\\.|[^"\\\n])*"|#[^\n]*|[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*|\s+|.'
)


def rename_roles(text: str, rng: random.Random) -> tuple[str, dict[str, str]]:
    """Give every thimac path component a fresh seeded name.

    A dotted name is a thimac path after the `thimac` keyword, and a
    stage reference when its last part is a stage kind; strings,
    comments, thing labels and event names are left alone.  Returns the
    new text and the component renaming.
    """
    renaming: dict[str, str] = {}

    def fresh(part: str) -> str:
        if part not in renaming:
            renaming[part] = f"{word(rng)}{len(renaming)}"
        return renaming[part]

    out: list[str] = []
    previous = ""
    for tok in _TOKEN.findall(text):
        if tok[0].isalpha() or tok[0] == "_":
            parts = tok.split(".")
            if previous == "thimac":
                tok = ".".join(fresh(p) for p in parts)
            elif len(parts) > 1 and parts[-1] in KINDS:
                tok = ".".join([fresh(p) for p in parts[:-1]] + [parts[-1]])
            previous = parts[0]
        elif not tok.isspace() and tok[0] != "#":
            previous = tok
        out.append(tok)
    return "".join(out), renaming


def rename_edge_list(text: str, renaming: dict[str, str]) -> str:
    """Apply a component renaming to `src -> dst [kind, thing]` lines."""

    def node(ident: str) -> str:
        env = ident.startswith("env:")
        parts = ident[4:].split(".") if env else ident.split(".")
        renamed = ".".join([renaming[p] for p in parts[:-1]] + [parts[-1]])
        return "env:" + renamed if env else renamed

    lines = []
    for line in text.splitlines():
        src, rest = line.split(" -> ", 1)
        dst, attrs = rest.split(" [", 1)
        lines.append(f"{node(src)} -> {node(dst)} [{attrs}")
    return "".join(l + "\n" for l in sorted(lines))


# ---------------------------------------------------------------------------
# Known answers over simplified edge lists
# ---------------------------------------------------------------------------

Edge = tuple[str, str, str, str]  # (src, dst, kind, thing)


def parse_edge_list(text: str) -> list[Edge]:
    edges = []
    for line in text.splitlines():
        src, rest = line.split(" -> ", 1)
        dst, attrs = rest.split(" [", 1)
        kind, thing = attrs[:-1].split(", ", 1)
        edges.append((src, dst, kind, thing))
    return edges


def node_label(node: str) -> tuple[bool, str]:
    """(is environment node, stage kind): the label matched when role
    names are ignored."""
    return node.startswith("env:"), node.rsplit(".", 1)[1]


def largest_component(edges: list[Edge]) -> int:
    """Node count of the largest weakly connected part of a graph."""
    parent: dict[str, str] = {}

    def root(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, dst, _, _ in edges:
        parent[root(src)] = root(dst)
    sizes: dict[str, int] = {}
    for x in list(parent):
        sizes[root(x)] = sizes.get(root(x), 0) + 1
    return max(sizes.values(), default=0)


def path_sequence(edges: list[Edge]) -> list[tuple] | None:
    """If the graph is one simple directed path, its labels from start to
    end, node and edge labels alternating; otherwise None."""
    succ = {src: (dst, kind, thing) for src, dst, kind, thing in edges}
    targets = {dst for _, dst, _, _ in edges}
    starts = [s for s in succ if s not in targets]
    if len(succ) != len(edges) or len(targets) != len(edges) or len(starts) != 1:
        return None
    seq: list[tuple] = [node_label(starts[0])]
    node = starts[0]
    while node in succ:
        node, kind, thing = succ[node]
        seq += [(kind, thing), node_label(node)]
    return seq if len(seq) == 2 * len(edges) + 1 else None


def common_path_nodes(a: list[tuple], b: list[tuple]) -> int:
    """Node count of the longest common sub-path of two labelled paths:
    the longest common run of the label sequences that starts and ends
    on a node."""
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if i % 2 == 1:  # a run ending on a node
                    best = max(best, (cur[j] + 1) // 2)
        prev = cur
    return best
