"""Checks of tmkit's output against answers that do not come from tmkit.

Each check raises WrongOutput with a short reason when the output
differs from what the input's construction (or a shipped golden file)
says it must be.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from gen import Edge, Model, node_label, parse_edge_list


class WrongOutput(Exception):
    pass


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise WrongOutput(reason)


def diagnostics(text: str, expected: tuple[tuple[str, str], ...]) -> None:
    """`tm check` JSON lines carry exactly the expected (code, subject)s."""
    found = sorted(
        (d["code"], d["subject"]) for d in map(json.loads, text.splitlines())
    )
    expect(found == sorted(expected), f"diagnostics {found} != {sorted(expected)}")


def reparsed(model, known: Model) -> None:
    """An assembled tmkit model declares exactly the known arcs, events
    and behavior edges (used on `tm fmt` output parsed back)."""
    flows = {(a.label, str(a.source), str(a.target)) for a in model.flows}
    expect(flows == known.flows, "formatted flows differ")
    triggers = {(str(t.source), str(t.target)) for t in model.triggers}
    expect(triggers == known.triggers, "formatted triggers differ")
    events = {e.name: frozenset(map(str, e.region)) for e in model.events.values()}
    expect(events == known.events, "formatted events differ")
    expect(set(model.behavior.edges) == known.behavior, "formatted behavior differs")


_DOT_NODE = re.compile(r'^\s*"([^"]+)" \[label="(\w+)"\];$')
_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[(label="(\w+)"|style=dashed)\];$')


def static_dot(text: str, known: Model) -> None:
    """The static DOT view names every stage once and draws every flow
    (labelled) and trigger (dashed) once."""
    nodes, flows, triggers = [], [], []
    for line in text.splitlines():
        if m := _DOT_NODE.match(line):
            nodes.append(m.group(1))
            expect(m.group(1).endswith("." + m.group(2)), f"stage label {line!r}")
        elif m := _DOT_EDGE.match(line):
            if m.group(4):
                flows.append((m.group(4), m.group(1), m.group(2)))
            else:
                triggers.append((m.group(1), m.group(2)))
    expect(text.rstrip().endswith("}"), "DOT text is not closed")
    expect(sorted(nodes) == sorted(known.stages), "DOT stages differ")
    expect(sorted(flows) == sorted(known.flows), "DOT flow arcs differ")
    expect(sorted(triggers) == sorted(known.triggers), "DOT trigger arcs differ")


def mapping(pairs: dict[str, str], edges1: list[Edge], edges2: list[Edge]) -> None:
    """A node mapping between two simplified graphs is valid: injective,
    stage kinds and environment flags kept, and the edges among mapped
    nodes carried exactly, labels and multiplicity included."""
    image = set(pairs.values())
    expect(len(image) == len(pairs), "mapping is not injective")
    for u, w in pairs.items():
        expect(node_label(u) == node_label(w), f"mapping {u} -> {w} changes the label")
    inside1 = Counter(
        (pairs[s], pairs[d], k, t) for s, d, k, t in edges1 if s in pairs and d in pairs
    )
    inside2 = Counter((s, d, k, t) for s, d, k, t in edges2 if s in image and d in image)
    expect(inside1 == inside2, "mapping does not carry the induced edges")


def isomorphism(pairs: dict[str, str], edges1: list[Edge], edges2: list[Edge]) -> None:
    """A valid mapping that covers every edge of both graphs."""
    mapping(pairs, edges1, edges2)
    covered = all(s in pairs and d in pairs for s, d, _, _ in edges1)
    expect(covered and len(edges1) == len(edges2), "isomorphism misses edges")


def explore(text: str, reachable: int, deadlocks: list[dict[str, int]]) -> None:
    """`tm explore` JSON: the known marking count and deadlocks, unbounded."""
    result = json.loads(text)
    expect(result["reachableCount"] == reachable,
           f"reachableCount {result['reachableCount']} != {reachable}")
    expect(result["deadlocks"] == deadlocks, "deadlocks differ")
    expect(result["bounded"] is True, "exploration hit its state limit")


def ring_trace(text: str, events: list[str], steps: int) -> None:
    """`tm simulate` JSON lines on a ring holding one token: firing i is
    event i mod n, and afterwards only the channel it fed holds a token."""
    lines = text.splitlines()
    expect(len(lines) == steps, f"{len(lines)} firings != {steps}")
    n = len(events)
    for i, line in enumerate(lines):
        firing = json.loads(line)
        event = events[i % n]
        expect(firing["step"] == i and firing["event"] == event, f"firing {i} differs")
        marking = firing["marking"]
        fed = f"{event}->{events[(i + 1) % n]}"
        expect(len(marking) == n and marking[fed] == 1 and sum(marking.values()) == 1,
               f"marking after firing {i} differs")


def edge_list(text: str, expected: str) -> list[Edge]:
    """A simplified graph's edge list equals the known one; returns it parsed."""
    expect(text == expected, "simplified edge list differs")
    return parse_edge_list(expected)
