"""Event regions, precedence inference, chronology checks, and
non-functional event detection."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import chain

from .diagnostics import Diagnostic, ModelError, TMError, sort_diagnostics
from .model import BehaviorGraph, Event, FlowArc, StageRef, TMModel, TriggerArc


class OverlapAmbiguityError(ModelError):
    """Each end of an arc lies in two or more regions, so its precedence
    contribution cannot be attributed; reported rather than guessed.
    The diagnostic's subject lists the arc ids."""

    code = "E_REGION_OVERLAP"

    def __init__(self, arcs: list[str]):
        self.arc_ids = tuple(arcs)
        ids = ", ".join(arcs)
        super().__init__(f"arc(s) with each end in two or more event regions: {ids}", subject=ids)


class UnknownGoalError(TMError):
    pass


def check_event_region(model: TMModel, event: Event) -> list[Diagnostic]:
    """Check one event's region: non-empty, resolved, weakly connected."""
    return _region_diagnostics(model, event, _region_links(model, [event.region])[0])


def _held_arcs(
    model: TMModel, regions: list[tuple[StageRef, ...]]
) -> Iterator[tuple[FlowArc | TriggerArc, list[int], list[int]]]:
    """Each flow, then each trigger, whose source and target some regions
    hold, with the positions of the regions that hold each end, in order
    and each once: one stage -> positions index and one pass over the arcs."""
    holders: dict[StageRef, list[int]] = {}
    for i, region in enumerate(regions):
        for ref in region:
            if (held := holders.get(ref)) is None:
                holders[ref] = [i]
            elif held[-1] != i:  # a region may list a stage twice
                held.append(i)
    for arc in chain(model.flows, model.triggers):
        if (sources := holders.get(arc.source)) and (targets := holders.get(arc.target)):
            yield arc, sources, targets


def _region_links(
    model: TMModel, regions: list[tuple[StageRef, ...]]
) -> list[dict[StageRef, list[StageRef]]]:
    """Per region, by position: each member's neighbours along the flows
    and triggers with both ends in that region."""
    links: list[dict[StageRef, list[StageRef]]] = [
        {ref: [] for ref in region} for region in regions
    ]
    for arc, sources, targets in _held_arcs(model, regions):
        for i in sources:
            if i in targets:
                links[i][arc.source].append(arc.target)
                links[i][arc.target].append(arc.source)
    return links


def _region_diagnostics(
    model: TMModel, event: Event, links: dict[StageRef, list[StageRef]]
) -> list[Diagnostic]:
    """`check_event_region`, given the region's `_region_links`."""
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

    seen = {event.region[0]}
    queue = deque(seen)
    while queue:
        for nxt in links[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) < len(links):
        missing = sorted(str(r) for r in links if r not in seen)
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


def infer_dependencies(model: TMModel) -> set[tuple[str, str]]:
    """Infer the precedence relation between events.

    (Ei, Ej) is in the result exactly when some flow or trigger arc runs
    from a stage in Ei's region to a stage in Ej's region, for Ei != Ej.
    An arc whose endpoints each lie in two or more regions is ambiguous
    and raises OverlapAmbiguityError.
    """
    events = list(model.events.values())
    pairs: set[tuple[str, str]] = set()
    ambiguous: list[str] = []
    for arc, sources, targets in _held_arcs(model, [e.region for e in events]):
        if len(sources) >= 2 and len(targets) >= 2:
            ambiguous.append(arc.id)
            continue
        for i in sources:
            for j in targets:
                if i != j:
                    pairs.add((events[i].name, events[j].name))
    if ambiguous:
        raise OverlapAmbiguityError(ambiguous)
    return pairs


def _descendants(behavior: BehaviorGraph) -> tuple[dict[str, int], list[int]]:
    """Reachability in one pass: a bit index per name, and per index the
    bitset of the indices it reaches by zero or more behavior edges.

    Tarjan's strongly connected components (SIAM J. Comput. 1(2), 1972),
    with an explicit stack so no recursion limit applies.  A component
    is finished only after every component it reaches, so its bitset is
    its own bits and its successors' bitsets, each already final.
    """
    names = dict.fromkeys(chain(behavior.nodes, *behavior.edges))
    index = {name: i for i, name in enumerate(names)}
    n = len(index)
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in behavior.edges:
        succ[index[a]].append(index[b])
    number = [0] * n  # discovery order from 1; 0 = not yet seen
    low = [0] * n
    down = [0] * n  # 0 until the node's component is finished
    stack: list[int] = []  # seen nodes of unfinished components
    counter = 0
    for root in range(n):
        if number[root]:
            continue
        counter += 1
        number[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if not number[w]:
                    counter += 1
                    number[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if not down[w] and number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == number[v]:
                    members = []
                    bits = 0
                    while True:
                        w = stack.pop()
                        members.append(w)
                        bits |= 1 << w
                        if w == v:
                            break
                    for w in members:
                        for x in succ[w]:
                            bits |= down[x]  # 0 inside this component
                    for w in members:
                        down[w] = bits
    return index, down


def check_behavior(model: TMModel) -> list[Diagnostic]:
    """Check a declared chronology against the inferred precedence relation.

    Every inferred dependency (Ei, Ej) must have Ej reachable from Ei in
    the declared graph (E_CHRONOLOGY_GAP otherwise); declared edges with
    no inferred support get W_UNSUPPORTED_EDGE.  Reachability is computed
    once, as one bitset of up to n bits per event, so on n events the
    check keeps up to n² bits.
    """
    behavior = model.behavior
    inferred = infer_dependencies(model)
    diags: list[Diagnostic] = []
    index, down = _descendants(behavior)
    declared = set(behavior.nodes)
    # a != b, so reaching b by zero or more edges means one or more.
    gaps = [
        (a, b)
        for a, b in inferred
        if a not in declared or b not in index or not down[index[a]] >> index[b] & 1
    ]
    for a, b in sorted(gaps):
        diags.append(
            Diagnostic(
                "E_CHRONOLOGY_GAP",
                f"{b} depends on {a}, but the declared behavior never "
                f"orders {a} before {b}",
                subject=f"({a}, {b})",
            )
        )
    for a, b in behavior.edges:
        if (a, b) not in inferred:
            diags.append(
                Diagnostic(
                    "W_UNSUPPORTED_EDGE",
                    f"declared edge {a} -> {b} has no supporting arc "
                    "between the two regions",
                    subject=f"({a}, {b})",
                )
            )
    return diags


def nonfunctional_events(behavior: BehaviorGraph, goals: set[str]) -> set[str]:
    """Events that are not goals and cannot reach any goal in the chronology.

    Such events contribute nothing to the goal functionality; the
    remaining behavior accomplishes the goals without them.
    """
    unknown = goals - set(behavior.nodes)
    if unknown:
        raise UnknownGoalError(
            f"goal(s) not in the behavior graph: {', '.join(sorted(unknown))}"
        )
    index, down = _descendants(behavior)
    goal_bits = sum(1 << index[goal] for goal in goals)
    return {node for node in behavior.nodes if not down[index[node]] & goal_bits}


def check_all_events(model: TMModel) -> list[Diagnostic]:
    """Region checks for every declared event, in declaration order, from
    one pass over the arcs."""
    events = list(model.events.values())
    diags: list[Diagnostic] = []
    for event, links in zip(events, _region_links(model, [e.region for e in events])):
        diags.extend(_region_diagnostics(model, event, links))
    return diags
