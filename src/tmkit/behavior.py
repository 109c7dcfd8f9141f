"""Event regions, precedence inference, chronology checks, and
non-functional event detection."""

from __future__ import annotations

from collections import deque
from itertools import chain

from .diagnostics import Diagnostic, Severity, TMError, sort_diagnostics
from .model import BehaviorGraph, Event, StageRef, TMModel


class OverlapAmbiguityError(TMError):
    """An arc lies fully inside two or more regions, so its precedence
    contribution cannot be attributed; reported rather than guessed."""

    def __init__(self, arcs: list[str]):
        self.arc_ids = tuple(arcs)
        super().__init__(
            "arc(s) fully inside two or more event regions: " + ", ".join(arcs)
        )


class UnknownGoalError(TMError):
    pass


def check_event_region(model: TMModel, event: Event) -> list[Diagnostic]:
    """Check one event's region: non-empty, resolved, weakly connected."""
    diags: list[Diagnostic] = []
    if not event.region:
        diags.append(
            Diagnostic(
                Severity.ERROR,
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
                Severity.ERROR,
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
        for arc in model.arcs_from(ref):
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
                Severity.ERROR,
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
    membership: dict[StageRef, set[str]] = {}
    for event in model.events.values():
        for ref in event.region:
            membership.setdefault(ref, set()).add(event.name)

    pairs: set[tuple[str, str]] = set()
    ambiguous: list[str] = []
    for arc in list(model.flows) + list(model.triggers):
        src_events = membership.get(arc.source, set())
        dst_events = membership.get(arc.target, set())
        if len(src_events) >= 2 and len(dst_events) >= 2:
            ambiguous.append(arc.id)
            continue
        for a in src_events:
            for b in dst_events:
                if a != b:
                    pairs.add((a, b))
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
    once, so the check is linear in the chronology's size on a chain.
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
                Severity.ERROR,
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
                    Severity.WARNING,
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
    predecessors: dict[str, list[str]] = {}
    for a, b in behavior.edges:
        predecessors.setdefault(b, []).append(a)
    can_reach = set(goals)
    queue = deque(goals)
    while queue:
        for node in predecessors.get(queue.popleft(), ()):
            if node not in can_reach:
                can_reach.add(node)
                queue.append(node)
    return set(behavior.nodes) - can_reach


def check_all_events(model: TMModel) -> list[Diagnostic]:
    """Region checks for every declared event, in declaration order."""
    diags: list[Diagnostic] = []
    for event in model.events.values():
        diags.extend(check_event_region(model, event))
    return diags
