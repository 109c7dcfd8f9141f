"""Event regions, precedence inference, chronology checks, and
non-functional event detection."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

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


def infer_dependencies(
    model: TMModel, events: Iterable[Event] | None = None
) -> set[tuple[str, str]]:
    """Infer the precedence relation between events.

    (Ei, Ej) is in the result exactly when some flow or trigger arc runs
    from a stage in Ei's region to a stage in Ej's region, for Ei != Ej.
    An arc whose endpoints each lie in two or more regions is ambiguous
    and raises OverlapAmbiguityError.
    """
    event_list = list(events) if events is not None else list(model.events.values())
    membership: dict[StageRef, set[str]] = {}
    for event in event_list:
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


def reachable_from(behavior: BehaviorGraph, start: str) -> set[str]:
    """Nodes reachable from `start` by one or more behavior edges."""
    seen: set[str] = set()
    queue = deque(behavior.successors(start))
    while queue:
        cur = queue.popleft()
        if cur in seen:
            continue
        seen.add(cur)
        queue.extend(behavior.successors(cur))
    return seen


def check_behavior(
    model: TMModel,
    events: Iterable[Event] | None = None,
    behavior: BehaviorGraph | None = None,
) -> list[Diagnostic]:
    """Check a declared chronology against the inferred precedence relation.

    Every inferred dependency (Ei, Ej) must have Ej reachable from Ei in
    the declared graph (E_CHRONOLOGY_GAP otherwise); declared edges with
    no inferred support get W_UNSUPPORTED_EDGE.
    """
    behavior = behavior if behavior is not None else model.behavior
    inferred = infer_dependencies(model, events)
    diags: list[Diagnostic] = []
    reach: dict[str, set[str]] = {
        name: reachable_from(behavior, name) for name in behavior.nodes
    }
    for a, b in sorted(inferred):
        if b not in reach.get(a, set()):
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
