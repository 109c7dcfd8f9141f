"""Core domain types: thimacs, stages, arcs, events, and model assembly.

A model is assembled from parsed declarations (see `tmkit.dsl`) or from
declarations constructed programmatically.  Assembly resolves thimac
paths, expands flow chains into individual arcs, and freezes the result;
assembled models are immutable and safe to share between analyses.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from functools import cached_property
from types import MappingProxyType

from .diagnostics import ModelError, SourceSpan
from .records import Record, init_field


class StageKind(enum.Enum):
    """The five generic operations a thimac can carry; there are no others."""

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    # Members are singletons and compare by identity, so the identity hash
    # serves and, unlike `Enum.__hash__`, runs no Python code.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


#: Canonical ordering used wherever stage kinds are serialized.
KIND_ORDER: tuple[StageKind, ...] = tuple(StageKind)

_KIND_BY_NAME = {k.value: k for k in StageKind}


def kind_from_name(name: str) -> StageKind | None:
    """Look up a stage kind by its lowercase name, or None if unknown."""
    return _KIND_BY_NAME.get(name)


class StageRef(Record):
    """Addressable stage of a thimac, e.g. ``Mill.Motor`` + ``process``."""

    __slots__ = ("_hash",)

    thimac: str
    kind: StageKind

    def __init__(self, thimac: str, kind: StageKind) -> None:
        # Stage refs key most of the model's indices, and the generic
        # `Record.__hash__` builds a tuple on every call: the hash is computed
        # once and kept in a slot.
        init_field(self, "thimac", thimac)
        init_field(self, "kind", kind)
        init_field(self, "_hash", hash((thimac, kind)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is StageRef:
            return self.thimac == other.thimac and self.kind == other.kind
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.thimac}.{self.kind.value}"


class Thimac(Record):
    """A thing/machine node in the hierarchy, keyed by its `path`."""

    path: str
    name: str
    children: tuple[str, ...] = ()
    stages: frozenset[StageKind] = frozenset()


class FlowArc(Record):
    """Solid-arrow movement of a thing between two stages."""

    id: str
    label: str
    source: StageRef
    target: StageRef
    span: SourceSpan | None = None


class TriggerArc(Record):
    """Dashed-arrow activation from one stage to another."""

    id: str
    source: StageRef
    target: StageRef
    span: SourceSpan | None = None


class Event(Record):
    """A dynamic unit: a named region of the static model, plus optional
    description and opaque time annotation."""

    name: str
    region: tuple[StageRef, ...]
    description: str | None = None
    time: str | None = None
    span: SourceSpan | None = None


class BehaviorGraph(Record):
    """Chronology of events: nodes are event names, edges are earlier->later."""

    nodes: tuple[str, ...] = ()
    edges: tuple[tuple[str, str], ...] = ()


class TMModel(Record):
    """An assembled, immutable model (the grand thimac and everything in it)."""

    __slots__ = ("__dict__",)  # for the cached index

    name: str
    thimacs: Mapping[str, Thimac]
    flows: tuple[FlowArc, ...]
    triggers: tuple[TriggerArc, ...]
    events: Mapping[str, Event]
    behavior: BehaviorGraph

    def resolves(self, ref: StageRef) -> bool:
        thimac = self.thimacs.get(ref.thimac)
        return thimac is not None and ref.kind in thimac.stages

    def stage_refs(self) -> list[StageRef]:
        """All stages present in the model, in path-then-kind order."""
        refs = []
        for path in sorted(self.thimacs):
            if not path:
                continue
            thimac = self.thimacs[path]
            for kind in KIND_ORDER:
                if kind in thimac.stages:
                    refs.append(StageRef(path, kind))
        return refs

    def arcs_from(self, ref: StageRef) -> tuple[FlowArc | TriggerArc, ...]:
        """Arcs whose source is `ref`: flows, then triggers, in model order."""
        return tuple(self._arcs_by_end[0].get(ref, ()))

    def arcs_into(self, ref: StageRef) -> tuple[FlowArc | TriggerArc, ...]:
        """Arcs whose target is `ref`: flows, then triggers, in model order."""
        return tuple(self._arcs_by_end[1].get(ref, ()))

    @cached_property
    def _arcs_by_end(self) -> tuple[dict[StageRef, list], dict[StageRef, list]]:
        by_source: dict[StageRef, list] = {}
        by_target: dict[StageRef, list] = {}
        for arc in self.flows + self.triggers:
            by_source.setdefault(arc.source, []).append(arc)
            by_target.setdefault(arc.target, []).append(arc)
        return by_source, by_target


# ---------------------------------------------------------------------------
# Declarations (produced by tmkit.dsl.parse or built programmatically)
# ---------------------------------------------------------------------------

class ModelDecl(Record):
    name: str
    span: SourceSpan | None = None


class ThimacDecl(Record):
    path: str
    stages: tuple[StageKind, ...] = ()
    span: SourceSpan | None = None


class FlowDecl(Record):
    label: str
    chain: tuple[StageRef, ...]
    span: SourceSpan | None = None


class TriggerDecl(Record):
    source: StageRef
    target: StageRef
    span: SourceSpan | None = None


class EventDecl(Record):
    name: str
    members: tuple[StageRef | str, ...]
    description: str | None = None
    time: str | None = None
    span: SourceSpan | None = None


class BehaviorDecl(Record):
    chain: tuple[str, ...]
    span: SourceSpan | None = None


Declaration = (
    ModelDecl | ThimacDecl | FlowDecl | TriggerDecl | EventDecl | BehaviorDecl
)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

class AssemblyError(ModelError):
    """Raised when declarations cannot be assembled into a valid model."""

    code = "E_ASSEMBLY"


class DuplicatePathError(AssemblyError):
    code = "E_DUPLICATE_PATH"


class UnknownParentError(AssemblyError):
    code = "E_UNKNOWN_PARENT"


class DanglingRefError(AssemblyError):
    code = "E_DANGLING_REF"


class DuplicateArcError(AssemblyError):
    code = "E_DUPLICATE_ARC"


class InvalidArcError(AssemblyError):
    code = "E_INVALID_ARC"


class DuplicateEventError(AssemblyError):
    code = "E_DUPLICATE_EVENT"


def assemble_model(decls: Sequence[Declaration]) -> TMModel:
    """Assemble declarations into an immutable model.

    Stages referenced by flow and trigger arcs are implicitly added to
    their thimac, and missing thimacs are created on first reference.
    Event regions are carried as written and checked later by
    `tmkit.behavior.check_event_region`, so a model with unresolved event
    members can still be assembled and diagnosed.
    """
    # Every thimac's stages (the grand thimac is ""), and the paths that a
    # thimac declaration names rather than only an arc.
    stages: dict[str, set[StageKind]] = {"": set()}
    explicit: set[str] = {""}
    model_name: str | None = None

    def declare(path: str, span: SourceSpan | None) -> None:
        if path in explicit:
            raise DuplicatePathError(f"thimac {path!r} declared twice", span)
        parent, _, _ = path.rpartition(".")
        if path not in stages and parent and parent not in stages:
            raise UnknownParentError(
                f"thimac {path!r} has undeclared parent {parent!r}", span
            )
        explicit.add(path)
        stages.setdefault(path, set())

    def touch(ref: StageRef) -> None:
        if ref.thimac not in stages:
            # Create the thimac and any missing ancestors.
            parts = ref.thimac.split(".")
            for i in range(1, len(parts) + 1):
                stages.setdefault(".".join(parts[:i]), set())
        stages[ref.thimac].add(ref.kind)

    # Each arc kind by its key, in declaration order.
    flows: dict[tuple[str, StageRef, StageRef], FlowArc] = {}
    triggers: dict[tuple[StageRef, StageRef], TriggerArc] = {}
    arcs_by_id: dict[str, FlowArc | TriggerArc] = {}
    events: dict[str, Event] = {}
    # Insertion-ordered dicts used as sets: first declaration wins the place.
    behavior_nodes: dict[str, None] = {}
    behavior_edges: dict[tuple[str, str], None] = {}

    for decl in decls:
        if isinstance(decl, ModelDecl):
            if model_name is None:
                model_name = decl.name
        elif isinstance(decl, ThimacDecl):
            declare(decl.path, decl.span)
            stages[decl.path].update(decl.stages)
        elif isinstance(decl, FlowDecl):
            for ref in decl.chain:
                touch(ref)
            for src, dst in zip(decl.chain, decl.chain[1:]):
                key = (decl.label, src, dst)
                if key in flows:
                    raise DuplicateArcError(
                        f"duplicate flow arc {decl.label}: {src} -> {dst}",
                        decl.span,
                    )
                arc = flows[key] = FlowArc(f"F{len(flows) + 1}", *key, decl.span)
                arcs_by_id[arc.id] = arc
        elif isinstance(decl, TriggerDecl):
            if decl.source == decl.target:
                raise InvalidArcError(
                    f"trigger may not point at its own source: {decl.source}",
                    decl.span,
                )
            touch(decl.source)
            touch(decl.target)
            key = (decl.source, decl.target)
            if key in triggers:
                raise DuplicateArcError(
                    f"duplicate trigger {decl.source} ~> {decl.target}", decl.span
                )
            trig = triggers[key] = TriggerArc(f"T{len(triggers) + 1}", *key, decl.span)
            arcs_by_id[trig.id] = trig
        elif isinstance(decl, EventDecl):
            if decl.name in events:
                raise DuplicateEventError(
                    f"event {decl.name!r} declared twice", decl.span
                )
            if "\n" in (decl.description or "") + (decl.time or ""):
                raise AssemblyError(
                    f"event {decl.name!r}: .tm text cannot hold a line break "
                    "in a description or time",
                    decl.span,
                )
            region: dict[StageRef, None] = {}
            for member in decl.members:
                if isinstance(member, StageRef):
                    region[member] = None
                else:
                    arc = arcs_by_id.get(member)
                    if arc is None:
                        raise DanglingRefError(
                            f"event {decl.name!r} names unknown arc {member!r}",
                            decl.span,
                        )
                    region[arc.source] = region[arc.target] = None
            events[decl.name] = Event(
                decl.name, tuple(region), decl.description, decl.time, decl.span
            )
        elif isinstance(decl, BehaviorDecl):
            for evt_name in decl.chain:
                if evt_name not in events:
                    raise DanglingRefError(
                        f"behavior names undeclared event {evt_name!r}", decl.span
                    )
                behavior_nodes[evt_name] = None
            for a, b in zip(decl.chain, decl.chain[1:]):
                if a == b:
                    raise InvalidArcError(
                        f"behavior edge {a} -> {b} is a self-loop", decl.span
                    )
                behavior_edges[a, b] = None
        else:
            raise AssemblyError(f"unknown declaration type: {decl!r}")

    children: dict[str, list[str]] = {path: [] for path in stages}
    for path in stages:
        if path:
            parent, _, _ = path.rpartition(".")
            children[parent].append(path)

    thimacs = {
        path: Thimac(
            path=path,
            name=path.rpartition(".")[2] if path else (model_name or ""),
            children=tuple(sorted(children[path])),
            stages=frozenset(kinds),
        )
        for path, kinds in stages.items()
    }

    return TMModel(
        name=model_name or "",
        thimacs=MappingProxyType(thimacs),
        flows=tuple(flows.values()),
        triggers=tuple(triggers.values()),
        events=MappingProxyType(events),
        behavior=BehaviorGraph(tuple(behavior_nodes), tuple(behavior_edges)),
    )

