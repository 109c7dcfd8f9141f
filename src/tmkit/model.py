"""Core domain types: thimacs, stages, arcs, events, and model assembly.

A model is assembled from parsed declarations (see `tmkit.dsl`) or from
declarations constructed programmatically.  Assembly resolves thimac
paths, expands flow chains into individual arcs, and freezes the result;
assembled models are immutable and safe to share between analyses.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from types import MappingProxyType

from .diagnostics import ModelError, SourceSpan
from .records import Record


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

# Each kind's name, in `KIND_ORDER`, read without `Enum.value` (a Python-level
# property).
_KIND_NAME: dict[StageKind, str] = {k: k.value for k in StageKind}


def kind_from_name(name: str) -> StageKind | None:
    """Look up a stage kind by its lowercase name, or None if unknown."""
    return _KIND_BY_NAME.get(name)


class StageRef(Record):
    """Addressable stage of a thimac, e.g. ``Mill.Motor`` + ``process``,
    printed ``Mill.Motor.process``.  References key most of the model's
    indices; like every record, one hashes as its field tuple, in C."""

    thimac: str
    kind: StageKind

    def __str__(self) -> str:
        return f"{self.thimac}.{_KIND_NAME[self.kind]}"


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

    name: str
    thimacs: Mapping[str, Thimac]
    flows: tuple[FlowArc, ...]
    triggers: tuple[TriggerArc, ...]
    events: Mapping[str, Event]
    behavior: BehaviorGraph

    def resolves(self, ref: StageRef) -> bool:
        thimac = self.thimacs.get(ref.thimac)
        return thimac is not None and ref.kind in thimac.stages


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

    def add_stages(refs: Sequence[StageRef], span: SourceSpan | None) -> None:
        """Add each stage to its thimac; a thimac met first here is created
        with its missing ancestors, outermost first."""
        for ref in refs:
            if not ref.thimac:
                raise AssemblyError(
                    f"stage {ref} is in the grand thimac, which .tm text cannot name", span
                )
            kinds = stages.get(ref.thimac)
            if kinds is None:
                missing = [ref.thimac]
                while (parent := missing[-1].rpartition(".")[0]) not in stages:
                    missing.append(parent)
                for path in reversed(missing):
                    stages[path] = set()
                kinds = stages[ref.thimac]
            kinds.add(ref.kind)

    # Each arc kind's keys, and its arcs in declaration order.
    flow_keys: set[tuple[str, StageRef, StageRef]] = set()
    flows: list[FlowArc] = []
    trigger_keys: set[tuple[StageRef, StageRef]] = set()
    triggers: list[TriggerArc] = []
    events: dict[str, Event] = {}
    # Insertion-ordered dicts used as sets: first declaration wins the place.
    behavior_nodes: dict[str, None] = {}
    behavior_edges: dict[tuple[str, str], None] = {}

    for decl in decls:
        cls = decl.__class__
        if cls is FlowDecl:
            label, span = decl.label, decl.span
            add_stages(decl.chain, span)
            for src, dst in zip(decl.chain, decl.chain[1:]):
                key = (label, src, dst)
                if key in flow_keys:
                    raise DuplicateArcError(
                        f"duplicate flow arc {label}: {src} -> {dst}", span
                    )
                flow_keys.add(key)
                flows.append(FlowArc(f"F{len(flows) + 1}", label, src, dst, span))
        elif cls is EventDecl:
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
                    if not member.thimac:
                        raise AssemblyError(
                            f"event {decl.name!r} names stage {member} of the grand "
                            "thimac, which .tm text cannot name",
                            decl.span,
                        )
                    region[member] = None
                    continue
                arc = _arc_named(member, flows, triggers)
                if arc is None:
                    raise DanglingRefError(
                        f"event {decl.name!r} names unknown arc {member!r}",
                        decl.span,
                    )
                region[arc.source] = region[arc.target] = None
            events[decl.name] = Event(
                decl.name, tuple(region), decl.description, decl.time, decl.span
            )
        elif cls is TriggerDecl:
            source, target, span = decl.source, decl.target, decl.span
            if source == target:
                raise InvalidArcError(
                    f"trigger may not point at its own source: {source}", span
                )
            add_stages((source, target), span)
            key = (source, target)
            if key in trigger_keys:
                raise DuplicateArcError(f"duplicate trigger {source} ~> {target}", span)
            trigger_keys.add(key)
            triggers.append(TriggerArc(f"T{len(triggers) + 1}", source, target, span))
        elif cls is ThimacDecl:
            declare(decl.path, decl.span)
            stages[decl.path].update(decl.stages)
        elif cls is BehaviorDecl:
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
        elif cls is ModelDecl:
            if model_name is None:
                model_name = decl.name
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
        flows=tuple(flows),
        triggers=tuple(triggers),
        events=MappingProxyType(events),
        behavior=BehaviorGraph(tuple(behavior_nodes), tuple(behavior_edges)),
    )


def _arc_named(
    arc_id: object, flows: list[FlowArc], triggers: list[TriggerArc]
) -> FlowArc | TriggerArc | None:
    """The arc declared so far whose id is `arc_id`, or None.  Arcs are
    numbered from 1 in declaration order, so ``F<n>`` can only be
    ``flows[n - 1]`` and ``T<n>`` only ``triggers[n - 1]``."""
    if not isinstance(arc_id, str):
        return None
    arcs = {"F": flows, "T": triggers}.get(arc_id[:1], ())
    digits = arc_id[1:]
    # No more digits than the arc count has, so `int` reads a small number.
    if digits.isascii() and digits.isdigit() and len(digits) <= len(str(len(arcs))):
        index = int(digits) - 1
        if 0 <= index < len(arcs) and arcs[index].id == arc_id:
            return arcs[index]
    return None
