"""Token-based execution of behavior graphs, with exhaustive state-space
exploration at desk scale.

Every behavior edge becomes a bounded channel (capacity 1 unless
configured otherwise).  An event is enabled when every incoming channel
holds a token and every outgoing channel has room; firing consumes one
token per incoming channel and deposits one per outgoing channel.

Starting tokens come from the initial-event set.  An initial event with
no incoming channels gets a one-shot virtual start channel (so acyclic
behaviors run once and halt); an initial event inside a cycle is seeded
with one token on each of its incoming channels (the "ready" slot that
lets a cycle begin).  When no initial events are given, the structural
sources are used, or, for a source-free cycle, the head of the first
declared behavior chain.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .behavior import infer_dependencies
from .diagnostics import TMError
from .model import BehaviorGraph, Event, TMModel


class ConfigError(TMError):
    pass


class NoInitialEventsError(TMError):
    """The net has no tokens and no start channels: nothing can ever fire."""


@dataclass(frozen=True)
class Channel:
    """A bounded buffer carrying tokens from one event to another.  A
    start channel has an empty `src` and exists only to bootstrap its
    target once."""

    src: str
    dst: str
    capacity: int = 1

    @property
    def id(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class Firing:
    step: int
    event: str
    marking: tuple[tuple[str, int], ...]

    def marking_dict(self) -> dict[str, int]:
        return dict(self.marking)


@dataclass(frozen=True)
class Trace:
    firings: tuple[Firing, ...] = ()

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {"step": f.step, "event": f.event, "marking": f.marking_dict()},
                sort_keys=True,
            )
            for f in self.firings
        ]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class SimConfig:
    capacities: int | Mapping[tuple[str, str], int] = 1
    max_steps: int = 100
    seed: int = 0
    initial_events: frozenset[str] | None = None
    channels: str = "declared"  # or "inferred"


@dataclass(frozen=True)
class ExploreConfig:
    capacities: int | Mapping[tuple[str, str], int] = 1
    max_states: int = 10_000
    initial_events: frozenset[str] | None = None
    terminal_events: frozenset[str] | None = None
    channels: str = "declared"


@dataclass(frozen=True)
class ExploreResult:
    reachable_count: int
    deadlocks: tuple[tuple[tuple[str, int], ...], ...]
    bounded: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "reachableCount": self.reachable_count,
                "deadlocks": [dict(m) for m in self.deadlocks],
                "bounded": self.bounded,
            },
            sort_keys=True,
        )


@dataclass
class _Net:
    nodes: tuple[str, ...]
    channels: tuple[Channel, ...]
    incoming: dict[str, tuple[Channel, ...]]
    outgoing: dict[str, tuple[Channel, ...]]
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


def _edges_for(
    model: TMModel,
    events: Iterable[Event] | None,
    behavior: BehaviorGraph,
    mode: str,
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    if events is not None:
        nodes = tuple(e.name for e in events)
    elif model.events:
        nodes = tuple(model.events)
    else:
        nodes = behavior.nodes
    if mode == "inferred":
        deps = sorted(infer_dependencies(model, events))
        return nodes, tuple(deps)
    if mode != "declared":
        raise ConfigError(f"unknown channel mode {mode!r}")
    return nodes, behavior.edges


def build_net(
    model: TMModel,
    config: SimConfig | ExploreConfig,
    events: Iterable[Event] | None = None,
    behavior: BehaviorGraph | None = None,
) -> _Net:
    behavior = behavior if behavior is not None else model.behavior
    nodes, edges = _edges_for(model, events, behavior, config.channels)

    def capacity(edge: tuple[str, str]) -> int:
        if isinstance(config.capacities, int):
            cap = config.capacities
        else:
            cap = config.capacities.get(edge, 1)
        if cap <= 0:
            raise ConfigError(f"channel {edge[0]}->{edge[1]} has capacity {cap}")
        return cap

    channels = [Channel(a, b, capacity((a, b))) for a, b in edges]
    incoming: dict[str, list[Channel]] = {n: [] for n in nodes}
    outgoing: dict[str, list[Channel]] = {n: [] for n in nodes}
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

    tokens: dict[Channel, int] = {ch: 0 for ch in channels}
    for name in sorted(initial):
        if incoming[name]:
            for ch in incoming[name]:
                tokens[ch] = min(ch.capacity, tokens[ch] + 1)
        else:
            start = Channel("", name, 1)
            channels.append(start)
            incoming[name].append(start)
            tokens[start] = 1

    return _Net(
        nodes=nodes,
        channels=tuple(channels),
        incoming={n: tuple(chs) for n, chs in incoming.items()},
        outgoing={n: tuple(chs) for n, chs in outgoing.items()},
        initial=tuple(tokens[ch] for ch in channels),
    )


def simulate(
    model: TMModel,
    config: SimConfig | None = None,
    events: Iterable[Event] | None = None,
    behavior: BehaviorGraph | None = None,
) -> Trace:
    """Run one seeded execution; deterministic for a given configuration.

    At each step one enabled event is picked by the seeded RNG and fired;
    the run stops at `max_steps` or when nothing is enabled.  Raises
    NoInitialEventsError when the initial marking is empty (nothing could
    ever fire), and ConfigError for non-positive capacities.
    """
    config = config or SimConfig()
    if config.max_steps < 0:
        raise ConfigError("max_steps must be >= 0")
    net = build_net(model, config, events, behavior)
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


def explore_state_space(
    model: TMModel,
    config: ExploreConfig | None = None,
    events: Iterable[Event] | None = None,
    behavior: BehaviorGraph | None = None,
) -> ExploreResult:
    """Breadth-first enumeration of every reachable marking.

    A halted marking (no event enabled) counts as a normal completion
    only when all channels have drained, at least one firing led to it,
    and the terminal set (by default: events with no outgoing channels)
    is non-empty; every other halt is a deadlock.  When `max_states` is
    exhausted the partial result is returned with `bounded` False.
    """
    config = config or ExploreConfig()
    net = build_net(model, config, events, behavior)

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
