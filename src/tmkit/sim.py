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


@dataclass(frozen=True)
class _Net:
    """Channels are numbered once: a marking is a tuple of token counts, one
    per channel position, and each event lists the positions it reads and
    writes."""

    nodes: tuple[str, ...]
    ids: tuple[str, ...]  # "A->B", or "->A" for a start channel
    capacity: tuple[int, ...]
    inputs: dict[str, tuple[int, ...]]
    outputs: dict[str, tuple[int, ...]]
    initial: tuple[int, ...]
    order: tuple[int, ...]  # channel positions sorted by id

    def enabled(self, marking: tuple[int, ...], node: str) -> bool:
        ins = self.inputs[node]
        if not ins:
            # Nothing feeds this event and it has no start channel.
            return False
        for i in ins:
            if marking[i] < 1:
                return False
        capacity = self.capacity
        for i in self.outputs[node]:
            if marking[i] >= capacity[i]:
                return False
        return True

    def fire(self, marking: tuple[int, ...], node: str) -> tuple[int, ...]:
        counts = list(marking)
        for i in self.inputs[node]:
            counts[i] -= 1
        for i in self.outputs[node]:
            counts[i] += 1
        return tuple(counts)

    def enabled_nodes(self, marking: tuple[int, ...]) -> list[str]:
        return [n for n in self.nodes if self.enabled(marking, n)]

    def marking_items(self, marking: tuple[int, ...]) -> tuple[tuple[str, int], ...]:
        ids = self.ids
        return tuple([(ids[i], marking[i]) for i in self.order])


def build_net(
    model: TMModel,
    config: SimConfig | ExploreConfig,
    events: Iterable[Event] | None = None,
    behavior: BehaviorGraph | None = None,
) -> _Net:
    behavior = behavior if behavior is not None else model.behavior
    if events is not None:
        events = tuple(events)  # read twice below; it may be an iterator
        nodes = tuple(e.name for e in events)
    elif model.events:
        nodes = tuple(model.events)
    else:
        nodes = behavior.nodes
    if config.channels == "inferred":
        edges = sorted(infer_dependencies(model, events))
    elif config.channels == "declared":
        # A repeated behavior edge is one channel, as in `assemble_model`.
        edges = list(dict.fromkeys(behavior.edges))
    else:
        raise ConfigError(f"unknown channel mode {config.channels!r}")

    ids = [f"{a}->{b}" for a, b in edges]
    capacity = []
    inputs: dict[str, list[int]] = {n: [] for n in nodes}
    outputs: dict[str, list[int]] = {n: [] for n in nodes}
    for i, (a, b) in enumerate(edges):
        if isinstance(config.capacities, int):
            cap = config.capacities
        else:
            cap = config.capacities.get((a, b), 1)
        if cap <= 0:
            raise ConfigError(f"channel {a}->{b} has capacity {cap}")
        capacity.append(cap)
        if b in inputs:
            inputs[b].append(i)
        if a in outputs:
            outputs[a].append(i)

    initial = config.initial_events
    if initial is None:
        sources = [n for n in nodes if not inputs[n]]
        if sources:
            initial = frozenset(sources)
        elif edges:
            initial = frozenset({edges[0][0]})
        else:
            initial = frozenset()
    unknown = set(initial) - set(nodes)
    if unknown:
        raise ConfigError(
            f"initial event(s) not in the behavior: {', '.join(sorted(unknown))}"
        )

    tokens = [0] * len(edges)
    for name in sorted(initial):
        if inputs[name]:
            for i in inputs[name]:
                tokens[i] = min(capacity[i], tokens[i] + 1)
        else:
            inputs[name].append(len(ids))
            ids.append(f"->{name}")
            capacity.append(1)
            tokens.append(1)

    return _Net(
        nodes=nodes,
        ids=tuple(ids),
        capacity=tuple(capacity),
        inputs={n: tuple(chs) for n, chs in inputs.items()},
        outputs={n: tuple(chs) for n, chs in outputs.items()},
        initial=tuple(tokens),
        order=tuple(sorted(range(len(ids)), key=ids.__getitem__)),
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
        terminal = {n for n in net.nodes if not net.outputs[n]}

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
