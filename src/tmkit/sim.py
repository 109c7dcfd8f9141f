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
from collections.abc import Iterable, Mapping

from .behavior import infer_dependencies
from .diagnostics import TMError
from .model import BehaviorGraph, Event, TMModel
from .records import Record


class ConfigError(TMError):
    pass


class NoInitialEventsError(TMError):
    """The net has no tokens and no start channels: nothing can ever fire."""


class Firing(Record):
    step: int
    event: str
    marking: tuple[tuple[str, int], ...]


class Trace(Record):
    firings: tuple[Firing, ...] = ()

    def to_jsonl(self) -> str:
        # One line is `json.dumps(..., sort_keys=True)` of the firing; each
        # distinct marking and event name is encoded once.
        markings: dict[tuple[tuple[str, int], ...], str] = {}
        events: dict[str, str] = {}
        lines = []
        for f in self.firings:
            marking = markings.get(f.marking)
            if marking is None:
                marking = markings[f.marking] = json.dumps(
                    dict(f.marking), sort_keys=True
                )
            event = events.get(f.event)
            if event is None:
                event = events[f.event] = json.dumps(f.event)
            lines.append(
                f'{{"event": {event}, "marking": {marking}, "step": {f.step}}}'
            )
        return "\n".join(lines) + ("\n" if lines else "")


class SimConfig(Record):
    capacities: int | Mapping[tuple[str, str], int] = 1
    max_steps: int = 100
    seed: int = 0
    initial_events: frozenset[str] | None = None
    channels: str = "declared"  # or "inferred"


class ExploreConfig(Record):
    capacities: int | Mapping[tuple[str, str], int] = 1
    max_states: int = 10_000
    initial_events: frozenset[str] | None = None
    terminal_events: frozenset[str] | None = None
    channels: str = "declared"


class ExploreResult(Record):
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


# An event's enabling test: (position, G_in, L_in, A_out, G_out); see `_Net`.
_Test = tuple[int, int, int, int, int]


class _Net(Record):
    """Channels are numbered once, and a marking is one int: each channel
    holds its token count in a field of `capacity.bit_length()` bits, under a
    guard bit that is always 0 in a marking.

    Events are numbered by their position in `nodes`.  Firing event p adds
    `delta[p]`.  With G the guard bits of a set of channels, L their lowest
    bits and A the amounts that carry a full field into its guard, p is
    enabled iff ``((m | G_in) - L_in) & G_in == G_in`` (no input field
    borrows from its guard: each holds a token) and ``(m + A_out) & G_out ==
    0`` (no output field is full).  The tests are separate, so a self-loop
    channel needs both a token and room.  An event with no input channel is
    never enabled and has no test.
    """

    nodes: tuple[str, ...]
    initial: int
    enabled: tuple[int, ...]  # the positions enabled at `initial`
    delta: tuple[int, ...]  # per position
    stale: tuple[frozenset[int], ...]  # per position: positions sharing a channel
    near: tuple[tuple[_Test, ...], ...]  # per position: the tests of `stale`
    sinks: tuple[str, ...]  # events with no output channel
    fields: tuple[tuple[str, int, int], ...]  # (id, shift, mask) in id order

    def decode(self, marking: int) -> tuple[tuple[str, int], ...]:
        return tuple([(cid, marking >> at & mask) for cid, at, mask in self.fields])


def _retest(
    enabled: Iterable[int],
    marking: int,
    stale: frozenset[int],
    near: Iterable[_Test],
) -> list[int]:
    """The positions enabled at `marking`, in position order: `enabled` less
    `stale`, plus every test in `near` that passes."""
    out = [p for p in enabled if p not in stale]
    for p, g_in, l_in, a_out, g_out in near:
        if ((marking | g_in) - l_in) & g_in == g_in and not (marking + a_out) & g_out:
            out.append(p)
    out.sort()
    return out


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

    # Lay the fields out from bit 0, each under its guard bit (see `_Net`).
    unit, guard, room, fields = [], [], [], []
    initial_marking = at = 0
    for cid, cap, count in zip(ids, capacity, tokens):
        width = cap.bit_length()
        unit.append(1 << at)
        guard.append(1 << (at + width))
        room.append(((1 << width) - cap) << at)
        fields.append((cid, at, (1 << width) - 1))
        initial_marking += count << at
        at += width + 1

    delta = []
    tests: list[_Test | None] = []
    touching: list[list[int]] = [[] for _ in ids]  # positions per channel
    for p, name in enumerate(nodes):
        g_in = l_in = a_out = g_out = l_out = 0
        for i in inputs[name]:
            g_in += guard[i]
            l_in += unit[i]
            touching[i].append(p)
        for i in outputs[name]:
            a_out += room[i]
            g_out += guard[i]
            l_out += unit[i]
            touching[i].append(p)
        delta.append(l_out - l_in)
        tests.append((p, g_in, l_in, a_out, g_out) if l_in else None)
    near, stale = [], []
    for name in nodes:
        around = frozenset().union(*[touching[i] for i in inputs[name] + outputs[name]])
        near.append(tuple([tests[q] for q in around if tests[q]]))
        stale.append(around)

    fields.sort()
    return _Net(
        nodes=nodes,
        initial=initial_marking,
        enabled=tuple(_retest((), initial_marking, frozenset(), filter(None, tests))),
        delta=tuple(delta),
        stale=tuple(stale),
        near=tuple(near),
        sinks=tuple([n for n in nodes if not outputs[n]]),
        fields=tuple(fields),
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
    if net.initial == 0:
        raise NoInitialEventsError(
            "no tokens and no start channels; nothing can ever fire"
        )
    choice = random.Random(config.seed).choice
    nodes, delta, near, stale = net.nodes, net.delta, net.near, net.stale
    marking, enabled = net.initial, net.enabled
    decoded: dict[int, tuple[tuple[str, int], ...]] = {}  # one tuple per marking
    firings: list[Firing] = []
    for step in range(config.max_steps):
        if not enabled:
            break
        p = choice(enabled)
        marking += delta[p]
        enabled = _retest(enabled, marking, stale[p], near[p])
        items = decoded.get(marking)
        if items is None:
            items = decoded[marking] = net.decode(marking)
        firings.append(Firing(step, nodes[p], items))
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
    Raises ConfigError for a terminal event outside the net.

    Each queued marking carries its enabled positions, so a successor
    re-tests only the events that share a channel with the fired one.
    """
    config = config or ExploreConfig()
    net = build_net(model, config, events, behavior)

    if config.terminal_events is not None:
        unknown = set(config.terminal_events) - set(net.nodes)
        if unknown:
            raise ConfigError(
                f"terminal event(s) not in the behavior: {', '.join(sorted(unknown))}"
            )
        terminal = bool(config.terminal_events)
    else:
        terminal = bool(net.sinks)

    delta, near, stale = net.delta, net.near, net.stale
    max_states = config.max_states
    initial = net.initial
    seen = {initial}
    queue = deque([(initial, net.enabled)])
    deadlocks: list[tuple[tuple[str, int], ...]] = []
    bounded = True
    while queue:
        marking, enabled = queue.popleft()
        if not enabled:
            completed = marking == 0 and marking != initial and terminal
            if not completed:
                deadlocks.append(net.decode(marking))
            continue
        for p in enabled:
            nxt = marking + delta[p]
            if nxt not in seen:
                if len(seen) >= max_states:
                    bounded = False
                    continue
                seen.add(nxt)
                queue.append((nxt, _retest(enabled, nxt, stale[p], near[p])))
    return ExploreResult(
        reachable_count=len(seen),
        deadlocks=tuple(sorted(deadlocks)),
        bounded=bounded,
    )
