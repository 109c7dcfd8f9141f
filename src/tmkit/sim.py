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
from .model import TMModel
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
    stale: tuple[frozenset[int], ...]  # per position: tested ones sharing a channel
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


def build_net(model: TMModel, config: SimConfig | ExploreConfig) -> _Net:
    nodes = tuple(model.events) or model.behavior.nodes
    if config.channels == "inferred":
        edges = sorted(infer_dependencies(model))
    elif config.channels == "declared":
        edges = model.behavior.edges
    else:
        raise ConfigError(f"unknown channel mode {config.channels!r}")
    # Each channel's capacity; a repeated behavior edge is one channel, as in
    # `assemble_model`.
    capacities = config.capacities
    if isinstance(capacities, int):
        if capacities <= 0:
            raise ConfigError(f"every channel has capacity {capacities}")
        capacity = dict.fromkeys(edges, capacities)
    else:
        capacity = dict.fromkeys(edges, 1)
        for key in capacities:
            if key not in capacity:
                raise ConfigError(f"capacity given for {key!r}, which is not a channel")
        capacity.update(capacities)
        for (a, b), cap in capacity.items():
            if cap <= 0:
                raise ConfigError(f"channel {a}->{b} has capacity {cap}")

    fed = {b for _, b in capacity}  # events with an input channel
    initial = config.initial_events
    if initial is None:
        sources = [n for n in nodes if n not in fed]
        if sources:
            initial = frozenset(sources)
        elif capacity:
            initial = frozenset({next(iter(capacity))[0]})
        else:
            initial = frozenset()
    unknown = set(initial) - set(nodes)
    if unknown:
        raise ConfigError(
            f"initial event(s) not in the behavior: {', '.join(sorted(unknown))}"
        )

    # (id, capacity, start tokens, source position, target position), with
    # the position None for an endpoint outside `nodes`.  A channel into an
    # initial event starts with its token; an initial event with no input
    # gets a one-token start channel.
    position = {name: p for p, name in enumerate(nodes)}
    channels = [
        (f"{a}->{b}", cap, int(b in initial), position.get(a), position.get(b))
        for (a, b), cap in capacity.items()
    ]
    channels += [
        (f"->{n}", 1, 1, None, position[n]) for n in sorted(initial) if n not in fed
    ]

    # One pass lays the fields out from bit 0, each under its guard bit (see
    # `_Net`), and sums each event's G_in, L_in, A_out, G_out and L_out.  A
    # channel's target has an input, so it joins the links of both ends; the
    # source joins the target's links, and leaves them below if it has none.
    masks = [[0] * 5 for _ in nodes]
    links = [set() for _ in nodes]
    fields = []
    initial_marking = at = 0
    for cid, cap, count, source, target in channels:
        width = cap.bit_length()
        unit, guard = 1 << at, 1 << (at + width)
        if target is not None:
            masks[target][0] += guard
            masks[target][1] += unit
            links[target].update((source, target))
        if source is not None:
            out = masks[source]
            out[2] += ((1 << width) - cap) << at
            out[3] += guard
            out[4] += unit
            links[source].add(target)
        fields.append((cid, at, (1 << width) - 1))
        initial_marking += count << at
        at += width + 1

    # An event with no input channel is never enabled: it has no test, and
    # no `stale` entry needs to name it.
    tests = {
        p: (p, g_in, l_in, a_out, g_out)
        for p, (g_in, l_in, a_out, g_out, _) in enumerate(masks)
        if l_in
    }
    tested = frozenset(tests)
    stale = [tested & linked for linked in links]
    fields.sort()
    return _Net(
        nodes=nodes,
        initial=initial_marking,
        enabled=tuple(_retest((), initial_marking, frozenset(), tests.values())),
        delta=tuple([l_out - l_in for _, l_in, _, _, l_out in masks]),
        stale=tuple(stale),
        near=tuple([tuple([tests[q] for q in around]) for around in stale]),
        sinks=tuple([n for n, (*_, l_out) in zip(nodes, masks) if not l_out]),
        fields=tuple(fields),
    )


def simulate(model: TMModel, config: SimConfig | None = None) -> Trace:
    """Run one seeded execution; deterministic for a given configuration.

    At each step one enabled event is picked by the seeded RNG and fired;
    the run stops at `max_steps` or when nothing is enabled.  Raises
    NoInitialEventsError when the initial marking is empty (nothing could
    ever fire), and ConfigError for non-positive capacities or a capacity
    given for a pair of events that is not a channel.
    """
    config = config or SimConfig()
    if config.max_steps < 0:
        raise ConfigError("max_steps must be >= 0")
    net = build_net(model, config)
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
    model: TMModel, config: ExploreConfig | None = None
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
    net = build_net(model, config)

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
