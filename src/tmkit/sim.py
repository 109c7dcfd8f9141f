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
from collections.abc import Iterable, Iterator, Mapping
from heapq import heappop, heappush
from itertools import islice
from math import inf

from .behavior import infer_dependencies
from .diagnostics import TMError
from .model import TMModel
from .records import Record


class ConfigError(TMError):
    pass


class NoInitialEventsError(TMError):
    """The net has no tokens and no start channels: nothing can ever fire."""


class Firing(Record):
    event: str
    marking: tuple[tuple[str, int], ...]  # after the firing


class Trace(Record):
    firings: tuple[Firing, ...] = ()  # a firing's step is its index here

    def to_jsonl(self) -> str:
        """Every firing's line, encoded by `encode_batches` as one batch.
        `tm simulate` writes the same lines in batches as `simulate_firings`
        yields them, without building a trace."""
        return "".join(encode_batches(self.firings))


def encode_batches(firings: Iterable[Firing], size: int | None = None) -> Iterator[str]:
    """Yield the firings' lines joined into batches of `size` lines (all of
    them in one batch when `size` is None; a `size` below 1 is a
    ValueError).  A firing's line is
    `json.dumps(..., sort_keys=True)` of its event, marking and step, where
    its step is its index in `firings`.

    A line is a head, `{"event": …, "marking": …, "step": `, and a tail,
    the step and `}` and a newline.  Each record's head is encoded once,
    keyed by identity: `simulate_firings` yields one record for every step
    that repeats a firing.  A batch is one join of its heads and tails, so
    no string is built per line.  The records stay referenced here, so no
    id is reused while the batches are made."""
    if size is not None and size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    heads: dict[int, str] = {}
    kept: list[Firing] = []
    steps = enumerate(firings)
    while True:
        pieces: list[str] = []
        append = pieces.append
        for step, f in islice(steps, size):
            head = heads.get(id(f))
            if head is None:
                kept.append(f)
                marking = json.dumps(dict(f.marking), sort_keys=True)
                head = heads[id(f)] = f'{{"event": {json.dumps(f.event)}, "marking": {marking}, "step": '
            append(head)
            append(f"{step}}}\n")
        if not pieces:
            return
        yield "".join(pieces)


class NetConfig(Record):
    """The token net's inputs, read by `build_net`."""

    capacities: int | Mapping[tuple[str, str], int] = 1
    initial_events: frozenset[str] | None = None
    channels: str = "declared"  # or "inferred"


class SimConfig(NetConfig):
    max_steps: int = 100
    seed: int = 0


class ExploreConfig(NetConfig):
    max_states: int = 10_000
    terminal_events: frozenset[str] | None = None


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


# An event's enabling test: (G_in, L_in, A_out, G_out); see `_Net`.
_Test = tuple[int, int, int, int]


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

    The events fall into independent parts: two events are in one part when
    a channel joins them.  A channel belongs to its endpoints' part, so an
    event's test and its delta read and write only its part's fields.  A
    channel with neither endpoint in `nodes` belongs to no part; it never
    holds a token.
    """

    nodes: tuple[str, ...]
    initial: int
    enabled: tuple[int, ...]  # the positions enabled at `initial`
    delta: tuple[int, ...]  # per position
    near: tuple[dict[int, _Test], ...]  # per position: tested ones sharing a channel
    sinks: tuple[str, ...]  # events with no output channel
    fields: tuple[tuple[str, int, int], ...]  # (id, shift, mask) in id order
    part_of: tuple[int, ...]  # per position: the index of its part
    part_masks: tuple[int, ...]  # per part: the bits of its channels' fields
    channels: tuple[tuple[str, int, int, int | None, int | None], ...]  # see `build_net`

    def decode(self, marking: int) -> tuple[tuple[str, int], ...]:
        return tuple([(cid, marking >> at & mask) for cid, at, mask in self.fields])


def _retest(enabled: Iterable[int], marking: int, near: Mapping[int, _Test]) -> list[int]:
    """The positions enabled at `marking`, in position order: `enabled` less
    the positions `near` keys, plus each of those whose test passes."""
    out = [p for p in enabled if p not in near]
    for p, (g_in, l_in, a_out, g_out) in near.items():
        if ((marking | g_in) - l_in) & g_in == g_in and not (marking + a_out) & g_out:
            out.append(p)
    out.sort()
    return out


def _check_events(role: str, events: Iterable[str], nodes: Iterable[str]) -> None:
    if unknown := set(events).difference(nodes):
        raise ConfigError(f"{role} event(s) not in the behavior: {', '.join(sorted(unknown))}")


def build_net(model: TMModel, config: NetConfig) -> _Net:
    nodes = tuple(model.events) or model.behavior.nodes
    position = {name: p for p, name in enumerate(nodes)}
    if len(position) < len(nodes):
        repeated = {name for p, name in enumerate(nodes) if position[name] != p}
        raise ConfigError(
            f"event(s) repeated in the behavior: {', '.join(sorted(repeated))}"
        )
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
            # The head of the first declared chain, in either channel mode.
            initial = frozenset({(model.behavior.edges or edges)[0][0]})
        else:
            initial = frozenset()
    _check_events("initial", initial, nodes)

    # (id, capacity, start tokens, source position, target position), with
    # the position None for an endpoint outside `nodes`.  A channel into an
    # initial event starts with its token; an initial event with no input
    # gets a one-token start channel.
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

    # The parts are the components of `links`, numbered by their first
    # position.  An event's fields are G - L of its inputs and its outputs.
    part_of = [-1] * len(nodes)
    part_masks = []
    for p in range(len(nodes)):
        if part_of[p] < 0:
            part = part_of[p] = len(part_masks)
            bits = 0
            todo = [p]
            while todo:
                q = todo.pop()
                g_in, l_in, _, g_out, l_out = masks[q]
                bits |= g_in - l_in | g_out - l_out
                for r in links[q]:
                    if r is not None and part_of[r] < 0:
                        part_of[r] = part
                        todo.append(r)
            part_masks.append(bits)

    # An event with no input channel is never enabled: it has no test, and
    # no `near` entry needs to name it.
    tests = {
        p: (g_in, l_in, a_out, g_out)
        for p, (g_in, l_in, a_out, g_out, _) in enumerate(masks)
        if l_in
    }
    fields.sort()
    return _Net(
        nodes=nodes,
        initial=initial_marking,
        enabled=tuple(_retest((), initial_marking, tests)),
        delta=tuple([l_out - l_in for _, l_in, _, _, l_out in masks]),
        near=tuple([{q: tests[q] for q in linked if q in tests} for linked in links]),
        sinks=tuple([n for n, (*_, l_out) in zip(nodes, masks) if not l_out]),
        fields=tuple(fields),
        part_of=tuple(part_of),
        part_masks=tuple(part_masks),
        channels=tuple(channels),
    )


def simulate(model: TMModel, config: SimConfig | None = None) -> Trace:
    """Run one seeded execution; deterministic for a given configuration.

    The trace holds what `simulate_firings` yields, one record per step;
    the steps that repeat a firing share the record made for it once.
    Raises what `simulate_firings` raises.
    """
    return Trace(tuple(simulate_firings(model, config or SimConfig())))


def simulate_firings(model: TMModel, config: SimConfig) -> Iterator[Firing]:
    """Yield the firings of one seeded execution, one per step.

    At each step one enabled event is picked by the seeded RNG and fired;
    the run stops at `max_steps` or when nothing is enabled.  Raises, when
    the first firing is asked for, NoInitialEventsError when the initial
    marking is empty (nothing could ever fire), and ConfigError for a
    negative `max_steps`, non-positive capacities, a capacity given for a
    pair of events that is not a channel, or a chronology whose nodes
    repeat an event name.

    The marking a firing leads to, and the events enabled there, depend
    only on the fired position and the marking before it.  So the first
    time a position fires at a marking, the engine adds its delta, re-tests
    the events near it and decodes the new marking into a `Firing`, and it
    keeps them in a table keyed by both, with the count of enabled events
    and its bit length.  Each later step that repeats the firing is one
    table lookup, and yields the same record.  The table holds one entry
    per distinct firing.

    The seeded draw is made on every step, so the trace does not depend on
    the table.  It is `random.Random(seed).choice(enabled)`, made inline:
    with n events enabled, draw `getrandbits(n.bit_length())` until it is
    below n, as `choice` does on CPython 3.10 to 3.13 (even for n == 1).
    `tests/test_sim.py` pins the two to the same indices and the same
    generator state.
    """
    if config.max_steps < 0:
        raise ConfigError("max_steps must be >= 0")
    net = build_net(model, config)
    if config.max_steps == 0 or not net.nodes:
        return
    if net.initial == 0:
        raise NoInitialEventsError(
            "no tokens and no start channels; nothing can ever fire"
        )
    getrandbits = random.Random(config.seed).getrandbits
    nodes, delta, near, decode = net.nodes, net.delta, net.near, net.decode
    marking, enabled = net.initial, net.enabled
    n = len(enabled)
    k = n.bit_length()
    # Per position: marking before -> (marking after, enabled there, their
    # count and its bit length, record).
    table: list[dict[int, tuple[int, list[int], int, int, Firing]]] = [{} for _ in nodes]
    for _ in range(config.max_steps):
        if not n:
            break
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        p = enabled[r]
        fired = table[p].get(marking)
        if fired is None:
            after = marking + delta[p]
            on = _retest(enabled, after, near[p])
            fired = table[p][marking] = (
                after, on, len(on), len(on).bit_length(), Firing(nodes[p], decode(after))
            )
        marking, enabled, n, k, record = fired
        yield record


def _search(net: _Net, start: int, enabled: Iterable[int], max_states: int) -> int | None:
    """The count of markings reachable from `start`, whose enabled
    positions are `enabled`, or None when it is above `max_states`.  Each
    marking to expand carries its enabled positions, so a successor
    re-tests only the events that share a channel with the fired one."""
    delta, near = net.delta, net.near
    seen = {start}
    todo = [(start, enabled)]
    while todo:
        marking, enabled = todo.pop()
        for p in enabled:
            nxt = marking + delta[p]
            if nxt not in seen:
                if len(seen) >= max_states:
                    return None
                seen.add(nxt)
                todo.append((nxt, _retest(enabled, nxt, near[p])))
    return len(seen)


def _search_parts(net: _Net, max_states: int) -> int | None:
    """The count of markings reachable in `net`, or None when it is above
    `max_states`.  A reachable marking is a sum of one per part (none for
    a net of no part), so the parts' counts multiply.  A part may keep
    `max_states` over the earlier parts' product: one over its share
    proves the product too large."""
    enabled: list[list[int]] = [[] for _ in net.part_masks]
    for p in net.enabled:
        enabled[net.part_of[p]].append(p)
    count = 1
    for mask, first in zip(net.part_masks, enabled):
        reached = _search(net, net.initial & mask, first, max_states // count)
        if reached is None:
            return None
        count *= reached
    return count


def _halt(net: _Net) -> int | None:
    """The marking at which `net` halts, or None when it never halts.

    Each channel has one producer and one consumer: the net is a persistent
    marked graph, so every maximal run fires each event t the same number
    of times x(t) (Keller, LNCS 24, 1975), the least solution of x(t) = min
    of t's bounds.  A channel from s to g of capacity c and k start tokens
    bounds x(g) by k + x(s) and x(s) by c - k + x(g).  So x(t) is the
    distance from what never fires: the outside, events with no input channel,
    and what Kahn's peel of the weight-0 bounds leaves (tokenless circuits)."""
    n = len(net.nodes)  # the outside of the net is position n
    bounds = [[] for _ in range(n + 1)]  # u: each (t, w) with x(t) <= w + x(u)
    zeros = [0] * (n + 1)  # t: its bounds of weight 0 from events not yet peeled
    for _, cap, tokens, source, target in net.channels:
        for u, t, w in ((source, target, tokens), (target, source, cap - tokens)):
            if t is not None:
                bounds[n if u is None else u].append((t, w))
                zeros[t] += not w
    peeled = [t for t in range(n + 1) if not zeros[t]]
    for u in peeled:
        for t, w in bounds[u]:
            zeros[t] -= not w
            if not (w or zeros[t]):
                peeled.append(t)
    fed = {target for *_, target in net.channels}
    fires = [0 if zeros[t] or t not in fed else inf for t in range(n + 1)]  # x(t) so far
    heap = [(0, t) for t, x in enumerate(fires) if not x]  # every other x(t) is inf
    while heap:
        x, u = heappop(heap)
        if x == fires[u]:  # else a shorter bound came later
            for t, w in bounds[u]:
                if x + w < fires[t]:
                    fires[t] = x + w
                    heappush(heap, (x + w, t))
    return None if inf in fires else net.initial + sum([x * d for x, d in zip(fires, net.delta)])


def explore_state_space(
    model: TMModel, config: ExploreConfig | None = None
) -> ExploreResult:
    """Count every reachable marking and list the deadlocks.

    A halted marking (no event enabled) counts as a normal completion
    only when all channels have drained, at least one firing led to it,
    and the terminal set (by default: events with no outgoing channels)
    is non-empty; every other halt is a deadlock.  The net halts at one
    marking or none, solved for from its structure (see `_halt`), so the
    deadlocks are exact at any `max_states`; above it, only the count is
    partial: it is `max_states`, with `bounded` False.  Raises ConfigError
    for a `max_states` below 1 or a terminal event outside the net.

    Counting costs the sum of the parts' markings (see `_search_parts`),
    but a fork-join, whose branches interleave, costs every interleaving.
    """
    config = config or ExploreConfig()
    if config.max_states < 1:
        raise ConfigError("max_states must be >= 1")
    net = build_net(model, config)

    terminal = net.sinks if config.terminal_events is None else config.terminal_events
    _check_events("terminal", terminal, net.nodes)
    count = _search_parts(net, config.max_states)
    halted = _halt(net)
    completed = halted == 0 and net.initial != 0 and bool(terminal)
    return ExploreResult(
        reachable_count=config.max_states if count is None else count,
        deadlocks=() if halted is None or completed else (net.decode(halted),),
        bounded=count is not None,
    )
