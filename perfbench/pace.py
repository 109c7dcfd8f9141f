"""The machine's speed through a run, from a fixed block of work.

The machines this benchmark runs on are shared, and their speed moves:
on a 2-vCPU shared VM, the same pure-Python loop takes 26 ms in one
second and 47 ms in the next, and its average drifts by 15–30% over
minutes.  A median over one
run follows the slow drift, so two runs of the same code disagree by more
than any change worth finding.

So the benchmark times a reference block after each op it measures:
the same pure-Python work each time, with no tmkit code in it and the
garbage collector off.  It spends
about SHARE of each op's time on blocks, and at least one block.  An
op's time is scaled by NOMINAL over the mean time of the blocks timed
within WINDOW seconds of it, with the slowest and fastest tenth left
out.  A reported millisecond is then a millisecond on a machine where
the block takes NOMINAL seconds: drift that slows the block and tmkit
alike cancels, and a change to tmkit moves only tmkit's side.

A whole process (a `tm` command, a set-up) is made of other work: exec,
imports and page faults, which the block follows less well.  So each is
timed right after a bare `python -c pass`, and its time is scaled by
STARTUP over that one's.  A change to tmkit cannot move the bare run.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left, bisect_right
from time import perf_counter

NOMINAL = 0.001  # seconds of one block on an unloaded 2-vCPU machine
STARTUP = 0.065  # seconds of `python -c pass` on the same machine
SHARE = 0.1
WINDOW = 0.05  # narrower follows the machine better; wider adds noise
TRIM = 0.1


def _block() -> int:
    """Build a keyed graph, walk it, and print and sort its edges: the
    dict, set, string and list work that tmkit's layers are made of."""
    succ = {f"s{i}": [f"s{(i * 7 + j) % 250}" for j in range(3)] for i in range(250)}
    seen, order, stack = set(), [], ["s0"]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            order.append(node)
            stack.extend(succ[node])
    text = "".join(f"{a} -> {b}\n" for a in order for b in succ[a])
    return len(sorted(text.splitlines()))


class Pace:
    def __init__(self) -> None:
        self.ends: list[float] = []  # when each timed block ended
        self.samples: list[float] = []  # how long it took

    def rest(self, seconds: float) -> None:
        """Call after a timed piece of `seconds`: time blocks for about
        SHARE of that, and at least one.  An untimed block runs first, so
        that the caches and the allocator hold the block's own data and
        not what the piece left behind."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            _block()
            budget = perf_counter() + seconds * SHARE
            while True:
                start = perf_counter()
                _block()
                end = perf_counter()
                self.ends.append(end)
                self.samples.append(end - start)
                if end >= budget:
                    break
        finally:
            if enabled:
                gc.enable()

    def scaled(self, start: float, seconds: float) -> float:
        """A piece's `seconds` from `start` on, in nominal seconds; call
        after `rest`."""
        lo = bisect_left(self.ends, start - WINDOW)
        hi = max(bisect_right(self.ends, start + seconds + WINDOW),
                 bisect_right(self.ends, start + seconds) + 1)  # `rest` timed one
        return seconds * self.factor(self.samples[lo:hi])

    def factor(self, samples: list[float] | None = None) -> float:
        """Nominal seconds per measured second over the given samples, by
        default all of them."""
        ranked = sorted(self.samples if samples is None else samples)
        cut = math.floor(len(ranked) * TRIM)
        middle = ranked[cut:len(ranked) - cut]
        return NOMINAL * len(middle) / sum(middle)
