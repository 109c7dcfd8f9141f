"""tmkit's benchmark: one closed-loop client, in one process, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports tmkit from `src/`.  It
generates its inputs from the seed, warms up, then runs whole rounds of
ops (each op of the workload once, in a seeded order) until `--seconds`
have passed, with a full garbage collection between ops outside the
timed window.  Every output is checked against an answer that does not
come from tmkit.  Times are in nominal seconds, which cancel the drift
of a shared machine's speed (see pace.py).  Human-readable lines come
first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` reports the
per-layer metrics instead: for half the time, rounds alternate between
traced and untraced, and spans go to `.perfbench-out/`; then come a
growth sweep over chain sizes, a cold-import probe and a
large-isomorphism probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import pace
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
ENV = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC), "TM_COLOR": "never"}
SETUP_PROBES = 5
COLD_SAMPLES = 24
LAYERS = (
    "dsl.parse", "model.assemble_model", "validate.check_static",
    "behavior.check_all_events", "behavior.check_behavior",
    "behavior.infer_dependencies", "dsl.format_model", "render.to_dot",
    "match.simplify", "match.isomorphic", "match.find_shared_functionality",
    "sim.simulate", "sim.explore_state_space", "cli.output",
)
STATIC_LAYERS = (
    "dsl.parse", "model.assemble_model", "validate.check_static",
    "behavior.check_all_events", "behavior.check_behavior",
    "dsl.format_model", "render.to_dot",
)
GROWTH_SIZES = (50, 100, 200, 300)
GROWTH_REPEATS = 3
LARGE_EVENTS = 800  # 1,600 simplified nodes
BENCH_SPANS = ("bench.op", "bench.check", "bench.gc")
# (metric, numerator, denominator, scale, unit), each term summed over the
# traced ops: a count the ops recorded, or a span's calls or total time.
RATIOS = (
    ("dsl.parse.kb_per_s", "dsl.parse.bytes", "time:dsl.parse", 1 / 1024, "KB/s"),
    ("model.stages", "model.stages", "calls:model.assemble_model", 1, "count"),
    ("model.arcs", "model.arcs", "calls:model.assemble_model", 1, "count"),
    ("render.dot_kb", "render.dot_bytes", "calls:render.to_dot", 1 / 1024, "KB"),
    ("match.simplified_nodes", "match.simplified_nodes", "calls:match.simplify", 1, "count"),
    ("match.isomorphic.found_ratio", "match.isomorphic.found", "calls:match.isomorphic",
     1, "ratio"),
    ("match.fragments", "match.fragments", "calls:match.find_shared_functionality",
     1, "count"),
    ("match.approximate_ratio", "match.approximate",
     "calls:match.find_shared_functionality", 1, "ratio"),
    ("sim.simulate.us_per_firing", "time:sim.simulate", "sim.firings", 1e6, "us"),
    ("sim.explore.us_per_state", "time:sim.explore_state_space", "sim.explore.states",
     1e6, "us"),
    ("sim.explore.states", "sim.explore.states", "calls:sim.explore_state_space",
     1, "count"),
)


@dataclass
class Record:
    op: int
    name: str
    traced: bool
    elapsed: float  # nominal seconds inside the timed window (see pace.py)
    measured: float  # the same, as measured
    ok: bool
    limited: bool


def run_op(op, tr, op_id: int, traced: bool, failures: list[str],
           pacer: pace.Pace) -> Record:
    tr.op, tr.enabled = op_id, traced
    with tr.span("bench.gc"):
        gc.collect()
    elapsed, limited, ok = None, False, False
    start = perf_counter()
    try:
        with tr.span("bench.op"):
            out, limited = op.run(tr)
        elapsed = perf_counter() - start
        with tr.span("bench.check"):
            op.check(out)
        ok = True
    except Exception:  # a failed op is counted and the run goes on
        if elapsed is None:
            elapsed = perf_counter() - start
        failures.append(f"{op.name}: {traceback.format_exc(limit=-3)}")
    finally:
        tr.enabled = False
    pacer.rest(elapsed)
    return Record(op_id, op.name, traced, pacer.scaled(start, elapsed), elapsed, ok,
                  limited)


def run_rounds(workload, tr, seconds: float, alternate: bool, failures, pacer,
               between=lambda: None) -> list[Record]:
    """Whole rounds until `seconds` have passed, calling `between` after
    each op.  With `alternate`, even rounds are traced and odd ones not,
    and the count of rounds is even."""
    records: list[Record] = []
    deadline = perf_counter() + seconds
    index = 0
    while index < 2 or perf_counter() < deadline or (alternate and index % 2):
        traced = alternate and index % 2 == 0
        for op in workload.round(index):
            records.append(run_op(op, tr, len(records), traced, failures, pacer))
            between()
        index += 1
    return records


def setup(name: str, seed: int):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed)
    tr = Tracer()
    for op in workload.warmup:
        try:
            op.run(tr)
        except Exception:  # the timed rounds count and report failures
            pass
    return workload


def _python(argv: list[str], timeout: float):
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True,
        text=True, timeout=timeout,
    )
    return perf_counter() - start, proc


def process_seconds(argv: list[str], timeout: float = 120) -> tuple[float, str, int]:
    """Nominal seconds of a whole `python` process, timed against a bare
    `python -c pass` just before it (see pace.py); its stdout and its
    exit code."""
    bare, _ = _python(["-c", "pass"], timeout)
    seconds, proc = _python(argv, timeout)
    return seconds * pace.STARTUP / bare, proc.stdout, proc.returncode


def setup_seconds(args) -> float:
    """Median nominal time of fresh processes that import tmkit, generate
    the inputs and warm up, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        seconds, _, code = process_seconds(
            [str(Path(__file__)), "--workload", args.workload, "--seed",
             str(args.seed), "--setup-only"])
        if code != 0:
            raise SystemExit(f"perfbench: set-up failed with exit code {code}")
        times.append(seconds)
    return statistics.median(times)


class ColdRuns:
    """Whole `tm` processes, timed from start to exit, spread evenly over
    the timed run so that they see the same machine as the ops do.  A
    failed command counts as missing every limit."""

    def __init__(self, commands, seconds: float, failures: list[str]):
        self.commands = commands
        self.every = seconds / COLD_SAMPLES
        self.due = perf_counter()
        self.failures = failures
        self.times: list[float] = []
        self.failed = 0

    def maybe(self) -> None:
        if len(self.times) < COLD_SAMPLES and perf_counter() >= self.due:
            self.run()
            self.due += self.every

    def finish(self) -> None:
        while len(self.times) < COLD_SAMPLES:
            self.run()

    def run(self) -> None:
        command = self.commands[len(self.times) % len(self.commands)]
        seconds, stdout, code = process_seconds(["-m", "tmkit", *command.args])
        try:
            command.check(stdout, code)
        except Exception:
            self.failed += 1
            self.failures.append(
                f"tm {' '.join(command.args)}: {traceback.format_exc(limit=-2)}")
            seconds = math.inf
        self.times.append(seconds)


def untraced(args, workload, failures):
    """End-to-end metrics; every time is in nominal seconds (pace.py)."""
    pacer = pace.Pace()
    cold_runs = ColdRuns(workload.cold, args.seconds, failures)
    records = run_rounds(workload, Tracer(), args.seconds, False, failures, pacer,
                         cold_runs.maybe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold_runs.finish()
    cold, cold_failed = cold_runs.times, cold_runs.failed
    latencies = sorted(r.elapsed if r.ok else math.inf for r in records)
    ok = sum(r.ok for r in records)
    metrics = {
        "setup_s": (args.setup_s, "s"),
        "ops_per_s": (ok / sum(r.elapsed for r in records), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_cold_p50_ms": (statistics.median(cold) * 1000, "ms"),
    }
    notes = {
        "latency_p90_ms": (
            (statistics.quantiles(latencies, n=10)[8] * 1000, "ms")
            if len(latencies) >= 100
            else f"omitted: {len(latencies)} timed ops, fewer than 100"
        ),
        "failed_ratio": (
            (len(records) - ok + cold_failed) / (len(records) + len(cold)), "ratio"),
        "limited_ratio": (sum(r.limited for r in records) / len(records), "ratio"),
        "latency_p50_measured_ms": (
            statistics.median(r.measured if r.ok else math.inf for r in records) * 1000, "ms"),
        "pace_factor": (pacer.factor(), "ratio"),
        "timed_ops": (len(records), "count"),
        "cold_commands": (len(cold), "count"),
    }
    attempted = len(records) + len(cold)
    return metrics, notes, attempted, len(records) - ok + cold_failed


def traced(args, workload, failures):
    """Per-layer metrics; every time is scaled by the run's pace factor,
    from the blocks timed between its ops (pace.py)."""
    tr = Tracer()
    pacer = pace.Pace()
    # Half the run: the growth sweep and the probes take about the rest.
    records = run_rounds(workload, tr, args.seconds / 2, True, failures, pacer)
    ops = {r.op for r in records if r.traced}
    calls, inclusive, own = tr.summary(ops)
    f = pacer.factor()
    inclusive = {name: seconds * f for name, seconds in inclusive.items()}
    own = {name: seconds * f for name, seconds in own.items()}
    values = dict(tr.totals)
    values.update((f"calls:{name}", count) for name, count in calls.items())
    values.update((f"time:{name}", seconds) for name, seconds in inclusive.items())
    metrics = {f"{name}.self_ms": (own.get(name, 0.0) * 1000 / len(ops), "ms")
               for name in LAYERS}
    for name, numerator, denominator, scale, unit in RATIOS:
        whole = values.get(denominator, 0)
        metrics[name] = (values.get(numerator, 0) * scale / whole if whole else 0.0, unit)
    metrics["bench.glue.self_ms"] = (
        sum(own.get(name, 0.0) for name in BENCH_SPANS) * 1000 / len(ops), "ms")
    metrics["trace.overhead_ratio"] = (
        sum(r.elapsed for r in records if r.traced)
        / sum(r.elapsed for r in records if not r.traced), "ratio")
    tr.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics.update(growth(args.seed))
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics.update(large_isomorphism(args.seed, pacer))
    failed = sum(not r.ok for r in records)
    return metrics, {}, len(records), failed


def growth(seed: int) -> dict:
    """Log-log slope of each static layer's self time over chain sizes,
    fitted by least squares: 1 is linear, 2 quadratic.  Each size runs
    GROWTH_REPEATS times, interleaved, and its median time is used."""
    import random

    import gen
    from workloads import check_fmt_render

    tr = Tracer()
    rng = random.Random(f"growth:{seed}")
    texts = {n: gen.chain_model(rng, n, "plain").text for n in GROWTH_SIZES}
    times = {(n, name): [] for n in GROWTH_SIZES for name in STATIC_LAYERS}
    for repeat in range(GROWTH_REPEATS):
        for n in GROWTH_SIZES:
            gc.collect()
            tr.op, tr.enabled = repeat * 1000 + n, True
            check_fmt_render(tr, texts[n])
            tr.enabled = False
            _, _, own = tr.summary({tr.op})
            for name in STATIC_LAYERS:
                times[n, name].append(own[name])
    xs = [math.log(n) for n in GROWTH_SIZES]
    mean_x = statistics.fmean(xs)
    out = {}
    for name in STATIC_LAYERS:
        ys = [math.log(statistics.median(times[n, name])) for n in GROWTH_SIZES]
        mean_y = statistics.fmean(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs)
        out[f"{name}.growth"] = (slope, "log-log")
    return out


def import_ms(samples: int = 9) -> float:
    """`python -c "import tmkit.cli"` minus `python -c pass`: the median
    nominal time of the first, less the nominal time of the second."""
    loaded = []
    for _ in range(samples):
        seconds, _, code = process_seconds(["-c", "import tmkit.cli"])
        if code != 0:
            raise SystemExit(f"perfbench: importing tmkit.cli failed with exit code {code}")
        loaded.append(seconds)
    return (statistics.median(loaded) - pace.STARTUP) * 1000


def large_isomorphism(seed: int, pacer: pace.Pace) -> dict:
    """An 800-event chain against a role-renamed copy through `isomorphic`.
    Its time is reported only when the comparison succeeds."""
    import random

    import checks
    import gen
    import tmkit
    from workloads import ROLE_BLIND

    rng = random.Random(f"large:{seed}")
    chain = gen.path_chain(rng, LARGE_EVENTS)
    copy, renaming = gen.rename_roles(chain.text, rng)
    g1, g2 = (tmkit.simplify(tmkit.assemble_model(tmkit.parse(t))) for t in (chain.text, copy))
    gc.collect()
    start = perf_counter()
    try:
        found = tmkit.isomorphic(g1, g2, ROLE_BLIND)
        elapsed = perf_counter() - start
        pacer.rest(elapsed)
        seconds = pacer.scaled(start, elapsed)
        checks.expect(found is not None, "no isomorphism found")
        checks.isomorphism(found.as_dict(), gen.parse_edge_list(chain.simplified),
                           gen.parse_edge_list(gen.rename_edge_list(chain.simplified, renaming)))
    except Exception as exc:  # RecursionError on deep searches is the known case
        print(f"large-isomorphism probe failed: {type(exc).__name__}", file=sys.stderr)
        return {"match.isomorphic.large_ok": (0, "count"),
                "match.isomorphic.large_ms": (0.0, "ms")}
    return {"match.isomorphic.large_ok": (1, "count"),
            "match.isomorphic.large_ms": (seconds * 1000, "ms")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "chain_check", "dedup", "tokens"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tmkit" / "__init__.py").is_file():
        print(f"perfbench: no tmkit sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    if not args.trace:
        args.setup_s = setup_seconds(args)
    workload = setup(args.workload, args.seed)
    gc.freeze()
    failures: list[str] = []
    measure = traced if args.trace else untraced
    metrics, notes, attempted, failed = measure(args, workload, failures)
    for failure in failures[:5]:
        print(failure, file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  closed loop, 1 client")
    for name, value in {**metrics, **notes}.items():
        if isinstance(value, str):
            print(f"  {name:40s} {value}")
        else:
            print(f"  {name:40s} {value[0]:14.4f} {value[1]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
