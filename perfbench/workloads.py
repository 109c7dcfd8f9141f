"""The benchmark's four workloads.

An op is one user-level request: what one `tm` command (or, for
`corpus`, one golden regeneration) runs, called in process through
tmkit's public functions.  Each op returns its output and whether it
ended on an analysis limit; its check raises checks.WrongOutput when the
output differs from the known answer.  A round visits every op of a
workload once, in a seeded order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tmkit
from tmkit.behavior import check_all_events
from tmkit.diagnostics import sort_diagnostics

import checks
import gen

FIXTURES = (
    "automobile", "coffee-mill", "pump", "window", "boiling", "distillation",
    "pay-service", "add-service", "producer-consumer", "submit-order",
    "hammer-nails", "add-service-alt",
)
ANALYSES = (
    "diagnostics", "dependencies", "simplified", "format", "dot-static",
    "dot-behavior", "dot-simplified", "trace", "explore",
)
ROLE_BLIND = tmkit.MatchPolicy(match_thing_labels=True, match_role_names=False)
MAX_STATES = 100_000
RING_STEPS = 10_000


@dataclass
class Op:
    name: str
    run: Callable  # run(tracer) -> (output, limited)
    check: Callable  # check(output); raises checks.WrongOutput


@dataclass
class ColdCommand:
    """A whole `tm` process: arguments after `python -m tmkit`, and a check
    of its stdout and exit code."""

    args: list[str]
    check: Callable  # check(stdout, exit_code)


# ---------------------------------------------------------------------------
# In-process mirrors of the `tm` commands, one span per layer call
# ---------------------------------------------------------------------------

def load(tr, text: str):
    decls = tr.call("dsl.parse", tmkit.parse, text)
    model = tr.call("model.assemble_model", tmkit.assemble_model, decls)
    if tr.enabled:
        tr.add("dsl.parse.bytes", len(text))
        tr.add("model.stages", sum(len(t.stages) for t in model.thimacs.values()))
        tr.add("model.arcs", len(model.flows) + len(model.triggers))
    return model


def load_valid(tr, text: str):
    """What every analysis command does first: load, then refuse a model
    with static errors."""
    model = load(tr, text)
    static = tr.call("validate.check_static", tmkit.check_static, model)
    checks.expect(not any(d.severity is tmkit.Severity.ERROR for d in static),
                  "static errors in a valid model")
    return model


def _diagnostic_lines(diags) -> str:
    return "".join(d.to_json() + "\n" for d in sort_diagnostics(diags))


def tm_check(tr, text: str) -> str:
    model = load(tr, text)
    diags = tr.call("validate.check_static", tmkit.check_static, model)
    diags = diags + tr.call("behavior.check_all_events", check_all_events, model)
    diags = diags + tr.call("behavior.check_behavior", tmkit.check_behavior, model)
    return tr.call("cli.output", _diagnostic_lines, diags)


def tm_fmt(tr, text: str) -> str:
    return tr.call("dsl.format_model", tmkit.format_model, load(tr, text))


def to_dot(tr, obj, view: str) -> str:
    dot = tr.call("render.to_dot", tmkit.to_dot, obj, tmkit.RenderOptions(view=view))
    tr.add("render.dot_bytes", len(dot))
    return dot


def simplify(tr, model):
    graph = tr.call("match.simplify", tmkit.simplify, model)
    tr.add("match.simplified_nodes", len(graph.nodes))
    return graph


def tm_dedup(tr, text1: str, text2: str):
    g1, g2 = (simplify(tr, load_valid(tr, t)) for t in (text1, text2))
    found = tr.call("match.isomorphic", tmkit.isomorphic, g1, g2, ROLE_BLIND)
    tr.add("match.isomorphic.found", found is not None)
    shared = tr.call("match.find_shared_functionality",
                     tmkit.find_shared_functionality, g1, g2, 2, ROLE_BLIND)
    tr.add("match.fragments", len(shared.matches))
    tr.add("match.approximate", shared.approximate)
    return (g1, g2, found, shared), shared.approximate


def explore(tr, model, config):
    result = tr.call("sim.explore_state_space", tmkit.explore_state_space, model, config)
    tr.add("sim.explore.states", result.reachable_count)
    return result


def simulate(tr, model, config):
    trace = tr.call("sim.simulate", tmkit.simulate, model, config)
    tr.add("sim.firings", len(trace.firings))
    return trace


def check_fmt_render(tr, text: str) -> tuple[str, str, str]:
    """`tm check`, `tm fmt` and `tm render` on one model, as three commands."""
    return tm_check(tr, text), tm_fmt(tr, text), to_dot(tr, load_valid(tr, text), "static")


def tm_explore(tr, text: str):
    result = explore(tr, load_valid(tr, text), tmkit.ExploreConfig(max_states=MAX_STATES))
    return tr.call("cli.output", result.to_json), not result.bounded


def tm_simulate(tr, text: str, seed: int, steps: int):
    config = tmkit.SimConfig(capacities=2, max_steps=steps, seed=seed)
    trace = simulate(tr, load_valid(tr, text), config)
    return tr.call("cli.output", trace.to_jsonl), False


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.warmup: list[Op] = []  # the same kinds of op, run before timing
        self.cold: list[ColdCommand] = []  # taken in turn through the run

    def round(self, index: int) -> list[Op]:
        """Every op once, in an order fixed by the seed and the round."""
        order = list(self.ops)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        return order

    def write_input(self, name: str, text: str) -> str:
        path = self.root / ".perfbench-out" / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(self.root))


def _golden(root: Path, name: str, analysis: str) -> str:
    path = root / "src" / "tmkit" / "corpus" / "goldens" / f"{name}.{analysis}.txt"
    return path.read_text(encoding="utf-8")


def _fixture(root: Path, name: str) -> str:
    return (root / "src" / "tmkit" / "corpus" / f"{name}.tm").read_text(encoding="utf-8")


class Corpus(Workload):
    """Each shipped fixture through the nine golden analyses, compared
    byte for byte with the shipped goldens; cold `tm check` processes."""

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        for name in FIXTURES:
            source = _fixture(root, name)
            goldens = {a: _golden(root, name, a) for a in ANALYSES}
            self.ops.append(Op(name, self._op(source), self._check(goldens)))
            self.cold.append(ColdCommand(["check", f"fixture:{name}"],
                                         self._cold_check(goldens["diagnostics"])))
        self.warmup = self.ops

    @staticmethod
    def _op(source: str):
        def run(tr):
            model = load(tr, source)
            graph = simplify(tr, model)
            diags = tr.call("validate.check_static", tmkit.check_static, model)
            diags = diags + tr.call("behavior.check_all_events", check_all_events, model)
            diags = diags + tr.call("behavior.check_behavior", tmkit.check_behavior, model)
            deps = tr.call("behavior.infer_dependencies", tmkit.infer_dependencies, model)
            sim = simulate(tr, model, tmkit.SimConfig(max_steps=8, seed=0))
            result = explore(tr, model, tmkit.ExploreConfig())
            out = {
                "format": tr.call("dsl.format_model", tmkit.format_model, model),
                "dot-static": to_dot(tr, model, "static"),
                "dot-behavior": to_dot(tr, model, "behavior"),
                "dot-simplified": to_dot(tr, graph, "simplified"),
            }
            with tr.span("cli.output"):
                out["diagnostics"] = "".join(d.to_json() + "\n" for d in diags)
                out["dependencies"] = "".join(f"{a} -> {b}\n" for a, b in sorted(deps))
                out["simplified"] = graph.edge_list_text()
                out["trace"] = sim.to_jsonl()
                out["explore"] = result.to_json() + "\n"
            return out, not result.bounded

        return run

    @staticmethod
    def _check(goldens: dict[str, str]):
        def check(out):
            for analysis in ANALYSES:
                checks.expect(out[analysis] == goldens[analysis], f"{analysis} differs")

        return check

    @staticmethod
    def _cold_check(golden: str):
        lines = sorted(golden.splitlines())
        code = 1 if any('"severity": "Error"' in l for l in lines) else 0

        def check(stdout: str, exit_code: int):
            checks.expect(exit_code == code, f"exit code {exit_code} != {code}")
            checks.expect(sorted(stdout.splitlines()) == lines, "diagnostics differ")

        return check


class ChainCheck(Workload):
    """`tm check`, `tm fmt` and `tm render` on one request/response chain
    of 300 events: plain, with a chronology gap, or fanning out.  Each
    variant comes in three seeded models, since statement order alone
    moves an op's time by up to half."""

    N = 300
    VARIANTS = ("plain", "gap", "fanout")
    MODELS = 3

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        for variant in self.VARIANTS:
            for _ in range(self.MODELS):
                model = gen.chain_model(self.rng, self.N, variant)
                self.ops.append(Op(variant, self._op(model.text), self._check(model)))
            small = gen.chain_model(self.rng, 30, variant)
            self.warmup.append(Op(variant, self._op(small.text), self._check(small)))
            path = self.write_input(f"chain-{variant}.tm", small.text)
            self.cold.append(ColdCommand(["check", path], self._cold_check(small)))

    @staticmethod
    def _op(text: str):
        return lambda tr: (check_fmt_render(tr, text), False)

    @staticmethod
    def _check(known: gen.Model):
        def check(out):
            diagnostics, formatted, dot = out
            checks.diagnostics(diagnostics, known.diagnostics)
            checks.reparsed(tmkit.assemble_model(tmkit.parse(formatted)), known)
            checks.static_dot(dot, known)

        return check

    @staticmethod
    def _cold_check(known: gen.Model):
        def check(stdout: str, exit_code: int):
            checks.expect(exit_code == (1 if known.diagnostics else 0), "exit code")
            checks.diagnostics(stdout, known.diagnostics)

        return check


@dataclass
class Pair:
    """Two `.tm` texts, their known simplified edge lists, whether they are
    isomorphic with role names ignored, and their largest common
    connected fragment."""

    name: str
    text1: str
    text2: str
    edges1: str
    edges2: str
    isomorphic: bool
    largest: int


class Dedup(Workload):
    """What `tm dedup` runs on one pair: fixtures against role-renamed
    copies, two corpus walks, and seeded chains on both sides of the
    exact search's 25-node limit."""

    CHAIN_EVENTS = (12, 20, 30)  # 24, 40 and 60 simplified nodes
    # Seeded names alone move a pair's time by up to half, so each kind of
    # pair comes in several copies and a run's figures average over them.
    COPIES = 3

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        rng = self.rng
        pairs = []
        for name in FIXTURES:
            source, edges = _fixture(root, name), _golden(root, name, "simplified")
            largest = gen.largest_component(gen.parse_edge_list(edges))
            for _ in range(self.COPIES):
                copy, renaming = gen.rename_roles(source, rng)
                pairs.append(Pair(f"{name}~renamed", source, copy, edges,
                                  gen.rename_edge_list(edges, renaming), True, largest))
        pairs.append(self._paths("pay-service~add-service-alt",
                                 _fixture(root, "pay-service"),
                                 _fixture(root, "add-service-alt"),
                                 _golden(root, "pay-service", "simplified"),
                                 _golden(root, "add-service-alt", "simplified")))
        for n in self.CHAIN_EVENTS:
            for _ in range(self.COPIES):
                chain = gen.path_chain(rng, n)
                copy, renaming = gen.rename_roles(chain.text, rng)
                pairs.append(Pair(f"chain{n}~renamed", chain.text, copy, chain.simplified,
                                  gen.rename_edge_list(chain.simplified, renaming),
                                  True, 2 * n))
                prefix = gen.path_chain(rng, 3 * n // 4, list(chain.labels))
                pairs.append(self._paths(f"chain{n}~prefix", chain.text, prefix.text,
                                         chain.simplified, prefix.simplified))
        n = 12
        chain = gen.path_chain(rng, n)
        swapped = list(chain.labels)
        swapped[5], swapped[6] = swapped[6], swapped[5]
        near = gen.path_chain(rng, n, swapped)
        pairs.append(self._paths("chain12~near-miss", chain.text, near.text,
                                 chain.simplified, near.simplified))
        n = 10
        chain = gen.path_chain(rng, n)
        other = gen.path_chain(rng, n, [label + "x" for label in chain.labels])
        pairs.append(self._paths("chain10~disjoint-labels", chain.text, other.text,
                                 chain.simplified, other.simplified))
        self.pairs = pairs
        self.ops = [Op(p.name, self._op(p), self._check(p)) for p in pairs]
        fixture_pairs = {p.name: op for op, p in zip(self.ops, pairs)
                         if p.name.split("~")[0] in FIXTURES}
        self.warmup = list(fixture_pairs.values())  # one copy of each
        self.cold = [ColdCommand(["dedup", "fixture:pay-service", "fixture:add-service-alt"],
                                 self._cold_check)]

    @staticmethod
    def _paths(name, text1, text2, edges1, edges2) -> Pair:
        """A pair of graphs that are each one directed path: isomorphic when
        their label sequences agree, sharing their longest common run."""
        seq1 = gen.path_sequence(gen.parse_edge_list(edges1))
        seq2 = gen.path_sequence(gen.parse_edge_list(edges2))
        if seq1 is None or seq2 is None:
            raise ValueError(f"{name}: both simplified graphs must be paths")
        return Pair(name, text1, text2, edges1, edges2, seq1 == seq2,
                    gen.common_path_nodes(seq1, seq2))

    @staticmethod
    def _op(pair: Pair):
        def run(tr):
            return tm_dedup(tr, pair.text1, pair.text2)

        return run

    @staticmethod
    def _check(pair: Pair):
        def check(out):
            g1, g2, found, shared = out
            edges1 = checks.edge_list(g1.edge_list_text(), pair.edges1)
            edges2 = checks.edge_list(g2.edge_list_text(), pair.edges2)
            checks.expect((found is not None) == pair.isomorphic, "isomorphism verdict")
            if found is not None:
                checks.isomorphism(found.as_dict(), edges1, edges2)
            for fragment, size in shared.matches:
                checks.expect(size == len(fragment) >= 2, "fragment size")
                checks.mapping(fragment.as_dict(), edges1, edges2)
            largest = shared.matches[0][1] if shared.matches else 0
            if shared.approximate:
                checks.expect(largest <= pair.largest, "fragment beyond the maximum")
            else:
                checks.expect(largest == pair.largest,
                              f"largest fragment {largest} != {pair.largest}")

        return check

    @staticmethod
    def _cold_check(stdout: str, exit_code: int):
        checks.expect(exit_code == 0, f"exit code {exit_code}")
        verdict = json.loads(stdout.splitlines()[0])
        checks.expect(verdict["isomorphic"] is True, "isomorphism verdict")


class Tokens(Workload):
    """What `tm explore` and `tm simulate` run: k independent 3-event
    chains (4**k markings), a net with one deadlock, and a ring."""

    DEADLOCK_CHAINS = [5, 6, 7, 8]
    RING = 20

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        rng = self.rng
        for k in (6, 7):
            model = gen.parallel_chains(rng, k)
            self.ops.append(Op(f"explore-parallel{k}", self._explore(model.text),
                               self._explored(4 ** k, [])))
        net, states, deadlock = gen.deadlock_net(rng, self.DEADLOCK_CHAINS)
        self.ops.append(Op("explore-deadlock", self._explore(net.text),
                           self._explored(states, [deadlock])))
        ring = gen.ring(rng, self.RING)
        self.ops.append(Op("explore-ring", self._explore(ring.text),
                           self._explored(self.RING, [])))
        self.ops.append(self._simulate("simulate-ring", ring, seed, RING_STEPS))
        small = gen.parallel_chains(rng, 4)
        self.warmup = [
            Op("explore-parallel4", self._explore(small.text), self._explored(4 ** 4, [])),
            self._simulate("simulate-ring4", gen.ring(rng, 4), seed, 100),
        ]
        path = self.write_input("tokens-parallel4.tm", small.text)
        self.cold = [ColdCommand(["explore", path, "--max-states", str(MAX_STATES)],
                                 self._cold_check)]

    @staticmethod
    def _simulate(name: str, ring: gen.Model, seed: int, steps: int) -> Op:
        events = list(ring.events)
        return Op(name, lambda tr: tm_simulate(tr, ring.text, seed, steps),
                  lambda out: checks.ring_trace(out, events, steps))

    @staticmethod
    def _explore(text: str):
        return lambda tr: tm_explore(tr, text)

    @staticmethod
    def _explored(states: int, deadlocks: list[dict[str, int]]):
        return lambda out: checks.explore(out, states, deadlocks)

    @staticmethod
    def _cold_check(stdout: str, exit_code: int):
        checks.expect(exit_code == 0, f"exit code {exit_code}")
        checks.explore(stdout, 4 ** 4, [])


WORKLOADS = {"corpus": Corpus, "chain_check": ChainCheck, "dedup": Dedup, "tokens": Tokens}
