"""CLI behavior: subcommands, exit codes, and machine-readable output."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tmkit import assemble_model, cli, match, parse
from tmkit.corpus import ALL_NAMES, fixture_source
from tmkit.diagnostics import ModelError
from tmkit.match import simplify
from tmkit.sim import ExploreConfig, SimConfig, explore_state_space, simulate, simulate_firings

from helpers import mutated_corpus_text, reference_parser, run_tm, tm_env

#: Two events whose regions both hold the whole of arc F1.
_OVERLAP = (
    "flow X: A.create -> A.process\n"
    "event E1 { A.create, A.process }\n"
    "event E2 { A.create, A.process }\n"
)

#: A.release fans out toward both B.process and C.process.
_SPLICE = (
    "flow X: A.create -> A.release -> A.transfer -> B.transfer -> B.receive -> B.process\n"
    "flow Y: A.release -> A.transfer -> C.transfer -> C.receive -> C.process\n"
)


def test_fixtures_flag_lists_corpus():
    result = run_tm(["--fixtures"])
    assert result.returncode == 0
    names = result.stdout.split()
    assert "coffee-mill" in names
    assert "add-service-alt" in names
    assert len(names) == 12


def test_check_clean_fixture_exits_zero():
    result = run_tm(["check", "fixture:coffee-mill"])
    assert result.returncode == 0
    assert result.stdout == ""
    assert "0 error(s)" in result.stderr


@pytest.mark.parametrize(
    "name",
    [
        "automobile",
        "coffee-mill",
        "pump",
        "window",
        "boiling",
        "distillation",
        "pay-service",
        "add-service",
        "producer-consumer",
        "submit-order",
        "hammer-nails",
    ],
)
def test_every_fixture_checks_clean(name):
    result = run_tm(["check", f"fixture:{name}"])
    assert result.returncode == 0, result.stderr


def test_check_reports_diagnostics_as_jsonl(tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("flow X: A.process -> A.create\n", encoding="utf-8")
    result = run_tm(["check", str(bad)])
    assert result.returncode == 1
    payload = json.loads(result.stdout.splitlines()[0])
    assert payload["code"] == "E_FLOW_INTO_CREATE"
    assert payload["severity"] == "Error"


def test_check_reports_parse_errors(tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("flow X: A.create -> A.store\n", encoding="utf-8")
    result = run_tm(["check", str(bad)])
    assert result.returncode == 1
    payload = json.loads(result.stdout.splitlines()[0])
    assert payload["code"] == "E_UNKNOWN_KIND"
    assert payload["line"] == 1


def test_check_without_arguments_is_usage_error():
    result = run_tm(["check"])
    assert result.returncode == 2
    assert result.stdout == ""


def test_missing_file_is_usage_error():
    result = run_tm(["check", "/does/not/exist.tm"])
    assert result.returncode == 2


def test_unknown_fixture_is_usage_error():
    result = run_tm(["check", "fixture:no-such"])
    assert result.returncode == 2
    assert "no-such" in result.stderr


def test_dedup_pay_vs_add_alt_is_isomorphic():
    result = run_tm(["dedup", "fixture:pay-service", "fixture:add-service-alt"])
    assert result.returncode == 0
    verdict = json.loads(result.stdout.splitlines()[0])
    assert verdict["isomorphic"] is True
    assert len(verdict["mapping"]) == 13


def _relay_text(n):
    """A chain of `n` events between two thimacs: event i hands thing Mi
    over to be processed, and that processing triggers event i + 1.  Its
    simplified graph is one path of 2n nodes."""
    lines = ["model relay {"]
    for i in range(n):
        a, b = ("A", "B") if i % 2 == 0 else ("B", "A")
        stages = [f"{a}.M{i}.create", f"{a}.M{i}.release", f"{a}.M{i}.transfer",
                  f"{b}.M{i}.transfer", f"{b}.M{i}.receive", f"{b}.M{i}.process"]
        lines.append(f"  flow M{i}: " + " -> ".join(stages))
        lines.append(f"  event E{i} {{ {', '.join(stages)} }}")
        if i:
            lines.append(f"  trigger {a}.M{i - 1}.process ~> {a}.M{i}.create")
    lines.append("  behavior " + " -> ".join(f"E{i}" for i in range(n)))
    return "\n".join(lines) + "\n}\n"


def test_dedup_of_an_800_event_chain_with_itself(tmp_path):
    # 1,600 simplified nodes: the whole chain is one fragment, found without
    # running into the recursion limit.
    f = tmp_path / "relay.tm"
    f.write_text(_relay_text(800), encoding="utf-8")
    result = run_tm(["dedup", str(f), str(f)])
    assert "Traceback" not in result.stderr
    assert result.returncode == 0, result.stderr
    verdict, *fragments = map(json.loads, result.stdout.splitlines())
    assert verdict["isomorphic"] is True
    assert len(fragments) == 1
    assert fragments[0]["size"] == 1600
    assert fragments[0]["mapping"] == verdict["mapping"]


def test_dedup_with_matched_roles_is_not_isomorphic():
    result = run_tm(
        ["dedup", "fixture:pay-service", "fixture:add-service-alt", "--match-roles"]
    )
    verdict = json.loads(result.stdout.splitlines()[0])
    assert verdict["isomorphic"] is False
    assert verdict["mapping"] is None


def test_dedup_of_two_empty_models_maps_nothing(tmp_path):
    # The empty mapping has length 0, so it is falsy, but it is a mapping.
    f = tmp_path / "empty.tm"
    f.write_text("", encoding="utf-8")
    result = run_tm(["dedup", str(f), str(f)])
    assert result.returncode == 0, result.stderr
    verdict = json.loads(result.stdout)
    assert verdict == {"isomorphic": True, "mapping": {}, "models": [str(f), str(f)]}


def test_dedup_pay_vs_full_add_finds_alt_fragment():
    result = run_tm(
        ["dedup", "fixture:pay-service", "fixture:add-service", "--min-size", "4"]
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    verdict = json.loads(lines[0])
    assert verdict["isomorphic"] is False
    largest = json.loads(lines[1])
    assert largest["size"] == 13


def _ring_text(sizes, prefix):
    """Rings of `sizes` one-stage thimacs, each stage triggering the next."""
    lines, at = [], 0
    for size in sizes:
        ring = [f"{prefix}{at + i}" for i in range(size)]
        at += size
        lines += [f"thimac {name} {{ process }}" for name in ring]
        lines += [
            f"trigger {a}.process ~> {b}.process" for a, b in zip(ring, ring[1:] + ring[:1])
        ]
    return "\n".join(lines) + "\n"


def _dedup_rings(tmp_path, sizes1, sizes2):
    files = []
    for sizes, prefix in ((sizes1, "S"), (sizes2, "R")):
        f = tmp_path / f"{prefix}.tm"
        f.write_text(_ring_text(sizes, prefix), encoding="utf-8")
        files.append(str(f))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["dedup", *files])
    return code, out.getvalue(), err.getvalue()


def test_dedup_with_a_spent_isomorphism_budget_is_undecided(tmp_path, monkeypatch):
    # One ring of 20 against two of 10: refinement leaves one colour, so the
    # verdict needs a search, which meets the budget.
    code, out, _ = _dedup_rings(tmp_path, [20], [10, 10])
    assert code == 0
    assert json.loads(out.splitlines()[0])["isomorphic"] is False

    monkeypatch.setattr(match, "SEARCH_NODE_BUDGET", 5)
    code, out, err = _dedup_rings(tmp_path, [20], [10, 10])
    assert code == 3
    verdict, *fragments = map(json.loads, out.splitlines())
    assert verdict["isomorphic"] is None and verdict["mapping"] is None
    assert fragments  # the cover is still printed
    assert "isomorphism search stopped at its search-node budget" in err
    assert "(SEARCH_NODE_BUDGET = 5)" in err
    assert "Traceback" not in err


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.lists(st.integers(2, 6), min_size=1, max_size=3), min_size=2, max_size=2),
    budget=st.integers(1, 40),
)
def test_dedup_of_ring_pairs_under_any_budget_decides_or_exits_three(
    tmp_path, sizes, budget
):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(match, "SEARCH_NODE_BUDGET", budget)
        code, out, err = _dedup_rings(tmp_path, *sizes)
    # Two sets of rings are isomorphic exactly when their ring sizes agree.
    verdict = json.loads(out.splitlines()[0])
    assert code in (0, 3)
    assert (code == 3) == ("SEARCH_NODE_BUDGET" in err)
    if verdict["isomorphic"] is None:
        assert code == 3 and "undecided" in err
    else:
        assert verdict["isomorphic"] == (sorted(sizes[0]) == sorted(sizes[1]))


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "a subcommand is required"),
        (["bogus", "fixture:pump"], "'bogus'"),
        (["check", "fixture:pump", "--bogus"], "--bogus"),
        (["--fixtures", "--bogus"], "--bogus"),
        (["check"], "file"),
        (["dedup", "fixture:pump"], "file2"),
        (["check", "fixture:pump", "fixture:window"], "fixture:window"),
        (["explore", "fixture:pump", "--max-states"], "--max-states"),
        (["render", "fixture:pump", "-o", "--view", "static"], "-o"),
        (["render", "fixture:pump", "--view", "bogus"], "--view"),
        (["simulate", "fixture:pump", "--seed", "x"], "--seed"),
        (["simulate", "fixture:pump", "--seed=1.5"], "--seed"),
        (["dedup", "fixture:pump", "fixture:pump", "--match-roles=yes"], "--match-roles"),
        # argparse took a unique prefix for the whole name; `tm` does not.
        (["explore", "fixture:pump", "--max-s", "5"], "--max-s"),
        (["render", "fixture:pump", "--out", "x.dot"], "--out"),
        (["--fix"], "--fix"),
    ],
)
def test_every_usage_error_prints_a_usage_line_and_one_error_line(capsys, argv, named):
    assert cli.run(argv) == cli.USAGE
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    command = argv[0] if argv and argv[0] in cli.COMMANDS else None
    assert usage.startswith(f"usage: tm {command} " if command else "usage: tm [--help]")
    assert error.startswith("tm: error: ") and named in error


@pytest.mark.parametrize(
    "argv, command",
    [
        (["--help"], None),
        (["-h", "check"], None),
        (["--fixtures", "-h"], None),
        (["check", "--help"], "check"),
        (["render", "-o", "x.dot", "-h", "fixture:pump"], "render"),
        (["simulate", "--bogus", "--help"], "simulate"),  # an unknown option is an error only at the end
        (["dedup", "-h", "--min-size", "1"], "dedup"),  # reading stops at -h
    ],
)
def test_help_prints_the_usage_and_every_name_to_stdout(capsys, argv, command):
    assert cli.run(argv) == cli.OK
    out, err = capsys.readouterr()
    assert err == ""
    if command is None:
        assert out.startswith("usage: tm [--help] [--fixtures] COMMAND")
        names = [*cli.COMMANDS, "--fixtures"]
    else:
        _, positionals, options, _ = cli.COMMANDS[command]
        assert out.startswith(f"usage: tm {command} [--help] ")
        names = [*(p.upper() for p in positionals), *options]
    assert all(name in out for name in names), out


def test_dedup_min_size_below_two_is_usage_error():
    # Every out-of-range numeric option is rejected the same way.
    for argv in (
        ["dedup", "fixture:pay-service", "fixture:add-service", "--min-size", "1"],
        ["explore", "fixture:pump", "--max-states", "0"],
        ["explore", "fixture:pump", "--max-states", "-5"],
        ["explore", "fixture:pump", "--capacity", "0"],
        ["simulate", "fixture:pump", "--max-steps", "-1"],
        ["simulate", "fixture:pump", "--capacity", "0"],
    ):
        result = run_tm(argv)
        assert result.returncode == 2, argv
        assert result.stdout == ""
        assert argv[-2] in result.stderr
        assert "Traceback" not in result.stderr


def test_fmt_is_stable(tmp_path):
    first = run_tm(["fmt", "fixture:pump"])
    assert first.returncode == 0
    f = tmp_path / "pump.tm"
    f.write_text(first.stdout, encoding="utf-8")
    second = run_tm(["fmt", str(f)])
    assert second.stdout == first.stdout


def test_simplify_prints_sorted_edge_list():
    result = run_tm(["simplify", "fixture:pump"])
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines == sorted(lines)
    assert any("[flow, Water]" in line for line in lines)


_SEED_FIXTURES = ("fixture:add-service", "fixture:pay-service")
_SEED_RUNS = [
    [command, fixture]
    for command in ("check", "fmt", "render", "simplify", "explore", "simulate")
    for fixture in _SEED_FIXTURES
] + [["dedup", *_SEED_FIXTURES]]


@pytest.mark.parametrize("args", _SEED_RUNS, ids=" ".join)
def test_output_does_not_depend_on_the_hash_seed(args):
    # String hashes, and with them the iteration order of sets of names and
    # stage references, change with PYTHONHASHSEED; no output may follow it.
    first, second = (run_tm(args, env={"PYTHONHASHSEED": seed}) for seed in "01")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_render_to_file(tmp_path):
    out = tmp_path / "auto.dot"
    result = run_tm(
        ["render", "fixture:automobile", "--view", "behavior", "-o", str(out)]
    )
    assert result.returncode == 0
    assert out.read_text(encoding="utf-8").startswith("// generated by tmkit")


def test_simulate_emits_trace_jsonl():
    result = run_tm(
        ["simulate", "fixture:producer-consumer", "--seed", "1", "--max-steps", "6"]
    )
    assert result.returncode == 0
    events = [json.loads(line)["event"] for line in result.stdout.splitlines()]
    assert events == ["Produce", "Consume"] * 3


def test_simulate_writes_the_trace_in_batches(monkeypatch):
    steps = 10_001  # three batches, the last one short
    assert steps > 2 * cli.SIMULATE_BATCH and steps % cli.SIMULATE_BATCH
    argv = ["simulate", "fixture:producer-consumer", "--max-steps", str(steps)]
    result = run_tm(argv)
    assert result.returncode == 0
    model = assemble_model(parse(fixture_source("producer-consumer")))
    assert result.stdout == simulate(model, SimConfig(max_steps=steps)).to_jsonl()
    lines = result.stdout.splitlines()
    assert [json.loads(line)["step"] for line in lines] == list(range(steps))

    class Lines(io.StringIO):
        """Counts the lines of each write, and the engine's steps before it."""

        def write(self, text):
            counts.append(text.count("\n"))
            steps_at_write.append(stepped[0])
            return super().write(text)

    def counted_firings(model, config):
        """The engine's firings, counting the records it yields: one per step."""
        for record in simulate_firings(model, config):
            stepped[0] += 1
            yield record

    counts, steps_at_write, stepped = [], [], [0]
    monkeypatch.setattr("tmkit.sim.simulate_firings", counted_firings)
    with contextlib.redirect_stdout(Lines()) as out:
        assert cli.run(argv) == 0
    assert counts == [cli.SIMULATE_BATCH] * 2 + [steps - 2 * cli.SIMULATE_BATCH]
    # The first batch is out before the engine has run past it.
    assert steps_at_write[0] <= cli.SIMULATE_BATCH
    assert stepped[0] == steps
    assert out.getvalue() == result.stdout


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux gives it")
def test_a_million_step_simulation_stays_small():
    # A fresh Python runs `tm` and prints its children's peak RSS, so no
    # other child of this test run counts.
    probe = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = ["simulate", "fixture:producer-consumer", "--max-steps", "1000000"]
    result = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "tmkit", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=tm_env(),
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 64 * 1024  # KiB


@pytest.mark.parametrize(
    ("argv", "read"),
    [
        # A write fails while the trace is being written...
        (["simulate", "fixture:producer-consumer", "--max-steps", "100000"], 1),
        # ...or the last flush fails, when the reader leaves before any output.
        (["fmt", "fixture:pump"], 0),
    ],
)
def test_a_reader_that_closes_stdout_early_gets_an_io_error_exit(argv, read):
    with subprocess.Popen(
        [sys.executable, "-m", "tmkit", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=tm_env(),
    ) as tm:
        for step in range(read):
            assert json.loads(tm.stdout.readline())["step"] == step
        tm.stdout.close()
        stderr = tm.stderr.read().decode()
        assert tm.wait(timeout=60) == cli.USAGE
    assert stderr == "[Errno 32] Broken pipe\n"


def test_explore_emits_single_json_object():
    result = run_tm(["explore", "fixture:producer-consumer"])
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload == {"bounded": True, "deadlocks": [], "reachableCount": 2}


def test_explore_state_limit_exits_three():
    result = run_tm(["explore", "fixture:coffee-mill", "--max-states", "2"])
    assert result.returncode == 3
    payload = json.loads(result.stdout)
    assert payload["bounded"] is False


@pytest.mark.parametrize(
    ("command", "config", "analysis"),
    [("simulate", SimConfig, simulate), ("explore", ExploreConfig, explore_state_space)],
)
def test_simulate_and_explore_share_the_net_options(capsys, command, config, analysis):
    for option, value in (("--capacity", "0"), ("--channels", "bogus")):
        assert cli.run([command, "fixture:pump", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and option in captured.err
    argv = [command, "fixture:pump", "--channels", "inferred", "--capacity", "2"]
    assert cli.run(argv) == 0
    model = assemble_model(parse(fixture_source("pump")))
    result = analysis(model, config(capacities=2, channels="inferred"))
    text = result.to_jsonl() if command == "simulate" else result.to_json() + "\n"
    assert capsys.readouterr().out == text


def test_check_reports_region_overlap(tmp_path):
    f = tmp_path / "overlap.tm"
    f.write_text(_OVERLAP, encoding="utf-8")
    result = run_tm(["check", str(f)])
    assert result.returncode == 1
    found = [json.loads(line) for line in result.stdout.splitlines()]
    overlap = [d for d in found if d["code"] == "E_REGION_OVERLAP"]
    assert len(overlap) == 1
    assert overlap[0]["subject"] == "F1"


def test_region_overlap_message_states_the_rule(tmp_path):
    # No region holds both ends of F3 (A.transfer -> B.transfer), but each
    # end lies in two regions.
    f = tmp_path / "ends.tm"
    f.write_text(
        "flow x: A.create -> A.release -> A.transfer -> B.transfer -> B.receive -> B.process\n"
        "event E1 { A.release, A.transfer }\nevent E2 { A.transfer }\n"
        "event E3 { B.transfer, B.receive }\nevent E4 { B.transfer }\n",
        encoding="utf-8",
    )
    result = run_tm(["check", str(f)])
    assert result.returncode == 1
    found = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(d["code"], d["subject"], d["message"]) for d in found] == [
        (
            "E_REGION_OVERLAP",
            "F3",
            "arc(s) with each end in two or more event regions: F3",
        )
    ]


def test_render_simplified_view():
    result = run_tm(["render", "fixture:pay-service", "--view", "simplified"])
    assert result.returncode == 0
    assert result.stdout.count("->") == 12


def test_render_of_deeply_nested_thimacs_has_no_traceback(tmp_path):
    # 1,200 nesting levels: deeper than Python's default recursion limit.
    path = ".".join(["A"] * 1200)
    f = tmp_path / "deep.tm"
    f.write_text(f"flow x: {path}.create -> {path}.release\n", encoding="utf-8")
    result = run_tm(["render", str(f)])
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout.count("subgraph") == 1200
    assert result.stdout.count("{") == result.stdout.count("}")


def test_stdout_is_machine_parseable_stderr_is_prose():
    result = run_tm(["check", "fixture:pump"])
    for line in result.stdout.splitlines():
        json.loads(line)
    assert "error" in result.stderr


def test_render_to_unwritable_path_is_io_error(tmp_path):
    # An empty path is no more writable than a missing directory.
    missing = str(tmp_path / "no-such-dir" / "x.dot")
    for out, argv in [(missing, ["-o", missing]), ("", ["--output="])]:
        result = run_tm(["render", "fixture:pump", *argv])
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert repr(out) in result.stderr


def test_undecodable_file_is_io_error(tmp_path):
    f = tmp_path / "binary.tm"
    f.write_bytes(b"\xff\xfe flow")
    result = run_tm(["check", str(f)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert str(f) in result.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["fmt"],
        ["simplify"],
        ["render"],
        ["simulate"],
        ["explore"],
        ["dedup", "fixture:pump"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_reports_model_errors_as_jsonl(tmp_path, command):
    bad = tmp_path / "bad.tm"
    bad.write_text("flow X: A.create -> A.store\n", encoding="utf-8")
    result = run_tm(command + [str(bad)])
    assert result.returncode == 1
    payloads = [json.loads(line) for line in result.stdout.splitlines()]
    assert payloads[0]["code"] == "E_UNKNOWN_KIND"
    assert "1 error(s)" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command",
    [["simplify"], ["render", "--view", "simplified"], ["dedup", "fixture:pump"]],
    ids=lambda argv: argv[0],
)
def test_ambiguous_splice_is_one_diagnostic(tmp_path, command):
    f = tmp_path / "splice.tm"
    f.write_text(_SPLICE, encoding="utf-8")
    result = run_tm(command + [str(f)])
    assert result.returncode == 1
    codes = [json.loads(line)["code"] for line in result.stdout.splitlines()]
    assert codes == ["E_AMBIGUOUS_SPLICE"]
    assert "1 error(s)" in result.stderr


def _model(path):
    return assemble_model(parse(path.read_text(encoding="utf-8")))


# Per failure: the `tm` arguments before the file, the model text, and the
# library call that fails on that file the way the subcommand does.
_MODEL_ERRORS = {
    "parse": (["check"], "flow X: A.create -> A.store\n",
              lambda path: parse(path.read_text(encoding="utf-8"))),
    "assembly": (["check"], "flow X: A.create -> A.process\n" * 2, _model),
    "splice": (["simplify"], _SPLICE, lambda path: simplify(_model(path))),
    "static": (["simulate"], "flow X: A.process -> A.create\n",
               lambda path: cli._load(str(path))),
    "overlap-simulate": (
        ["simulate", "--channels", "inferred"], _OVERLAP,
        lambda path: simulate(_model(path), SimConfig(channels="inferred")),
    ),
    "overlap-explore": (
        ["explore", "--channels", "inferred"], _OVERLAP,
        lambda path: explore_state_space(_model(path), ExploreConfig(channels="inferred")),
    ),
}


@pytest.mark.parametrize("case", _MODEL_ERRORS)
def test_tm_prints_the_diagnostics_of_the_model_error(tmp_path, case):
    command, text, call = _MODEL_ERRORS[case]
    f = tmp_path / "model.tm"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(ModelError) as exc_info:
        call(f)
    result = run_tm(command + [str(f)])
    assert result.returncode == 1, result.stderr
    assert result.stdout.splitlines() == [d.to_json() for d in exc_info.value.diagnostics]
    assert "error(s)" in result.stderr


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, command):
    text = fixture_source("pump") + "flow Bad: Z.process -> Z.create\n"
    plain, marked = tmp_path / "plain.tm", tmp_path / "marked.tm"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    expected = run_tm([command, str(plain)])
    result = run_tm([command, str(marked)])
    assert (result.returncode, result.stdout) == (expected.returncode, expected.stdout)
    assert result.stdout


def test_a_byte_order_mark_after_the_start_is_a_syntax_error(tmp_path):
    f = tmp_path / "model.tm"
    f.write_text("flow X: A.create -> A.process\n\ufeff", encoding="utf-8")
    result = run_tm(["check", str(f)])
    assert result.returncode == 1
    (payload,) = [json.loads(line) for line in result.stdout.splitlines()]
    assert (payload["code"], payload["line"], payload["col"]) == ("E_SYNTAX", 2, 1)


# Fragments the fuzz splices into corpus text: the DSL's punctuation and
# keywords, stage kinds (and a non-kind), arc ids and odd characters.
_PIECES = [
    "->", "~>", "{", "}", ":", ",", "@", ".", '"', "\n", " ", "#", "\\",
    "model", "thimac", "flow", "trigger", "event", "behavior",
    "create", "process", "release", "transfer", "receive", "store",
    "A", "A.B", "F1", "T1", "E1", "é", "\t", "1", "²", "½",
]

_FUZZ_COMMANDS = [
    ["check"],
    ["fmt"],
    ["simplify"],
    ["render"],
    ["render", "--view", "behavior"],
    ["render", "--view", "simplified"],
    ["simulate", "--max-steps", "20"],
    ["explore", "--max-states", "200"],
    ["dedup", "fixture:pay-service"],
]


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=mutated_corpus_text(_PIECES), command=st.sampled_from(_FUZZ_COMMANDS))
def test_fuzzed_models_end_with_a_documented_exit_code(tmp_path, capsys, text, command):
    f = tmp_path / "fuzz.tm"
    f.write_text(text, encoding="utf-8")
    assert cli.run([command[0], str(f), *command[1:]]) in (0, 1, 2, 3)
    capsys.readouterr()


# Each subcommand's options, with values to draw for each: in range, out
# of range and not numbers at all.  None marks a flag.  An argument "@..."
# names a file in the test's temporary directory (see `_resolve`).
_NUMBERS = ["-1", "0", "1", "2", "3", "x"]
_OPTIONS = {
    "check": {},
    "fmt": {},
    "simplify": {},
    "render": {
        "--view": ["static", "behavior", "simplified", "bogus"],
        "-o": ["@out.dot", "@no-such-dir/out.dot"],
        "--no-thing-labels": None,
    },
    "simulate": {
        "--seed": ["-3", "0", "7", "x"],
        "--max-steps": ["-1", "0", "1", "5", "30"],
        "--capacity": _NUMBERS,
        "--channels": ["declared", "inferred", "bogus"],
    },
    "explore": {
        "--max-states": ["-1", "0", "1", "5", "50", "200"],
        "--capacity": _NUMBERS,
        "--channels": ["declared", "inferred", "bogus"],
    },
    "dedup": {"--min-size": ["1", "2", "3", "4", "x"], "--match-roles": None},
}
#: Limits that keep one run small; always given, so never left at the default.
_SMALL = {"simulate": "--max-steps", "explore": "--max-states"}

_FILES = st.one_of(
    st.sampled_from(
        [f"fixture:{name}" for name in ALL_NAMES]
        + ["fixture:no-such-fixture", "@missing.tm", "@no-such-dir/a.tm"]
    ),
    mutated_corpus_text(_PIECES).map(lambda text: ("text", text)),
)


@st.composite
def _command_lines(draw):
    """A `tm` argv drawn from the seven subcommands, their options and
    unknown ones; a file operand is a spec or ("text", the file's text)."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = [command, draw(_FILES)]
    if command == "dedup":
        argv.append(draw(_FILES))
    if command in _SMALL:
        argv += [_SMALL[command], draw(st.sampled_from(options[_SMALL[command]]))]
    # Besides its own options: one no command knows, and a net option that
    # only simulate and explore know.
    names = st.sampled_from([*options, "--bogus", "--capacity"])
    for name in draw(st.lists(names, max_size=2)):
        argv.append(name)
        values = options.get(name)
        if values is not None:
            argv.append(draw(st.sampled_from(values)))
    return argv


def _resolve(argv, directory: Path) -> list[str]:
    """`argv` with each drawn text written to a file in `directory`, and
    each "@name" made a path in it."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, tuple):
            path = directory / f"drawn{i}.tm"
            path.write_text(arg[1], encoding="utf-8")
            arg = path
        elif arg.startswith("@"):
            arg = directory / arg[1:]
        out.append(str(arg))
    return out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_command_lines())
def test_every_command_line_ends_with_a_documented_exit_code(argv):
    # The directory is made here, since Hypothesis rejects function-scoped
    # fixtures such as `tmp_path`.
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        mp.setattr(match, "SEARCH_NODE_BUDGET", 5)  # so dedup meets its limit
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(_resolve(argv, Path(directory)))
    assert code in (0, 1, 2, 3), argv


#: Every option name that some parser level knows.
_NAMES = {"-h", "--help", "--fixtures", "-o", "--output", *(n for o in _OPTIONS.values() for n in o)}
#: Arguments dropped into a drawn line: help, --fixtures, an extra
#: positional, negative numbers, options with their value missing (at the
#: end of the line, or before another option), attached values, options of
#: other subcommands, unknown options, and abbreviations.
_EXTRAS = [
    "-h", "--help", "--fixtures", "@extra.tm", "-1", "-2.5", "-", "-x", "--bogus=1",
    "--max-states", "--seed", "--view", "-o", "--min-size", "--view=", "-o=out.dot",
    "-oout.dot", "--output=out.dot", "--match-roles=yes", "--no-thing-labels",
    "-hx", "--max-s", "--out", "--no", "--fix", "--he", "--ma", "--=1",
]


def _abbreviates(arg: str) -> bool:
    """Whether argparse read `arg` as an abbreviation: a prefix of an
    option's name, unique (that option) or not (a usage error)."""
    name = arg.partition("=")[0]
    return (
        arg != "--"
        and name.startswith("--")
        and name not in _NAMES
        and any(known.startswith(name) for known in _NAMES)
    )


@st.composite
def _parser_lines(draw):
    """`_command_lines()` regrouped and extended: a value attached as
    `--opt=value`, the options in any order among the positionals, a `--`
    between the options and the positionals, and `_EXTRAS` anywhere."""
    argv = [arg if isinstance(arg, str) else "@drawn.tm" for arg in draw(_command_lines())]
    command, options, rest = argv[0], _OPTIONS[argv[0]], argv[1:]
    units = []
    while rest:
        size = 2 if options.get(rest[0]) else 1
        unit, rest = rest[:size], rest[size:]
        if size == 2 and draw(st.booleans()):
            unit = [f"{unit[0]}={unit[1]}"]
        units.append(unit)
    units = draw(st.permutations(units))
    if draw(st.booleans()):
        # argparse's reading of a `--` elsewhere changed between Python
        # versions, so the oracle is asked only about this place.
        units = sorted(units, key=lambda unit: not unit[0].startswith("-"))
        first = next((i for i, unit in enumerate(units) if not unit[0].startswith("-")), len(units))
        units.insert(first, ["--"])
    line = [command, *(arg for unit in units for arg in unit)]
    for extra in draw(st.lists(st.sampled_from(_EXTRAS), max_size=3)):
        line.insert(draw(st.integers(0, len(line))), extra)
    return line


def _reading(parse, argv):
    """What `parse` made of `argv`: help, a usage error, or the attributes it set."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except (SystemExit, cli.UsageError) as exc:
            return "help" if getattr(exc, "code", 2) == 0 else "usage error"
    attributes = vars(args)
    if attributes.pop("help", False):
        return "help"
    if args.command is None and not args.fixtures:
        return "usage error"  # what `run` made of argparse's reading
    return attributes


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_parser_lines())
@example(argv=["render", "-oout.dot", "fixture:pump"])
@example(argv=["render", "fixture:pump", "-o=out.dot", "--view=behavior"])
@example(argv=["check", "-hx", "--help"])
@example(argv=["simulate", "--seed", "-3", "--", "-1"])
def test_the_option_table_reads_every_line_as_argparse_did(argv):
    ours = _reading(cli.parse_args, argv)
    theirs = _reading(lambda line: reference_parser().parse_args(line), argv)
    if any(map(_abbreviates, argv)):
        # Intended change: argparse read a unique prefix as the option it
        # names (`--max-s 5`); `tm` reads it as an unknown option.
        assert ours in (theirs, "help", "usage error"), argv
    else:
        assert ours == theirs, argv
    if isinstance(ours, str):
        # Intended change: the help text is written from the table, so only
        # where it goes is compared, not its words.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        if ours == "help":
            assert (code, err.getvalue()) == (cli.OK, "") and out.getvalue().startswith("usage: tm")
        else:
            assert (code, out.getvalue()) == (cli.USAGE, "")
            assert [line[:10] for line in err.getvalue().splitlines()] == ["usage: tm ", "tm: error:"]

