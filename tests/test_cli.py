"""CLI behavior: subcommands, exit codes, and machine-readable output."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmkit import cli

from helpers import mutated_corpus_text, run_tm


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


def test_dedup_with_matched_roles_is_not_isomorphic():
    result = run_tm(
        ["dedup", "fixture:pay-service", "fixture:add-service-alt", "--match-roles"]
    )
    verdict = json.loads(result.stdout.splitlines()[0])
    assert verdict["isomorphic"] is False
    assert verdict["mapping"] is None


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


def test_check_reports_region_overlap(tmp_path):
    f = tmp_path / "overlap.tm"
    f.write_text(
        "flow X: A.create -> A.process\n"
        "event E1 { A.create, A.process }\n"
        "event E2 { A.create, A.process }\n",
        encoding="utf-8",
    )
    result = run_tm(["check", str(f)])
    assert result.returncode == 1
    codes = [json.loads(line)["code"] for line in result.stdout.splitlines()]
    assert "E_REGION_OVERLAP" in codes


def test_render_simplified_view():
    result = run_tm(["render", "fixture:pay-service", "--view", "simplified"])
    assert result.returncode == 0
    assert result.stdout.count("->") == 12


def test_stdout_is_machine_parseable_stderr_is_prose():
    result = run_tm(["check", "fixture:pump"])
    for line in result.stdout.splitlines():
        json.loads(line)
    assert "error" in result.stderr


def test_render_to_unwritable_path_is_io_error(tmp_path):
    out = tmp_path / "no-such-dir" / "x.dot"
    result = run_tm(["render", "fixture:pump", "-o", str(out)])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert str(out) in result.stderr


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
    f.write_text(
        "flow X: A.create -> A.release -> A.transfer -> B.transfer -> B.receive -> B.process\n"
        "flow Y: A.release -> A.transfer -> C.transfer -> C.receive -> C.process\n",
        encoding="utf-8",
    )
    result = run_tm(command + [str(f)])
    assert result.returncode == 1
    codes = [json.loads(line)["code"] for line in result.stdout.splitlines()]
    assert codes == ["E_AMBIGUOUS_SPLICE"]
    assert "1 error(s)" in result.stderr


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
