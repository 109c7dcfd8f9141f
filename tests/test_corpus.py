"""Fixture corpus: loading, coverage, and golden regeneration."""

import shutil

import pytest

from tmkit import assemble_model, parse
from tmkit.corpus import (
    ALL_NAMES,
    FIXTURE_NAMES,
    PROVENANCE,
    UnknownFixtureError,
    fixture_source,
)

import generate_goldens
from generate_goldens import GOLDENS, stale_goldens
from helpers import load_model


def test_corpus_covers_every_worked_example():
    assert FIXTURE_NAMES == (
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
    )
    assert set(ALL_NAMES) == set(FIXTURE_NAMES) | {"add-service-alt"}
    assert set(PROVENANCE) == set(ALL_NAMES)


def test_fixture_source_automobile():
    model = assemble_model(parse(fixture_source("automobile")))
    assert set(model.events) == {"E1", "E2", "E3"}
    assert model.behavior.edges == (("E1", "E2"), ("E2", "E3"))
    assert PROVENANCE["automobile"]


def test_fixture_source_hammer_nails():
    model = assemble_model(parse(fixture_source("hammer-nails")))
    assert {"Hand", "Hammer", "Nail", "PhysicalObject"} <= set(model.thimacs)
    assert set(model.events) == {"E1", "E2", "E3", "E4"}


def test_unknown_fixture_raises():
    with pytest.raises(UnknownFixtureError):
        fixture_source("no-such")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_fixture_assembles(name):
    model = load_model(name)
    assert model.flows


@pytest.mark.parametrize("name", ALL_NAMES)
def test_goldens_regenerate_bit_identically(name):
    assert stale_goldens([name]) == {}


def test_golden_check_names_stale_goldens_and_writes_nothing(monkeypatch, capsys):
    compute = generate_goldens.compute_goldens

    def one_stale(name):
        goldens = compute(name)
        if name == "pump":
            goldens["format"] += "# changed\n"
        return goldens

    path = generate_goldens.ROOT / GOLDENS / "pump.format.txt"
    golden = path.read_bytes()
    monkeypatch.setattr(generate_goldens, "compute_goldens", one_stale)
    assert generate_goldens.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "stale src/tmkit/corpus/goldens/pump.format.txt",
        "1 stale golden(s)",
    ]
    assert path.read_bytes() == golden


@pytest.mark.parametrize("damage", ["deleted", "crlf"])
def test_a_damaged_golden_is_stale_and_rewritten(damage, tmp_path, monkeypatch, capsys):
    shutil.copytree(generate_goldens.ROOT / GOLDENS, tmp_path / GOLDENS)
    monkeypatch.setattr(generate_goldens, "ROOT", tmp_path)
    path = tmp_path / GOLDENS / "window.explore.txt"
    golden = path.read_bytes()
    if damage == "deleted":
        path.unlink()
    else:
        path.write_bytes(golden.replace(b"\n", b"\r\n"))

    assert stale_goldens(["window"]) == {path: golden}
    assert generate_goldens.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"stale {GOLDENS / 'window.explore.txt'}",
        "1 stale golden(s)",
    ]
    assert generate_goldens.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {GOLDENS / 'window.explore.txt'}"]
    assert path.read_bytes() == golden
