"""Fixture corpus: loading, coverage, and golden regeneration."""

import pytest

from tmkit import assemble_model, parse
from tmkit.corpus import (
    ALL_NAMES,
    FIXTURE_NAMES,
    PROVENANCE,
    UnknownFixtureError,
    load_fixture,
)

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


def test_load_fixture_automobile():
    fixture = load_fixture("automobile")
    model = assemble_model(parse(fixture.source))
    assert set(model.events) == {"E1", "E2", "E3"}
    assert model.behavior.edges == (("E1", "E2"), ("E2", "E3"))
    assert fixture.provenance


def test_load_fixture_hammer_nails():
    fixture = load_fixture("hammer-nails")
    model = assemble_model(parse(fixture.source))
    assert {"Hand", "Hammer", "Nail", "PhysicalObject"} <= set(model.thimacs)
    assert set(model.events) == {"E1", "E2", "E3", "E4"}


def test_unknown_fixture_raises():
    with pytest.raises(UnknownFixtureError):
        load_fixture("no-such")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_fixture_assembles(name):
    model = load_model(name)
    assert model.flows


@pytest.mark.parametrize("name", ALL_NAMES)
def test_goldens_regenerate_bit_identically(name):
    from generate_goldens import compute_goldens

    fixture = load_fixture(name)
    assert fixture.goldens, f"no goldens shipped for {name}"
    regenerated = compute_goldens(name)
    for analysis, expected in fixture.goldens.items():
        assert regenerated[analysis] == expected, (name, analysis)


def test_golden_check_names_stale_goldens_and_writes_nothing(monkeypatch, capsys):
    import generate_goldens

    compute = generate_goldens.compute_goldens

    def one_stale(name):
        goldens = compute(name)
        if name == "pump":
            goldens["format"] += "# changed\n"
        return goldens

    golden = load_fixture("pump").goldens["format"]
    monkeypatch.setattr(generate_goldens, "compute_goldens", one_stale)
    assert generate_goldens.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "stale src/tmkit/corpus/goldens/pump.format.txt",
        "1 stale golden(s)",
    ]
    assert load_fixture("pump").goldens["format"] == golden
