"""The embedded fixture corpus: one hand-encoded `.tm` model per worked
transport/grinding/pumping/ordering example, with golden analysis outputs.

Fixtures are shipped as plain `.tm` files in the package's `corpus/`
directory and are addressable from the CLI as `fixture:NAME`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

from .diagnostics import TMError

#: The eleven primary fixtures, one per worked example.
FIXTURE_NAMES: tuple[str, ...] = (
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

#: Variant fixtures addressable alongside the primary list.
VARIANT_NAMES: tuple[str, ...] = ("add-service-alt",)

ALL_NAMES: tuple[str, ...] = FIXTURE_NAMES + VARIANT_NAMES

#: Provenance notes: what each fixture encodes and what was reconstructed.
PROVENANCE: Mapping[str, str] = {
    "automobile": "transport function; three events E1..E3 in a chain; the "
    "move event region is the four place stages the vehicle passes through",
    "coffee-mill": "grinding function; beans and electricity converge on the "
    "grind, which sets off powder creation; motor encoded as a subthimac so "
    "the two inputs keep separate gates",
    "pump": "pumping function with the noise byproduct; goals={E3} makes E4 "
    "non-functional",
    "window": "two independent functions (daylight, ventilation) with no "
    "chronology between them",
    "boiling": "boiling machine: water plus burner heat create steam",
    "distillation": "distillation machine: one mixture in, two components out",
    "pay-service": "eight-step service-payment walkthrough encoded as six "
    "request/response artifacts plus the final record; scenario text is the "
    "authority, the diagram details are reconstructed",
    "add-service": "menu plus a short main flow, with the catalogue walk as "
    "the alternative flow; the main flow is reconstructed (only the "
    "alternative flow is given as numbered text)",
    "add-service-alt": "the alternative flow of add-service as a standalone "
    "model; structurally the same walk as pay-service",
    "producer-consumer": "minimal two-event encoding of the buffer "
    "synchronization; the event decomposition is our reading of the prose",
    "submit-order": "nineteen-step broker walkthrough from the numbered text; "
    "the DO/WHILE item loop is elided to one generic order and a single "
    "generic supplier stands in for the local/international pair",
    "hammer-nails": "hand-hammer-nail-object requirement; creation of the "
    "participants is deliberately not modeled",
}

#: Analyses for which golden files exist, keyed by file suffix.
GOLDEN_ANALYSES: tuple[str, ...] = (
    "diagnostics",
    "dependencies",
    "simplified",
    "format",
    "dot-static",
    "dot-behavior",
    "dot-simplified",
    "trace",
    "explore",
    "signature",
)


class UnknownFixtureError(TMError):
    def __init__(self, name: str):
        super().__init__(
            f"unknown fixture {name!r}; known fixtures: {', '.join(ALL_NAMES)}"
        )


@dataclass(frozen=True)
class Fixture:
    name: str
    source: str
    goldens: Mapping[str, str] = field(default_factory=dict)
    provenance: str = ""


def _corpus_dir():
    return resources.files("tmkit") / "corpus"


def fixture_source(name: str) -> str:
    if name not in ALL_NAMES:
        raise UnknownFixtureError(name)
    return (_corpus_dir() / f"{name}.tm").read_text(encoding="utf-8")


def load_fixture(name: str) -> Fixture:
    """Load a fixture with whatever golden outputs are shipped for it."""
    source = fixture_source(name)
    goldens: dict[str, str] = {}
    golden_dir = _corpus_dir() / "goldens"
    for analysis in GOLDEN_ANALYSES:
        path = golden_dir / f"{name}.{analysis}.txt"
        try:
            goldens[analysis] = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            continue
    return Fixture(name, source, goldens, PROVENANCE.get(name, ""))
