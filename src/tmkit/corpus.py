"""The embedded fixture corpus: one hand-encoded `.tm` model per worked
transport/grinding/pumping/ordering example.

Fixtures are shipped as plain `.tm` files in the package's `corpus/`
directory and are addressable from the CLI as `fixture:NAME`.
"""

from __future__ import annotations

import os
from collections.abc import Mapping

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


class UnknownFixtureError(TMError):
    def __init__(self, name: str):
        super().__init__(
            f"unknown fixture {name!r}; known fixtures: {', '.join(ALL_NAMES)}"
        )


#: The shipped fixtures, next to this module (the package data of tmkit).
_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def fixture_source(name: str) -> str:
    if name not in ALL_NAMES:
        raise UnknownFixtureError(name)
    with open(os.path.join(_CORPUS_DIR, f"{name}.tm"), encoding="utf-8") as f:
        return f.read()
