"""Static legality checking of assembled models against the flow calculus.

The adjacency table below is the heart of the module: it enumerates the
only stage-to-stage flow steps that ever occur in well-formed diagrams.
Anything outside the table is rejected with Error severity; softer
conventions (orphan stages, unusual trigger sources) are Warnings.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Severity, sort_diagnostics
from .model import StageKind, TMModel

_C = StageKind.CREATE
_P = StageKind.PROCESS
_R = StageKind.RELEASE
_T = StageKind.TRANSFER
_V = StageKind.RECEIVE

#: Legal (source, target) stage pairs within a single thimac.
LEGAL_SAME_THIMAC: frozenset[tuple[StageKind, StageKind]] = frozenset(
    {
        (_C, _P),
        (_C, _R),
        (_V, _P),
        (_V, _R),
        (_P, _R),
        (_R, _T),
        (_T, _V),
    }
)

#: Legal (source, target) stage pairs across a thimac boundary.
LEGAL_CROSS_THIMAC: frozenset[tuple[StageKind, StageKind]] = frozenset({(_T, _T)})


def flow_adjacency_legal(src: StageKind, dst: StageKind, same_thimac: bool) -> bool:
    """Whether a flow arc may step from `src` to `dst`.

    Within one thimac the legal steps are create->process, create->release,
    receive->process, receive->release, process->release, release->transfer
    and transfer->receive; the only step between thimacs is
    transfer->transfer (the boundary crossing).
    """
    table = LEGAL_SAME_THIMAC if same_thimac else LEGAL_CROSS_THIMAC
    return (src, dst) in table


def check_static(model: TMModel) -> list[Diagnostic]:
    """Return every static violation in the model, deterministically ordered.

    An empty list means the model is statically valid.  Errors:
    E_FLOW_INTO_CREATE (nothing flows into creation), E_SELF_BOUNDARY
    (transfer->transfer needs two thimacs), E_ILLEGAL_FLOW (any other pair
    outside the adjacency table), E_TRIGGER_TARGET (triggers land only on
    create or process).  Warnings: W_TRIGGER_SHADOWS_FLOW,
    W_ORPHAN_STAGE, W_UNUSUAL_TRIGGER_SOURCE.
    """
    diags: list[Diagnostic] = []

    flow_endpoints = {(arc.source, arc.target) for arc in model.flows}

    for arc in model.flows:
        same = arc.source.thimac == arc.target.thimac
        if arc.target.kind is StageKind.CREATE:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "E_FLOW_INTO_CREATE",
                    f"flow {arc.label!r} runs into {arc.target}; "
                    "nothing flows into a creation stage",
                    subject=arc.id,
                    span=arc.span,
                )
            )
        elif same and arc.source.kind is StageKind.TRANSFER and arc.target.kind is StageKind.TRANSFER:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "E_SELF_BOUNDARY",
                    f"flow {arc.label!r} crosses from {arc.source} to {arc.target}, "
                    "but a boundary crossing needs two thimacs",
                    subject=arc.id,
                    span=arc.span,
                )
            )
        elif not flow_adjacency_legal(arc.source.kind, arc.target.kind, same):
            where = "within one thimac" if same else "across thimacs"
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "E_ILLEGAL_FLOW",
                    f"flow {arc.label!r} steps {arc.source.kind} -> "
                    f"{arc.target.kind} {where}, which is not a legal move",
                    subject=arc.id,
                    span=arc.span,
                )
            )

    for trig in model.triggers:
        if trig.target.kind not in (StageKind.CREATE, StageKind.PROCESS):
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "E_TRIGGER_TARGET",
                    f"trigger lands on {trig.target}; triggers may only start "
                    "creation or processing",
                    subject=trig.id,
                    span=trig.span,
                )
            )
        if (trig.source, trig.target) in flow_endpoints:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "W_TRIGGER_SHADOWS_FLOW",
                    f"trigger {trig.source} ~> {trig.target} duplicates an "
                    "existing flow arc",
                    subject=trig.id,
                    span=trig.span,
                )
            )
        if trig.source.kind in (StageKind.RELEASE, StageKind.TRANSFER):
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "W_UNUSUAL_TRIGGER_SOURCE",
                    f"trigger starts at {trig.source}; triggers normally start "
                    "from create, process, or receive",
                    subject=trig.id,
                    span=trig.span,
                )
            )

    for ref in model.stage_refs():
        if not model.arcs_from(ref) and not model.arcs_into(ref):
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "W_ORPHAN_STAGE",
                    f"stage {ref} has no incident flow or trigger arc",
                    subject=str(ref),
                )
            )

    return sort_diagnostics(diags)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
