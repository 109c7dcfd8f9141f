"""Static legality checking of assembled models against the flow calculus.

The step table `LEGAL_STEPS` is the heart of the module: it enumerates
the only stage-to-stage flow steps that ever occur in well-formed diagrams.
Anything outside the table is rejected with Error severity; softer
conventions (orphan stages, unusual trigger sources) are Warnings.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Severity, sort_diagnostics
from .model import KIND_ORDER, StageKind, StageRef, TMModel

_C = StageKind.CREATE
_P = StageKind.PROCESS
_R = StageKind.RELEASE
_T = StageKind.TRANSFER
_V = StageKind.RECEIVE

#: Every legal flow step, as (source kind, target kind, within one thimac).
LEGAL_STEPS: frozenset[tuple[StageKind, StageKind, bool]] = frozenset(
    {
        (_C, _P, True),
        (_C, _R, True),
        (_V, _P, True),
        (_V, _R, True),
        (_P, _R, True),
        (_R, _T, True),
        (_T, _V, True),
        (_T, _T, False),  # the boundary crossing
    }
)


def flow_adjacency_legal(src: StageKind, dst: StageKind, same_thimac: bool) -> bool:
    """Whether a flow arc may step from `src` to `dst`: whether the step
    is in `LEGAL_STEPS`."""
    return (src, dst, bool(same_thimac)) in LEGAL_STEPS


def check_static(model: TMModel) -> list[Diagnostic]:
    """Return every static violation in the model, deterministically ordered.

    An empty list means the model is statically valid.  Errors:
    E_FLOW_INTO_CREATE (nothing flows into creation), E_SELF_BOUNDARY
    (a step legal only across thimacs, taken within one), E_ILLEGAL_FLOW
    (any other step outside `LEGAL_STEPS`), E_TRIGGER_TARGET (triggers
    land only on create or process).  Warnings: W_TRIGGER_SHADOWS_FLOW,
    W_ORPHAN_STAGE, W_UNUSUAL_TRIGGER_SOURCE.
    """
    diags: list[Diagnostic] = []

    flow_endpoints = {(arc.source, arc.target) for arc in model.flows}

    for arc in model.flows:
        same = arc.source.thimac == arc.target.thimac
        if (arc.source.kind, arc.target.kind, same) in LEGAL_STEPS:
            continue
        if arc.target.kind is StageKind.CREATE:
            diags.append(
                Diagnostic(
                    "E_FLOW_INTO_CREATE",
                    f"flow {arc.label!r} runs into {arc.target}; "
                    "nothing flows into a creation stage",
                    subject=arc.id,
                    span=arc.span,
                )
            )
        elif same and (arc.source.kind, arc.target.kind, False) in LEGAL_STEPS:
            diags.append(
                Diagnostic(
                    "E_SELF_BOUNDARY",
                    f"flow {arc.label!r} crosses from {arc.source} to {arc.target}, "
                    "but a boundary crossing needs two thimacs",
                    subject=arc.id,
                    span=arc.span,
                )
            )
        else:
            where = "within one thimac" if same else "across thimacs"
            diags.append(
                Diagnostic(
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
                    "W_UNUSUAL_TRIGGER_SOURCE",
                    f"trigger starts at {trig.source}; triggers normally start "
                    "from create, process, or receive",
                    subject=trig.id,
                    span=trig.span,
                )
            )

    # Per thimac, the kinds that some arc's end names; any other stage of it
    # is an orphan.  The grand thimac "" is skipped.
    arcs = model.flows + model.triggers
    ends = {arc.source for arc in arcs}
    ends.update([arc.target for arc in arcs])
    touched: dict[str, set[StageKind]] = {}
    for path, kind in ends:
        touched.setdefault(path, set()).add(kind)
    for path in sorted(model.thimacs):
        stages = model.thimacs[path].stages
        kinds = touched.get(path, frozenset())
        if not path or stages <= kinds:
            continue
        for kind in KIND_ORDER:
            if kind in stages and kind not in kinds:
                ref = StageRef(path, kind)
                diags.append(
                    Diagnostic(
                        "W_ORPHAN_STAGE",
                        f"stage {ref} has no incident flow or trigger arc",
                        subject=str(ref),
                    )
                )

    return sort_diagnostics(diags)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
