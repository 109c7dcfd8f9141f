"""tmkit: a thinging-machine modeling toolkit.

Parse textual models, validate them against the five-stage flow
calculus, reason about events and chronologies, execute behaviors with
token semantics, and detect duplicated functionality between models via
labeled-graph isomorphism.

The public names below are imported from their modules on first use
(PEP 562), so ``import tmkit`` loads no analysis that a program does not
run.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module's public names.
_EXPORTS = {
    "behavior": (
        "OverlapAmbiguityError",
        "UnknownGoalError",
        "check_behavior",
        "check_event_region",
        "infer_dependencies",
        "nonfunctional_events",
    ),
    "diagnostics": ("Diagnostic", "Severity", "SourceSpan", "TMError"),
    "dsl": ("ParseError", "format_model", "parse"),
    "match": (
        "AmbiguousSpliceError",
        "MatchPolicy",
        "NodeMapping",
        "SearchLimitError",
        "SimplifiedGraph",
        "find_shared_functionality",
        "isomorphic",
        "signature",
        "simplify",
        "verify_mapping",
    ),
    "model": (
        "AssemblyError",
        "BehaviorGraph",
        "DanglingRefError",
        "DuplicateArcError",
        "DuplicatePathError",
        "Event",
        "FlowArc",
        "StageKind",
        "StageRef",
        "Thimac",
        "TMModel",
        "TriggerArc",
        "UnknownParentError",
        "assemble_model",
    ),
    "render": ("RenderOptions", "to_dot"),
    "sim": (
        "ConfigError",
        "ExploreConfig",
        "ExploreResult",
        "NoInitialEventsError",
        "SimConfig",
        "Trace",
        "explore_state_space",
        "simulate",
    ),
    "validate": ("check_static", "flow_adjacency_legal"),
}

_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

