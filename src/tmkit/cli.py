"""Command-line entry point.

Machine-readable results (JSON lines or documented text formats) go to
stdout; human prose goes to stderr.  Exit codes: 0 ok, 1 Error-severity
diagnostics, 2 usage or I/O error, 3 analysis limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# What every subcommand needs; each `cmd_*` imports the rest, so a process
# loads only the analyses it runs.
from . import corpus
from .diagnostics import Diagnostic, ModelError, Severity, TMError, sort_diagnostics
from .dsl import ParseError, format_model, parse
from .model import TMModel, assemble_model
from .validate import check_static, has_errors

OK, DIAG_ERRORS, USAGE, LIMIT = 0, 1, 2, 3


def _color_enabled() -> bool:
    mode = os.environ.get("TM_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _say(message: str) -> None:
    print(message, file=sys.stderr)


class _InvalidModel(TMError):
    """The model has Error-severity static diagnostics, so the analysis
    that needs a valid model does not run."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("the model has static errors")
        self.diagnostics = diagnostics


def _read_source(spec: str) -> str:
    if spec.startswith("fixture:"):
        return corpus.fixture_source(spec[len("fixture:") :])
    from pathlib import Path  # its errors name the path as Path normalizes it

    try:
        return Path(spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{spec}: not UTF-8 text ({exc.reason})") from None


def _load(spec: str, valid: bool = True) -> TMModel:
    """Parse and assemble a model; with `valid`, also require that it has
    no Error-severity static diagnostics."""
    model = assemble_model(parse(_read_source(spec)))
    if valid:
        static = check_static(model)
        if has_errors(static):
            raise _InvalidModel(static)
    return model


def _error_diag(code: str, message: str, span=None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span=span)


def _report(diags: list[Diagnostic]) -> int:
    """Diagnostics as JSON lines on stdout, their tally on stderr."""
    for diag in diags:
        print(diag.to_json())
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    text = f"{errors} error(s), {len(diags) - errors} warning(s)"
    if _color_enabled() and errors:
        text = f"\x1b[31m{text}\x1b[0m"
    _say(text)
    return DIAG_ERRORS if errors else OK


def cmd_check(args: argparse.Namespace) -> int:
    from .behavior import OverlapAmbiguityError, check_all_events, check_behavior

    model = _load(args.file, valid=False)
    diags = list(check_static(model))
    diags.extend(check_all_events(model))
    try:
        diags.extend(check_behavior(model))
    except OverlapAmbiguityError as exc:
        # Reported beside the other findings rather than instead of them.
        diags.append(
            Diagnostic(
                Severity.ERROR, "E_REGION_OVERLAP", str(exc), ", ".join(exc.arc_ids)
            )
        )
    return _report(sort_diagnostics(diags))


def cmd_fmt(args: argparse.Namespace) -> int:
    sys.stdout.write(format_model(_load(args.file, valid=False)))
    return OK


def cmd_simplify(args: argparse.Namespace) -> int:
    from .match import simplify

    sys.stdout.write(simplify(_load(args.file)).edge_list_text())
    return OK


def cmd_render(args: argparse.Namespace) -> int:
    from .render import RenderOptions, to_dot

    model = _load(args.file)
    opts = RenderOptions(view=args.view, show_thing_labels=not args.no_thing_labels)
    if args.view == "simplified":
        from .match import simplify

        model = simplify(model)
    dot = to_dot(model, opts)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(dot, encoding="utf-8")
        _say(f"wrote {args.output}")
    else:
        sys.stdout.write(dot)
    return OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import SimConfig, simulate

    config = SimConfig(
        capacities=args.capacity,
        max_steps=args.max_steps,
        seed=args.seed,
        channels=args.channels,
    )
    sys.stdout.write(simulate(_load(args.file), config).to_jsonl())
    return OK


def cmd_explore(args: argparse.Namespace) -> int:
    from .sim import ExploreConfig, explore_state_space

    config = ExploreConfig(
        capacities=args.capacity,
        max_states=args.max_states,
        channels=args.channels,
    )
    result = explore_state_space(_load(args.file), config)
    print(result.to_json())
    if not result.bounded:
        _say(f"state limit {args.max_states} exceeded; results are partial")
        return LIMIT
    return OK


def cmd_dedup(args: argparse.Namespace) -> int:
    from .match import (
        SEARCH_NODE_BUDGET,
        MatchPolicy,
        find_shared_functionality,
        isomorphic,
        simplify,
    )

    graphs, names = [], []
    for spec in (args.file1, args.file2):
        model = _load(spec)
        graphs.append(simplify(model))
        names.append(model.name or spec)
    policy = MatchPolicy(match_thing_labels=True, match_role_names=args.match_roles)
    mapping = isomorphic(graphs[0], graphs[1], policy)
    print(
        json.dumps(
            {
                "models": names,
                "isomorphic": mapping is not None,
                "mapping": mapping.as_dict() if mapping is not None else None,
            },
            sort_keys=True,
        )
    )
    shared = find_shared_functionality(
        graphs[0], graphs[1], min_size=args.min_size, policy=policy
    )
    for fragment, size in shared.matches:
        print(json.dumps({"size": size, "mapping": fragment.as_dict()}, sort_keys=True))
    if shared.approximate:
        _say(
            "shared-functionality search stopped at its search-node budget "
            f"(SEARCH_NODE_BUDGET = {SEARCH_NODE_BUDGET}); fragments are approximate"
        )
        return LIMIT
    return OK


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm",
        description="Thinging-machine model toolkit: check, render, "
        "simulate, and compare .tm models.",
    )
    parser.add_argument(
        "--fixtures",
        action="store_true",
        help="list the embedded fixture corpus and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="parse and validate a model")
    p_check.add_argument("file", help=".tm file or fixture:NAME")
    p_check.set_defaults(func=cmd_check)

    p_fmt = sub.add_parser("fmt", help="canonically reformat a model")
    p_fmt.add_argument("file")
    p_fmt.set_defaults(func=cmd_fmt)

    p_simplify = sub.add_parser(
        "simplify", help="print the create/process edge list"
    )
    p_simplify.add_argument("file")
    p_simplify.set_defaults(func=cmd_simplify)

    p_render = sub.add_parser("render", help="emit DOT")
    p_render.add_argument("file")
    p_render.add_argument(
        "--view", choices=("static", "behavior", "simplified"), default="static"
    )
    p_render.add_argument("-o", "--output", default=None)
    p_render.add_argument("--no-thing-labels", action="store_true")
    p_render.set_defaults(func=cmd_render)

    p_sim = sub.add_parser("simulate", help="run a seeded token simulation")
    p_sim.add_argument("file")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-steps", type=_int_at_least(0), default=100)
    p_sim.add_argument("--capacity", type=_int_at_least(1), default=1)
    p_sim.add_argument(
        "--channels", choices=("declared", "inferred"), default="declared"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_explore = sub.add_parser("explore", help="enumerate reachable markings")
    p_explore.add_argument("file")
    p_explore.add_argument("--max-states", type=_int_at_least(1), default=10_000)
    p_explore.add_argument("--capacity", type=_int_at_least(1), default=1)
    p_explore.add_argument(
        "--channels", choices=("declared", "inferred"), default="declared"
    )
    p_explore.set_defaults(func=cmd_explore)

    p_dedup = sub.add_parser(
        "dedup", help="compare two models for duplicated functionality"
    )
    p_dedup.add_argument("file1")
    p_dedup.add_argument("file2")
    p_dedup.add_argument(
        "--min-size",
        type=_int_at_least(2),
        default=2,
        metavar="K",
        help="smallest shared fragment to report (at least 2)",
    )
    p_dedup.add_argument(
        "--match-roles",
        action="store_true",
        help="require thimac role names to match, not just structure",
    )
    p_dedup.set_defaults(func=cmd_dedup)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    if args.fixtures:
        for name in corpus.ALL_NAMES:
            print(name)
        return OK
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        _say("a subcommand is required; see --help")
        return USAGE
    # The one place where failures become exit codes.  Model errors are
    # diagnostics (JSON lines, exit 1); unreadable input is exit 2.
    try:
        return args.func(args)
    except (OSError, corpus.UnknownFixtureError) as exc:
        _say(str(exc))
        return USAGE
    except (ParseError, _InvalidModel) as exc:
        return _report(exc.diagnostics)
    except ModelError as exc:
        return _report([_error_diag(exc.code, str(exc), exc.span)])
    except TMError as exc:
        _say(str(exc))
        return DIAG_ERRORS


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
