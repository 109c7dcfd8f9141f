"""Command-line entry point.

Machine-readable results (JSON lines or documented text formats) go to
stdout; human prose goes to stderr.  Exit codes: 0 ok, 1 Error-severity
diagnostics, 2 usage or I/O error (stdout closed too), 3 analysis limit exceeded
(for explore, only --max-states; for dedup, a search budget).
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

# What every subcommand needs; each `cmd_*` imports the rest, so a process
# loads only the analyses it runs.
from . import corpus
from .diagnostics import Diagnostic, ModelError, Severity, TMError, sort_diagnostics
from .dsl import format_model, parse
from .model import TMModel, assemble_model
from .validate import check_static, has_errors

OK, DIAG_ERRORS, USAGE, LIMIT = 0, 1, 2, 3
SIMULATE_BATCH = 4096  # lines per write: `tm simulate` writes them as the engine runs


def _color_enabled() -> bool:
    mode = os.environ.get("TM_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read_source(spec: str) -> str:
    if spec.startswith("fixture:"):
        return corpus.fixture_source(spec[len("fixture:") :])
    from pathlib import Path  # its errors name the path as Path normalizes it

    try:
        # utf-8-sig drops a leading byte-order mark, and only a leading one.
        return Path(spec).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise OSError(f"{spec}: not UTF-8 text ({exc.reason})") from None


def _load(spec: str, valid: bool = True) -> TMModel:
    """Parse and assemble a model; with `valid`, also require that it has
    no Error-severity static diagnostics."""
    model = assemble_model(parse(_read_source(spec)))
    if valid:
        static = check_static(model)
        if has_errors(static):
            raise ModelError("the model has static errors", diagnostics=static)
    return model


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


def cmd_check(args: SimpleNamespace) -> int:
    from .behavior import OverlapAmbiguityError, check_all_events, check_behavior

    model = _load(args.file, valid=False)
    diags = list(check_static(model))
    diags.extend(check_all_events(model))
    try:
        diags.extend(check_behavior(model))
    except OverlapAmbiguityError as exc:
        # Reported beside the other findings rather than instead of them.
        diags.extend(exc.diagnostics)
    return _report(sort_diagnostics(diags))


def cmd_fmt(args: SimpleNamespace) -> int:
    sys.stdout.write(format_model(_load(args.file, valid=False)))
    return OK


def cmd_simplify(args: SimpleNamespace) -> int:
    from .match import simplify

    sys.stdout.write(simplify(_load(args.file)).edge_list_text())
    return OK


def cmd_render(args: SimpleNamespace) -> int:
    from .render import RenderOptions, to_dot

    model = _load(args.file)
    opts = RenderOptions(view=args.view, show_thing_labels=not args.no_thing_labels)
    if args.view == "simplified":
        from .match import simplify

        model = simplify(model)
    dot = to_dot(model, opts)
    if args.output is None:
        sys.stdout.write(dot)
    else:
        with open(args.output, "w", encoding="utf-8") as out:  # an error names the path
            out.write(dot)
        _say(f"wrote {args.output}")
    return OK


def cmd_simulate(args: SimpleNamespace) -> int:
    from .sim import SimConfig, encode_batches, simulate_firings

    config = SimConfig(
        capacities=args.capacity, channels=args.channels, max_steps=args.max_steps, seed=args.seed
    )
    # The engine's firings go straight to the encoder, so the first batch is
    # written before the engine has run more than SIMULATE_BATCH steps.
    firings = simulate_firings(_load(args.file), config)
    for batch in encode_batches(firings, SIMULATE_BATCH):
        sys.stdout.write(batch)
    return OK


def cmd_explore(args: SimpleNamespace) -> int:
    from .sim import ExploreConfig, explore_state_space

    config = ExploreConfig(
        capacities=args.capacity, channels=args.channels, max_states=args.max_states
    )
    result = explore_state_space(_load(args.file), config)
    print(result.to_json())
    if not result.bounded:
        _say(f"state limit {args.max_states} exceeded; reachableCount is partial, "
             "the deadlocks are exact")
        return LIMIT
    return OK


def cmd_dedup(args: SimpleNamespace) -> int:
    from .match import (
        SEARCH_NODE_BUDGET,
        MatchPolicy,
        SearchLimitError,
        find_shared_functionality,
        isomorphic,
        simplify,
    )

    import json

    graphs, names = [], []
    for spec in (args.file1, args.file2):
        model = _load(spec)
        graphs.append(simplify(model))
        names.append(model.name or spec)
    policy = MatchPolicy(match_thing_labels=True, match_role_names=args.match_roles)
    # A spent budget leaves the verdict undecided (null); the cover still runs.
    mapping, undecided = None, None
    try:
        mapping = isomorphic(graphs[0], graphs[1], policy)
    except SearchLimitError as exc:
        undecided = str(exc)
    print(
        json.dumps(
            {
                "models": names,
                "isomorphic": None if undecided else mapping is not None,
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
    if undecided:
        _say(undecided)
    if shared.approximate:
        _say(
            "shared-functionality search stopped at its search-node budget "
            f"(SEARCH_NODE_BUDGET = {SEARCH_NODE_BUDGET}); fragments are approximate"
        )
    return LIMIT if undecided or shared.approximate else OK


#: Each subcommand's handler, positionals, options and summary.  An option
#: maps to its kind and default, and sets the attribute named by it without
#: its dashes, "-" read as "_".  Its kind is `bool` for a flag, `str` for a
#: text, a tuple of choices, `int` for an integer, or the least int allowed.
_NET = {"--capacity": (1, 1), "--channels": (("declared", "inferred"), "declared")}
_RENDER = {"--view": (("static", "behavior", "simplified"), "static"), "--output": (str, None)}
COMMANDS = {
    "check": (cmd_check, ["file"], {}, "parse and validate a model"),
    "fmt": (cmd_fmt, ["file"], {}, "canonically reformat a model"),
    "simplify": (cmd_simplify, ["file"], {}, "print the create/process edge list"),
    "render": (cmd_render, ["file"], {**_RENDER, "--no-thing-labels": (bool, False)}, "emit DOT"),
    "simulate": (cmd_simulate, ["file"], {**_NET, "--seed": (int, 0), "--max-steps": (0, 100)},
                 "run a seeded token simulation"),
    "explore": (cmd_explore, ["file"], {**_NET, "--max-states": (1, 10_000)},
                "enumerate reachable markings"),
    "dedup": (cmd_dedup, ["file1", "file2"], {"--min-size": (2, 2), "--match-roles": (bool, False)},
              "compare two models for duplicated functionality"),
}
_HELP = {"--help": (bool, False)}  # known at every level
_TOP = (None, ["command"], {**_HELP, "--fixtures": (bool, False)}, "Thinging-machine model "
        "toolkit: check, render, simulate, and compare .tm models; --fixtures lists the corpus.")
_SHORT = {"-h": "--help", "-o": "--output"}


class UsageError(Exception):
    """A command line `tm` cannot run; args: the subcommand read (or None), the error."""


def _split(arg: str, options: dict) -> tuple[str | None, str | None]:
    """`arg` as an option's name and attached value (None if it has none),
    or (None, None) for a positional.  An unknown option keeps its text."""
    name, eq, value = arg.partition("=")
    name = _SHORT.get(name, name)
    if name in options:
        return name, value if eq else None
    if _SHORT.get(arg[:2]) in options:  # a value attached to a short option: -oOUT
        return _SHORT[arg[:2]], arg[2:]
    # As argparse did: "-", a negative number or a text with a blank is a value.
    positional = arg[:1] != "-" or arg in ("-", "--") or " " in arg
    return (None if positional or re.match(r"-\d+$|-\d*\.\d+$", arg) else arg), None


def _value(kind, text: str | None) -> object:
    """An option's value, from the text given with it (None if none was)."""
    if (kind is bool) != (text is None):
        raise ValueError("takes no value" if kind is bool else "expected a value")
    if isinstance(kind, tuple) and text not in kind:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(kind)})")
    if kind is bool or kind is str or isinstance(kind, tuple):
        return True if kind is bool else text
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if kind is not int and value < kind:
        raise ValueError(f"must be at least {kind}, got {value}")
    return value


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read `argv` into the attributes `run` and the `cmd_*` functions read, up
    to the first --help.  A bad option value raises UsageError at once, and
    an unknown option or a positional too many does only at the end."""
    args = SimpleNamespace(help=False, fixtures=False, command=None)
    _, positionals, options, _ = _TOP
    unknown, dashes, i = None, False, 0  # after "--", every argument is a positional
    while i < len(argv):
        arg, i = argv[i], i + 1
        name, value = (None, None) if dashes else _split(arg, options)
        if arg == "--" and args.command and not dashes:
            dashes = True
        elif name in options:
            kind = options[name][0]
            if kind is not bool and value is None and argv[i:i + 1] not in ([], ["--"]) \
                    and not _split(argv[i], options)[0]:
                value, i = argv[i], i + 1  # the next argument, if it is no option
            try:
                setattr(args, name[2:].replace("-", "_"), _value(kind, value))
            except ValueError as exc:
                raise UsageError(args.command, f"argument {name}: {exc}") from None
            if args.help:
                return args
        elif name or not positionals:
            unknown = unknown or arg
        elif args.command:
            setattr(args, positionals.pop(0), arg)
        elif arg in COMMANDS:
            args.command, (args.func, positionals, options, _) = arg, COMMANDS[arg]
            positionals, options = list(positionals), {**_HELP, **options}
            vars(args).update((n[2:].replace("-", "_"), d) for n, (_, d) in options.items())
        else:
            raise UsageError(None, f"invalid command: {arg!r} (choose from {', '.join(COMMANDS)})")
    if unknown is not None:
        raise UsageError(args.command, f"unrecognized argument: {unknown}")
    if positionals and (args.command or not args.fixtures):
        raise UsageError(args.command, f"the following argument is required: {positionals[0]}"
                         if args.command else "a subcommand is required; see --help")
    return args


def _usage(command: str | None, full: bool = False) -> str:
    """The usage line; in full, with what the command does (and the commands)."""
    _, positionals, options, about = COMMANDS.get(command, _TOP)
    words = ["usage: tm", command] if command else ["usage: tm"]
    for name, (kind, _) in {**_HELP, **options}.items():
        metavar = "|".join(kind) if isinstance(kind, tuple) else "PATH" if kind is str else "N"
        words.append(f"[{name}]" if kind is bool else f"[{name} {metavar}]")
    usage = " ".join(words + [p.upper() for p in positionals])
    rows = "" if command else "\n" + "".join(f"\n  {n:<10}{e[3]}" for n, e in COMMANDS.items())
    return f"{usage}\n\n{about}{rows}" if full else usage


def run(argv: list[str]) -> int:
    # The one place where failures become exit codes.  Model errors are
    # diagnostics (JSON lines, exit 1); unreadable input or output is exit 2.
    try:
        args = parse_args(argv)
        if args.help or args.fixtures:
            print(_usage(args.command, full=True) if args.help else "\n".join(corpus.ALL_NAMES))
            return OK
        return args.func(args)
    except UsageError as exc:
        _say(f"{_usage(exc.args[0])}\ntm: error: {exc.args[1]}")
        return USAGE
    except (OSError, corpus.UnknownFixtureError) as exc:
        _say(str(exc))
        return USAGE
    except ModelError as exc:
        return _report(exc.diagnostics)
    except TMError as exc:
        _say(str(exc))
        return DIAG_ERRORS


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:  # the reader closed stdout before the end
        _say(str(exc))
        code = USAGE
        # Python flushes stdout again at exit: what is left goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
