"""Compute (and, when run as a script, write) the corpus golden files.

Each golden is the serialized output of one analysis over one fixture;
the corpus test asserts that every shipped golden regenerates
bit-identically from the fixture source through the pipeline.

    PYTHONPATH=src python tests/generate_goldens.py            # rewrite them
    PYTHONPATH=src python tests/generate_goldens.py --check    # compare only

`--check` writes nothing; it names every golden that would change and
then exits 1.  It needs only tmkit, not the test dependencies.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tmkit import (
    ExploreConfig,
    MatchPolicy,
    RenderOptions,
    SimConfig,
    assemble_model,
    canonical_signature,
    check_behavior,
    check_static,
    explore_state_space,
    format_model,
    infer_dependencies,
    parse,
    simplify,
    simulate,
    to_dot,
)
from tmkit.behavior import check_all_events
from tmkit.corpus import ALL_NAMES, fixture_source
from tmkit.match import signature


def compute_goldens(name: str) -> dict[str, str]:
    model = assemble_model(parse(fixture_source(name)))
    graph = simplify(model)
    diags = check_static(model) + check_all_events(model) + check_behavior(model)
    deps = sorted(infer_dependencies(model))
    goldens = {
        "diagnostics": "".join(d.to_json() + "\n" for d in diags),
        "dependencies": "".join(f"{a} -> {b}\n" for a, b in deps),
        "simplified": graph.edge_list_text(),
        "format": format_model(model),
        "dot-static": to_dot(model, RenderOptions(view="static")),
        "dot-behavior": to_dot(model, RenderOptions(view="behavior")),
        "dot-simplified": to_dot(graph, RenderOptions(view="simplified")),
        "trace": simulate(model, SimConfig(max_steps=8, seed=0)).to_jsonl(),
        "explore": explore_state_space(model, ExploreConfig()).to_json() + "\n",
        "signature": canonical_signature(graph)
        + "\n"
        + signature(graph, MatchPolicy(match_role_names=False))
        + "\n",
    }
    return goldens


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 naming every golden that would change",
    )
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    out_dir = root / "src" / "tmkit" / "corpus" / "goldens"
    if not args.check:
        out_dir.mkdir(parents=True, exist_ok=True)
    stale = []
    for name in ALL_NAMES:
        for analysis, text in compute_goldens(name).items():
            path = out_dir / f"{name}.{analysis}.txt"
            data = text.encode("utf-8")
            if args.check:
                if not path.is_file() or path.read_bytes() != data:
                    stale.append(path)
            else:
                path.write_bytes(data)
                print(f"wrote {path.relative_to(root)}")
    for path in stale:
        print(f"stale {path.relative_to(root)}")
    if args.check:
        print(f"{len(stale)} stale golden(s)" if stale else "every golden is current")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
