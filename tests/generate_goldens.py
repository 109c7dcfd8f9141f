"""Compute the corpus golden files, and check or rewrite the stale ones.

Each golden is the serialized output of one analysis over one fixture.
`stale_goldens` is the one golden check: a golden is current when its
file holds exactly the bytes that the pipeline regenerates from the
fixture source.  The corpus tests, `--check` and the write mode all call it.

    PYTHONPATH=src python tests/generate_goldens.py            # rewrite the stale ones
    PYTHONPATH=src python tests/generate_goldens.py --check    # compare only

`--check` writes nothing; it names every stale golden and then exits 1.
It needs only tmkit, not the test dependencies.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
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

#: The checkout, and the goldens' directory within it.
ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path("src", "tmkit", "corpus", "goldens")


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


def stale_goldens(names: Iterable[str]) -> dict[Path, bytes]:
    """Each golden of the fixtures `names` whose file is missing or differs
    byte for byte from `compute_goldens`, with the bytes it should hold."""
    stale = {}
    for name in names:
        for analysis, text in compute_goldens(name).items():
            path = ROOT / GOLDENS / f"{name}.{analysis}.txt"
            data = text.encode("utf-8")
            if not path.is_file() or path.read_bytes() != data:
                stale[path] = data
    return stale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 naming every stale golden",
    )
    args = parser.parse_args(argv)
    stale = stale_goldens(ALL_NAMES)
    for path, data in stale.items():
        if args.check:
            print(f"stale {path.relative_to(ROOT)}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            print(f"wrote {path.relative_to(ROOT)}")
    if args.check and stale:
        print(f"{len(stale)} stale golden(s)")
        return 1
    if not stale:
        print("every golden is current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
