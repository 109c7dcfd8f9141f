"""What importing tmkit loads: the `tm` command imports only what its
subcommand needs, and the package's public names resolve on first use.

Each probe runs in a fresh interpreter, because this test process has
already imported everything."""

import subprocess
import sys

from helpers import SRC

#: Modules that `import tmkit.cli` must not add to a bare interpreter's.
NOT_ON_START = {
    "argparse",
    "gettext",
    "json",
    "dataclasses",
    "inspect",
    "hashlib",
    "typing",
    "tmkit.match",
    "tmkit.sim",
    "tmkit.render",
}


def _python(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _modules(code: str) -> set[str]:
    return set(_python(code + "\nimport sys\nprint(*sys.modules, sep='\\n')").split())


def test_the_cli_imports_no_analysis_it_does_not_run():
    # Measured against the same interpreter with nothing imported, since
    # `site` may preload modules (a .pth file can import `re` or `pathlib`).
    added = _modules("import tmkit.cli") - _modules("pass")
    assert {"tmkit", "tmkit.cli", "tmkit.dsl", "tmkit.model"} <= added
    assert added.isdisjoint(NOT_ON_START), sorted(added & NOT_ON_START)


def test_a_clean_check_loads_no_option_parser_and_no_json():
    # `tm` reads its command line from its own table, and a clean model's
    # `check` writes no JSON, so none of these is needed.
    added = _modules(
        "import tmkit.cli\n"
        "assert tmkit.cli.run(['check', 'fixture:pump']) == 0"
    ) - _modules("pass")
    assert "tmkit.behavior" in added
    assert added.isdisjoint({"argparse", "gettext", "locale", "json"}), sorted(added)


def test_rendering_a_static_view_imports_no_matching():
    added = _modules(
        "import tmkit.cli\n"
        "assert tmkit.cli.run(['render', 'fixture:pump']) == 0"
    ) - _modules("pass")
    assert "tmkit.render" in added
    assert added.isdisjoint({"tmkit.match", "hashlib"}), sorted(added)


def test_matching_loads_hashlib_only_for_a_signature():
    # `tm dedup` and the simplified view compute no signature, so they skip
    # hashlib's OpenSSL import; only `signature` loads it.
    base = _modules("pass")
    added = _modules(
        "import tmkit.cli\n"
        "assert tmkit.cli.run(['dedup', 'fixture:pump', 'fixture:pump']) == 0\n"
        "assert tmkit.cli.run(['render', 'fixture:pump', '--view', 'simplified']) == 0"
    ) - base
    assert "tmkit.match" in added
    assert "hashlib" not in added
    signed = _modules(
        "from tmkit import assemble_model, parse, signature, simplify\n"
        "from tmkit.corpus import fixture_source\n"
        "signature(simplify(assemble_model(parse(fixture_source('pump')))))"
    ) - base
    assert "hashlib" in signed


def test_public_names_resolve_on_first_use():
    out = _python(
        "import sys, tmkit\n"
        "print(sorted(m for m in sys.modules if m.startswith('tmkit.')))\n"
        "named = {name: getattr(tmkit, name) for name in tmkit.__all__}\n"
        "star = {}\n"
        "exec('from tmkit import *', star)\n"
        "assert all(star[name] is named[name] for name in tmkit.__all__)\n"
        "assert set(tmkit.__all__) <= set(dir(tmkit))\n"
        "try:\n"
        "    tmkit.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    assert out.split("\n")[:2] == ["[]", "AttributeError"]
