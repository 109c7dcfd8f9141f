"""A diagnostic's severity is read from its code, and README's table of
codes agrees with the codes the source reports."""

import ast
import re
from pathlib import Path

import pytest

import tmkit
from tmkit import Diagnostic, Severity, SourceSpan

ROOT = Path(__file__).resolve().parent.parent


def test_a_diagnostic_is_its_code_message_subject_and_span():
    assert Diagnostic._fields == ("code", "message", "subject", "span")


@pytest.mark.parametrize(
    "code, severity",
    [("W_X", Severity.WARNING), ("E_X", Severity.ERROR), ("X", Severity.ERROR),
     ("w_x", Severity.ERROR)],
)
def test_the_code_prefix_fixes_the_severity(code, severity):
    assert Diagnostic(code, "m").severity is severity


def test_json_lines_still_carry_the_severity():
    assert Diagnostic("W_ORPHAN_STAGE", "m", "A.create", SourceSpan(2, 3)).to_json() == (
        '{"code": "W_ORPHAN_STAGE", "col": 3, "line": 2, "message": "m", '
        '"severity": "Warning", "subject": "A.create"}'
    )
    assert Diagnostic("E_SYNTAX", "m").to_json() == (
        '{"code": "E_SYNTAX", "col": null, "line": null, "message": "m", '
        '"severity": "Error", "subject": ""}'
    )


def _readme_codes():
    """README's "Diagnostic codes" table: each code with its severity."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Diagnostic codes")[1]
    section = section.split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[0].startswith("`"):
            for code in re.findall(r"`(\w+)`", cells[0]):
                rows[code] = cells[1]
    return rows


def _source_codes():
    """Every `E_...`/`W_...` string literal in the package's modules."""
    codes = set()
    for path in Path(tmkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[EW]_[A-Z_]+", node.value):
                    codes.add(node.value)
    return codes


def test_readme_documents_every_code_the_source_reports():
    documented = _readme_codes()
    assert documented and set(documented) == _source_codes()
    for code, severity in documented.items():
        assert severity == str(Diagnostic(code, "").severity), code
