"""The test configuration itself: with every warning an error, a failing
property test still reports its falsifying example and lets the rest of
the run go on."""

import subprocess
import sys

from helpers import SRC

ROOT = SRC.parent

_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_reports_its_example_and_the_run_goes_on(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(_FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), "-p", "no:cacheprovider", "-q", str(probe)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "Falsifying example" in result.stdout
