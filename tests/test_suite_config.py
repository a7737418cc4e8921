"""The suite's own pytest configuration, `pyproject.toml`."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_rest_of_the_run(tmp_path):
    """Warnings are errors, yet a failing hypothesis test, whose report
    imports modules that warn, is one failure: the tests after it run."""
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
