"""The pytest configuration of ``pyproject.toml``: a failing test reports itself and the run goes on.

Warnings are errors there, so that a numpy ``RuntimeWarning`` in payload
arithmetic fails its test.  The one exception is the ``DeprecationWarning``
the hypothesis plugin's report hook raises on a failing property test: as an
error it aborts the whole session (exit 3) and hides the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_property_fails(n):
    assert n < 5


def test_b_runtime_warning_fails():
    warnings.warn("overflow encountered", RuntimeWarning)


def test_c_passes():
    pass
"""


def test_failing_property_reports_its_example_and_later_tests_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-rA", "test_probe.py"]
    run = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "FAILED test_probe.py::test_a_property_fails" in out, out
    assert "FAILED test_probe.py::test_b_runtime_warning_fails" in out, out
    assert "PASSED test_probe.py::test_c_passes" in out, out
