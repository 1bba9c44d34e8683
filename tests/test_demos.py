"""Every demo script runs to completion and prints its recorded output byte for byte.

``golden/demos/<stem>.txt`` holds each demo's stdout as recorded before the
instrument became one Kraus stack, with warnings as errors as in the test run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_all_demos_found():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    """The demo exits 0 and prints its recorded output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # a subprocess inherits nothing of pytest's filterwarnings
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
