"""Golden payload bytes under every OpenBLAS kernel and numpy SIMD level this host can run.

Each case runs every golden payload configuration of ``test_golden`` in a
child interpreter and requires the recorded bytes.  The child gets its
``OPENBLAS_CORETYPE`` or ``NPY_DISABLE_CPU_FEATURES`` in its own
environment only.  OpenBLAS kernels are tried as far as the host's
``/proc/cpuinfo`` flags allow; the numpy case turns off its AVX-512
(``X86_V4``) dispatch and checks that the switch took.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import locclab
import test_golden

#: OpenBLAS core type -> the ``/proc/cpuinfo`` flags its kernels need.
CORE_TYPES = {
    "Prescott": set(),
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f"},
}

#: numpy's AVX-512 dispatch groups, from the newest down to ``X86_V4`` itself.
NUMPY_AVX512_GROUPS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

CHILD = """
import contextlib, io, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
import test_golden as g
from locclab.cli import EXIT_OK, main

out = Path(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(g.exact_argv(stem, suffix, out / (stem + suffix)))
             for stem in g.EXACT for suffix in g.FORMATS]
    codes += [main(["chsh", *argv, "--out", str(out / name)]) for name, argv in g.PAYLOADS.items()]
assert codes == [EXIT_OK] * len(codes), codes
print(__cpu_features__["X86_V4"])
"""


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags") for f in line.split()}


def golden_names() -> list[str]:
    exact = [stem + suffix for stem in test_golden.EXACT for suffix in test_golden.FORMATS]
    return sorted(exact + list(test_golden.PAYLOADS))


def run_child(tmp_path: Path, **env: str) -> str:
    """Write every golden payload in a child with ``env`` set; its ``X86_V4`` flag."""
    child_env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")
    }
    paths = [Path(locclab.__file__).parents[1], Path(__file__).parent]
    child_env.update(env, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == golden_names()
    differing = [
        name for name in golden_names()
        if (tmp_path / name).read_bytes() != (test_golden.GOLDEN / name).read_bytes()
    ]
    assert differing == [], f"payloads differ from the goldens under {env}"
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "core", [c for c, needs in CORE_TYPES.items() if needs <= cpu_flags()]
)
def test_golden_bytes_under_each_openblas_kernel(tmp_path, core):
    run_child(tmp_path, OPENBLAS_CORETYPE=core)


@pytest.mark.skipif(
    "X86_V4" not in __cpu_features__, reason="this numpy has no X86_V4 dispatch group"
)
def test_golden_bytes_without_numpy_avx512_dispatch(tmp_path):
    # only groups this host runs can be turned off; on a host without
    # AVX-512 the list is empty and X86_V4 is off already
    groups = " ".join(g for g in NUMPY_AVX512_GROUPS if __cpu_features__[g])
    assert run_child(tmp_path, NPY_DISABLE_CPU_FEATURES=groups) == "False"
