"""Every function of the package is entered by a golden config, or says why not.

The golden configs of ``test_golden`` run in-process, through
``locclab.cli.main``, under the standard library's ``trace`` module, in a
fresh interpreter so that no cache warmed by another test hides a function.
A function or method counts as entered when a line of its own body runs;
lines of the functions nested in it count for them, not for it.  ``trace``
follows only the main thread, which is enough: the sampled goldens without
``--parallel`` run every sampler function there.

A function that no config enters must be named in :data:`UNREACHED` with
the reason it is kept; an entry for a function that is gone, or that a
config now enters, fails too.  Run this file as a script to print the
unreached functions.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "locclab"

#: Functions no golden config enters, each with the reason it stays.
UNREACHED = {
    "bell.CHSHResult.correlations": "library accessor of the four correlations, read by test_bell",
    "cli._Parser.error": "argument lists the parser refuses (exit 2), in test_cli and "
                         "test_main_property",
    "cli._read_config_file": "--config files; every golden passes its values as flags",
    "errors.ConfigError.__init__": "the configuration refusals (exit 2) of test_cli",
    "errors.EmptyCellError.__init__": "a setting pair with no trials (exit 5), in test_cli",
    "instruments.CoarseGrainingPartition.__post_init__": "coarse-graining, held by criterion 8",
    "instruments.CoarseGrainingPartition.covered": "coarse-graining, held by criterion 8",
    "instruments.QuantumInstrument.branch": "coarse-graining, held by criterion 8",
    "instruments.Violation.__str__": "a failed validation's ContractError message, and demo 07",
    "instruments.coarse_grain": "coarse-graining, held by criterion 8",
    "linalg.trace_distance": "state distance, held by criterion 2",
    "protocols.canonical_chsh_script": "sweep and qecc without --script; each golden names one",
    "protocols.load_script": "--script files; every golden uses a bundled script",
    "worlds.pair_coherence": "the coherence of one world, checked by test_worlds",
}


def _golden_argvs(out: Path) -> list[list[str]]:
    """The argument list of every golden config, each writing its files under ``out``."""
    from test_golden import EXACT, FORMATS, MULTI_BLOCK_TRANSCRIPT, PAYLOADS, TRANSCRIPT
    from test_golden import exact_argv

    argvs = [exact_argv(stem, sfx, out / (stem + sfx)) for stem in EXACT for sfx in FORMATS]
    argvs += [["chsh", *args, "--out", str(out / name)] for name, args in PAYLOADS.items()]
    for i, args in enumerate([TRANSCRIPT, MULTI_BLOCK_TRANSCRIPT]):
        files = ["--out", str(out / f"t{i}.json"), "--transcript", str(out / f"t{i}.txt")]
        argvs.append([*args, *files])
    return argvs


def _traced_lines() -> dict[str, list[int]]:
    """The lines of ``src/locclab`` that the golden configs run, by file name."""
    import contextlib
    import io
    import tempfile
    import trace

    from locclab.cli import EXIT_OK, main

    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        argvs = _golden_argvs(Path(out))
        codes = [tracer.runfunc(main, argv) for argv in argvs]
    assert codes == [EXIT_OK] * len(argvs), codes
    lines: dict[str, list[int]] = {}
    for filename, lineno in tracer.results().counts:
        path = Path(filename).resolve()
        if path.parent == SRC:
            lines.setdefault(path.name, []).append(lineno)
    return lines


def _own_lines(code: types.CodeType, parent: types.CodeType) -> set[int]:
    """The lines of ``code`` that its parent does not run when it defines ``code``."""
    mine = {line for _, _, line in code.co_lines() if line is not None}
    return mine - {line for _, _, line in parent.co_lines() if line is not None}


def package_functions() -> dict[str, set[int]]:
    """Every function and method in ``src/locclab``, ``module.qualname``, with its own lines."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def walk(code: types.CodeType):
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    # a function, not a class body, a lambda or a comprehension
                    if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                        name = f"{module}.{const.co_qualname.replace('<locals>.', '')}"
                        found[name] = _own_lines(const, code)
                        assert found[name], f"{name} has no line of its own"
                    walk(const)

        walk(compile(path.read_text("utf-8"), str(path), "exec"))
    return found


def unreached_functions() -> set[str]:
    """Functions of the package no golden config enters, traced in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", __file__, "--lines"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ran = {name: set(lines) for name, lines in json.loads(proc.stdout).items()}
    return {
        name for name, lines in package_functions().items()
        if not lines & ran.get(name.split(".")[0] + ".py", set())
    }


def test_every_function_is_entered_or_allowlisted():
    unreached = unreached_functions()
    assert sorted(unreached - set(UNREACHED)) == [], "entered by no golden config"
    assert sorted(set(UNREACHED) - set(package_functions())) == [], "allowlisted but gone"
    assert sorted(set(UNREACHED) - unreached) == [], "allowlisted but entered"


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        print(json.dumps(_traced_lines()))
    else:
        print("\n".join(sorted(unreached_functions())))
