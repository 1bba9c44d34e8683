"""Property: every argument list ends in a documented exit code and one kind of stderr.

``main(argv)`` returns 0, 2, 3, 4 or 5.  On 2, 3 and 5 standard error holds
exactly one line, the documented message; on 0 and 4 it holds only the
criterion lines and the closing ``done in`` line.  An escaping exception is
a failure of the property.  Every drawn value is bounded: at most 10^4
trials, at most 8 environment qubits and at most 2 sampler threads.  Values
are passed as ``--flag=value``, the form that lets a value such as ``-inf``
start with a dash.
"""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings, strategies as st

from locclab import bundled_script_names, measure_x, save_instrument
from locclab.cli import EXPERIMENTS, main

from test_cli import NO_DIMENSION, NO_ROUNDS

ONE_LINE = {2: "configuration error: ", 3: "capacity error: ", 5: "estimation error: "}
RUN_LINE = re.compile(r"criterion .+: (PASS|FAIL)|done in \d+\.\d+s \(.+\)")

REALS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from(
        [0.0, -0.0, -1.0, 1e17, 1e300, -1e300, 1.797e308, math.inf, -math.inf, math.nan]
    ),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {"no_rounds": root / "no_rounds.json", "no_dimension": root / "bare.inst"}
    paths["no_rounds"].write_text(NO_ROUNDS)
    paths["no_dimension"].write_text(NO_DIMENSION)
    paths["valid"] = root / "x.inst"
    save_instrument(paths["valid"], measure_x(), "x")
    return {k: str(v) for k, v in paths.items()}


@st.composite
def argv(draw, files):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    seed = draw(st.one_of(st.integers(-2, 2**31), st.sampled_from([2**128 - 1, 2**128])))
    args = [experiment, f"--seed={seed}"]
    qbar = draw(st.one_of(st.none(), st.integers(-1, 6)))
    if qbar is not None:
        args.append(f"--qbar-dim={qbar}")
    q_max = 8 - max(2 if qbar is None else qbar, 0)  # 2 rest qubits by default
    options = {
        # few trials leave a setting pair empty (exit 5)
        "--trials": st.one_of(st.integers(-2, 4), st.integers(5, 10_000)).map(str),
        "--mode": st.sampled_from(["er", "epr"]),
        "--lambda": REALS.map(repr),
        "--evolution-time": REALS.map(repr),
        "--offset": REALS.map(repr),
        "--q-dim": st.integers(-1, q_max).map(str),
        "--q-dims": st.lists(st.integers(-1, q_max), min_size=1, max_size=3).map(
            lambda ds: ",".join(map(str, ds))
        ),
        "--lambda-grid": st.lists(REALS, min_size=1, max_size=4).map(
            lambda xs: ",".join(map(repr, xs))
        ),
        "--parallel": st.integers(-1, 2).map(str),
        "--format": st.sampled_from(["columnar", "structured"]),
        "--script": st.one_of(st.just(files["no_rounds"]), st.sampled_from(bundled_script_names())),
        "--alice-instrument": st.sampled_from([files["valid"], files["no_dimension"]]),
    }
    for flag in draw(st.sets(st.sampled_from(sorted(options)), max_size=4)):
        args.append(f"{flag}={draw(options[flag])}")
    if draw(st.booleans()):
        args.append("--exact")
    return args


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_exit_code_and_stderr_are_documented(files, data):
    args = data.draw(argv(files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5)
    if code in ONE_LINE:
        assert len(lines) == 1 and lines[0].startswith(ONE_LINE[code]), lines
        assert out.getvalue() == ""
    else:
        assert lines and all(RUN_LINE.fullmatch(line) for line in lines), lines
        assert lines[-1].startswith("done in")
        assert (code == 4) == any(line.endswith(": FAIL") for line in lines)
