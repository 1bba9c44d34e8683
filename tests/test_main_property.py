"""Property: every argument list ends in a documented exit code and one kind of stderr.

``main(argv)`` returns 0, 2, 3, 4 or 5.  On 2, 3 and 5 standard error holds
exactly one line, the documented message; on 0 and 4 it holds only the
criterion lines and the closing ``done in`` line.  An escaping exception is
a failure of the property.  A run given a flag that does not act in it, per
the literal ``ACTS`` matrix of ``test_cli``, exits 2, and a refusal of a key
as one that does not act names that flag's key and no other.  So does a run
given a config file that is not UTF-8, one given an unknown or abbreviated
flag, one given an empty ``--alice-instrument`` list, which is refused by
its key, and one that would compare fewer than two distinct channel sizes
or instrument files.  Every drawn value is bounded: at most 10^4 trials, at
most 8 environment qubits and at most 2 sampler threads.  Each value is
passed as one item, ``--flag=value``, or as two, ``--flag value``, drawn
per flag: the item after a flag is its value as is, so a value such as
``-inf`` or an empty one reaches the same checks in either form.
"""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings, strategies as st

from locclab import bundled_script_names
from locclab.cli import EXPERIMENTS, main

from test_cli import ACTS, DEEP_JSON, NO_DIMENSION, NO_ROUNDS, X_TEXT, Z_TEXT, run_kind

ONE_LINE = {2: "configuration error: ", 3: "capacity error: ", 5: "estimation error: "}
RUN_LINE = re.compile(r"criterion .+: (PASS|FAIL)|done in \d+\.\d+s \(.+\)")

#: The configuration key each drawn flag sets.
FLAG_KEYS = {
    "--trials": "trials", "--mode": "mode", "--exact": "exact", "--lambda": "lambda",
    "--evolution-time": "evolution_time", "--offset": "offset", "--q-dim": "q_dim",
    "--qbar-dim": "qbar_dim", "--q-dims": "q_dims", "--lambda-grid": "lambda_grid",
    "--parallel": "parallel", "--format": "format", "--script": "script",
    "--alice-instrument": "alice_instruments",
}

#: Every flag an experiment takes; a proper prefix of one is refused unless it is a flag too.
ALL_FLAGS = sorted([*FLAG_KEYS, "--seed", "--config", "--out", "--transcript"])

#: A flag no experiment takes: an unknown name, or an abbreviation of a flag.
UNKNOWN_FLAGS = st.one_of(
    st.sampled_from(["--wibble", "--seeds", "--q_dim", "--lambda-grids"]),
    st.sampled_from(ALL_FLAGS)
    .flatmap(lambda flag: st.integers(3, len(flag) - 1).map(lambda n: flag[:n]))
    .filter(lambda flag: flag not in ALL_FLAGS),
)

#: The two spellings of an empty instrument list that the property draws.
EMPTY_INSTRUMENTS = ("", ",")

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
    paths["valid"].write_text(X_TEXT)
    paths["valid_z"] = root / "z.inst"
    paths["valid_z"].write_text(Z_TEXT)
    paths["not_utf8"] = root / "not_utf8.cfg"
    paths["not_utf8"].write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    paths["deep"] = root / "deep.json"
    paths["deep"].write_text(DEEP_JSON)
    return {k: str(v) for k, v in paths.items()}


@st.composite
def argv(draw, files):
    """An argument list, the key of a flag in it that does not act in its run, if any,
    whether the run must be refused (exit 2), and whether its first refusal is that of an
    empty instrument list."""

    def items(flag, value):
        """``flag`` alone for a bare flag, else ``flag`` and its value as one item or two."""
        if value is None:
            return [flag]
        return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]

    experiment = draw(st.sampled_from(EXPERIMENTS))
    mode, exact = draw(st.sampled_from(["er", "epr"])), draw(st.booleans())
    acting = ACTS[run_kind(experiment, mode, exact)]
    seed = draw(st.one_of(st.integers(-2, 2**31), st.sampled_from([2**128 - 1, 2**128])))
    qbar = draw(st.integers(-1, 6))
    q_max = 8 - max(qbar, 2)  # 2 rest qubits by default
    options = {
        "--mode": st.just(mode),
        "--exact": st.none(),  # a bare flag
        "--qbar-dim": st.just(str(qbar)),
        # few trials leave a setting pair empty (exit 5)
        "--trials": st.one_of(st.integers(-2, 4), st.integers(5, 10_000)).map(str),
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
        "--script": st.one_of(
            st.sampled_from([files["no_rounds"], files["deep"]]),
            st.sampled_from(bundled_script_names()),
        ),
        # an empty list gives no instrument to run: refused, not run with the defaults;
        # so is a list of one file, or of one file twice, which compares nothing
        "--alice-instrument": st.sampled_from([
            files["valid"], files["no_dimension"], "", ",", f"{files['valid']},{files['valid']}",
            f"{files['valid']},{files['valid_z']}", f"{files['valid_z']},{files['no_dimension']}",
        ]),
    }
    # mode and exact set the run's kind, so they are given only as drawn above
    usable = sorted(f for f in options if FLAG_KEYS[f] in acting - {"mode", "exact"})
    flags = draw(st.sets(st.sampled_from(usable), max_size=4))
    if "mode" in acting and (mode == "epr" or draw(st.booleans())):
        flags.add("--mode")
    if "exact" in acting and exact:
        flags.add("--exact")
    stray = None
    if draw(st.integers(0, 5)) == 5:  # a stray flag in about a sixth of the runs
        stray = draw(st.sampled_from(sorted(f for f in options if FLAG_KEYS[f] not in acting)))
        flags.add(stray)
    args = [experiment, *items("--seed", str(seed))]
    # the argument list and the config file are read, and refused, before any value is parsed
    unread = False
    if draw(st.integers(0, 9)) == 9:  # a config file that is not UTF-8 in about a tenth
        args += items("--config", files["not_utf8"])
        unread = True
    if draw(st.integers(0, 9)) == 9:  # an unknown or abbreviated flag in about a tenth
        args.append(f"{draw(UNKNOWN_FLAGS)}=1")
        unread = True
    values = {flag: draw(options[flag]) for flag in sorted(flags)}
    for flag, value in values.items():
        args += items(flag, value)
    empty = values.get("--alice-instrument") in EMPTY_INSTRUMENTS
    refused = unread or empty or stray is not None
    for listed in (values[f].split(",") for f in ("--q-dims", "--alice-instrument") if f in values):
        refused |= len(set(listed)) < max(len(listed), 2)
    return args, stray and FLAG_KEYS[stray], refused, empty and not unread


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_exit_code_and_stderr_are_documented(files, data):
    args, stray, refused, empty = data.draw(argv(files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5)
    # an earlier error (a seed out of range, a value that does not parse) may
    # end the run before the refusal, but never with another exit code
    assert not refused or code == 2
    if empty:
        assert lines[0].endswith("(key: alice_instruments)"), lines
    if any("does not act" in line for line in lines):
        assert stray is not None and lines[0].endswith(f"(key: {stray})"), lines
    if code in ONE_LINE:
        assert len(lines) == 1 and lines[0].startswith(ONE_LINE[code]), lines
        assert out.getvalue() == ""
    else:
        assert lines and all(RUN_LINE.fullmatch(line) for line in lines), lines
        assert lines[-1].startswith("done in")
        assert (code == 4) == any(line.endswith(": FAIL") for line in lines)
