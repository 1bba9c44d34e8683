"""Property: a key given as a flag acts exactly as the same key's line in a config file.

For a drawn experiment and a set of keys that act in its run (per the literal
``ACTS`` matrix of ``test_cli``), each with valid or invalid text, ``main``
runs once with the keys as ``--flag=text`` items and once with them as
``key = text`` lines of a ``--config`` file, the lines in another drawn
order.  Both runs must end with the same exit code and the same stdout
bytes, and standard error must hold the same lines but for the closing
``done in`` line, whose time differs: a refusal is the same single
``configuration error:`` line from either source.  Drawn values stay small:
at most 10^4 trials, 7 environment qubits and 2 sampler threads.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings, strategies as st

from locclab.cli import EXPERIMENTS, main

from test_cli import ACTS, NO_ROUNDS, X_TEXT, Z_TEXT, run_kind

#: Each key's flag, where it is not ``--key`` with '-' for '_'.
FLAGS = {"alice_instruments": "--alice-instrument"}
#: Keys left out: output files, which both runs would write.
OUTPUTS = {"out", "transcript"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, text in (("x.inst", X_TEXT), ("z.inst", Z_TEXT), ("empty.json", NO_ROUNDS)):
        (root / name).write_text(text)
    return root


def texts(files) -> dict:
    """Each key's drawn text: valid, or refused for its value, its range or its file."""
    x, z, empty = (str(files / name) for name in ("x.inst", "z.inst", "empty.json"))
    return {
        "seed": st.one_of(st.integers(0, 2**31).map(str),
                          st.sampled_from(["-1", str(2**128), "1.5", "seven", ""])),
        "format": st.sampled_from(["columnar", "structured", "json"]),
        "trials": st.one_of(st.integers(1, 10_000).map(str), st.sampled_from(["0", "many"])),
        "parallel": st.sampled_from(["1", "2", "0", "x"]),
        "q_dim": st.sampled_from(["2", "3", "4", "1", "two"]),
        "qbar_dim": st.sampled_from(["1", "2", "3", "0"]),
        "evolution_time": st.sampled_from(["1.0", "0.5", "-1", "inf", "nan"]),
        "lambda": st.sampled_from(["0", "0.3", "1.2", "-0.5", "nan", "1e300"]),
        "lambda_grid": st.sampled_from(["0,0.3,0.6", "0,1.1", "0.3,0", "0,x", "", "0,inf"]),
        "q_dims": st.sampled_from(["2,3", "3,2,4", "2,2", "1,3", "2"]),
        "script": st.sampled_from(["chsh_canonical", "settings_choice", empty, "no-such-script"]),
        "alice_instruments": st.sampled_from([f"{x},{z}", x, "", f"{x},{x}", "no-such-file"]),
        "offset": st.sampled_from(["0.7", "-1e5", "1e300", "inf", "x"]),
    }


@st.composite
def keys(draw, files):
    """An experiment and ``{key: text}`` for keys that act in its run."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    mode, exact = draw(st.sampled_from(["er", "epr"])), draw(st.booleans())
    acting = ACTS[run_kind(experiment, mode, exact)] - OUTPUTS
    values = {}
    if "mode" in acting and (mode == "epr" or draw(st.booleans())):
        values["mode"] = mode
    if "exact" in acting and (exact or draw(st.booleans())):
        spellings = ["true", "YES", "1"] if exact else ["false", "No", "0"]
        values["exact"] = draw(st.sampled_from(spellings))
    options = texts(files)
    for key in draw(st.sets(st.sampled_from(sorted(acting - {"mode", "exact"})), max_size=5)):
        values[key] = draw(options[key])
    if draw(st.integers(0, 9)) > 0:  # a seed in nine runs of ten
        values.setdefault("seed", draw(st.integers(0, 2**31).map(str)))
    return experiment, values


def run(argv: list[str]) -> tuple[int, str, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code in (0, 4):
        assert lines[-1].startswith("done in")
        lines.pop()
    return code, out.getvalue(), lines


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_flags_and_file_lines_act_alike(files, data):
    experiment, values = data.draw(keys(files), label="keys")
    items = list(values.items())
    flags = [f"{FLAGS.get(key, '--' + key.replace('_', '-'))}={text}" for key, text in items]
    by_flags = run([experiment, *flags])
    lines = data.draw(st.permutations([f"{key} = {text}\n" for key, text in items]), label="file")
    config = files / "run.cfg"
    config.write_text("".join(lines))
    by_file = run([experiment, "--config", str(config)])
    event(f"exit {by_flags[0]}")
    assert by_flags == by_file
    code, out, err = by_flags
    if code == 2:
        assert out == "" and len(err) == 1 and err[0].startswith("configuration error: ")
