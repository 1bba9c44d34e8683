"""Tests for configuration parsing, the CLI runner, and exit codes."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from locclab import ConfigError, TSIRELSON_BOUND, distinguish
from locclab.cli import (
    EXIT_ASSERTION,
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_EMPTY_CELL,
    EXIT_OK,
    _columnar,
    main,
    parse_config,
    run,
)

import oracles


#: The files of projective X and Z measurements.
X_TEXT = oracles.instrument_text("x", oracles.dial(math.pi / 2))
Z_TEXT = oracles.instrument_text("z", oracles.dial(0.0))
#: An instrument file whose second line is ``dimension`` without a value.
NO_DIMENSION = "instrument bare\ndimension\nbranch 0\nop\n1+0i 0+0i\n0+0i 1+0i\nend\n"
#: A script file with an empty round list.
NO_ROUNDS = '{"name": "empty", "rounds": []}'
#: A script file whose measurement angle is NaN (Python's json reads it).
NAN_ANGLE = (
    '{"name": "nan", "rounds": [{"party": "A", '
    '"instrument": {"kind": "measure_angle", "angle": NaN}}]}'
)
#: A valid two-qubit instrument file: the 4x4 identity, which no party can apply.
TWO_QUBIT_IDENTITY = "instrument wide\ndimension 4\nbranch id\nop\n" + "".join(
    " ".join("1+0i" if i == j else "0+0i" for j in range(4)) + "\n" for i in range(4)
) + "end\n"


#: Where each configuration key acts, by run kind, written out from the README's
#: list and not from the CLI's own table.  A given key outside its kinds is refused.
EVERY_RUN = {"seed", "format", "out"}
ACTS = {
    "sampled ER chsh": EVERY_RUN | {"mode", "exact", "trials", "parallel", "transcript"},
    "exact ER chsh": EVERY_RUN | {"mode", "exact"},
    "sampled EPR chsh": EVERY_RUN | {
        "mode", "exact", "trials", "parallel", "transcript",
        "q_dim", "qbar_dim", "evolution_time", "lambda",
    },
    "exact EPR chsh": EVERY_RUN | {"mode", "exact", "q_dim", "qbar_dim", "evolution_time", "lambda"},
    "ER nosignal": EVERY_RUN | {"mode", "alice_instruments"},
    "EPR nosignal": EVERY_RUN | {
        "mode", "alice_instruments", "q_dim", "qbar_dim", "evolution_time", "lambda",
    },
    "sweep": EVERY_RUN | {"q_dim", "qbar_dim", "evolution_time", "lambda_grid", "script"},
    "distinguish": EVERY_RUN | {"q_dim", "qbar_dim", "evolution_time", "lambda", "script"},
    "qecc": EVERY_RUN | {"qbar_dim", "evolution_time", "lambda", "q_dims", "script"},
    "frames": EVERY_RUN | {"offset"},
}


def run_kind(experiment: str, mode: str, exact: bool) -> str:
    """The key of ``ACTS`` for a run; mode and exact only tell chsh and nosignal runs apart."""
    if experiment == "chsh":
        return f"{'exact' if exact else 'sampled'} {mode.upper()} chsh"
    if experiment == "nosignal":
        return f"{mode.upper()} nosignal"
    return experiment


def deep_script(rounds: int) -> str:
    """A script file of ``rounds`` alternating settings-choice rounds: ``4**rounds`` transcripts."""
    spec = {"kind": "settings_choice", "angles": [0.0, math.pi / 4]}
    rounds = [{"party": "AB"[r % 2], "instrument": spec} for r in range(rounds)]
    return json.dumps({"name": "deep", "rounds": rounds})


def named_script(name) -> str:
    """A one-round script file whose name is the JSON value ``name``."""
    doc = {"name": name, "rounds": [{"party": "A", "instrument": {"kind": "measure_z"}}]}
    return json.dumps(doc)


#: A script file nested too deeply for the JSON decoder.
DEEP_JSON = "[" * 200_000
#: A nosignal run given one valid instrument file: the file a test adds makes the two it compares.
NOSIGNAL_WITH_ONE = [
    "nosignal", "--alice-instrument", str(Path(__file__).parent / "golden" / "alice_unsharp.inst")
]


def condition_script(condition: str) -> str:
    """A one-round script file whose round has the JSON ``condition``."""
    return (
        '{"name": "cond", "rounds": [{"party": "A", '
        f'"instrument": {{"kind": "measure_z"}}, "condition": {condition}}}]}}'
    )


#: An integer too large for a float: 1 and 400 zeros.
HUGE_INT = 10**400


def huge_number_script(spec: dict) -> str:
    """A one-round script file whose instrument is ``spec``, a number in it ``HUGE_INT``."""
    return json.dumps({"name": "huge", "rounds": [{"party": "A", "instrument": spec}]})


class TestParseConfig:
    def test_minimal_chsh(self):
        cfg = parse_config("chsh", None, {"mode": "er", "trials": 1000, "seed": 1})
        assert cfg.experiment == "chsh"
        assert cfg.seed == 1
        assert cfg.trials == 1000

    @pytest.mark.parametrize("trials", [2**63, 10**30])
    def test_trials_beyond_int64_rejected_by_name(self, trials):
        # the sampler counts and numbers trials in int64; never run such a count
        with pytest.raises(ConfigError, match=r"<= 2\*\*63 - 1") as info:
            parse_config("chsh", None, {"seed": 1, "trials": trials})
        assert info.value.key == "trials"
        assert parse_config("chsh", None, {"seed": 1, "trials": 2**63 - 1}).trials == 2**63 - 1

    def test_negative_lambda_rejected_by_name(self):
        with pytest.raises(ConfigError, match="nonnegative.*lambda"):
            parse_config("chsh", None, {"seed": 1, "mode": "epr", "lambda": -0.5})

    @pytest.mark.parametrize(
        "experiment,key,value",
        [
            ("distinguish", "lambda", math.nan),
            ("distinguish", "lambda", math.inf),
            ("sweep", "lambda_grid", (0.0, math.inf)),
            ("sweep", "lambda_grid", (0.0, math.nan)),
            ("frames", "offset", math.nan),
            ("distinguish", "evolution_time", math.inf),
            ("distinguish", "evolution_time", math.nan),
        ],
    )
    def test_non_finite_values_rejected_by_name(self, experiment, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(experiment, None, {"seed": 1, key: value})

    @pytest.mark.parametrize(
        "experiment,overrides,key",
        [
            ("chsh", {"mode": "epr", "q_dim": 1}, "q_dim"),
            ("chsh", {"mode": "epr", "qbar_dim": 0}, "qbar_dim"),
            ("nosignal", {"mode": "epr", "q_dim": 0}, "q_dim"),
            ("distinguish", {"q_dim": 1}, "q_dim"),
            ("sweep", {"lambda_grid": (0.0, 0.5), "qbar_dim": -1}, "qbar_dim"),
            ("qecc", {"qbar_dim": 0}, "qbar_dim"),
        ],
    )
    def test_epr_world_sizes_rejected_by_name(self, experiment, overrides, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(experiment, None, {"seed": 1, **overrides})

    def test_world_sizes_given_to_er_runs_are_refused(self, capsys):
        for key, flag in (("q_dim", "--q-dim"), ("qbar_dim", "--qbar-dim")):
            assert main(["chsh", "--seed", "1", "--mode", "er", "--exact", flag, "3"]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"(key: {key})" in err

    #: A valid value of every key but mode and exact, which the matrix test sets per run.
    VALUES = {
        "seed": 1, "format": "columnar", "out": "-", "trials": 100, "parallel": 1,
        "transcript": "t.txt", "q_dim": 3, "qbar_dim": 1, "evolution_time": 0.5, "lambda": 0.3,
        "lambda_grid": (0.0, 0.5), "q_dims": (2, 4), "script": "xx",
        "alice_instruments": ("a.inst", "b.inst"), "offset": 0.2,
    }

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("mode", ["er", "epr"])
    @pytest.mark.parametrize(
        "experiment", ["chsh", "sweep", "distinguish", "nosignal", "qecc", "frames"]
    )
    def test_each_key_acts_where_the_matrix_says(self, experiment, mode, exact):
        kind = run_kind(experiment, mode, exact)
        # the run itself is set up from keys that act in it
        base = {"seed": 1, "mode": mode, "exact": exact, "lambda_grid": (0.0, 0.5)}
        base = {key: val for key, val in base.items() if key in ACTS[kind]}
        for key, value in dict(self.VALUES, mode=mode, exact=exact).items():
            overrides = {**base, key: value}
            if key in ACTS[kind]:
                parse_config(experiment, None, overrides)
            else:
                with pytest.raises(ConfigError, match=rf"does not act .*\(key: {key}\)$"):
                    parse_config(experiment, None, overrides)

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("chsh", None, {"trials": 100})

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\ntrials = 50\n")
        cfg = parse_config("chsh", str(path), {"seed": 9})
        assert cfg.seed == 9
        assert cfg.trials == 50

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nwibble = 2\n")
        with pytest.raises(ConfigError, match="wibble"):
            parse_config("chsh", str(path), {})

    def test_comments_and_blanks_allowed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nseed = 3  # trailing\nmode = epr\nlambda = 0.5\n")
        cfg = parse_config("chsh", str(path), {})
        assert cfg.seed == 3
        assert cfg.mode == "epr"
        assert cfg.lam == 0.5

    def test_type_mismatch_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = banana\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config("chsh", str(path), {})

    def test_sweep_grid_validation(self):
        with pytest.raises(ConfigError, match="lambda_grid"):
            parse_config("sweep", None, {"seed": 1, "lambda_grid": (0.5, 1.0)})
        with pytest.raises(ConfigError, match="lambda_grid"):
            parse_config("sweep", None, {"seed": 1})

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("chsh", None, {"seed": 1, "format": "yaml"})


class TestRunners:
    def test_exact_chsh_er_attains_bound(self):
        cfg = parse_config("chsh", None, {"seed": 1, "mode": "er", "exact": True})
        report = run(cfg)
        assert report.all_passed
        doc = json.loads(report.payload_text)
        assert doc["schema_version"] == 1
        assert abs(doc["results"]["result"]["s_abs"] - TSIRELSON_BOUND) < 1e-10

    def test_sweep_columnar_rows(self):
        cfg = parse_config(
            "sweep",
            None,
            {"seed": 3, "lambda_grid": (0.0, 0.3, 0.6), "format": "columnar"},
        )
        report = run(cfg)
        lines = report.payload_text.strip().split("\n")
        assert lines[0].startswith("lambda")
        assert len(lines) == 4
        assert report.all_passed

    def test_distinguish_runs_whole_corpus(self):
        cfg = parse_config("distinguish", None, {"seed": 5})
        report = run(cfg)
        doc = json.loads(report.payload_text)
        assert len(doc["results"]["scripts"]) >= 10
        assert report.all_passed

    def test_qecc_and_nosignal_and_frames(self):
        for experiment, overrides in (
            ("qecc", {"seed": 11, "q_dims": (2, 3)}),
            ("nosignal", {"seed": 2, "mode": "epr", "lambda": 0.8}),
            ("frames", {"seed": 1, "offset": math.pi / 4}),
        ):
            report = run(parse_config(experiment, None, overrides))
            assert report.all_passed, experiment

    def test_nosignal_with_instrument_files(self, tmp_path):
        paths = (str(tmp_path / "x.instrument"), str(tmp_path / "z.instrument"))
        Path(paths[0]).write_text(oracles.instrument_text("xvariant", oracles.dial(math.pi / 2)))
        Path(paths[1]).write_text(oracles.instrument_text("zvariant", oracles.dial(0.0)))
        report = run(parse_config("nosignal", None, {"seed": 2, "alice_instruments": paths}))
        doc = json.loads(report.payload_text)
        assert doc["results"]["variants"] == ["xvariant", "zvariant"]
        assert report.all_passed


#: Where the structured payload of each experiment holds the rows of its columnar payload.
STRUCTURED_ROWS = {
    "chsh": lambda res: [res["result"]],
    "sweep": lambda res: res["rows"],
    "distinguish": lambda res: res["scripts"],
    "nosignal": lambda res: [{"max_tvd": res["max_tvd"]}],
    "qecc": lambda res: [{"max_pairwise_tvd": res["max_pairwise_tvd"]}],
    "frames": lambda res: [
        {"variant": k, "s_abs": res[k]["s_abs"]} for k in ("uncorrected", "corrected")
    ],
}


class TestColumnar:
    def test_strings_as_they_are_and_numbers_by_repr(self):
        rows = [{"script": "zz", "tvd_vs_er": 0.1}, {"script": "x", "tvd_vs_er": 1.25e-17}]
        assert _columnar(rows) == "script tvd_vs_er\nzz 0.1\nx 1.25e-17\n"

    def test_sweep_export(self):
        overrides = {"seed": 1, "lambda_grid": (0.0, 0.3)}
        text = run(parse_config("sweep", None, {**overrides, "format": "columnar"})).payload_text
        lines = text.strip().split("\n")
        assert lines[0] == "lambda tvd_vs_er s_abs pair_purity"
        assert len(lines) == 3
        doc = json.loads(run(parse_config("sweep", None, overrides)).payload_text)["results"]
        assert doc["kind"] == "indistinguishability_sweep"
        assert [r["lambda"] for r in doc["rows"]] == [0.0, 0.3]

    @pytest.mark.parametrize(
        "experiment,overrides",
        [
            ("chsh", {"exact": True}),
            ("chsh", {"trials": 2000}),
            ("sweep", {"lambda_grid": (0.0, 0.4)}),
            ("distinguish", {"lambda": 0.5}),
            ("nosignal", {"mode": "epr", "lambda": 0.8}),
            ("qecc", {"q_dims": (2, 3), "lambda": 0.6}),
            ("frames", {"offset": 0.5}),
        ],
        ids=["chsh-exact", "chsh-sampled", "sweep", "distinguish", "nosignal", "qecc", "frames"],
    )
    def test_header_is_the_keys_of_the_structured_rows(self, experiment, overrides):
        overrides = {"seed": 4, **overrides}
        text = run(parse_config(experiment, None, {**overrides, "format": "columnar"})).payload_text
        header, *lines = (line.split() for line in text.splitlines())
        doc = json.loads(run(parse_config(experiment, None, overrides)).payload_text)
        rows = STRUCTURED_ROWS[experiment](doc["results"])
        assert [sorted(header)] * len(rows) == [sorted(row) for row in rows]
        cells = [[row[k] for k in header] for row in rows]
        assert lines == [[v if isinstance(v, str) else repr(v) for v in cell] for cell in cells]


class TestComparedSetsHoldTwo:
    """A comparison across channel sizes or instrument files needs two, none repeated."""

    @pytest.mark.parametrize("dims", ["2", "2,2", "3,3", "3,3,3"])
    def test_one_distinct_channel_size_exit_code(self, capsys, dims):
        assert main(["qecc", "--seed", "1", "--q-dims", dims, "--lambda", "0.9"]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.endswith("(key: q_dims)\n")

    @pytest.mark.parametrize(
        "spelling", [["{z}"], ["{z},{z}"], ["{z}", "{z}"], ["{z}", "{x},{dir}/./z.inst"]]
    )
    def test_one_instrument_file_or_one_twice_exit_code(self, tmp_path, capsys, spelling):
        paths = {"z": tmp_path / "z.inst", "x": tmp_path / "x.inst", "dir": tmp_path}
        paths["z"].write_text(Z_TEXT)
        paths["x"].write_text(X_TEXT)
        args = ["nosignal", "--seed", "1"]
        for value in spelling:
            args += ["--alice-instrument", value.format(**paths)]
        assert main(args) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.endswith("(key: alice_instruments)\n")

    @pytest.mark.parametrize("dims", ["2,3,2", "2,3,3", "3,2,4,2"])
    def test_a_size_given_twice_beside_another_exit_code(self, capsys, dims):
        # a repeated size would run the same channel twice and compare it with itself
        assert main(["qecc", "--seed", "1", "--q-dims", dims]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: needs two or more channel sizes")
        assert out.err.endswith("(key: q_dims)\n")

    def test_channel_size_over_the_qubit_cap_exit_code(self, capsys):
        # the 14-channel-qubit world is the second one of the run: every world is capped
        assert main(["qecc", "--seed", "1", "--q-dims", "2,14"]) == EXIT_CAPACITY
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("capacity error: world of 18 qubits (2 boundary + 14 channel")


class TestMain:
    def test_exact_er_chsh_stdout(self, capsys):
        code = main(["chsh", "--mode", "er", "--exact", "--seed", "1"])
        out = capsys.readouterr()
        assert code == EXIT_OK
        doc = json.loads(out.out)
        assert doc["experiment"] == "chsh"
        assert "PASS" in out.err

    def test_payload_file_written(self, tmp_path, capsys):
        out = tmp_path / "sweep.txt"
        code = main(
            [
                "sweep",
                "--lambda-grid",
                "0,0.3,0.6",
                "--seed",
                "3",
                "--format",
                "columnar",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.read_text().startswith("lambda")

    def test_capacity_exit_code(self, capsys):
        code = main(
            ["chsh", "--mode", "epr", "--q-dim", "8", "--qbar-dim", "8", "--seed", "1", "--exact"]
        )
        assert code == EXIT_CAPACITY
        assert "capacity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,key",
        [
            (["distinguish", "--lambda", "nan"], "lambda"),
            (["frames", "--offset", "nan"], "offset"),
            (["distinguish", "--lambda", "0.3", "--evolution-time", "inf"], "evolution_time"),
            (["sweep", "--lambda-grid", "0,inf"], "lambda_grid"),
            (["chsh", "--mode", "epr", "--q-dim", "1", "--exact"], "q_dim"),
            (["chsh", "--mode", "epr", "--qbar-dim", "0", "--exact"], "qbar_dim"),
            (["distinguish", "--lambda", "1e300", "--evolution-time", "1e10"], "lambda"),
            (["sweep", "--lambda-grid", "0,1e300", "--evolution-time", "1e10"], "lambda_grid"),
            (["chsh", "--trials", "100", "--seed", str(2**128)], "seed"),
            (["distinguish", "--seed", str(2**128)], "seed"),
            (["frames", "--seed", "-1"], "seed"),
        ],
    )
    def test_bad_values_exit_code(self, capsys, args, key):
        # a valid seed is added only to ``args`` that give none: a flag may not repeat
        seed = [] if "--seed" in args else ["--seed", "1"]
        assert main(args[:1] + seed + args[1:]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and key in err
        assert "more than once" not in err

    @pytest.mark.parametrize(
        "flag,experiment,key",
        [
            ("--script", ["sweep", "--lambda-grid", "0,0.5"], "script"),
            ("--alice-instrument", NOSIGNAL_WITH_ONE, "alice_instruments"),
        ],
    )
    def test_unreadable_input_file_exit_code(self, tmp_path, capsys, flag, experiment, key):
        missing = tmp_path / "missing"
        assert main(experiment + [flag, str(missing), "--seed", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err and "missing" in err

    @pytest.mark.parametrize(
        "flag,experiment,text,key",
        [
            ("--script", ["sweep", "--lambda-grid", "0,0.5"], "not json", "script"),
            ("--script", ["sweep", "--lambda-grid", "0,0.5"], '{"name": "no rounds"}', "script"),
            ("--alice-instrument", NOSIGNAL_WITH_ONE, "not an instrument", "alice_instruments"),
            (
                "--alice-instrument",
                NOSIGNAL_WITH_ONE,
                "instrument lossy\ndimension 2\nbranch 0\nop\n1+0i 0+0i\n0+0i 0+0i\nend\n",
                "alice_instruments",
            ),
            ("--alice-instrument", NOSIGNAL_WITH_ONE, NO_DIMENSION, "alice_instruments"),
            ("--script", ["distinguish"], NO_ROUNDS, "script"),
            ("--script", ["sweep", "--lambda-grid", "0,0.5"], NO_ROUNDS, "script"),
            ("--script", ["qecc"], NO_ROUNDS, "script"),
            ("--script", ["distinguish"], NAN_ANGLE, "script"),
            ("--script", ["distinguish"], condition_script("null"), "script"),
            ("--script", ["distinguish"], condition_script("[]"), "script"),
            ("--script", ["distinguish"], condition_script('"ab"'), "script"),
            ("--alice-instrument", NOSIGNAL_WITH_ONE, TWO_QUBIT_IDENTITY, "alice_instruments"),
            pytest.param("--script", ["distinguish"], DEEP_JSON, "script", id="deep-json"),
            ("--script", ["distinguish"], named_script("my script"), "script"),
            ("--script", ["distinguish"], named_script("a\nb"), "script"),
            ("--script", ["distinguish"], named_script(["x"]), "script"),
            *(
                pytest.param("--script", ["distinguish"], huge_number_script(spec), "script",
                              id=f"huge-{spec['kind']}")
                for spec in (
                    {"kind": "measure_angle", "angle": HUGE_INT},
                    {"kind": "settings_choice", "angles": [0.0, HUGE_INT]},
                    {"kind": "unsharp_z", "sharpness": HUGE_INT},
                    {"kind": "depolarize_then_measure", "p": HUGE_INT},
                )
            ),
        ],
    )
    def test_malformed_input_file_exit_code(self, tmp_path, capsys, flag, experiment, text, key):
        path = tmp_path / "input"
        path.write_text(text)
        assert main(experiment + [flag, str(path), "--seed", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("flag", ["--out", "--transcript"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, flag):
        target = tmp_path / "no-such-dir" / "file"
        code = main(["chsh", "--mode", "er", "--trials", "100", "--seed", "1", flag, str(target)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag.lstrip("-") in err

    @pytest.mark.parametrize(
        "args", [["chsh", "--mode", "er", "--exact"], ["distinguish"], ["frames"]]
    )
    def test_transcript_without_sampled_trials_exit_code(self, tmp_path, capsys, args):
        target = tmp_path / "transcript.txt"
        assert main(args + ["--seed", "1", "--transcript", str(target)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "(key: transcript)" in err
        assert not target.exists()

    def test_empty_transcript_path_exit_code(self, capsys):
        # an empty path is a path that cannot be written, not a flag left out
        code = main(["chsh", "--mode", "er", "--trials", "100", "--seed", "1", "--transcript", ""])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "(key: transcript)" in err

    @pytest.mark.parametrize(
        "args,key",
        [
            (["frames", "--seed", "1", "--lambda", "0.5", "--trials", "9", "--q-dims", "2,9"],
             "trials"),
            (["distinguish", "--seed", "1", "--offset", "3", "--mode", "epr", "--parallel", "2"],
             "mode"),
            (["chsh", "--seed", "1", "--exact", "--trials", "5", "--lambda-grid", "0,1"], "trials"),
            (["chsh", "--seed", "1", "--mode", "er", "--lambda", "0.7", "--q-dim", "5", "--exact"],
             "q_dim"),
            (["qecc", "--seed", "1", "--q-dim", "7", "--mode", "epr"], "mode"),
        ],
    )
    def test_option_that_does_not_act_exit_code(self, capsys, args, key):
        assert main(args) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: does not act")
        assert out.err.endswith(f"(key: {key})\n")

    def test_config_file_key_that_does_not_act_is_refused_like_a_flag(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nmode = er\nexact = true\nlambda = 0.7\n")
        assert main(["chsh", "--config", str(path)]) == EXIT_CONFIG
        from_file = capsys.readouterr().err
        args = ["chsh", "--seed", "1", "--mode", "er", "--exact", "--lambda", "0.7"]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == from_file
        assert from_file.count("\n") == 1 and from_file.endswith("(key: lambda)\n")

    def test_repeated_config_file_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n# set again below\nseed = 2\n")
        assert main(["frames", "--config", str(path)]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: line 3:")
        assert out.err.endswith("(key: seed)\n")

    def test_flag_value_that_does_not_parse_exit_code(self, capsys):
        # flag text goes through the same parsers as config-file text
        assert main(["chsh", "--trials", "many", "--seed", "1"]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: bad value 'many'")
        assert out.err.endswith("(key: trials)\n")

    @pytest.mark.parametrize(
        "args,message",
        [
            (["chsh", "--wibble", "1", "--seed", "1"], "unrecognized arguments: --wibble 1"),
            (["chsh", "--mode", "er", "--seed"], "argument --seed: expected one argument"),
            ([], "the following arguments are required: experiment"),
            (["bell", "--seed", "1"], "argument experiment: invalid choice: 'bell'"),
            # a flag is not abbreviated, as a config-file key is not
            (["chsh", "--mo", "er", "--exa", "--seed", "1"],
             "unrecognized arguments: --mo er --exa"),
            (["chsh", "--mode=er", "--exact", "--se=1"], "unrecognized arguments: --se=1"),
        ],
    )
    def test_argument_list_refusal_exit_code(self, capsys, args, message):
        assert main(args) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: " + message)

    @pytest.mark.parametrize("flag,exact", [("--exact", True), ("--exact=Yes", True),
                                            ("--exact=0", False), ("--exact=false", False)])
    def test_exact_flag_text_parses_as_in_the_file(self, capsys, flag, exact):
        trials = [] if exact else ["--trials", "100"]
        assert main(["chsh", "--seed", "1", flag, *trials]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["exact"] is exact

    @pytest.mark.parametrize("text", ["banana", "", "on", "2", "truth"])
    def test_exact_value_that_is_no_boolean_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\nexact = {text}\n")
        assert main(["chsh", "--config", str(path)]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: bad value")
        assert out.err.endswith("(key: exact)\n")

    @pytest.mark.parametrize(
        "text,exact", [("TRUE", True), ("Yes", True), ("1", True), ("false", False), ("NO", False),
                       ("0", False)],
    )
    def test_exact_booleans_in_any_case(self, tmp_path, text, exact):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\nexact = {text}\n")
        assert parse_config("chsh", str(path), {}).exact is exact

    @pytest.mark.parametrize(
        "args,key",
        [
            (["chsh", "--seed", "1", "--seed", "2", "--exact"], "seed"),
            (["chsh", "--seed", "1", "--exact", "--exact"], "exact"),
            (["frames", "--seed", "1", "--offset", "0.1", "--offset", "0.1"], "offset"),
            (["chsh", "--seed", "1", "--trials", "9", "--format", "columnar", "--trials", "8"],
             "trials"),
        ],
    )
    def test_flag_given_twice_exit_code(self, capsys, args, key):
        assert main(args) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: flag given more than once")
        assert out.err.endswith(f"(key: {key})\n")

    def test_alice_instrument_flag_repeats(self, tmp_path, capsys):
        paths = []
        for i in range(3):
            paths.append(tmp_path / f"x{i}.inst")
            paths[-1].write_text(oracles.instrument_text(f"x{i}", oracles.dial(math.pi / 2)))
        args = ["nosignal", "--seed", "1"]
        for path in paths:
            args += ["--alice-instrument", str(path)]
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["variants"] == ["x0", "x1", "x2"]

    def test_config_file_that_is_not_utf8_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        assert main(["chsh", "--config", str(path), "--exact"]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("configuration error: cannot read config file: ")

    @pytest.mark.parametrize("text", ["", ","])
    def test_empty_alice_instrument_list_exit_code(self, tmp_path, capsys, text):
        # the key was given, so running the default variants would ignore it
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 1\nalice_instruments = {text}\n")
        for args in (["--seed", "1", "--alice-instrument", text], ["--config", str(path)]):
            assert main(["nosignal", *args]) == EXIT_CONFIG
            out = capsys.readouterr()
            assert out.out == "" and out.err.count("\n") == 1
            assert out.err.startswith("configuration error: bad value")
            assert out.err.endswith("(key: alice_instruments)\n")

    @pytest.mark.parametrize(
        "args", [["distinguish"], ["sweep", "--lambda-grid", "0,0.5"], ["qecc"]]
    )
    def test_script_too_deep_to_enumerate_exit_code(self, tmp_path, capsys, monkeypatch, args):
        # 4**40 transcripts: refused before any kernel call
        applied = []
        apply_instrument = distinguish.apply_instrument
        monkeypatch.setattr(distinguish, "apply_instrument",
                            lambda *args: applied.append(args) or apply_instrument(*args))
        path = tmp_path / "deep.json"
        path.write_text(deep_script(40))
        assert main(args + ["--seed", "1", "--script", str(path)]) == EXIT_CAPACITY
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert out.err.startswith("capacity error: up to 1208925819614629174706176 transcripts")
        assert applied == []

    def test_transcript_on_the_payload_file_exit_code(self, tmp_path, capsys):
        # the payload is written after the transcript, so it would overwrite it
        path, link = tmp_path / "f", tmp_path / "link"
        link.symlink_to(path)
        for out in (path, tmp_path / "." / "f", link):
            argv = ["chsh", "--seed", "1", "--trials", "100", "--out", str(out),
                    "--transcript", str(path)]
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and err.count("\n") == 1
            assert err.endswith("(key: transcript)\n")
        assert not path.exists()

    def test_nine_round_script_still_runs(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(deep_script(9))
        assert main(["distinguish", "--seed", "1", "--script", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["scripts"][0]["tvd_vs_er"] < 1e-10

    def test_config_exit_code(self, capsys):
        code = main(["chsh", "--trials", "100"])  # no seed anywhere
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_seed_beyond_philox_key_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = {2**128}\n")
        assert main(["chsh", "--trials", "100", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "(key: seed)" in err
        path.write_text(f"seed = {2**128 - 1}\n")
        assert main(["chsh", "--trials", "100", "--config", str(path)]) == EXIT_OK

    def test_empty_cell_exit_code(self, capsys):
        code = main(["chsh", "--mode", "er", "--trials", "1", "--seed", "0"])
        assert code == EXIT_EMPTY_CELL
        assert "setting pair" in capsys.readouterr().err

    def test_assertion_exit_code(self, monkeypatch, capsys):
        from locclab import cli

        def failing(cfg):
            return {"rigged": True}, "rigged\n", [("rigged criterion", False)]

        rigged = cli._EXPERIMENTS["frames"]._replace(run=failing)
        monkeypatch.setitem(cli._EXPERIMENTS, "frames", rigged)
        code = main(["frames", "--seed", "1"])
        assert code == EXIT_ASSERTION
        assert "FAIL" in capsys.readouterr().err

    def test_transcript_export(self, tmp_path, capsys):
        spot = tmp_path / "transcript.txt"
        code = main(
            ["chsh", "--mode", "er", "--trials", "200", "--seed", "7",
             "--transcript", str(spot), "--out", str(tmp_path / "payload.json")]
        )
        assert code == EXIT_OK
        lines = spot.read_text().strip().split("\n")
        assert lines[0].startswith("trial")
        assert len(lines) == 201

    def test_largest_finite_phase_still_runs(self, capsys):
        args = ["distinguish", "--lambda", "1e300", "--evolution-time", "1e8", "--seed", "1"]
        assert main(args) == EXIT_OK

    @pytest.mark.parametrize("offset", [1e17, 1e300, -1e300, 1.797e308])
    def test_frames_at_huge_offsets(self, capsys, offset):
        # the offset is reduced mod 2*pi before it meets the dials, so neither
        # criterion drowns in the rounding of b + offset
        assert main(["frames", "--seed", "0", f"--offset={offset!r}"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["corrected"]["s_abs"] == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        expected = TSIRELSON_BOUND * abs(math.cos(math.remainder(offset, math.tau)))
        assert doc["results"]["uncorrected"]["s_abs"] == pytest.approx(expected, abs=1e-12)

    def test_parser_built_once(self, capsys):
        from locclab import cli

        cli._build_parser.cache_clear()
        for _ in range(2):
            assert main(["frames", "--seed", "1"]) == EXIT_OK
        assert cli._build_parser.cache_info().misses == 1

    def test_cached_parser_recovers_from_bad_argv(self, capsys):
        from locclab import cli

        good = ["chsh", "--mode", "er", "--exact", "--seed", "3"]
        cli._build_parser.cache_clear()
        assert main(good) == EXIT_OK
        fresh = capsys.readouterr().out
        assert main(["chsh", "--wibble", "many", "--alice-instrument", "x", "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: unrecognized arguments: --wibble many\n"
        )
        assert main(good) == EXIT_OK
        assert capsys.readouterr().out == fresh
        assert json.loads(fresh)["config"] == {
            "experiment": "chsh", "seed": 3, "format": "structured", "mode": "er", "exact": True
        }

    def test_help_has_runnable_examples(self, capsys):
        for experiment in ("chsh", "sweep", "distinguish", "nosignal", "qecc", "frames"):
            with pytest.raises(SystemExit) as exc:
                main([experiment, "--help"])
            assert exc.value.code == 0
            (example,) = re.findall(r"^example: (.*)$", capsys.readouterr().out, re.M)
            prog, *argv = shlex.split(example)
            assert prog == "locclab" and argv[0] == experiment
            assert main(argv) == EXIT_OK, capsys.readouterr().err

    def test_import_leaves_the_thread_pool_unloaded(self):
        # only a threaded sampled run imports concurrent.futures, and the logging it pulls in
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, locclab.cli; print(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout == "[]\n"


class TestSingleDelivery:
    """Each world's pair is computed once per run, however many times it is read,
    and one stacked coherence pass serves all of a run's EPR worlds."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        from locclab import worlds

        calls = []
        kernel = worlds._coherences
        monkeypatch.setattr(worlds, "_coherences", lambda ws: calls.append(list(ws)) or kernel(ws))
        return calls

    @pytest.mark.parametrize(
        "args,worlds_built",
        [
            (["distinguish", "--lambda", "0.4"], 1),
            (["distinguish", "--lambda", "0"], 1),
            (["sweep", "--lambda-grid", "0,0.3,0.6"], 3),
            (["nosignal", "--mode", "epr", "--lambda", "0.8"], 1),
            (["qecc", "--q-dims", "2,3,4", "--lambda", "0.5"], 3),
        ],
    )
    def test_one_kernel_call_per_epr_world(self, kernel_calls, capsys, args, worlds_built):
        assert main(args + ["--seed", "3"]) == EXIT_OK
        [stack] = kernel_calls
        assert len(stack) == worlds_built
        assert len({id(w) for w in stack}) == worlds_built


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["chsh", "--mode", "er", "--trials", "5000", "--seed", "7"]
        outs = []
        for i in range(2):
            path = tmp_path / f"run{i}.json"
            assert main(args + ["--out", str(path)]) == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_widths_byte_identical(self, tmp_path):
        outs = []
        for width in ("1", "8"):
            path = tmp_path / f"w{width}.json"
            code = main(
                ["chsh", "--mode", "er", "--trials", "20000", "--seed", "7",
                 "--parallel", width, "--out", str(path)]
            )
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_payload_bytes_independent_of_hash_seed(self):
        # transcript keys are string tuples, whose set order follows the
        # per-process string hash; the payload must not
        src = Path(__file__).resolve().parents[1] / "src"
        args = ["distinguish", "--seed", "1", "--q-dim", "2", "--qbar-dim", "1",
                "--lambda", "1.1", "--format", "columnar"]
        outs = []
        for hash_seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-m", "locclab.cli", *args],
                env=env, capture_output=True, timeout=120, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1] == outs[2]

    def test_structured_payload_excludes_timing_and_width(self):
        cfg = parse_config("chsh", None, {"seed": 1, "mode": "er", "exact": True})
        doc = json.loads(run(cfg).payload_text)
        assert "parallel" not in json.dumps(doc)
        assert "wall" not in json.dumps(doc)
