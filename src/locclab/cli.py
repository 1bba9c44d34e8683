"""Command-line front end: seeded, reproducible experiment runs.

Every experiment takes a mandatory seed (wall-clock seeding is refused by
omission), echoes its configuration into the output payload, and evaluates
built-in assertions whose pass/fail lines go to the diagnostic stream.
Each runner builds its worlds and delivers their pairs once, and the
experiments read those pairs.  Payload bytes depend only on the
configuration and seed, never on the parallelism width or timing.

One table, ``_OPTIONS``, is the key grammar of flags and config files: a
flag ``--key value`` or ``--key=value`` gives its key the text a ``key =
value`` line would, and ``--help`` is built from the same table.

Exit codes: 0 success, 2 configuration error (including a refused argument
list, an option that does not act in the run, an input file that cannot be
read or parsed, an output file that cannot be written and an output file
that names an input file or the payload file), 3 capacity error, 4 built-in
assertion failure, 5 empty-cell estimation error.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .bell import (
    CHSHConfig,
    CHSHResult,
    TSIRELSON_BOUND,
    exact_chsh,
    sample_chsh,
)
from .distinguish import (
    accessible_distributions,
    channel_size_check,
    frame_misalignment_demo,
    indistinguishability_sweep,
    no_signaling_check,
    total_variation,
)
from .errors import CapacityError, ConfigError, EmptyCellError
from .instruments import (
    identity_instrument,
    load_instrument,
    measure_x,
    measure_z,
)
from .protocols import (
    ProtocolRound,
    bundled_corpus,
    bundled_script_names,
    canonical_chsh_script,
    load_bundled_script,
    load_script,
)
from .linalg import DensityMatrix
from .worlds import epr_pairs, singlet_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_ASSERTION = 4
EXIT_EMPTY_CELL = 5

_ZERO_ATOL = 1e-10


@dataclass
class RunConfig:
    """Validated parameters of one experiment run."""

    experiment: str
    seed: int
    mode: str = "er"
    q_dim: int = 2
    qbar_dim: int = 2
    lam: float = 0.0
    lambda_grid: tuple[float, ...] | None = None
    evolution_time: float = 1.0
    trials: int = 1000
    exact: bool = False
    offset: float = math.pi / 4
    q_dims: tuple[int, ...] = (2, 3)
    script: str | None = None
    alice_instruments: tuple[str, ...] = ()
    out: str = "-"
    fmt: str = "structured"
    parallel: int = 1
    transcript: str | None = None

    def echo(self) -> dict:
        """Config as it enters the payload: each echoed key that acts in this run and is set."""
        doc = {"experiment": self.experiment}
        for key, opt in _OPTIONS.items():
            if not opt.echo or not opt.acts(self):
                continue
            value = opt.echo(self) if callable(opt.echo) else getattr(self, opt.field)
            if value is not None:
                doc[key] = list(value) if isinstance(value, tuple) else value
        return doc


@dataclass
class RunReport:
    """Everything one run produced, including diagnostics."""

    config: RunConfig
    payload_text: str
    criteria: list[tuple[str, bool]] = field(default_factory=list)
    versions: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.criteria)


# ---------------------------------------------------------------------------
# Configuration keys


class _Option(NamedTuple):
    """One configuration key, the same from a flag and from a config file."""

    field: str  # the RunConfig field it sets
    parse: Callable[[str], object]  # flag or file text -> value
    acts: Callable[[RunConfig], bool]  # a given key that does not act in the run is refused
    help: str  # ends with where the key acts
    echo: bool | Callable[[RunConfig], object] = True  # False, or the echoed value if not the field
    flag: str | None = None  # defaults to --key, with '-' for '_'
    alone: str | None = None  # the text a flag without a value stands for; None needs a value
    repeats: bool = False  # a flag given twice is refused unless its values add up


def _only(*experiments: str) -> Callable[[RunConfig], bool]:
    return lambda cfg: cfg.experiment in experiments


def _epr_or(*experiments: str) -> Callable[[RunConfig], bool]:
    """Acts in EPR chsh and nosignal runs and in ``experiments``."""
    epr = _only("chsh", "nosignal")
    return lambda cfg: cfg.experiment in experiments or (epr(cfg) and cfg.mode == "epr")


def _sampled_chsh(cfg: RunConfig) -> bool:
    return cfg.experiment == "chsh" and not cfg.exact


def _parse_paths(text: str) -> tuple[str, ...]:
    paths = tuple(x for x in text.split(",") if x)
    if not paths:
        raise ValueError("expected at least one file")
    return paths


def _parse_script(text: str) -> str:
    if not text:
        raise ValueError("expected a bundled script name or a script file")
    return text


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError("expected true/false, yes/no or 1/0")
    return text.lower() in ("true", "yes", "1")


_EPR = "EPR chsh and nosignal"
_OPTIONS: dict[str, _Option] = {
    "seed": _Option("seed", int, lambda cfg: True,
                    "master seed in [0, 2**128), required here or in the file (every run)"),
    "format": _Option("fmt", str, lambda cfg: True,
                      "payload format, columnar or structured (default structured; every run)"),
    "out": _Option("out", str, lambda cfg: True,
                   "payload path, '-' for stdout (default '-'; every run)", echo=False),
    "mode": _Option("mode", str, _only("chsh", "nosignal"),
                    "world kind, er or epr (default er; chsh, nosignal)"),
    "exact": _Option("exact", _parse_bool, _only("chsh"),
                     "exact expectations instead of sampling; alone means true (chsh)",
                     alone="true"),
    "trials": _Option("trials", int, _sampled_chsh, "number of sampled trials (sampled chsh)"),
    "parallel": _Option("parallel", int, _sampled_chsh, "sampler threads, at most the core "
                        "count; payload bytes do not depend on it (sampled chsh)", echo=False),
    "transcript": _Option("transcript", str, _sampled_chsh,
                          "also write the per-trial transcript here (sampled chsh)", echo=False),
    "q_dim": _Option("q_dim", int, _epr_or("sweep", "distinguish"),
                     f"channel qubits ({_EPR}, sweep, distinguish)"),
    "qbar_dim": _Option("qbar_dim", int, _epr_or("sweep", "distinguish", "qecc"),
                        f"non-channel environment qubits ({_EPR}, sweep, distinguish, qecc)"),
    "evolution_time": _Option("evolution_time", float, _epr_or("sweep", "distinguish", "qecc"),
                              f"evolution time ({_EPR}, sweep, distinguish, qecc)"),
    "lambda": _Option("lam", float, _epr_or("distinguish", "qecc"),
                      f"channel-environment coupling ({_EPR}, distinguish, qecc)"),
    "lambda_grid": _Option("lambda_grid", lambda s: tuple(float(x) for x in s.split(",")),
                           _only("sweep"), "comma-separated ascending grid from 0 (sweep)"),
    "q_dims": _Option("q_dims", lambda s: tuple(int(x) for x in s.split(",")), _only("qecc"),
                      "comma-separated channel sizes to compare (qecc)"),
    "script": _Option("script", _parse_script, _only("sweep", "distinguish", "qecc"),
                      "bundled script name or script JSON file (sweep, distinguish, qecc)",
                      echo=lambda cfg: cfg.script or _EXPERIMENTS[cfg.experiment].script),
    "alice_instruments": _Option(
        "alice_instruments", _parse_paths, _only("nosignal"),
        "instrument definition files, comma-separated; repeatable (nosignal)",
        echo=False, flag="--alice-instrument", repeats=True,
    ),
    "offset": _Option("offset", float, _only("frames"), "frame offset in radians (frames)"),
}

#: Each flag's exact text -> the key it gives; ``--config`` names a file of keys instead.
_FLAGS = {"--config": "config"} | {
    opt.flag or "--" + key.replace("_", "-"): key for key, opt in _OPTIONS.items()
}


def _parse_value(key: str, text: str) -> object:
    try:
        return _OPTIONS[key].parse(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {text!r}: {exc}", key=key) from exc


def _read_config_file(path: str) -> dict:
    """The file's values, each key's text parsed in table order, as a flag's is."""
    texts: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _OPTIONS:
            raise ConfigError("unknown configuration key", key=key)
        if key in texts:
            raise ConfigError(f"line {lineno}: key set twice; its first value would not act", key=key)
        texts[key] = value
    return {key: _parse_value(key, texts[key]) for key in _OPTIONS if key in texts}


def parse_config(experiment: str, config_path: str | None, overrides: dict) -> RunConfig:
    """Merge file values and flag overrides into a validated RunConfig.

    Flags override file values; unknown keys, and keys that do not act in
    this run, are rejected by name; the seed is mandatory from one of the
    two sources.
    """
    values = _read_config_file(config_path) if config_path else {}
    values.update((key, val) for key, val in overrides.items() if val is not None)

    if "seed" not in values:
        raise ConfigError("a seed is required (no wall-clock seeding)", key="seed")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}", key="experiment")
    fields = {}
    for key, val in values.items():
        if key not in _OPTIONS:
            raise ConfigError("unknown configuration key", key=key)
        fields[_OPTIONS[key].field] = val
    cfg = RunConfig(experiment, **fields)

    if not 0 <= cfg.seed < 2**128:
        raise ConfigError(f"must be in [0, 2**128), got {cfg.seed}", key="seed")
    if cfg.mode not in ("er", "epr"):
        raise ConfigError(f"mode must be 'er' or 'epr', got {cfg.mode!r}", key="mode")
    for key, opt in _OPTIONS.items():  # in table order, wherever each key was given
        if key in values and not opt.acts(cfg):
            where = f"see where it acts in 'locclab {experiment} --help'"
            raise ConfigError(f"does not act in this {experiment} run; {where}", key=key)
    reals = [("lambda", cfg.lam), ("offset", cfg.offset), ("evolution_time", cfg.evolution_time)]
    reals += [("lambda_grid", x) for x in cfg.lambda_grid or ()]
    for key, value in reals:
        if not math.isfinite(value):
            raise ConfigError(f"must be finite, got {value}", key=key)
    if cfg.lam < 0:
        raise ConfigError(f"must be nonnegative, got {cfg.lam}", key="lambda")
    if cfg.trials < 1:
        raise ConfigError(f"must be >= 1, got {cfg.trials}", key="trials")
    if cfg.trials > 2**63 - 1:  # the sampler's counts and trial numbers are int64
        raise ConfigError(f"must be <= 2**63 - 1, got {cfg.trials}", key="trials")
    if cfg.parallel < 1:
        raise ConfigError(f"must be >= 1, got {cfg.parallel}", key="parallel")
    if cfg.fmt not in ("columnar", "structured"):
        raise ConfigError(f"must be 'columnar' or 'structured', got {cfg.fmt!r}", key="format")
    if cfg.evolution_time <= 0:
        raise ConfigError("must be positive", key="evolution_time")
    # the phases of worlds._coherences are at most evolution_time * (lambda + 2) in size
    for key, lam in (("lambda", cfg.lam), ("lambda_grid", max(cfg.lambda_grid or (0.0,)))):
        if not math.isfinite((lam + 2) * cfg.evolution_time):
            raise ConfigError(f"phase {lam} * {cfg.evolution_time} overflows", key=key)
    if cfg.experiment == "sweep":
        grid = cfg.lambda_grid
        if not grid:
            raise ConfigError("sweep needs a lambda grid", key="lambda_grid")
        if grid[0] != 0.0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("grid must start at 0 and ascend", key="lambda_grid")
    if any(d < 2 for d in cfg.q_dims):
        raise ConfigError("every channel size must be >= 2", key="q_dims")
    if len(set(cfg.q_dims)) < max(len(cfg.q_dims), 2):
        raise ConfigError("needs two or more channel sizes to compare, none repeated", key="q_dims")
    transcript, out = cfg.transcript, None if cfg.out == "-" else cfg.out
    if transcript and out and os.path.realpath(transcript) == os.path.realpath(out):
        raise ConfigError("names the --out file, which the payload would overwrite",
                          key="transcript")
    if transcript or out:
        inputs = [config_path, *cfg.alice_instruments]
        if cfg.script and cfg.script not in bundled_script_names():  # a bundled script is no file
            inputs.append(cfg.script)
        read = {os.path.realpath(path) for path in inputs if path}
        for key, path in (("out", out), ("transcript", transcript)):
            if path and os.path.realpath(path) in read:
                raise ConfigError("names an input file of the run, which it would overwrite",
                                  key=key)
    paths = cfg.alice_instruments
    if paths and len(set(map(os.path.realpath, paths))) < max(len(paths), 2):
        raise ConfigError("needs two or more distinct instrument files to compare",
                          key="alice_instruments")
    if cfg.q_dim < 2:
        raise ConfigError(f"an EPR world needs >= 2 channel qubits, got {cfg.q_dim}", key="q_dim")
    if cfg.qbar_dim < 1:
        raise ConfigError(f"an EPR world needs >= 1 rest qubit, got {cfg.qbar_dim}", key="qbar_dim")
    return cfg


def _pairs(cfg: RunConfig, q_dims=None, lams=None) -> list[DensityMatrix]:
    """The run's EPR pairs, one per ``q_dims`` and ``lams`` where given in place of the config's."""
    q_dims = cfg.q_dim if q_dims is None else q_dims
    lams = cfg.lam if lams is None else lams
    return epr_pairs(q_dims, cfg.qbar_dim, lams, cfg.seed, evolution_time=cfg.evolution_time)


def _load_file(loader, path: str, key: str):
    """``loader(path)``; an unreadable, malformed, out-of-range or too deeply nested file
    is a config error."""
    try:
        return loader(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
        raise ConfigError(f"cannot load {path!r}: {type(exc).__name__}: {exc}", key=key) from exc


def _resolve_script(name_or_path: str | None):
    if name_or_path is None:
        return canonical_chsh_script()
    if name_or_path in bundled_script_names():
        return load_bundled_script(name_or_path)
    return _load_file(load_script, name_or_path, "script")


def _write_file(path: str, text: str, key: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}", key=key) from exc


def _sample_chsh(pair: DensityMatrix, cfg: RunConfig) -> CHSHResult:
    """Sampled CHSH, streaming the transcript to ``cfg.transcript`` when one is asked for."""
    config = CHSHConfig(trials=cfg.trials, seed=cfg.seed)
    if cfg.transcript is None:
        return sample_chsh(pair, config, cfg.parallel)
    try:
        with open(cfg.transcript, "wb") as fh:
            return sample_chsh(pair, config, cfg.parallel, fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.transcript!r}: {exc}", key="transcript") from exc


#: What a runner returns: the structured payload, the rows of the columnar one, and the criteria.
_Outcome = tuple[dict, list[dict], list[tuple[str, bool]]]


def _columnar(rows: list[dict]) -> str:
    """The first row's keys as a header, then a line per row: strings as is, numbers by repr."""
    lines = [" ".join(rows[0])]
    lines += [" ".join(v if isinstance(v, str) else repr(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _run_chsh(cfg: RunConfig) -> _Outcome:
    [pair] = [singlet_density()] if cfg.mode == "er" else _pairs(cfg)
    res = exact_chsh(pair) if cfg.exact else _sample_chsh(pair, cfg)
    bound = TSIRELSON_BOUND + 5 * res.standard_error + 1e-9
    criteria = [("s_abs within quantum bound", res.s_abs <= bound)]
    if cfg.exact and cfg.mode == "er":
        criteria.append(
            ("exact identified-world run attains the quantum maximum",
             abs(res.s_abs - TSIRELSON_BOUND) <= _ZERO_ATOL)
        )
    result = dict(vars(res))
    return {"result": result}, [result], criteria


def _run_sweep(cfg: RunConfig) -> _Outcome:
    script = _resolve_script(cfg.script)
    grid = cfg.lambda_grid
    rows = [
        {"lambda": r.lam, "tvd_vs_er": r.tvd_vs_er, "s_abs": r.s_abs, "pair_purity": r.pair_purity}
        for r in indistinguishability_sweep(grid, _pairs(cfg, lams=grid), script)
    ]
    criteria = [("zero-coupling row indistinguishable", rows[0]["tvd_vs_er"] <= _ZERO_ATOL)]
    return {"kind": "indistinguishability_sweep", "rows": rows}, rows, criteria


def _run_distinguish(cfg: RunConfig) -> _Outcome:
    scripts = [_resolve_script(cfg.script)] if cfg.script else bundled_corpus()
    results = []
    criteria = []
    pairs = [*_pairs(cfg), singlet_density()]
    for script, dists in zip(scripts, accessible_distributions(pairs, scripts)):
        tvd = total_variation(*dists)
        results.append({"script": script.name, "tvd_vs_er": tvd})
        if cfg.lam == 0.0:
            criteria.append((f"script {script.name} indistinguishable", tvd <= _ZERO_ATOL))
    return {"kind": "distinguish", "lambda": cfg.lam, "scripts": results}, results, criteria


def _load_alice_instrument(path: str):
    name, inst = load_instrument(path)
    if not inst.report.passed:
        raise ValueError(inst.report.message)
    return name, inst


def _run_nosignal(cfg: RunConfig) -> _Outcome:
    [pair] = [singlet_density()] if cfg.mode == "er" else _pairs(cfg)
    if cfg.alice_instruments:
        key = "alice_instruments"
        loaded = [_load_file(_load_alice_instrument, p, key) for p in cfg.alice_instruments]
    else:
        loaded = [("measure_z", measure_z()), ("measure_x", measure_x()),
                  ("identity", identity_instrument())]
    names = [name for name, _ in loaded]
    variants = [inst for _, inst in loaded]
    bob = (ProtocolRound("B", measure_z()), )
    max_tvd = no_signaling_check(pair, variants, bob)
    payload = {
        "kind": "nosignal",
        "max_tvd": max_tvd,
        "variants": names,
        "classical_channel_used": False,
    }
    criteria = [("Bob's marginals independent of Alice's choice", max_tvd <= _ZERO_ATOL)]
    return payload, [{"max_tvd": max_tvd}], criteria


def _run_qecc(cfg: RunConfig) -> _Outcome:
    script = _resolve_script(cfg.script)
    pairs = _pairs(cfg, q_dims=cfg.q_dims)
    worst = channel_size_check(pairs, script)
    payload = {
        "kind": "qecc",
        "q_dims": list(cfg.q_dims),
        "lambda": cfg.lam,
        "max_pairwise_tvd": worst,
    }
    criteria = []
    if cfg.lam == 0.0:
        criteria.append(("channel size invisible at zero coupling", worst <= _ZERO_ATOL))
    return payload, [{"max_pairwise_tvd": worst}], criteria


def _run_frames(cfg: RunConfig) -> _Outcome:
    raw = frame_misalignment_demo(cfg.offset)
    fixed = frame_misalignment_demo(cfg.offset, corrected=True)
    expected_raw = TSIRELSON_BOUND * abs(math.cos(math.remainder(cfg.offset, math.tau)))
    payload = {
        "kind": "frames",
        "offset": cfg.offset,
        "uncorrected": dict(vars(raw)),
        "corrected": dict(vars(fixed)),
    }
    rows = [{"variant": k, "s_abs": payload[k]["s_abs"]} for k in ("uncorrected", "corrected")]
    criteria = [
        ("uncorrected offset degrades as 2*sqrt(2)*|cos|",
         abs(raw.s_abs - expected_raw) <= _ZERO_ATOL),
        ("corrected dials restore the quantum maximum",
         abs(fixed.s_abs - TSIRELSON_BOUND) <= _ZERO_ATOL),
    ]
    return payload, rows, criteria


class _Experiment(NamedTuple):
    run: Callable[[RunConfig], _Outcome]
    help: str
    example: str
    script: str | None = None  # the script name a run without --script echoes


_EXPERIMENTS: dict[str, _Experiment] = {
    "chsh": _Experiment(_run_chsh, "CHSH experiment, exact or sampled",
                        "locclab chsh --mode er --exact --seed 1"),
    "sweep": _Experiment(_run_sweep, "distinguishability sweep over coupling strengths",
                         "locclab sweep --lambda-grid 0,0.3,0.6,0.9 --seed 3 --format columnar",
                         "chsh_canonical"),
    "distinguish": _Experiment(_run_distinguish,
                               "per-script transcript distance, channel world vs identified world",
                               "locclab distinguish --lambda 0 --seed 5"),
    "nosignal": _Experiment(_run_nosignal,
                            "Bob's marginals across Alice's instrument choices, channel withheld",
                            "locclab nosignal --mode epr --lambda 0.8 --seed 2"),
    "qecc": _Experiment(_run_qecc, "transcript distance across channel sizes",
                        "locclab qecc --q-dims 2,3 --seed 11", "chsh_canonical"),
    "frames": _Experiment(_run_frames,
                          "CHSH under a misaligned measurement frame, with and without correction",
                          "locclab frames --offset 0.7853981633974483 --seed 1"),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def run(cfg: RunConfig) -> RunReport:
    """Execute one experiment and collect its report."""
    t0 = time.perf_counter()
    payload, rows, criteria = _EXPERIMENTS[cfg.experiment].run(cfg)
    if cfg.fmt == "columnar":
        text = _columnar(rows)
    else:
        doc = {"schema_version": 1, "experiment": cfg.experiment, "config": cfg.echo()}
        doc["results"] = payload
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return RunReport(
        config=cfg,
        payload_text=text,
        criteria=criteria,
        versions={
            "locclab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        wall_time_s=time.perf_counter() - t0,
    )


_HELP_FLAGS = ("-h", "--help")


def _read_argv(argv: Sequence[str]) -> tuple[str | None, str | None, dict[str, list[str]] | None]:
    """``argv`` as (experiment, --config path, {key: [text, ...]} in table order); no texts
    ask for help.  A flag is a key's exact text, as ``--key value`` or ``--key=value``;
    the item after it is its value as is, unless the flag has an ``alone`` text and the
    item starts with '-'.  Unknown items are refused together, then a flag given twice."""
    if not argv:
        raise ConfigError("the following arguments are required: experiment")
    experiment, *items = argv
    if experiment in _HELP_FLAGS:
        return None, None, None
    if experiment not in _EXPERIMENTS:
        choices = ", ".join(map(repr, _EXPERIMENTS))
        raise ConfigError(f"argument experiment: invalid choice: {experiment!r} "
                          f"(choose from {choices})")
    given: dict[str, list[str]] = {}
    unknown = []
    items.reverse()  # popped from the end, so in order
    while items:
        item = items.pop()
        if item in _HELP_FLAGS:
            return experiment, None, None
        flag, eq, text = item.partition("=")
        key = _FLAGS.get(flag)
        if key is None:
            unknown.append(item)
            continue
        if not eq:
            alone = key in _OPTIONS and _OPTIONS[key].alone
            if items and not (alone and items[-1].startswith("-")):
                text = items.pop()
            elif alone:
                text = alone
            else:
                raise ConfigError(f"argument {flag}: expected one argument")
        given.setdefault(key, []).append(text)
    if unknown:
        raise ConfigError("unrecognized arguments: " + " ".join(unknown))
    given = {key: given[key] for key in _FLAGS.values() if key in given}
    for key, texts in given.items():
        if len(texts) > 1 and not (key in _OPTIONS and _OPTIONS[key].repeats):
            raise ConfigError("flag given more than once; only one value can act", key=key)
    return experiment, given.pop("config", [None])[0], given


def _help(experiment: str | None) -> str:
    """The experiments, or an experiment's flags, each line ending where its key acts,
    and its runnable example."""
    lines = [f"usage: locclab {experiment or 'EXPERIMENT'} [--config FILE] [--KEY VALUE] ...",
             "       locclab [EXPERIMENT] --help", ""]
    if experiment is None:
        lines.append("Seeded two-agent LOCC experiments over identified or channel-delivered pairs:")
        lines += [f"  {name:<13}{spec.help}" for name, spec in _EXPERIMENTS.items()]
        return "\n".join(lines) + "\n"
    config = "file of 'key = value' lines and # comments, read as the flags are (every run)"
    lines += [_EXPERIMENTS[experiment].help, ""]
    lines += [f"  {flag:<20}{_OPTIONS[key].help if key in _OPTIONS else config}"
              for flag, key in _FLAGS.items()]
    return "\n".join(lines) + f"\n\nexample: {_EXPERIMENTS[experiment].example}\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        experiment, config_path, given = _read_argv(sys.argv[1:] if argv is None else argv)
        if given is None:
            sys.stdout.write(_help(experiment))
            return EXIT_OK
        overrides = {key: _parse_value(key, ",".join(texts)) for key, texts in given.items()}
        cfg = parse_config(experiment, config_path, overrides)
        report = run(cfg)
        if cfg.out != "-":
            _write_file(cfg.out, report.payload_text, "out")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except EmptyCellError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CELL

    if cfg.out == "-":
        sys.stdout.write(report.payload_text)

    for name, ok in report.criteria:
        print(f"criterion {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    versions = " ".join(f"{k}={v}" for k, v in report.versions.items())
    print(f"done in {report.wall_time_s:.3f}s ({versions})", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
