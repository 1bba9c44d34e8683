"""The four workloads: seeded operation mixes and the check of every payload.

An operation is one CLI experiment, from its argument list to its payload
bytes.  A workload is a fixed list of operations drawn from the seed; a run
repeats that list in whole rounds.  Shapes (world sizes, trial counts,
script choices per slot) are fixed per workload so that run times do not
depend on the seed; couplings, world seeds, angles and instruments do.

Every check compares against ``reference`` (which imports nothing from the
package) or against a property of the output itself, never against a saved
copy of earlier output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

TOL = 1e-9  # payload vs reference
ZERO_TOL = 1e-10  # distances that must vanish
SAMPLING_SIGMAS = 5


@dataclass
class Op:
    experiment: str
    flags: dict  # CLI flag (without "--") -> value; True for a bare flag
    label: str
    pair_key: str | None = None  # ops sharing a key must give identical payload bytes
    instruments: list = field(default_factory=list)  # reference branches of --alice-instrument files

    def argv(self) -> list[str]:
        out = [self.experiment]
        for flag, value in self.flags.items():
            if value is True:
                out.append(f"--{flag}")
            elif isinstance(value, list):
                for v in value:
                    out += [f"--{flag}", str(v)]
            else:
                out += [f"--{flag}", value if isinstance(value, str) else repr(value)]
        return out

    def get(self, flag, default=None):
        return self.flags.get(flag, default)


def _world_flags(q_dim, qbar_dim, lam, seed, t=1.0) -> dict:
    return {"seed": seed, "q-dim": q_dim, "qbar-dim": qbar_dim, "lambda": lam, "evolution-time": t}


def _grid(rng, points: int) -> str:
    lams = np.sort(rng.uniform(0.1, 1.4, size=points - 1))
    return ",".join(["0.0"] + [repr(float(x)) for x in lams])


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _lam(rng) -> float:
    return float(rng.uniform(0.2, 1.4))


def env_scale(rng, workdir, nproc) -> list[Op]:
    """Exact experiments on EPR worlds up to 11 environment qubits, at lam = 0 and lam > 0.

    Dense assembly and ``eigh`` grow as 8^n, so the lam > 0 ladder stops at
    10 qubits (about 1.4 s per delivery); the lam = 0 ladder, where delivery
    is skipped but assembly is not, reaches 11.
    """
    ops = []
    for q, qb, lam in ((2, 9, 0.0), (4, 6, 0.0), (2, 2, None), (3, 3, None), (3, 5, None), (4, 6, None)):
        lam = _lam(rng) if lam is None else lam
        flags = {"mode": "epr", "exact": True, **_world_flags(q, qb, lam, _seed(rng))}
        ops.append(Op("chsh", flags, f"chsh exact q{q}+{qb} lam{'>0' if lam else '=0'}"))
    for q, qb, lam in ((3, 5, 0.0), (2, 2, None), (2, 4, None), (3, 5, None)):
        lam = _lam(rng) if lam is None else lam
        flags = _world_flags(q, qb, lam, _seed(rng))
        ops.append(Op("distinguish", flags, f"distinguish corpus q{q}+{qb} lam{'>0' if lam else '=0'}"))
    for q, qb in ((2, 4), (3, 5)):
        flags = {"lambda-grid": _grid(rng, 3), **_world_flags(q, qb, 0.0, _seed(rng))}
        del flags["lambda"]
        ops.append(Op("sweep", flags, f"sweep 3 points q{q}+{qb}"))
    for dims, qb, lam in (((2, 3, 4), 6, 0.0), ((2, 3), 4, None), ((2, 3, 4), 5, None)):
        lam = _lam(rng) if lam is None else lam
        flags = {"q-dims": ",".join(map(str, dims)), **_world_flags(2, qb, lam, _seed(rng))}
        del flags["q-dim"]
        ops.append(Op("qecc", flags, f"qecc q{dims[0]}..{dims[-1]}+{qb} lam{'>0' if lam else '=0'}"))
    for i, op in enumerate(ops):
        op.flags["format"] = ("structured", "columnar")[i % 2]
    return ops


def write_instruments(rng, workdir: Path, count: int) -> list[tuple[str, list]]:
    """Random valid instrument files; returns ``(path, reference branches)`` per file."""
    out = []
    for i in range(count):
        outcomes, per_branch = 2 + i % 3, 1 + i % 2
        text = ref.instrument_text(f"gen{i}", ref.random_instrument(rng, outcomes, per_branch))
        path = workdir / f"gen{i}.inst"
        path.write_text(text, encoding="utf-8")
        out.append((str(path), ref.parsed_instrument(text)))
    return out


def corpus(rng, workdir, nproc) -> list[Op]:
    """All six experiments on the ER world and the smallest EPR worlds, many seeds and couplings."""
    generated = write_instruments(rng, workdir, 6)
    ops = []

    def add(experiment, flags, label):
        flags["format"] = ("structured", "columnar")[len(ops) % 2]
        ops.append(Op(experiment, flags, label))

    for _ in range(2):
        add("chsh", {"seed": _seed(rng), "mode": "er", "exact": True}, "chsh exact er")
        for qb in (1, 2):
            flags = {"mode": "epr", "exact": True, **_world_flags(2, qb, _lam(rng), _seed(rng))}
            add("chsh", flags, f"chsh exact q2+{qb}")
        add("chsh", {"seed": _seed(rng), "mode": "er", "trials": 4000}, "chsh sampled er")
        flags = {"mode": "epr", "trials": 4000, **_world_flags(2, 2, _lam(rng), _seed(rng))}
        add("chsh", flags, "chsh sampled q2+2")
    # scripts are fixed per slot: their round counts set the operation's cost
    for i, script in enumerate(("adaptive_three", "chsh_rotated", "noisy_alice", "unsharp")):
        qb = 1 + i % 2
        flags = {"lambda-grid": _grid(rng, 4), "script": script,
                 **_world_flags(2, qb, 0.0, _seed(rng), float(rng.uniform(0.5, 2.0)))}
        del flags["lambda"]
        add("sweep", flags, f"sweep 4 points q2+{qb}")
    for i in range(6):
        lam = 0.0 if i % 3 == 0 else _lam(rng)
        flags = _world_flags(2, 1 + i % 2, lam, _seed(rng), float(rng.uniform(0.5, 2.0)))
        if i >= 3:
            flags["script"] = ("adaptive_bob", "three_round", "zx")[i - 3]
            add("distinguish", flags, "distinguish one script")
        else:
            add("distinguish", flags, "distinguish corpus")
    for i in range(4):
        chosen = [generated[(i + k) % len(generated)] for k in range(3)]
        if i % 2 == 0:
            flags = {"seed": _seed(rng), "mode": "er"}
        else:
            flags = {"mode": "epr", **_world_flags(2, 2, 0.0 if i == 1 else _lam(rng), _seed(rng))}
        flags["alice-instrument"] = [path for path, _ in chosen]
        add("nosignal", flags, "nosignal generated instruments")
        ops[-1].instruments = [branches for _, branches in chosen]
    for qb, lam in ((1, 0.0), (2, None), (1, None)):
        lam = _lam(rng) if lam is None else lam
        flags = {"q-dims": "2,3", **_world_flags(2, qb, lam, _seed(rng))}
        del flags["q-dim"]
        add("qecc", flags, f"qecc q2..3+{qb}")
    for _ in range(3):
        add("frames", {"seed": _seed(rng), "offset": float(rng.uniform(-math.pi, math.pi))}, "frames")
    return ops


def _sampled(rng, trials_by_world, widths, transcript_dir=None) -> list[Op]:
    ops = []
    for i, (world, trials) in enumerate(trials_by_world):
        if world == "er":
            base = {"seed": _seed(rng), "mode": "er"}
        else:
            q, qb = world
            base = {"mode": "epr", **_world_flags(q, qb, _lam(rng), _seed(rng))}
        base.update(trials=trials, format=("structured", "columnar")[i % 2])
        for width in widths:
            flags = dict(base, parallel=width)
            label = f"chsh {trials} trials {'er' if world == 'er' else 'q%d+%d' % world}"
            if transcript_dir is not None:
                flags["transcript"] = str(transcript_dir / f"transcript{i}.txt")
            ops.append(Op("chsh", flags, f"{label} width {width}", pair_key=f"cfg{i}"))
    return ops


def sampling(rng, workdir, nproc) -> list[Op]:
    """Large sampled CHSH runs, each at width 1 and at width nproc.

    The trial counts form a ladder so that the width-1 and width-nproc
    times interleave: the median operation then sits among several
    configurations instead of in the gap between the two widths.
    """
    worlds = ("er", (2, 2), (3, 3))
    plan = [(worlds[i % 3], 500_000 + 125_000 * i) for i in range(9)]
    return _sampled(rng, plan, (1, nproc))


def transcript(rng, workdir, nproc) -> list[Op]:
    """Sampled CHSH with the per-trial transcript exported to a file, one trial count throughout."""
    plan = [("er", 150_000), ((2, 2), 150_000), ((3, 3), 150_000), ("er", 150_000)]
    return _sampled(rng, plan, (1,), transcript_dir=Path(workdir))


WORKLOADS = {"env_scale": env_scale, "corpus": corpus, "sampling": sampling, "transcript": transcript}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    nproc = len(os.sched_getaffinity(0))
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, Path(workdir), nproc)


# ---------------------------------------------------------------------------
# Payload parsing


def _floats(line: str) -> list[float]:
    return [float(x) for x in line.split()]


def parse_payload(op: Op, text: str) -> dict:
    """Results of either payload format, in one shape per experiment."""
    if op.get("format") == "structured":
        doc = json.loads(text)
        if doc["experiment"] != op.experiment or doc["config"]["seed"] != op.get("seed"):
            raise ValueError(f"payload echoes the wrong config: {doc['config']}")
        res = doc["results"]
        if op.experiment == "chsh":
            return res["result"]
        if op.experiment == "sweep":
            return {"rows": [(r["lambda"], r["tvd_vs_er"], r["s_abs"], r["pair_purity"]) for r in res["rows"]]}
        if op.experiment == "distinguish":
            return {"scripts": [(r["script"], r["tvd_vs_er"]) for r in res["scripts"]]}
        if op.experiment == "frames":
            return {"uncorrected": res["uncorrected"]["s_abs"], "corrected": res["corrected"]["s_abs"]}
        return res
    lines = text.splitlines()
    if op.experiment == "chsh":
        return dict(zip(lines[0].split(), _floats(lines[1])))
    if op.experiment == "sweep":
        return {"rows": [tuple(_floats(line)) for line in lines[1:]]}
    if op.experiment == "distinguish":
        return {"scripts": [(n, float(v)) for n, v in (line.split() for line in lines[1:])]}
    if op.experiment in ("nosignal", "qecc"):
        return {lines[0]: float(lines[1])}
    return {name: float(v) for name, v in (line.split() for line in lines[1:])}


# ---------------------------------------------------------------------------
# Checks


class Checker:
    """Checks payloads against references computed for each operation."""

    def __init__(self, scripts: dict):
        self.scripts = scripts
        self._pair_bytes: dict[str, bytes] = {}

    def _pair(self, op: Op, lam=None, q_dim=None) -> complex:
        if op.get("mode", "epr") == "er":
            return 1.0 + 0.0j
        return ref.pair_coherence(
            op.get("q-dim") if q_dim is None else q_dim,
            op.get("qbar-dim"),
            op.get("lambda") if lam is None else lam,
            op.get("seed"),
            op.get("evolution-time"),
        )

    def _dist(self, c: complex, script: str) -> dict:
        return ref.transcript_distribution(ref.pair_state(c), self.scripts[script])

    def _close(self, problems, what, got, want, tol=TOL):
        if not abs(got - want) <= tol:
            problems.append(f"{what}: got {got!r}, reference {want!r}")

    def check(self, op: Op, payload: bytes) -> list[str]:
        """Problems found in one operation's payload; empty when it is correct."""
        problems: list[str] = []
        try:
            res = parse_payload(op, payload.decode("utf-8"))
            getattr(self, f"_check_{op.experiment}")(op, res, problems)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            problems.append(f"unreadable payload: {exc!r}")
        if op.pair_key is not None:
            first = self._pair_bytes.setdefault(op.pair_key, payload)
            if first != payload:
                problems.append(f"payload bytes differ between widths ({op.pair_key})")
        return problems

    def _check_chsh(self, op, res, problems):
        c = self._pair(op)
        if op.get("exact"):
            for key, want in ref.chsh(c).items():
                self._close(problems, key, res[key], want)
            return
        se = res["standard_error"]
        self._close(problems, "sampled s_abs", res["s_abs"], ref.s_abs(c), SAMPLING_SIGMAS * se)
        if op.get("transcript"):
            self._check_transcript_file(op, res, problems)

    def _check_transcript_file(self, op, res, problems):
        trials = op.get("trials")
        with open(op.get("transcript"), "r", encoding="utf-8") as fh:
            header = fh.readline()
            body = fh.read()
        # parsed straight to int64: a list of Python strings would outgrow the program's own export
        rows = np.fromstring(body, dtype=np.int64, sep=" ")
        if rows.size != 5 * trials or body.count("\n") != trials or not header.endswith("\n"):
            problems.append(f"transcript file does not hold {trials} rows under one header")
            return
        rows = rows.reshape(trials, 5)
        if not np.array_equal(rows[:, 0], np.arange(trials)):
            problems.append("transcript trial column is not 0..trials-1")
        x, y, ab = rows[:, 1], rows[:, 2], rows[:, 3] * rows[:, 4]
        keys = ("e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime")
        for key, (sx, sy) in zip(keys, ((0, 0), (0, 1), (1, 0), (1, 1))):
            cell = (x == sx) & (y == sy)
            want = int(ab[cell].sum()) / int(cell.sum())
            if res[key] != want:
                problems.append(f"{key} {res[key]!r} is not the file's count ratio {want!r}")

    def _check_sweep(self, op, res, problems):
        grid = [float(x) for x in op.get("lambda-grid").split(",")]
        script = op.get("script", "chsh_canonical")
        rows = res["rows"]
        if [r[0] for r in rows] != grid:
            problems.append(f"sweep grid {[r[0] for r in rows]} != {grid}")
            return
        er = self._dist(1.0 + 0.0j, script)
        for lam, tvd, s, purity in rows:
            c = self._pair(op, lam=lam)
            self._close(problems, f"tvd_vs_er at {lam}", tvd, ref.tvd(self._dist(c, script), er))
            self._close(problems, f"s_abs at {lam}", s, ref.s_abs(c))
            self._close(problems, f"pair_purity at {lam}", purity, ref.pair_purity(c))
        if not rows[0][1] <= ZERO_TOL:
            problems.append(f"zero-coupling row distinguishable: {rows[0][1]!r}")

    def _check_distinguish(self, op, res, problems):
        names = [op.get("script")] if op.get("script") else sorted(self.scripts)
        got = res["scripts"]
        if [n for n, _ in got] != names:
            problems.append(f"scripts {[n for n, _ in got]} != {names}")
            return
        c = self._pair(op)
        for name, tvd in got:
            self._close(problems, f"tvd_vs_er {name}", tvd, ref.tvd(self._dist(c, name), self._dist(1.0 + 0.0j, name)))
            if op.get("lambda") == 0.0 and not tvd <= ZERO_TOL:
                problems.append(f"{name} distinguishable at zero coupling: {tvd!r}")

    def _check_nosignal(self, op, res, problems):
        rho = ref.pair_state(self._pair(op))
        self._close(problems, "max_tvd", res["max_tvd"], ref.bob_marginal_spread(rho, op.instruments))
        if not res["max_tvd"] <= ZERO_TOL:
            problems.append(f"Bob's marginals depend on Alice's choice: {res['max_tvd']!r}")

    def _check_qecc(self, op, res, problems):
        dims = [int(d) for d in op.get("q-dims").split(",")]
        dists = [self._dist(self._pair(op, q_dim=d), "chsh_canonical") for d in dims]
        want = max(ref.tvd(p, q) for i, p in enumerate(dists) for q in dists[i + 1 :])
        self._close(problems, "max_pairwise_tvd", res["max_pairwise_tvd"], want)
        if op.get("lambda") == 0.0 and not res["max_pairwise_tvd"] <= ZERO_TOL:
            problems.append(f"channel size visible at zero coupling: {res['max_pairwise_tvd']!r}")

    def _check_frames(self, op, res, problems):
        offset = op.get("offset")
        self._close(problems, "uncorrected s_abs", res["uncorrected"], ref.chsh(1.0 + 0.0j, offset)["s_abs"])
        self._close(problems, "uncorrected s_abs vs 2*sqrt(2)*|cos offset|",
                    res["uncorrected"], ref.TSIRELSON * abs(math.cos(offset)), ZERO_TOL)
        self._close(problems, "corrected s_abs", res["corrected"], ref.TSIRELSON, ZERO_TOL)
