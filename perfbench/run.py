"""locclab benchmark: one command, four workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ``src`` of
that checkout, never from an installed copy; without it the command exits
with status 1 and prints no result.

Each workload runs in one worker process with BLAS pinned to one thread, so
that BLAS threads plus the sampler's width stay within the machine's cores.
With ``--trace 0`` the worker's timed loop gives ``op_s.p50`` (median over
all operations), ``ops_per_s`` (median over rounds of the round's operations
per second of operation time) and ``peak_rss_mb``; ``setup_s`` is the median
set-up time of several fresh interpreters (the worker itself and the set-up
probes it starts between its rounds).  With ``--trace 1`` the same loop runs with
every public function of the package wrapped, and the per-layer metrics are
reported per round of the workload's mix.  Workload and metric names, and the
metrics' units, are read from ``BENCHMARK.json`` at the checkout's root.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A fuller record goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Per-layer counters reported per round, besides calls and self time.
COUNTS = ("distinguish.branches", "bell.trials", "bell.format_transcript.rows", "cli.payload_bytes")
RATIOS = {
    "worlds.deliveries_per_world": ("worlds.deliver_pair", "worlds.distinct"),
    "instruments.validations_per_instrument": ("instruments.validate_instrument", "instruments.distinct"),
}


class BenchError(Exception):
    pass


def spawn(args, deadline: float, *extra: str) -> dict:
    """Start one fresh worker interpreter, wait for it, return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
    ]
    env = dict(os.environ, **THREAD_ENV)
    try:
        # the spawn instant is the last argument, taken as late as possible
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.monotonic())],
            env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def per_layer(trace: dict, rounds: int, metrics: list[dict]) -> dict:
    """Per-layer values: calls, self time and counters per round; ratios over the run."""
    calls, self_s, counts = (defaultdict(float, trace[k]) for k in ("calls", "self_s", "counts"))
    out = {}
    for metric in metrics:
        name = metric["name"]
        if name in RATIOS:
            num, den = RATIOS[name]
            value = calls[num] / counts[den] if counts[den] else 0.0
        elif name.endswith(".self_s"):
            value = self_s[name.removesuffix(".self_s")] / rounds
        elif name.endswith(".calls") or name.endswith(".created"):
            value = calls[name.rsplit(".", 1)[0]] / rounds
        elif name == "bell.transcript_mb":
            value = counts["bell.transcript_bytes"] / 1e6 / rounds
        elif name in COUNTS:
            value = counts[name] / rounds
        else:
            raise BenchError(f"no rule computes per-layer metric {name}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def end_to_end(worker: dict, setups: list[float], metrics: list[dict]) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(worker["op_s"]),
        "ops_per_s": statistics.median(worker["round_ops_per_s"]),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "locclab" / "__init__.py").is_file():
        print(f"no locclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if not args.trace:
            spawn(args, deadline, "--probe")  # fills bytecode caches; not counted
        worker = spawn(args, deadline)
        if not worker["op_s"]:
            raise BenchError("no operation succeeded")
        setups = worker.pop("setup_samples_s")
        if args.trace:
            metrics = per_layer(worker["trace"], worker["rounds"], bench["per_layer"])
        else:
            metrics = end_to_end(worker, setups, bench["end_to_end"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": worker["check_failures"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    by_label = defaultdict(list)
    for label, t in zip(worker.pop("op_labels"), worker.pop("op_s")):
        by_label[label].append(t)
    record = dict(
        result,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=len(os.sched_getaffinity(0)), blas_threads=THREAD_ENV["OPENBLAS_NUM_THREADS"],
        setup_samples_s=setups, op_s_median_by_label={k: statistics.median(v) for k, v in by_label.items()},
        worker=worker,
    )
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
