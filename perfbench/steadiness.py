"""Steadiness check: two sets of runs of the same code, compared against the bounds.

    python3 perfbench/steadiness.py [--workloads corpus sampling] [--first-seed 1000]

Run from the root of a checkout.  Each of the two sets runs ``run.py
--trace 0`` ten times on every workload, one run at a time, with a fresh
seed for every run.  For each end-to-end metric it prints, per set, the
median and the spread (distance between the first and third quartile as a
share of the median), and flags a spread above the metric's bound, or a
second set whose median is worse than the first set's by more than the
bound.  It also checks that the share of failed operations is the same in
both sets.  Exits 1 if any flag is raised.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # per set; two sets


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args()

    flags = 0
    record = {}
    seed = args.first_seed
    for workload in args.workloads:
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(workload, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        record[workload] = sets
        shares = {(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets}
        fail_share = {f / a for f, a in shares}
        correct = all(r["correct"] for s in sets for r in s)
        print(f"{workload}: failed share per set {sorted(fail_share)}, all correct: {correct}")
        if len(fail_share) != 1 or not correct:
            flags += 1
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            first, second = (statistics.median(v) for v in values)
            spreads = [spread(v) for v in values]
            worse = (second - first) / first * (1 if lower else -1)
            bad = max(spreads) > bound or worse > bound
            flags += bad
            print(
                f"  {name:12s} bound {bound:.2f}  medians {first:.6g} {second:.6g}"
                + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                + f"  worse {worse:+.3f}"
                + ("  <-- over bound" if bad else "")
            )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
