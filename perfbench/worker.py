"""One benchmark process: set a workload up from its seed, then run whole rounds of it.

Started by ``run.py``; prints one JSON line with raw measurements.  With
``--probe`` it stops once set-up is done, so that set-up can be timed in
several fresh interpreters.  Set-up time runs from the moment the parent
started this interpreter (``--spawned-at``, a ``time.monotonic`` reading,
which is system-wide on Linux) to the moment the first operation is ready.

An untraced worker starts ``SETUP_PROBES`` such probes itself, spread evenly
over its timed loop and waited for one at a time between rounds, so that the
set-up samples and the operation times see the same spells of the machine's
speed.  The probes' time is added to the loop's end, not taken from it.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 16  # plus the worker's own set-up: the median of 17 fresh starts


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package from this checkout, load the corpus, generate the workload."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import locclab.cli
    import locclab.protocols

    if not Path(locclab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"locclab imported from {locclab.__file__}, not from {src}")
    import reference
    import workloads

    locclab.protocols.bundled_corpus()
    scripts = reference.load_scripts(src / "locclab" / "data" / "scripts")
    ops = workloads.build(workload, seed, workdir)
    return locclab.cli, ops, workloads.Checker(scripts)


def run_op(cli, op) -> tuple[float, bytes, str | None]:
    """Time one CLI run; returns (seconds, payload bytes, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv())
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the loop must go on; the failure is counted and reported
        code = None
        failure = traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - t0
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return elapsed, out.getvalue().encode("utf-8"), failure


def probe(args) -> float:
    """Set-up time of one fresh interpreter on the same workload and seed."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--probe"]
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(time.monotonic())], stdout=subprocess.PIPE, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cli, ops, checker = set_up(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        times: list[float] = []
        labels: list[str] = []
        round_rates: list[float] = []  # successful operations per second of operation time
        failed = check_failures = rounds = 0
        problems: list[str] = []
        setups = [setup_s]
        probe_at = [] if args.trace else [args.seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
        start = time.monotonic()
        while True:
            round_times: list[float] = []
            for op in ops:
                elapsed, payload, failure = run_op(cli, op)
                if failure is None:
                    found = checker.check(op, payload)
                    if found:
                        check_failures += 1
                        failure = "; ".join(found)
                if failure is None:
                    times.append(elapsed)
                    labels.append(op.label)
                    round_times.append(elapsed)
                else:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(f"{' '.join(op.argv())}: {failure}")
            rounds += 1
            if round_times:
                round_rates.append(len(round_times) / sum(round_times))
            while probe_at and time.monotonic() - start >= probe_at[0]:
                del probe_at[0]
                t0 = time.monotonic()
                setups.append(probe(args))
                start += time.monotonic() - t0
            if time.monotonic() - start >= args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
        for line in problems:
            print(f"failed: {line}", file=sys.stderr)
        result = {
            "setup_samples_s": setups,
            "rounds": rounds,
            "ops_per_round": len(ops),
            "attempted": rounds * len(ops),
            "failed": failed,
            "check_failures": check_failures,
            "op_s": times,
            "op_labels": labels,
            "round_ops_per_s": round_rates,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            result["trace"] = {
                "calls": tracer.calls,
                "self_s": tracer.self_s,
                "counts": tracer.counts,
            }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
