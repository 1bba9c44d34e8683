"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line-per-
criterion report.  Frozen constants were produced by the independent
oracle implementations in ``oracles.py`` (full-space dense evolution plus
direct transcript recursion); regenerate them from there if the committed
world family ever changes.
"""

import json
import math
import time

import numpy as np

from locclab import (
    CHSHConfig,
    TSIRELSON_BOUND,
    accessible_distribution,
    apply_instrument,
    build_epr_world,
    build_er_world,
    bundled_corpus,
    canonical_chsh_script,
    coarse_grain,
    channel_size_check,
    deliver_pair,
    exact_chsh,
    frame_misalignment_demo,
    identity_instrument,
    load_bundled_script,
    measure_x,
    measure_z,
    no_signaling_check,
    sample_chsh,
    singlet_density,
    total_variation,
    trace_distance,
    validate_instrument,
)
from locclab.cli import EXIT_OK, main, parse_config, run
from locclab.instruments import CoarseGrainingPartition
from locclab.protocols import ProtocolRound

import helpers

ZERO_ATOL = 1e-10

# Committed oracle run: transcript distance of the channel world from the
# identified world for the canonical randomized-settings script, at
# q_dim=2, qbar_dim=2, seed=0, evolution time 1.0.  Values computed with
# oracles.dense_world_pair + oracles.transcript_distribution.
FROZEN_SWEEP_TVD = {
    0.3: 0.010376997427253731,
    0.6: 0.03793193864533458,
    0.9: 0.0732455473897323,
}


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_tsirelson_attainment():
    t0 = time.perf_counter()
    report = run(parse_config("chsh", None, {"seed": 1, "mode": "er", "exact": True}))
    elapsed = time.perf_counter() - t0
    s_abs = json.loads(report.payload_text)["results"]["result"]["s_abs"]
    check(
        "criterion 1: exact CHSH on the identified world attains 2*sqrt(2)",
        abs(s_abs - TSIRELSON_BOUND) <= ZERO_ATOL and elapsed < 1.0,
        f"(s_abs={s_abs!r}, {elapsed:.3f}s)",
    )


def test_criterion_2_state_level_indistinguishability():
    t0 = time.perf_counter()
    target = singlet_density()
    worst = 0.0
    cases = 0
    for q_dim in (2, 3):
        for seed in (0, 1, 2, 3, 4):
            pair = deliver_pair(build_epr_world(q_dim, 2, 0.0, seed=seed))
            worst = max(worst, trace_distance(pair, target))
            cases += 1
    elapsed = time.perf_counter() - t0
    check(
        "criterion 2: zero-coupling delivery matches the singlet in all 10 cases",
        cases == 10 and worst <= ZERO_ATOL and elapsed < 10.0,
        f"(max distance={worst:.2e}, {elapsed:.3f}s)",
    )


def test_criterion_3_operational_indistinguishability_and_sweep():
    t0 = time.perf_counter()
    er = build_er_world()
    epr0 = build_epr_world(2, 2, 0.0, seed=0)
    corpus = bundled_corpus()
    assert len(corpus) >= 10
    worst = 0.0
    for script in corpus:
        tvd = total_variation(
            accessible_distribution(epr0, script), accessible_distribution(er, script)
        )
        worst = max(worst, tvd)
    script = canonical_chsh_script()
    er_dist = accessible_distribution(er, script)
    sweep = {}
    for lam in (0.3, 0.6, 0.9):
        world = build_epr_world(2, 2, lam, seed=0)
        sweep[lam] = total_variation(accessible_distribution(world, script), er_dist)
    elapsed = time.perf_counter() - t0
    increasing = 0.0 < sweep[0.3] < sweep[0.6] < sweep[0.9]
    frozen_ok = all(abs(sweep[lam] - FROZEN_SWEEP_TVD[lam]) <= 1e-8 for lam in sweep)
    check(
        "criterion 3: corpus indistinguishable at zero coupling, distance grows with it",
        worst <= ZERO_ATOL and increasing and frozen_ok and elapsed < 60.0,
        f"(max zero-coupling tvd={worst:.2e}, sweep={[round(sweep[l], 9) for l in (0.3, 0.6, 0.9)]}, "
        f"{elapsed:.3f}s)",
    )


def test_criterion_4_channel_size_invisibility():
    t0 = time.perf_counter()
    worst = max(
        channel_size_check([2, 3], canonical_chsh_script(), seed=0),
        channel_size_check([2, 3], load_bundled_script("zx"), seed=0),
        channel_size_check([2, 3], load_bundled_script("adaptive_bob"), seed=0),
    )
    elapsed = time.perf_counter() - t0
    check(
        "criterion 4: channel size invisible at zero coupling (3 scripts)",
        worst <= ZERO_ATOL and elapsed < 30.0,
        f"(max pairwise tvd={worst:.2e}, {elapsed:.3f}s)",
    )


def test_criterion_5_no_signaling():
    t0 = time.perf_counter()
    variants = [measure_z(), measure_x(), identity_instrument()]
    bob = [ProtocolRound("B", measure_z()), ProtocolRound("B", measure_x())]
    worlds = [build_er_world(), build_epr_world(2, 2, 0.0, seed=0), build_epr_world(2, 2, 0.8, seed=0)]
    worst = max(no_signaling_check(w, variants, bob).max_tvd for w in worlds)
    elapsed = time.perf_counter() - t0
    check(
        "criterion 5: Bob's marginals never move with Alice's choice (channel withheld)",
        worst <= ZERO_ATOL and elapsed < 30.0,
        f"(max tvd={worst:.2e}, {elapsed:.3f}s)",
    )


def test_criterion_6_frame_misalignment():
    raw = frame_misalignment_demo(math.pi / 4)
    fixed = frame_misalignment_demo(math.pi / 4, corrected=True)
    check(
        "criterion 6: quarter-turn frame offset degrades to 2 and corrects to 2*sqrt(2)",
        abs(raw.s_abs - 2.0) <= ZERO_ATOL and abs(fixed.s_abs - TSIRELSON_BOUND) <= ZERO_ATOL,
        f"(uncorrected={raw.s_abs!r}, corrected={fixed.s_abs!r})",
    )


def test_criterion_7_sampling_consistency():
    t0 = time.perf_counter()
    world = build_er_world()
    exact = exact_chsh(deliver_pair(world)).s_abs
    good = 0
    for seed in range(100):
        res = sample_chsh(world, CHSHConfig(trials=10**4, seed=seed))
        if abs(res.s_abs - exact) <= 5 * res.standard_error:
            good += 1
    elapsed = time.perf_counter() - t0
    check(
        "criterion 7: sampled statistic within 5 standard errors in >= 99 of 100 runs",
        good >= 99 and elapsed < 120.0,
        f"({good}/100, {elapsed:.3f}s)",
    )


def test_criterion_8_instrument_law_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    for i in range(500):
        n_out = int(rng.integers(1, 5))
        inst = helpers.random_instrument(rng, n_out, kraus_per_branch=int(rng.integers(1, 3)))
        if not validate_instrument(inst).passed:
            failures.append(f"{i}: valid instrument rejected")
            continue
        rho, target = helpers.random_density(rng), helpers.random_target(rng)
        records = apply_instrument(inst, rho, target)
        if abs(sum(r.probability for r in records) - 1.0) > 1e-10:
            failures.append(f"{i}: probabilities do not sum to 1")
        # post-state validity is enforced by the DensityMatrix constructor;
        # make sure every above-floor outcome produced one
        if any(r.post_state is None and r.probability > 1e-12 for r in records):
            failures.append(f"{i}: missing post-state")
        if n_out >= 2:
            cut = int(rng.integers(1, n_out))
            part = CoarseGrainingPartition(
                (
                    ("g0", tuple(str(k) for k in range(cut))),
                    ("g1", tuple(str(k) for k in range(cut, n_out))),
                )
            )
            merged = apply_instrument(coarse_grain(inst, part), rho, target)
            p0 = sum(r.probability for r in records if int(r.outcome) < cut)
            if abs(merged[0].probability - p0) > 1e-10:
                failures.append(f"{i}: coarse-graining broke additivity")
        if i % 5 == 0:
            bad = helpers.sign_flip_one_term(inst)
            report = validate_instrument(bad)
            if report.passed or not any(v.kind == "cp" for v in report.violations):
                failures.append(f"{i}: CP violation not detected")
            shrunk = helpers.random_instrument(rng, 1)
            from locclab.instruments import InstrumentBranch, QuantumInstrument

            leaky = QuantumInstrument(
                (InstrumentBranch("only", tuple(0.9 * k for k in shrunk.branches[0].kraus)),)
            )
            report = validate_instrument(leaky)
            if report.passed or not any(v.kind == "completeness" for v in report.violations):
                failures.append(f"{i}: TP violation not detected")
    elapsed = time.perf_counter() - t0
    check(
        "criterion 8: 500 random instruments satisfy the law suite",
        not failures and elapsed < 60.0,
        f"({len(failures)} failures, {elapsed:.3f}s)" + (f" first: {failures[0]}" if failures else ""),
    )


def test_criterion_9_cli_determinism(tmp_path):
    payloads = {}
    for width in ("1", "8"):
        for attempt in ("first", "second"):
            out = tmp_path / f"w{width}-{attempt}.json"
            code = main(
                [
                    "chsh",
                    "--mode",
                    "epr",
                    "--lambda",
                    "0.4",
                    "--trials",
                    "20000",
                    "--seed",
                    "7",
                    "--parallel",
                    width,
                    "--out",
                    str(out),
                ]
            )
            assert code == EXIT_OK
            payloads[(width, attempt)] = out.read_bytes()
    identical = len(set(payloads.values())) == 1
    check(
        "criterion 9: payload bytes identical across repeats and widths 1 and 8",
        identical,
        f"({len(payloads)} runs, {len(set(payloads.values()))} distinct payloads)",
    )
