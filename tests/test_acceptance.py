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
    accessible_distributions,
    apply_instrument,
    bundled_corpus,
    canonical_chsh_script,
    coarse_grain,
    channel_size_check,
    epr_pairs,
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
from locclab.instruments import PROB_FLOOR, CoarseGrainingPartition
from locclab.linalg import check_density_stack
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
    for seed in (0, 1, 2, 3, 4):
        for pair in epr_pairs([2, 3], 2, 0.0, seed=seed):
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
    er, [epr0] = singlet_density(), epr_pairs(2, 2, 0.0, seed=0)
    corpus = bundled_corpus()
    assert len(corpus) >= 10
    worst = 0.0
    for script in corpus:
        [[p, q]] = accessible_distributions([epr0, er], [script])
        worst = max(worst, total_variation(p, q))
    script = canonical_chsh_script()
    [[er_dist]] = accessible_distributions([er], [script])
    sweep = {}
    for lam, pair in zip((0.3, 0.6, 0.9), epr_pairs(2, 2, [0.3, 0.6, 0.9], seed=0)):
        [[dist]] = accessible_distributions([pair], [script])
        sweep[lam] = total_variation(dist, er_dist)
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
    pairs = epr_pairs([2, 3], 2, 0.0, seed=0)
    worst = max(
        channel_size_check(pairs, canonical_chsh_script()),
        channel_size_check(pairs, load_bundled_script("zx")),
        channel_size_check(pairs, load_bundled_script("adaptive_bob")),
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
    pairs = [singlet_density(), *epr_pairs(2, 2, [0.0, 0.8], seed=0)]
    worst = max(no_signaling_check(pair, variants, bob) for pair in pairs)
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
    pair = singlet_density()
    exact = exact_chsh(pair).s_abs
    good = 0
    for seed in range(100):
        res = sample_chsh(pair, CHSHConfig(trials=10**4, seed=seed))
        if abs(res.s_abs - exact) <= 5 * res.standard_error:
            good += 1
    elapsed = time.perf_counter() - t0
    check(
        "criterion 7: sampled statistic within 5 standard errors in >= 99 of 100 runs",
        good >= 99 and elapsed < 120.0,
        f"({good}/100, {elapsed:.3f}s)",
    )


def live_posts_are_states(probs: np.ndarray, posts: np.ndarray) -> bool:
    """Whether every post-state of an outcome above :data:`PROB_FLOOR` is a density matrix."""
    try:
        check_density_stack(posts[probs > PROB_FLOOR])
    except ValueError:
        return False
    return True


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
        probs, posts = apply_instrument(inst, target, rho.matrix[None])
        probs, posts = probs[:, 0], posts[:, 0]
        if abs(sum(probs.tolist()) - 1.0) > 1e-10:
            failures.append(f"{i}: probabilities do not sum to 1")
        # the kernel leaves post-states unchecked: every above-floor outcome's must be a state
        if not live_posts_are_states(probs, posts):
            failures.append(f"{i}: invalid post-state")
        if n_out >= 2:
            cut = int(rng.integers(1, n_out))
            part = CoarseGrainingPartition(
                (
                    ("g0", tuple(str(k) for k in range(cut))),
                    ("g1", tuple(str(k) for k in range(cut, n_out))),
                )
            )
            merged_inst = coarse_grain(inst, part)
            merged, merged_posts = apply_instrument(merged_inst, target, rho.matrix[None])
            p0 = sum(p for o, p in zip(inst.outcomes, probs.tolist()) if int(o) < cut)
            if abs(merged[0, 0] - p0) > 1e-10:
                failures.append(f"{i}: coarse-graining broke additivity")
            if not live_posts_are_states(merged[:, 0], merged_posts[:, 0]):
                failures.append(f"{i}: invalid coarse-grained post-state")
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
