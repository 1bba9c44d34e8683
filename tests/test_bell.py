"""Tests for CHSH machinery: exact values, sampling, determinism."""

import concurrent.futures
import contextlib
import io
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from locclab import (
    CHSHConfig,
    DensityMatrix,
    EmptyCellError,
    TSIRELSON_BOUND,
    epr_pairs,
    exact_chsh,
    sample_chsh,
    singlet_density,
)
from locclab import bell, instruments
from locclab.bell import BLOCK_TRIALS, TRANSCRIPT_HEADER
from locclab.cli import main
from locclab.instruments import measure_angle, projector
from locclab.protocols import ProtocolRound

import helpers
import oracles


SINGLET = singlet_density()


def observable(angle: float) -> np.ndarray:
    """The dialed observable cos(a)Z + sin(a)X, as the difference of its two projectors."""
    return projector(angle, +1) - projector(angle, -1)


def exact_correlation(pair: DensityMatrix, angle_a: float, angle_b: float) -> float:
    """``Tr(rho O(angle_a) (x) O(angle_b))``, one at a time: the reference for ``exact_chsh``.

    ``sum_abcd rho[ab, cd] O_a[c, a] O_b[d, b]``, one term at a time in
    ascending ``a, b, c, d``: the contraction order of ``exact_chsh``.
    """
    oa, ob = (
        [[math.cos(x), math.sin(x)], [math.sin(x), -math.cos(x)]] for x in (angle_a, angle_b)
    )
    rho = pair.matrix.reshape(2, 2, 2, 2)
    total = 0j
    for a, b, c, d in product(range(2), repeat=4):
        total += rho[a, b, c, d] * oa[c][a] * ob[d][b]
    return total.real


def sampled_transcript(pair, config: CHSHConfig, parallel_width: int = 1):
    """``sample_chsh``'s result (None if a setting pair stays empty) and the bytes it wrote."""
    out = io.BytesIO()
    try:
        res = sample_chsh(pair, config, parallel_width, out)
    except EmptyCellError:
        res = None
    return res, out.getvalue()


def rows_of(trials, codes) -> np.ndarray:
    """Transcript rows ``(trial, x, y, a, b)`` of the outcome codes ``8x + 4y + 2i + j``."""
    c = np.asarray(codes, dtype=np.int64)
    return np.column_stack([trials, c >> 3, c >> 2 & 1, 1 - 2 * (c >> 1 & 1), 1 - 2 * (c & 1)])


def formatted(trials, codes) -> str:
    """The text of ``bell._format_rows`` under the transcript header."""
    parts = bell._format_rows(np.asarray(trials, dtype=np.int64), np.asarray(codes, dtype=np.int64))
    return TRANSCRIPT_HEADER + "\n" + b"".join(parts).decode("ascii")


class TestObservable:
    def test_zero_angle_is_z(self):
        assert_allclose(observable(0.0), np.diag([1.0, -1.0]), atol=1e-15)

    def test_right_angle_is_x(self):
        assert_allclose(observable(math.pi / 2), np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_diagonal_angle_eigenvalues(self):
        obs = observable(math.pi / 4)
        assert_allclose(obs, (np.diag([1.0, -1.0]) + np.array([[0, 1], [1, 0]])) / math.sqrt(2), atol=1e-15)
        assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=1e-12)


class TestExactCorrelation:
    """Single correlations of ``exact_chsh`` on the singlet."""

    def test_aligned_settings_anticorrelate(self):
        assert abs(exact_chsh(SINGLET, CHSHConfig(a=0.0, b=0.0)).e_ab + 1.0) < 1e-12

    def test_orthogonal_settings_uncorrelated(self):
        assert abs(exact_chsh(SINGLET, CHSHConfig(a=0.0, b=math.pi / 2)).e_ab) < 1e-12

    def test_closed_form_on_random_angles(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ta, tb = (float(x) for x in rng.uniform(-math.pi, math.pi, size=2))
            got = exact_chsh(SINGLET, CHSHConfig(a=ta, a_prime=tb, b=tb, b_prime=ta)).correlations
            pairs = ((ta, tb), (ta, ta), (tb, tb), (tb, ta))
            want = [oracles.singlet_correlation(x, y) for x, y in pairs]
            assert_allclose(got, want, rtol=0, atol=1e-10)


class TestExactChsh:
    def test_singlet_reaches_quantum_maximum(self):
        res = exact_chsh(SINGLET)
        assert abs(res.s_abs - TSIRELSON_BOUND) < 1e-10
        assert res.standard_error == 0.0
        assert abs(res.tsirelson_gap) < 1e-10

    def test_product_state_gives_sqrt_two(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        res = exact_chsh(DensityMatrix(np.outer(v, v)))
        oracle = abs(oracles.chsh_from_correlation(oracles.product_00_correlation))
        assert abs(oracle - math.sqrt(2)) < 1e-12
        assert abs(res.s_abs - math.sqrt(2)) < 1e-10

    def test_maximally_mixed_gives_zero(self):
        res = exact_chsh(DensityMatrix(np.eye(4, dtype=complex) / 4))
        assert abs(res.s_abs) < 1e-12
        for e in res.correlations:
            assert abs(e) < 1e-12

    def test_quantum_bound_is_a_hard_ceiling(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            rho = helpers.random_density(rng)
            angles = rng.uniform(-math.pi, math.pi, size=4)
            cfg = CHSHConfig(*[float(a) for a in angles], trials=1, seed=0)
            res = exact_chsh(rho, cfg)
            assert res.s_abs <= TSIRELSON_BOUND + 1e-9

    def test_monotone_decoherence_in_coupling(self):
        pairs = epr_pairs(2, 2, np.linspace(0.0, 1.2, 9), seed=4)
        values = [exact_chsh(pair).s_abs for pair in pairs]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_common_frame_rotation_invariance(self):
        # singlet correlations depend only on angle differences
        rng = np.random.default_rng(3)
        for _ in range(10):
            delta = float(rng.uniform(-math.pi, math.pi))
            base = CHSHConfig()
            shifted = CHSHConfig(
                a=base.a + delta,
                a_prime=base.a_prime + delta,
                b=base.b + delta,
                b_prime=base.b_prime + delta,
            )
            assert abs(exact_chsh(SINGLET, base).s_abs - exact_chsh(SINGLET, shifted).s_abs) < 1e-10

    def test_each_correlation_is_exact_correlation_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = helpers.random_density(rng)
            cfg = CHSHConfig(*[float(a) for a in rng.uniform(-math.pi, math.pi, size=4)])
            expected = [exact_correlation(rho, x, y) for x in cfg.alice_angles()
                        for y in cfg.bob_angles()]
            assert [e.hex() for e in exact_chsh(rho, cfg).correlations] == [
                e.hex() for e in expected
            ]


class TestSampling:
    def test_er_world_converges_to_quantum_maximum(self):
        res = sample_chsh(SINGLET, CHSHConfig(trials=10**5, seed=7))
        assert abs(res.s_abs - TSIRELSON_BOUND) <= 5 * res.standard_error

    def test_single_trial_raises_empty_cell(self):
        with pytest.raises(EmptyCellError) as err:
            sample_chsh(SINGLET, CHSHConfig(trials=1, seed=0))
        assert "(" in str(err.value)  # names the empty setting pair

    def test_zero_coupling_transcript_identical_to_er(self):
        cfg = CHSHConfig(trials=20000, seed=7)
        res_er, t_er = sampled_transcript(SINGLET, cfg)
        res_epr, t_epr = sampled_transcript(epr_pairs(2, 2, 0.0, seed=123)[0], cfg)
        assert t_er == t_epr and len(t_er.splitlines()) == cfg.trials + 1
        assert res_er == res_epr

    def test_parallel_widths_agree_bitwise(self):
        cfg = CHSHConfig(trials=3 * B + 7, seed=13)
        one = sampled_transcript(SINGLET, cfg, parallel_width=1)
        for width in (2, 3, 8):
            assert sampled_transcript(SINGLET, cfg, parallel_width=width) == one

    def test_setting_choice_uniformity(self):
        cfg = CHSHConfig(trials=40000, seed=21)
        t = helpers.transcript_rows(sampled_transcript(SINGLET, cfg)[1])
        counts = np.zeros((2, 2))
        np.add.at(counts, (t[:, 1], t[:, 2]), 1)
        bound = 5 * math.sqrt(cfg.trials * 3 / 16)
        assert np.all(np.abs(counts - cfg.trials / 4) <= bound)

    def test_convergence_across_seeds(self):
        exact = exact_chsh(SINGLET).s_abs
        good = 0
        for seed in range(20):
            res = sample_chsh(SINGLET, CHSHConfig(trials=10**4, seed=seed))
            if abs(res.s_abs - exact) <= 5 * res.standard_error:
                good += 1
        assert good >= 19

    def test_sampled_statistic_respects_noise_allowance(self):
        res = sample_chsh(SINGLET, CHSHConfig(trials=5000, seed=2))
        assert res.s_abs <= TSIRELSON_BOUND + 5 * res.standard_error


class TestEstimates:
    def test_measurement_setting_validation(self):
        assert ProtocolRound("A", measure_angle(0.3)).party == "A"
        for angle in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                measure_angle(angle)
        with pytest.raises(ValueError):
            ProtocolRound("X", measure_angle(0.0))

    def test_classical_bound_visibility(self):
        # all four settings aligned: E = -1 everywhere, so |S| = 2
        res = exact_chsh(SINGLET, CHSHConfig(a=0.0, a_prime=0.0, b=0.0, b_prime=0.0))
        assert abs(res.s_abs - 2.0) < 1e-10

    def test_transcript_format(self):
        _, text = sampled_transcript(SINGLET, CHSHConfig(trials=12, seed=1))
        lines = text.decode("ascii").strip().split("\n")
        assert lines[0] == TRANSCRIPT_HEADER
        assert len(lines) == 13
        parts = lines[1].split()
        assert len(parts) == 5
        assert int(parts[0]) == 0
        assert int(parts[3]) in (-1, 1)


B = BLOCK_TRIALS
C = bell._CHUNK_TRIALS
[EPR_PAIR] = epr_pairs(3, 2, 0.7, seed=5)
#: 9 and 10, 99 and 100, ..., 10**18 - 1: the last and first trial number of each digit count.
POWER_OF_TEN_EDGES = [10**k + d for k in range(1, 19) for d in (-1, 0) if 10**k + d < 10**18]


def block_codes(start: int, stop: int, seed: int, a_t, b_t) -> np.ndarray:
    """``bell._block_codes`` of trials [start, stop) as one array, its chunks checked for length."""
    chunks = list(bell._block_codes(start, stop, seed, a_t, b_t))
    assert [len(c) for c in chunks] == [min(C, stop - lo) for lo in range(start, stop, C)]
    assert all(c.dtype == np.uint8 for c in chunks)
    return np.concatenate(chunks) if chunks else np.zeros(0, np.uint8)


class TestBlockSampler:
    """The fixed-block sampler against row-at-a-time oracles and its own transcript."""

    @pytest.mark.parametrize(
        "trials", [1, 10, 11, 12, C - 1, C, C + 1, B - 1, B, B + 1, B + C + 1, 100001, 3 * B + 7]
    )
    def test_export_matches_row_oracle(self, trials):
        cfg = CHSHConfig(trials=trials, seed=trials % 5)
        res, text = sampled_transcript(EPR_PAIR, cfg)
        assert res is not None or trials < 12
        t = helpers.transcript_rows(text)
        assert t[:, 0].tolist() == list(range(trials))
        assert text == oracles.format_transcript_rows(t).encode("ascii")
        a_plus, b_plus = bell._outcome_thresholds(EPR_PAIR, cfg)
        head = t[:300]
        codes = 8 * head[:, 1] + 4 * head[:, 2] + 2 * (head[:, 3] < 0) + (head[:, 4] < 0)
        assert codes.tolist() == oracles.sampled_codes(cfg.seed, range(len(head)), a_plus, b_plus)

    @pytest.mark.parametrize("p", [-1e-17, 0.0, 5e-324, 2**-53, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52])
    def test_block_codes_match_per_trial_oracle(self, p):
        a_plus = np.array([p, 0.25, p, 0.75])
        b_plus = np.array([0.5, p, p, 0.2, 0.8, p, p, 0.6])
        a_t, b_t = bell._word_thresholds(a_plus), bell._word_thresholds(b_plus)
        blocks = [block_codes(start, start + B, 9, a_t, b_t) for start in (0, B)]
        edge = [*blocks[0][-1:], *blocks[1][:2]]
        astride = block_codes(B - 1, B + 2, 9, a_t, b_t)
        want = oracles.sampled_codes(9, [B - 1, B, B + 1], a_plus, b_plus)
        assert edge == astride.tolist() == want
        first = block_codes(0, 200, 9, a_t, b_t)
        assert first.tolist() == oracles.sampled_codes(9, range(200), a_plus, b_plus)
        # a range that starts inside a block and straddles its first two chunk edges
        straddle = block_codes(B - 2, B + 2 * C, 9, a_t, b_t)
        assert straddle[: C + 4].tolist() == blocks[0][-2:].tolist() + blocks[1][: C + 2].tolist()
        for k in (C, 2 * C):  # two codes each side of a chunk edge of the range
            want = oracles.sampled_codes(9, range(B - 4 + k, B + k), a_plus, b_plus)
            assert straddle[k - 2 : k + 2].tolist() == want

    def test_block_codes_match_per_trial_oracle_on_a_world(self):
        a_plus, b_plus = bell._outcome_thresholds(EPR_PAIR, CHSHConfig())
        a_t, b_t = bell._word_thresholds(a_plus), bell._word_thresholds(b_plus)
        got = block_codes(B - 300, B + 300, 4, a_t, b_t)
        assert got.tolist() == oracles.sampled_codes(4, range(B - 300, B + 300), a_plus, b_plus)

    def test_word_thresholds_at_the_edges(self):
        p = np.array([-1e-17, 0.0, 5e-324, 2**-53, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52])
        assert bell._word_thresholds(p).tolist() == [0, 0, 1, 1, 2**52, 2**53 - 1, 2**53, 2**53]

    def test_export_of_a_slice(self):
        thresholds = bell._outcome_thresholds(SINGLET, CHSHConfig())
        codes = block_codes(0, 120, 3, *map(bell._word_thresholds, thresholds))
        trials = np.arange(120)
        t = rows_of(trials, codes)
        assert formatted(trials[7:103], codes[7:103]) == oracles.format_transcript_rows(t[7:103])
        assert bell._format_rows(trials[:0], codes[:0]) == []
        assert formatted(trials[:0], codes[:0]) == TRANSCRIPT_HEADER + "\n"

    @given(data=st.data())
    @example(data=None)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_export_matches_row_oracle_on_any_trial_column(self, data):
        if data is None:  # every power-of-ten edge at once, each side of it, twice
            column = sorted(2 * [0, *POWER_OF_TEN_EDGES])
            codes = np.arange(len(column)) % 16
        else:
            trial = st.one_of(st.sampled_from([0, *POWER_OF_TEN_EDGES]), st.integers(0, 10**18 - 1))
            column = sorted(data.draw(st.lists(trial, max_size=40), label="trials"))
            code = st.integers(0, 15)
            n = len(column)
            codes = np.array(data.draw(st.lists(code, min_size=n, max_size=n), label="codes"), int)
        assert formatted(column, codes) == oracles.format_transcript_rows(rows_of(column, codes))

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("pair", [SINGLET, EPR_PAIR], ids=["er", "epr"])
    def test_streamed_estimate_equals_transcript_estimate(self, pair, width):
        cfg = CHSHConfig(trials=3 * B + 7, seed=width)
        res, text = sampled_transcript(pair, cfg, parallel_width=width)
        assert text == sampled_transcript(pair, cfg)[1]
        assert res == sample_chsh(pair, cfg, parallel_width=width)
        t = helpers.transcript_rows(text)
        counts, products = oracles.chsh_counts(t)
        cells = ((0, 0), (0, 1), (1, 0), (1, 1))
        e = [products[x][y] / counts[x][y] for x, y in cells]
        assert list(res.correlations) == e
        se = math.sqrt(sum((1 - ex**2) / counts[x][y] for ex, (x, y) in zip(e, cells)))
        assert math.isclose(res.standard_error, se, rel_tol=1e-12)

    @pytest.mark.parametrize("pair", [SINGLET, EPR_PAIR], ids=["er", "epr"])
    def test_transcript_holds_only_settings_and_outcomes(self, pair):
        _, text = sampled_transcript(pair, CHSHConfig(trials=B + 5, seed=8))
        t = helpers.transcript_rows(text)
        assert set(t[:, 1]) == set(t[:, 2]) == {0, 1}
        assert set(t[:, 3]) == set(t[:, 4]) == {-1, 1}

    def test_memory_independent_of_trial_count(self):
        sample_chsh(SINGLET, CHSHConfig(trials=2 * B, seed=1), 2)  # warm caches and imports
        for width, export, trials in product((1, 2), (False, True), (3 * B + 7, 12 * B + C + 1)):
            # per worker: three times a chunk's Philox words (1.5 MiB at 2**14 trials a chunk),
            # and when exporting one block of rows of 6-digit trial numbers, 17 B each
            bound = width * (3 * 32 * C + (17 * B if export else 0))
            with open(os.devnull, "wb") if export else contextlib.nullcontext() as sink:
                tracemalloc.start()
                try:
                    res = sample_chsh(SINGLET, CHSHConfig(trials=trials, seed=1), width, sink)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert abs(res.s_abs - TSIRELSON_BOUND) <= 5 * res.standard_error
            assert peak < bound, (width, export, trials, peak)

    @pytest.mark.parametrize("mode", ["er", "epr"])
    def test_sampled_run_applies_no_instrument(self, monkeypatch, mode):
        # the outcome table comes from the pair's moments: no instrument is
        # validated or applied, under any name a module of the package holds
        called, spied = [], set()
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "locclab"]:
            for name in ("validate_instrument", "apply_instrument"):
                if hasattr(module, name):

                    def spy(*args, fn=getattr(module, name), name=name):
                        called.append(name)
                        return fn(*args)

                    monkeypatch.setattr(module, name, spy)
                    spied.add(name)
        # a name no module holds would be spied on nowhere, and pass by construction
        assert spied == {"validate_instrument", "apply_instrument"}
        argv = ["chsh", "--mode", mode, "--trials", "1000", "--seed", "1", "--out", os.devnull]
        assert main(argv) == 0
        assert called == []

    def test_window_slides_past_a_stalled_block(self, monkeypatch):
        # block 1 waits for block 2 to start: a window that waited for all of
        # its blocks before submitting more would never start block 2
        workers, submitted, received, in_flight = 2, [], [], []
        block_two_started = threading.Event()
        stalled_until_released = []

        def fn(start):
            if start == 2:
                block_two_started.set()
            if start == 1:
                stalled_until_released.append(block_two_started.wait(timeout=10))
            return start

        class WidePool(ThreadPoolExecutor):
            """More threads than the window, so only the window bounds what runs."""

            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers=4 * max_workers, **kwargs)

            def submit(self, fn, start):
                submitted.append(start)
                in_flight.append(len(submitted) - len(received))
                return super().submit(fn, start)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", WidePool)
        for result in bell._threaded(fn, range(7), workers):
            received.append(result)
        assert received == submitted == list(range(7))
        assert stalled_until_released == [True]
        assert max(in_flight) == workers

    @pytest.mark.parametrize("trials,expected", [(3 * B, [2]), (1000, [])])
    def test_threads_clamped_to_cores_and_blocks(self, monkeypatch, trials, expected):
        seen = []

        class SpyPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code = main(["chsh", "--mode", "er", "--trials", str(trials), "--seed", "1",
                     "--parallel", "64", "--out", os.devnull])
        assert code == 0
        assert seen == expected


def reference_outcome_thresholds(pair: DensityMatrix, config: CHSHConfig) -> tuple[np.ndarray, np.ndarray]:
    """``_outcome_thresholds``' table one branch at a time: an instrument application per state."""
    a_plus, b_plus = np.zeros(4), np.zeros(8)
    for x, angle_a in enumerate(config.alice_angles()):
        alice, posts = helpers.apply_to_state(measure_angle(angle_a), pair.matrix, "q_A")
        for y, angle_b in enumerate(config.bob_angles()):
            k = 2 * x + y
            a_plus[k] = alice[0]
            for i, (p, post) in enumerate(zip(alice, posts)):
                if p > instruments.PROB_FLOOR:
                    bob, _ = helpers.apply_to_state(measure_angle(angle_b), post, "q_B")
                    b_plus[2 * k + i] = bob[0]
    return a_plus, b_plus


ANGLE = st.floats(-2 * math.pi, 2 * math.pi)


class TestOutcomeTable:
    """The sampler's outcome table from the moment table, checked against the transcript oracle."""

    def assert_matches_oracle(self, pair: DensityMatrix, config: CHSHConfig):
        a_plus, b_plus = bell._outcome_thresholds(pair, config)
        rho = np.array(pair.matrix)
        for x, angle_a in enumerate(config.alice_angles()):
            for y, angle_b in enumerate(config.bob_angles()):
                dist = oracles.transcript_distribution(rho, [(0, oracles.dial(angle_a)), (1, oracles.dial(angle_b))])
                k = 2 * x + y
                p_a = [dist[(i, "0")] + dist[(i, "1")] for i in ("0", "1")]
                assert abs(a_plus[k] - p_a[0]) <= 1e-12
                for i in (0, 1):
                    assert abs(b_plus[2 * k + i] - dist[(str(i), "0")] / p_a[i]) <= 1e-12

    def test_er_pair_matches_the_per_branch_loop(self):
        got = bell._outcome_thresholds(SINGLET, CHSHConfig())
        want = reference_outcome_thresholds(SINGLET, CHSHConfig())
        for g, w in zip(got, want):
            assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_dead_alice_branch_gives_exact_zeros(self):
        ket00 = np.zeros((4, 4), dtype=complex)
        ket00[0, 0] = 1.0
        a_plus, b_plus = bell._outcome_thresholds(DensityMatrix(ket00), CHSHConfig(a=0.0))
        # Alice's z outcome -1 has probability 0: Bob's thresholds after it are +0.0
        assert a_plus[:2].tolist() == [1.0, 1.0]
        dead = b_plus[[1, 3]]
        assert np.all(dead == 0.0) and not np.signbit(dead).any()
        assert bell._word_thresholds(dead).tolist() == [0, 0]
        # after outcome +1, Bob's qubit is |0>: P(B=+1) = (1 + cos b) / 2
        want = [(1 + math.cos(b)) / 2 for b in CHSHConfig().bob_angles()]
        assert_allclose(b_plus[[0, 2]], want, rtol=0, atol=1e-12)

    @given(
        q_dim=st.integers(2, 4),
        qbar_dim=st.integers(1, 5),
        lam=st.floats(0.0, 3.0),
        t=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**16),
        angles=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE),
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_epr_worlds_match_the_transcript_oracle(self, q_dim, qbar_dim, lam, t, seed, angles):
        [pair] = epr_pairs(q_dim, qbar_dim, lam, seed=seed, evolution_time=t)
        self.assert_matches_oracle(pair, CHSHConfig(*angles))

    @pytest.mark.parametrize("config", [CHSHConfig(), CHSHConfig(0.3, -1.2, 2.0, 0.7)], ids=["optimal", "rotated"])
    @pytest.mark.parametrize(
        "pair",
        [SINGLET, EPR_PAIR, *epr_pairs(2, 4, 2.5, seed=3, evolution_time=0.6)],
        ids=["er", "epr", "epr-strong"],
    )
    def test_thresholds_match_the_transcript_oracle(self, pair, config):
        self.assert_matches_oracle(pair, config)
