"""Tests for pair delivery from a run's worlds, against brute-force oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locclab import (
    TSIRELSON_BOUND,
    CapacityError,
    DensityMatrix,
    canonical_chsh_script,
    epr_pairs,
    indistinguishability_sweep,
    purity,
    singlet_density,
    trace_distance,
)
from locclab import worlds
from locclab.cli import EXIT_OK, main
from locclab.worlds import QUBIT_CAP

import oracles
from helpers import random_hermitian


def dense_rest(terms):
    """The rest Hamiltonian on all rest qubits, assembled by the oracle."""
    return oracles.rest_hamiltonian(list(terms))


def coherence(terms, q_dim, lam, t):
    """The pair coherence ``c`` of one world with rest ``terms``, by the package's kernel."""
    terms = np.asarray(terms, dtype=complex)
    return complex(worlds._coherences(terms, np.array([q_dim]), np.array([lam], float), t)[0])


def idle_coherence(qbar_dim, lam, t, q_dim=2):
    """``c`` of a world whose rest qubits have zero Hamiltonian terms."""
    return coherence(np.zeros((qbar_dim, 2, 2)), q_dim, lam, t)


class TestErWorld:
    def test_delivers_exact_singlet(self):
        # the ER pair is one object per process, the singlet built from the oracle's vector
        pair = singlet_density()
        assert singlet_density() is pair
        v = oracles.singlet_vector()
        assert np.max(np.abs(pair.matrix - np.outer(v, v.conj()))) == 0.0
        assert abs(purity(pair) - 1.0) < 1e-10


class TestEprConstruction:
    def test_zero_coupling_term_is_exactly_zero(self):
        # both carrier branches then see the same rest Hamiltonian, so every
        # overlap is a squared norm: 1 to rounding
        c = coherence(worlds._rest_terms(1, 3), 2, 0.0, 1.0)
        assert abs(c - 1.0) < 1e-14
        [pair] = epr_pairs(2, 1, 0.0, seed=3)
        assert pair.matrix[1, 2] == -0.5 * c

    def test_assembled_hamiltonian_is_hermitian(self):
        for seed in range(5):
            terms = worlds._rest_terms(2, seed)
            assert terms.shape == (2, 2, 2)
            for term in terms:
                assert np.max(np.abs(term - term.conj().T)) < 1e-10
            h = dense_rest(terms)
            assert np.max(np.abs(h - h.conj().T)) < 1e-10

    def test_capacity_error(self):
        # the cap counts every qubit: 2 boundary + channel + rest
        assert QUBIT_CAP == 14
        with pytest.raises(CapacityError):
            epr_pairs(8, 8, 0.1, seed=0)
        with pytest.raises(CapacityError, match=r"15 qubits .* cap of 14 qubits \(dimension 16384\)"):
            epr_pairs(2, QUBIT_CAP - 3, 0.1, seed=0)
        assert len(epr_pairs(2, QUBIT_CAP - 4, 0.1, seed=0)) == 1
        # a run is refused by its largest world
        with pytest.raises(CapacityError, match=r"^world of 15 qubits \(2 boundary \+ 3 channel"):
            epr_pairs([2, 3], QUBIT_CAP - 4, 0.1, seed=0)

    def test_capacity_is_decided_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(worlds, "_rest_terms", lambda *args: draws.append(args))
        with pytest.raises(CapacityError, match=r"^world of 100000000000004 qubits "):
            epr_pairs(2, 10**14, 0.0, seed=0)
        assert draws == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            epr_pairs(1, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            epr_pairs(2, 0, 0.0, seed=0)
        with pytest.raises(ValueError):
            epr_pairs(2, 1, -0.5, seed=0)
        with pytest.raises(ValueError):
            epr_pairs(2, 1, math.nan, seed=0)
        with pytest.raises(ValueError):
            epr_pairs(2, 1, 0.5, seed=0, evolution_time=math.inf)
        # every world of a run is checked, not the first alone
        with pytest.raises(ValueError, match="q_dim >= 2 to carry the pair, got 1"):
            epr_pairs([2, 1], 1, 0.0, seed=0)
        with pytest.raises(ValueError, match="lambda must be finite and >= 0, got inf"):
            epr_pairs(2, 1, [0.0, 0.5, math.inf, math.nan], seed=0)

    def test_rest_hamiltonian_entries_bounded(self):
        terms = worlds._rest_terms(3, 11)
        for term in terms:
            assert np.max(np.abs(term)) <= 1.0
        assert np.max(np.abs(dense_rest(terms))) <= 3.0 + 1e-12

    def test_rest_terms_drawn_in_documented_order(self):
        # per rest qubit: a, d from U(-1, 1), then x, y from U(-0.7, 0.7)
        terms = worlds._rest_terms(2, 17)
        rng = np.random.default_rng(17)
        assert terms.shape == (2, 2, 2) and terms.dtype == complex
        for term in terms:
            a, d = rng.uniform(-1.0, 1.0, size=2)
            x, y = rng.uniform(-0.7, 0.7, size=2)
            assert np.array_equal(term, [[a, x + 1j * y], [x - 1j * y, d]])

    @staticmethod
    def per_qubit_rest_terms(qbar_dim, seed):
        """The reference draw: per rest qubit, a, d from U(-1, 1), then x, y from U(-0.7, 0.7)."""
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(qbar_dim):
            a, d = rng.uniform(-1.0, 1.0, size=2)
            x, y = rng.uniform(-0.7, 0.7, size=2)
            terms.append(np.array([[a, x + 1j * y], [x - 1j * y, d]], dtype=complex))
        return np.reshape(terms, (-1, 2, 2))

    def test_rest_terms_equal_the_per_qubit_draw_bit_for_bit(self):
        seeds = [*range(200), *(2**64 - 1 + k for k in range(100)), 2**128 - 1, 2**100 + 7]
        for seed in seeds:
            qbar_dim = 1 + seed % 10
            expected = self.per_qubit_rest_terms(qbar_dim, seed)
            assert worlds._rest_terms(qbar_dim, seed).tobytes() == expected.tobytes(), seed

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), qbar_dim=st.integers(1, 10))
    def test_rest_terms_equal_the_per_qubit_draw_at_any_seed(self, seed, qbar_dim):
        expected = self.per_qubit_rest_terms(qbar_dim, seed)
        assert worlds._rest_terms(qbar_dim, seed).tobytes() == expected.tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), qbar_dim=st.integers(1, 10))
    def test_rest_terms_equal_one_generator_uniform_call(self, seed, qbar_dim):
        # the earlier draw, one uniform call with per-column bounds, bit for bit
        draws = np.random.default_rng(seed).uniform(
            [-1, -1, -0.7, -0.7], [1, 1, 0.7, 0.7], size=(qbar_dim, 4))
        a, d, x, y = draws.T
        expected = np.stack([a, x + 1j * y, x - 1j * y, d], axis=-1).reshape(-1, 2, 2)
        assert worlds._rest_terms(qbar_dim, seed).tobytes() == expected.tobytes()

    def test_rest_terms_are_read_only(self):
        # one array serves every world of a run
        terms = worlds._rest_terms(2, 3)
        with pytest.raises(ValueError):
            terms[0, 0, 0] = 2.0


class TestDeliverPair:
    def test_zero_coupling_gives_singlet_any_channel_size(self):
        pairs = epr_pairs([2, 3, 4], 2, 0.0, seed=9)
        for pair in pairs:
            assert trace_distance(pair, singlet_density()) <= 1e-10
        states = [pair.matrix for pair in pairs]
        assert np.array_equal(states[0], states[1])
        assert np.array_equal(states[1], states[2])

    def test_zero_coupling_independent_of_rest_hamiltonian_oracle_path(self):
        # decoupling through the full simulation, not the factored fast path
        reference = None
        for seed in (1, 2, 3):
            pair = oracles.dense_world_pair(dense_rest(worlds._rest_terms(2, seed)), 2, 2, 0.0, 1.0)
            assert np.max(np.abs(pair - singlet_density().matrix)) < 1e-10
            if reference is not None:
                assert np.max(np.abs(pair - reference)) < 1e-10
            reference = pair

    @pytest.mark.parametrize(
        "q_dim,qbar_dim,lam,seed",
        [(2, 2, 0.8, 5), (2, 1, 0.3, 1), (3, 2, 0.6, 7), (2, 3, 1.1, 2), (4, 2, 0.5, 4)],
    )
    def test_matches_brute_force_dense_oracle(self, q_dim, qbar_dim, lam, seed):
        [pair] = epr_pairs(q_dim, qbar_dim, lam, seed=seed)
        h_rest = dense_rest(worlds._rest_terms(qbar_dim, seed))
        oracle = oracles.dense_world_pair(h_rest, q_dim, qbar_dim, lam, 1.0)
        assert np.max(np.abs(pair.matrix - oracle)) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        q_dim=st.integers(2, 4),
        qbar_dim=st.integers(1, 3),
        lam=st.floats(0.0, 2.0),
        t=st.floats(0.0, 2.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle_everywhere(self, q_dim, qbar_dim, lam, t, seed):
        [pair] = epr_pairs(q_dim, qbar_dim, lam, seed=seed, evolution_time=t)
        h_rest = dense_rest(worlds._rest_terms(qbar_dim, seed))
        oracle = oracles.dense_world_pair(h_rest, q_dim, qbar_dim, lam, t)
        assert np.max(np.abs(pair.matrix - oracle)) < 1e-12

    def test_world_beyond_dense_reach(self):
        # 2 boundary + 3 channel + 12 rest qubits: 2**17 dimensions, past the
        # cap of epr_pairs and far past the dense oracle
        rng = np.random.default_rng(12)
        terms = np.stack([random_hermitian(rng, 1) for _ in range(12)])
        for lam in (0.0, 0.3, 1.7):
            c = coherence(terms, 3, lam, 1.0)
            pair = DensityMatrix(oracles.dephased_singlet(c))
            # |c| <= 1 up to the rounding of a 12-factor product
            assert abs(c) <= 1.0 + 1e-12
            if lam == 0.0:
                assert np.max(np.abs(pair.matrix - singlet_density().matrix)) < 1e-12
            else:
                assert purity(pair) < 1.0 - 1e-6

    def test_redelivery_gives_the_same_bytes(self, monkeypatch):
        # nothing is cached between calls: each delivery computes its pairs afresh
        calls = []
        kernel = worlds._coherences

        def spy(terms, q_dims, lams, t):
            calls.append(len(q_dims))
            return kernel(terms, q_dims, lams, t)

        monkeypatch.setattr(worlds, "_coherences", spy)
        [first] = [p.matrix.tobytes() for p in epr_pairs(2, 2, 0.4, seed=1)]
        assert [p.matrix.tobytes() for p in epr_pairs(2, 2, 0.4, seed=1)] == [first]
        assert [p.matrix.tobytes() for p in epr_pairs(2, 2, [0.4, 0.4], seed=1)] == [first] * 2
        assert calls == [1, 1, 2]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(2, 4),
                st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 3.0)),
            ),
            min_size=1, max_size=8,
        ),
        qbar_dim=st.integers(1, 7),
        t=st.floats(0.05, 20.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_stacked_delivery_has_the_bits_of_delivery_alone(self, specs, qbar_dim, t, seed):
        # one coherence stack of one run, mixing channel sizes and couplings
        q_dims, lams = (np.array(column) for column in zip(*specs))
        terms = worlds._rest_terms(qbar_dim, seed)
        alone = [coherence(terms, q, lam, t) for q, lam in specs]
        assert worlds._coherences(terms, q_dims, lams, t).tobytes() == np.array(alone).tobytes()
        # one delivery call, against each world delivered on its own
        pairs = epr_pairs(q_dims, qbar_dim, lams, seed, evolution_time=t)
        for (q, lam), pair in zip(specs, pairs, strict=True):
            [own] = epr_pairs(q, qbar_dim, lam, seed, evolution_time=t)
            assert pair.matrix.tobytes() == own.matrix.tobytes()

    def test_q_dims_and_lams_broadcast(self):
        [one] = epr_pairs(3, 2, 0.4, seed=1)
        pairs = [epr_pairs([3, 3], 2, 0.4, seed=1), epr_pairs(3, 2, [0.4, 0.4], seed=1),
                 epr_pairs([3, 3], 2, [0.4, 0.4], seed=1)]
        assert [[p.matrix.tobytes() for p in run] for run in pairs] == [[one.matrix.tobytes()] * 2] * 3
        with pytest.raises(ValueError):
            epr_pairs([2, 3], 2, [0.1, 0.2, 0.3], seed=1)

    def test_coupling_decoheres(self):
        [pair] = epr_pairs(2, 2, 0.8, seed=5)
        assert purity(pair) < 1.0 - 1e-6

    def test_decoherence_detectable_iff_coupled(self):
        for seed in (0, 1):
            for pair in epr_pairs(2, 2, [0.1, 0.4, 0.9], seed=seed):
                assert purity(pair) < 1.0 - 1e-6
        [pair] = epr_pairs(2, 2, 0.0, seed=0)
        assert abs(purity(pair) - 1.0) < 1e-12

    def test_closed_form_with_idle_rest(self):
        # with the rest Hamiltonian zero, each rest qubit contributes a
        # cos(lam*t) factor to the pair coherence
        for qbar_dim, lam, t in ((1, 0.7, 1.0), (2, 0.45, 1.3), (3, 1.2, 0.5)):
            ours = oracles.dephased_singlet(idle_coherence(qbar_dim, lam, t))
            expected = oracles.dephased_singlet(math.cos(lam * t) ** qbar_dim)
            assert np.max(np.abs(ours - expected)) < 1e-10

    def test_exact_dephasing_floor(self):
        # coherence cos(lam*t) vanishes at lam*t = pi/2: maximally mixed on
        # the pair's support, purity exactly 1/2
        pair = DensityMatrix(oracles.dephased_singlet(idle_coherence(1, math.pi / 2, 1.0)))
        assert abs(purity(pair) - 0.5) < 1e-10


class TestPairCoherence:
    """The closed-form propagator of each rest qubit, against series and dense oracles."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        q_dim=st.integers(2, 4),
        qbar_dim=st.integers(1, 3),
        lam=st.floats(0.0, 3.0),
        t=st.floats(0.0, 3.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_series_and_dense_oracles(self, q_dim, qbar_dim, lam, t, seed):
        # random Hermitian terms, wider than epr_pairs draws
        rng = np.random.default_rng(seed)
        terms = np.stack([random_hermitian(rng, 1) for _ in range(qbar_dim)])
        c = coherence(terms, q_dim, lam, t)
        assert abs(c - oracles.coherence_by_series(terms, q_dim, lam, t)) < 1e-12
        dense = oracles.dense_world_pair(dense_rest(terms), q_dim, qbar_dim, lam, t)
        assert abs(c - (-2 * dense[1, 2])) < 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_factor_per_rest_qubit(self, n):
        # the (world, branch, rest qubit) arrays give each rest qubit the factor
        # its one-qubit world gives, bit for bit
        rng = np.random.default_rng(15 + n)
        terms = np.stack([random_hermitian(rng, 1) for _ in range(n)])
        product = 1
        for term in terms:
            product *= coherence(term[None], 3, 0.8, 0.9)
        assert coherence(terms, 3, 0.8, 0.9) == product

    def test_diagonal_rest_terms_dephase_like_idle_ones(self):
        # a diagonal term adds the same phase and the same Z field to both
        # branches, so each factor is cos(lam t), as with no rest term at all
        rng = np.random.default_rng(7)
        for qbar_dim, lam, t in ((1, 0.7, 1.0), (2, 0.45, 1.3), (3, 1.2, 0.5)):
            terms = np.stack([np.diag(rng.uniform(-1, 1, size=2)) for _ in range(qbar_dim)])
            assert abs(coherence(terms, 2, lam, t) - math.cos(lam * t) ** qbar_dim) < 1e-14

    def test_branch_states_stay_normalized(self):
        # at zero coupling both branches are one state: its squared norm is c
        rng = np.random.default_rng(8)
        for _ in range(20):
            terms = np.stack([4 * random_hermitian(rng, 1) for _ in range(3)])
            t = float(rng.uniform(0, 5))
            assert abs(coherence(terms, 2, 0.0, t) - 1.0) < 1e-14
            assert abs(coherence(terms, 2, 2.0, t)) <= 1.0 + 1e-14

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_zero_norm_rest_term(self, t):
        # at lam = 1 and q_dim = 2 the branch fields are +1/2 and -1/2, so
        # diag(0.2, 1.2) = 0.7 I - Z/2 leaves branch 01 with n = 0: it idles
        # in |+>, branch 10 turns under n = (0, 0, -1), and c = cos(t)
        terms = np.array([np.diag([0.2, 1.2])])
        with np.errstate(all="raise"):
            c = coherence(terms, 2, 1.0, t)
        assert abs(c - math.cos(t)) < 1e-15
        assert abs(c - oracles.coherence_by_series(terms, 2, 1.0, t)) < 1e-12
        # both branches at n = 0: nothing turns, and c is 1 exactly
        with np.errstate(all="raise"):
            assert coherence(np.eye(2)[None] * 0.3, 2, 0.0, t) == 1.0

    def test_huge_coupling_stays_finite(self, tmp_path, capsys):
        # |n| from nested hypot: no square of a 1e300 field is formed
        for seed in range(4):
            c = coherence(worlds._rest_terms(2, seed), 3, 1e300, 1.0)
            assert math.isfinite(c.real) and math.isfinite(c.imag) and abs(c) <= 1.0
        out = tmp_path / "payload.json"
        argv = ["chsh", "--seed", "1", "--mode", "epr", "--lambda", "1e300", "--exact"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["results"]["result"]["s_abs"] <= TSIRELSON_BOUND


def purity_profile(grid, q_dim=2, qbar_dim=2, seed=0, evolution_time=1.0):
    """The sweep's ``pair_purity`` column over ``grid`` for the canonical CHSH script."""
    pairs = epr_pairs(q_dim, qbar_dim, grid, seed, evolution_time=evolution_time)
    rows = indistinguishability_sweep(grid, pairs, canonical_chsh_script())
    assert [row.lam for row in rows] == grid
    return [row.pair_purity for row in rows]


class TestPurityProfile:
    def test_single_zero_grid(self):
        assert purity_profile([0.0], qbar_dim=1) == [pytest.approx(1.0, abs=1e-10)]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            purity_profile([])
        with pytest.raises(ValueError):
            purity_profile([0.0, 0.5, 0.5])

    def test_strictly_decreasing_in_regime(self):
        values = purity_profile([0.0, 0.4, 0.8], q_dim=2, qbar_dim=2, seed=3, evolution_time=0.5)
        assert abs(values[0] - 1.0) < 1e-10
        assert values[0] > values[1] > values[2]

    def test_profile_matches_dense_oracle(self):
        grid = [0.0, 0.5, 1.0]
        values = purity_profile(grid, qbar_dim=2, seed=6, evolution_time=0.5)
        h_rest = dense_rest(worlds._rest_terms(2, 6))
        for lam, p in zip(grid[1:], values[1:]):
            pair = oracles.dense_world_pair(h_rest, 2, 2, lam, 0.5)
            assert abs(p - float(np.trace(pair @ pair).real)) < 1e-10

    def test_large_coupling_approaches_half_purity_floor(self):
        grid = [0.0] + [1.2 + 0.15 * k for k in range(12)]
        values = purity_profile(grid, q_dim=2, qbar_dim=2, seed=1)
        assert min(values) >= 0.5 - 1e-9
        assert min(values) < 0.56
