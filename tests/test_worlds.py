"""Tests for world construction and pair delivery, against brute-force oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locclab import (
    TSIRELSON_BOUND,
    CapacityError,
    build_epr_world,
    build_er_world,
    canonical_chsh_script,
    deliver_pair,
    deliver_pairs,
    indistinguishability_sweep,
    purity,
    singlet_density,
    trace_distance,
)
from locclab import worlds
from locclab.cli import EXIT_OK, main
from locclab.worlds import QUBIT_CAP, World, pair_coherence

import oracles
from helpers import random_hermitian


def dense_rest(world):
    """The world's rest Hamiltonian on all rest qubits, assembled by the oracle."""
    return oracles.rest_hamiltonian(list(world.rest_terms))


def idle_world(qbar_dim, lam, t, q_dim=2):
    """An EPR world whose rest qubits have zero Hamiltonian terms."""
    zero = np.zeros((qbar_dim, 2, 2))
    return World(mode="EPR", q_dim=q_dim, evolution_time=t, lam=lam, rest_terms=zero)


class TestErWorld:
    def test_no_channel_qubits(self):
        world = build_er_world()
        assert world.mode == "ER"
        assert world.q_dim == 0

    def test_delivers_exact_singlet(self):
        pair = deliver_pair(build_er_world())
        assert trace_distance(pair, singlet_density()) == 0.0
        assert abs(purity(pair) - 1.0) < 1e-10


class TestEprConstruction:
    def test_zero_coupling_term_is_exactly_zero(self):
        # both carrier branches then see the same rest Hamiltonian, so every
        # overlap is a squared norm: 1 to rounding
        world = build_epr_world(2, 1, 0.0, seed=3)
        assert world.lam == 0.0
        assert world.coupling_weights == (0.25, -0.25)
        assert abs(pair_coherence(world) - 1.0) < 1e-14

    def test_assembled_hamiltonian_is_hermitian(self):
        for seed in range(5):
            world = build_epr_world(2, 2, 0.7, seed=seed)
            assert world.rest_terms.shape == (world.qbar_dim, 2, 2) == (2, 2, 2)
            for term in world.rest_terms:
                assert np.max(np.abs(term - term.conj().T)) < 1e-10
            h = dense_rest(world)
            assert np.max(np.abs(h - h.conj().T)) < 1e-10

    def test_capacity_error(self):
        # the cap counts every qubit: 2 boundary + channel + rest
        assert QUBIT_CAP == 14
        with pytest.raises(CapacityError):
            build_epr_world(8, 8, 0.1, seed=0)
        with pytest.raises(CapacityError, match=r"15 qubits .* cap of 14 qubits \(dimension 16384\)"):
            build_epr_world(2, QUBIT_CAP - 3, 0.1, seed=0)
        world = build_epr_world(2, QUBIT_CAP - 4, 0.1, seed=0)
        assert 2 + world.q_dim + world.qbar_dim == QUBIT_CAP

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_epr_world(1, 1, 0.0, seed=0)
        with pytest.raises(ValueError):
            build_epr_world(2, 0, 0.0, seed=0)
        with pytest.raises(ValueError):
            build_epr_world(2, 1, -0.5, seed=0)
        with pytest.raises(ValueError):
            build_epr_world(2, 1, math.nan, seed=0)
        with pytest.raises(ValueError):
            build_epr_world(2, 1, 0.5, seed=0, evolution_time=math.inf)

    def test_rest_hamiltonian_entries_bounded(self):
        world = build_epr_world(2, 3, 0.5, seed=11)
        for term in world.rest_terms:
            assert np.max(np.abs(term)) <= 1.0
        assert np.max(np.abs(dense_rest(world))) <= 3.0 + 1e-12

    def test_rest_terms_drawn_in_documented_order(self):
        # per rest qubit: a, d from U(-1, 1), then x, y from U(-0.7, 0.7)
        world = build_epr_world(3, 2, 0.5, seed=17)
        rng = np.random.default_rng(17)
        assert world.rest_terms.shape == (2, 2, 2) and world.rest_terms.dtype == complex
        for term in world.rest_terms:
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
            world = build_epr_world(2, qbar_dim, 0.5, seed=seed)
            expected = self.per_qubit_rest_terms(qbar_dim, seed)
            assert world.rest_terms.tobytes() == expected.tobytes(), seed

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), qbar_dim=st.integers(1, 10))
    def test_rest_terms_equal_the_per_qubit_draw_at_any_seed(self, seed, qbar_dim):
        world = build_epr_world(2, qbar_dim, 0.5, seed=seed)
        assert world.rest_terms.tobytes() == self.per_qubit_rest_terms(qbar_dim, seed).tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), qbar_dim=st.integers(1, 10))
    def test_rest_terms_equal_one_generator_uniform_call(self, seed, qbar_dim):
        # the earlier draw, one uniform call with per-column bounds, bit for bit
        draws = np.random.default_rng(seed).uniform(
            [-1, -1, -0.7, -0.7], [1, 1, 0.7, 0.7], size=(qbar_dim, 4))
        a, d, x, y = draws.T
        expected = np.stack([a, x + 1j * y, x - 1j * y, d], axis=-1).reshape(-1, 2, 2)
        world = build_epr_world(2, qbar_dim, 0.5, seed=seed)
        assert world.rest_terms.tobytes() == expected.tobytes()

    def test_rest_terms_are_read_only(self):
        world = build_epr_world(2, 2, 0.5, seed=3)
        with pytest.raises(ValueError):
            world.rest_terms[0, 0, 0] = 2.0

    @pytest.mark.parametrize(
        "terms,message",
        [
            (np.zeros((2, 2)), "shape"),
            (np.zeros((1, 3, 3)), "shape"),
            (np.zeros((1, 4)), "shape"),
            (np.array([[[0.0, 1.0], [0.0, 0.0]]]), "Hermitian"),
            (np.array([[[np.nan, 0.0], [0.0, 0.0]]]), "finite"),
            (np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1j], [1j, 0.0]]]), "Hermitian"),
        ],
    )
    def test_bad_rest_terms_rejected(self, terms, message):
        with pytest.raises(ValueError, match=message):
            World(mode="EPR", q_dim=2, evolution_time=1.0, lam=0.5, rest_terms=terms)


class TestDeliverPair:
    def test_zero_coupling_gives_singlet_any_channel_size(self):
        states = []
        for q_dim in (2, 3, 4):
            pair = deliver_pair(build_epr_world(q_dim, 2, 0.0, seed=9))
            assert trace_distance(pair, singlet_density()) <= 1e-10
            states.append(pair.matrix)
        assert np.array_equal(states[0], states[1])
        assert np.array_equal(states[1], states[2])

    def test_zero_coupling_independent_of_rest_hamiltonian_oracle_path(self):
        # decoupling through the full simulation, not the factored fast path
        reference = None
        for seed in (1, 2, 3):
            world = build_epr_world(2, 2, 0.0, seed=seed)
            pair = oracles.dense_world_pair(dense_rest(world), 2, 2, 0.0, world.evolution_time)
            assert np.max(np.abs(pair - singlet_density().matrix)) < 1e-10
            if reference is not None:
                assert np.max(np.abs(pair - reference)) < 1e-10
            reference = pair

    @pytest.mark.parametrize(
        "q_dim,qbar_dim,lam,seed",
        [(2, 2, 0.8, 5), (2, 1, 0.3, 1), (3, 2, 0.6, 7), (2, 3, 1.1, 2), (4, 2, 0.5, 4)],
    )
    def test_matches_brute_force_dense_oracle(self, q_dim, qbar_dim, lam, seed):
        world = build_epr_world(q_dim, qbar_dim, lam, seed=seed)
        ours = deliver_pair(world).matrix
        oracle = oracles.dense_world_pair(
            dense_rest(world), q_dim, qbar_dim, lam, world.evolution_time
        )
        assert np.max(np.abs(ours - oracle)) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        q_dim=st.integers(2, 4),
        qbar_dim=st.integers(1, 3),
        lam=st.floats(0.0, 2.0),
        t=st.floats(0.0, 2.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle_everywhere(self, q_dim, qbar_dim, lam, t, seed):
        world = build_epr_world(q_dim, qbar_dim, lam, seed=seed, evolution_time=t)
        oracle = oracles.dense_world_pair(dense_rest(world), q_dim, qbar_dim, lam, t)
        assert np.max(np.abs(deliver_pair(world).matrix - oracle)) < 1e-12

    def test_world_beyond_dense_reach(self):
        # 2 boundary + 3 channel + 12 rest qubits: 2**17 dimensions, past the
        # cap of build_epr_world and far past the dense oracle
        rng = np.random.default_rng(12)
        terms = np.stack([random_hermitian(rng, 1) for _ in range(12)])
        for lam in (0.0, 0.3, 1.7):
            world = World(mode="EPR", q_dim=3, evolution_time=1.0, lam=lam, rest_terms=terms)
            pair = deliver_pair(world).matrix
            # |c| <= 1 up to the rounding of a 12-factor product
            assert abs(pair_coherence(world)) <= 1.0 + 1e-12
            if lam == 0.0:
                assert np.max(np.abs(pair - singlet_density().matrix)) < 1e-12
            else:
                assert purity(deliver_pair(world)) < 1.0 - 1e-6

    def test_pair_computed_once_per_world(self, monkeypatch):
        calls = []
        kernel = worlds._coherences
        monkeypatch.setattr(worlds, "_coherences", lambda ws: calls.append(list(ws)) or kernel(ws))
        world = build_epr_world(2, 2, 0.4, seed=1)
        assert deliver_pair(world) is deliver_pair(world)
        assert deliver_pairs([world, world]) == [deliver_pair(world)] * 2
        assert calls == [[world]]

    def test_one_stacked_pass_per_rest_size(self, monkeypatch):
        calls = []
        kernel = worlds._coherences
        monkeypatch.setattr(worlds, "_coherences", lambda ws: calls.append(list(ws)) or kernel(ws))
        a, b, c = (build_epr_world(q, qbar, 0.3, seed=q) for q, qbar in ((2, 2), (3, 3), (4, 2)))
        er = build_er_world()
        pairs = deliver_pairs([a, er, b, c, a])
        assert calls == [[a, c], [b]]
        assert pairs[0] is pairs[4] is deliver_pair(a) and pairs[1] is deliver_pair(er)
        assert deliver_pairs([c, b, a]) == [deliver_pair(c), deliver_pair(b), pairs[0]]
        assert len(calls) == 2  # delivered pairs are cached with their worlds

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(2, 4),
                st.integers(1, 7),
                st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 3.0)),
                st.floats(0.05, 20.0),
                st.integers(0, 2**64 - 1),
            ),
            min_size=1, max_size=8,
        ),
        qbar_dim=st.integers(1, 7),
    )
    def test_stacked_delivery_has_the_bits_of_delivery_alone(self, specs, qbar_dim):
        def build(q_dim, qbar, lam, t, seed):
            return build_epr_world(q_dim, qbar, lam, seed=seed, evolution_time=t)

        # one coherence stack of one rest size, mixing channel sizes and couplings
        stack = [build(q, qbar_dim, lam, t, seed) for q, _, lam, t, seed in specs]
        alone = [pair_coherence(build(q, qbar_dim, lam, t, seed)) for q, _, lam, t, seed in specs]
        assert worlds._coherences(stack).tobytes() == np.array(alone).tobytes()
        # one delivery call mixing rest sizes, against each world delivered on its own
        pairs = deliver_pairs([build(*spec) for spec in specs] + [build_er_world()])
        for spec, pair in zip(specs, pairs):
            assert pair.matrix.tobytes() == deliver_pair(build(*spec)).matrix.tobytes()
        assert pairs[-1].matrix.tobytes() == singlet_density().matrix.tobytes()

    def test_coupling_decoheres(self):
        pair = deliver_pair(build_epr_world(2, 2, 0.8, seed=5))
        assert purity(pair) < 1.0 - 1e-6

    def test_decoherence_detectable_iff_coupled(self):
        for lam in (0.1, 0.4, 0.9):
            for seed in (0, 1):
                pair = deliver_pair(build_epr_world(2, 2, lam, seed=seed))
                assert purity(pair) < 1.0 - 1e-6
        pair = deliver_pair(build_epr_world(2, 2, 0.0, seed=0))
        assert abs(purity(pair) - 1.0) < 1e-12

    def test_closed_form_with_idle_rest(self):
        # with the rest Hamiltonian zero, each rest qubit contributes a
        # cos(lam*t) factor to the pair coherence
        for qbar_dim, lam, t in ((1, 0.7, 1.0), (2, 0.45, 1.3), (3, 1.2, 0.5)):
            ours = deliver_pair(idle_world(qbar_dim, lam, t)).matrix
            expected = oracles.dephased_singlet(math.cos(lam * t) ** qbar_dim)
            assert np.max(np.abs(ours - expected)) < 1e-10

    def test_exact_dephasing_floor(self):
        # coherence cos(lam*t) vanishes at lam*t = pi/2: maximally mixed on
        # the pair's support, purity exactly 1/2
        world = idle_world(1, math.pi / 2, 1.0)
        assert abs(purity(deliver_pair(world)) - 0.5) < 1e-10


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
        # random Hermitian terms, wider than build_epr_world draws
        rng = np.random.default_rng(seed)
        terms = np.stack([random_hermitian(rng, 1) for _ in range(qbar_dim)])
        world = World(mode="EPR", q_dim=q_dim, evolution_time=t, lam=lam, rest_terms=terms)
        c = pair_coherence(world)
        assert abs(c - oracles.coherence_by_series(terms, q_dim, lam, t)) < 1e-12
        dense = oracles.dense_world_pair(dense_rest(world), q_dim, qbar_dim, lam, t)
        assert abs(c - (-2 * dense[1, 2])) < 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_factor_per_rest_qubit(self, n):
        # the (branch, rest qubit) arrays give each rest qubit the factor its
        # one-qubit world gives, bit for bit
        rng = np.random.default_rng(15 + n)
        terms = np.stack([random_hermitian(rng, 1) for _ in range(n)])
        world = World(mode="EPR", q_dim=3, evolution_time=0.9, lam=0.8, rest_terms=terms)
        product = 1
        for term in terms:
            product *= pair_coherence(
                World(mode="EPR", q_dim=3, evolution_time=0.9, lam=0.8, rest_terms=term[None])
            )
        assert pair_coherence(world) == product

    def test_diagonal_rest_terms_dephase_like_idle_ones(self):
        # a diagonal term adds the same phase and the same Z field to both
        # branches, so each factor is cos(lam t), as with no rest term at all
        rng = np.random.default_rng(7)
        for qbar_dim, lam, t in ((1, 0.7, 1.0), (2, 0.45, 1.3), (3, 1.2, 0.5)):
            terms = np.stack([np.diag(rng.uniform(-1, 1, size=2)) for _ in range(qbar_dim)])
            world = World(mode="EPR", q_dim=2, evolution_time=t, lam=lam, rest_terms=terms)
            assert abs(pair_coherence(world) - math.cos(lam * t) ** qbar_dim) < 1e-14

    def test_branch_states_stay_normalized(self):
        # at zero coupling both branches are one state: its squared norm is c
        rng = np.random.default_rng(8)
        for _ in range(20):
            terms = np.stack([4 * random_hermitian(rng, 1) for _ in range(3)])
            t = float(rng.uniform(0, 5))
            idle = World(mode="EPR", q_dim=2, evolution_time=t, rest_terms=terms)
            assert abs(pair_coherence(idle) - 1.0) < 1e-14
            coupled = World(mode="EPR", q_dim=2, evolution_time=t, lam=2.0, rest_terms=terms)
            assert abs(pair_coherence(coupled)) <= 1.0 + 1e-14

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_zero_norm_rest_term(self, t):
        # at lam = 1 and q_dim = 2 the branch fields are +1/2 and -1/2, so
        # diag(0.2, 1.2) = 0.7 I - Z/2 leaves branch 01 with n = 0: it idles
        # in |+>, branch 10 turns under n = (0, 0, -1), and c = cos(t)
        terms = np.array([np.diag([0.2, 1.2])])
        world = World(mode="EPR", q_dim=2, evolution_time=t, lam=1.0, rest_terms=terms)
        with np.errstate(all="raise"):
            c = pair_coherence(world)
        assert abs(c - math.cos(t)) < 1e-15
        assert abs(c - oracles.coherence_by_series(terms, 2, 1.0, t)) < 1e-12
        # both branches at n = 0: nothing turns, and c is 1 exactly
        idle = World(mode="EPR", q_dim=2, evolution_time=t, rest_terms=np.eye(2)[None] * 0.3)
        with np.errstate(all="raise"):
            assert pair_coherence(idle) == 1.0

    def test_huge_coupling_stays_finite(self, tmp_path, capsys):
        # |n| from nested hypot: no square of a 1e300 field is formed
        for seed in range(4):
            c = pair_coherence(build_epr_world(3, 2, 1e300, seed=seed))
            assert math.isfinite(c.real) and math.isfinite(c.imag) and abs(c) <= 1.0
        out = tmp_path / "payload.json"
        argv = ["chsh", "--seed", "1", "--mode", "epr", "--lambda", "1e300", "--exact"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["results"]["result"]["s_abs"] <= TSIRELSON_BOUND


def purity_profile(grid, q_dim=2, qbar_dim=2, seed=0, evolution_time=1.0):
    """The sweep's ``pair_purity`` column over ``grid`` for the canonical CHSH script."""
    worlds = [build_epr_world(q_dim, qbar_dim, lam, seed, evolution_time=evolution_time)
              for lam in grid]
    rows = indistinguishability_sweep(worlds, canonical_chsh_script())
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
        for lam, p in zip(grid[1:], values[1:]):
            world = build_epr_world(2, 2, lam, seed=6, evolution_time=0.5)
            pair = oracles.dense_world_pair(dense_rest(world), 2, 2, lam, 0.5)
            assert abs(p - float(np.trace(pair @ pair).real)) < 1e-10

    def test_large_coupling_approaches_half_purity_floor(self):
        grid = [0.0] + [1.2 + 0.15 * k for k in range(12)]
        values = purity_profile(grid, q_dim=2, qbar_dim=2, seed=1)
        assert min(values) >= 0.5 - 1e-9
        assert min(values) < 0.56
