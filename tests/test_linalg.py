"""Tests for the dense linear algebra core."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from locclab import (
    CapacityError,
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    PureState,
    SubsystemLayout,
    embed_operator,
    evolve,
    expectation,
    partial_trace,
    purity,
    qubits,
    tensor_product,
    trace_distance,
)
from locclab.linalg import (
    PAULI_X,
    PAULI_Z,
    Tolerances,
    basis_ket,
    check_density_stack,
    hermitian_exponential,
)

import helpers
import oracles


def dm(matrix, *labels) -> DensityMatrix:
    return DensityMatrix(np.array(matrix, dtype=complex), qubits(*labels))


def ket_density(bits: str, *labels) -> DensityMatrix:
    v = basis_ket(bits)
    return DensityMatrix(np.outer(v, v.conj()), qubits(*labels))


def singlet(*labels) -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), qubits(*labels))


class TestLayout:
    def test_total_dim_and_position(self):
        lay = SubsystemLayout((("a", 2), ("b", 3), ("c", 2)))
        assert lay.total_dim == 12
        assert lay.position("b") == 1
        assert lay.labels == ("a", "b", "c")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((("a", 2), ("a", 2)))

    def test_dimension_below_two_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout((("a", 1),))


class TestValidation:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, qubits("q"))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex), qubits("q"))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(m, qubits("q"))

    def test_nonfinite_rejected(self):
        m = np.diag([np.nan, 1.0]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m, qubits("q"))

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.array([[0.5, 0.1], [0.3, 0.5]]), "Hermitian"),
            (np.eye(2), "trace"),
            (np.diag([1.5, -0.5]), "PSD"),
            (np.diag([np.inf, 1.0]), "finite"),
        ],
    )
    def test_stack_check_finds_one_bad_matrix(self, bad, message):
        good = np.diag([0.25, 0.75])
        stack = np.stack([good, good, bad, good]).astype(complex)
        check_density_stack(stack[:2])
        check_density_stack(stack[:0])
        with pytest.raises(ValueError, match=message):
            check_density_stack(stack)

    def test_stack_check_reports_worst_defect_at_given_tolerance(self):
        stack = np.stack([np.diag([1 + d, -d]) for d in (1e-10, 3e-3, 2e-3)]).astype(complex)
        with pytest.raises(ValueError, match="-3.000e-03"):
            check_density_stack(stack)
        check_density_stack(stack, Tolerances(psd=4e-3))

    def test_pure_state_norm(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 1.0]), qubits("q"))

    def test_pure_state_to_density(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        rho = PureState(v, qubits("q")).to_density()
        assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_matrices_are_frozen(self):
        rho = ket_density("0", "q")
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestTensorProduct:
    def test_basis_states(self):
        out = tensor_product(ket_density("0", "a"), ket_density("1", "b"))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert_allclose(out.matrix, expected)
        assert out.layout.labels == ("a", "b")

    def test_identity_case(self):
        out = tensor_product(dm(np.eye(2) / 2, "a"), dm(np.eye(2) / 2, "b"))
        assert_allclose(out.matrix, np.eye(4) / 4)

    def test_round_trip_with_index_oracle(self):
        # Bell pair (x) |0><0|, then trace the third factor back out
        bell = singlet("a", "b")
        product = tensor_product(bell, ket_density("0", "c"))
        assert product.matrix.shape == (8, 8)
        # oracle: entry (r, c) = bell[r >> 1, c >> 1] when both third bits are 0
        direct = np.zeros((8, 8), dtype=complex)
        for r in range(8):
            for c in range(8):
                if r % 2 == 0 and c % 2 == 0:
                    direct[r, c] = bell.matrix[r // 2, c // 2]
        assert_allclose(product.matrix, direct, atol=0)
        back = partial_trace(product, {"a", "b"})
        assert_allclose(back.matrix, bell.matrix, atol=1e-15)

    def test_label_collision_rejected(self):
        with pytest.raises(LayoutError):
            tensor_product(ket_density("0", "a"), ket_density("0", "a"))

    def test_capacity_error(self):
        rng = np.random.default_rng(0)
        a = helpers.random_density(rng, 7, labels=[f"x{i}" for i in range(7)])
        b = helpers.random_density(rng, 8, labels=[f"y{i}" for i in range(8)])
        with pytest.raises(CapacityError):
            tensor_product(a, b)

    def test_associative_up_to_flattening(self):
        # dyadic entries make float multiplication exact, so the two
        # association orders must agree bit for bit; this pins down the
        # index arithmetic, not float rounding
        rng = np.random.default_rng(42)
        pool = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 2.0])
        mats = [rng.choice(pool, size=(2, 2)) + 1j * rng.choice(pool, size=(2, 2)) for _ in range(3)]
        left = np.kron(np.kron(mats[0], mats[1]), mats[2])
        right = np.kron(mats[0], np.kron(mats[1], mats[2]))
        ours_left = tensor_product(tensor_product(mats[0], mats[1]), mats[2])
        assert np.array_equal(ours_left, left)
        assert np.array_equal(left, right)


class TestPartialTrace:
    def test_singlet_marginal_is_maximally_mixed(self):
        out = partial_trace(singlet("A", "B"), {"A"})
        assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(3)
        a = helpers.random_density(rng, 1, labels=["A"])
        b = helpers.random_density(rng, 2, labels=["B0", "B1"])
        joint = tensor_product(a, b)
        assert_allclose(partial_trace(joint, {"A"}).matrix, a.matrix, atol=1e-14)

    def test_kept_factors_stay_in_original_order(self):
        rng = np.random.default_rng(4)
        rho = helpers.random_density(rng, 3, labels=["a", "b", "c"])
        out = partial_trace(rho, ["c", "a"])  # request order must not matter
        assert out.layout.labels == ("a", "c")

    def test_matches_loop_oracle_after_evolution(self):
        # entangle three qubits, then check against explicit index summation
        rng = np.random.default_rng(11)
        h = helpers.random_hermitian(rng, 3, labels=["a", "b", "e"])
        rho0 = helpers.random_density(rng, 3, labels=["a", "b", "e"])
        rho = evolve(rho0, h, 0.9)
        ours = partial_trace(rho, {"a", "b"})
        oracle = oracles.ptrace_by_loops(rho.matrix, [2, 2, 2], [0, 1])
        assert_allclose(ours.matrix, oracle, atol=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(LayoutError):
            partial_trace(singlet("A", "B"), {"X"})

    def test_trace_preserved_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            na, nb = rng.integers(1, 4), rng.integers(1, 4)
            a = helpers.random_density(rng, int(na), labels=[f"a{i}" for i in range(na)])
            b = helpers.random_density(rng, int(nb), labels=[f"b{i}" for i in range(nb)])
            joint = tensor_product(a, b)
            back = partial_trace(joint, [f"a{i}" for i in range(na)])
            assert_allclose(back.matrix, a.matrix, atol=1e-12)
            assert abs(np.trace(back.matrix) - 1.0) < 1e-10


class TestEvolve:
    def test_pauli_x_half_turn(self):
        h = HermitianOperator(PAULI_X, qubits("q"))
        out = evolve(ket_density("0", "q"), h, math.pi / 2)
        assert_allclose(out.matrix, ket_density("1", "q").matrix, atol=1e-14)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(6)
        rho = helpers.random_density(rng, 2)
        h = helpers.random_hermitian(rng, 2)
        assert_allclose(evolve(rho, h, 0.0).matrix, rho.matrix, atol=1e-14)

    def test_diagonal_hamiltonian_phases(self):
        # Z(x)Z is diagonal: coherences rotate by the eigenvalue differences,
        # phase 2t between opposite-parity index pairs
        t = 0.7
        zz = HermitianOperator(np.kron(PAULI_Z, PAULI_Z), qubits("a", "b"))
        plus2 = np.full(4, 0.5, dtype=complex)
        rho = DensityMatrix(np.outer(plus2, plus2.conj()), qubits("a", "b"))
        out = evolve(rho, zz, t)
        parity = [1, -1, -1, 1]
        expected = np.array(
            [
                [0.25 * np.exp(-1j * t * (parity[r] - parity[c])) for c in range(4)]
                for r in range(4)
            ]
        )
        assert_allclose(out.matrix, expected, atol=1e-12)
        # and the whole unitary against the series-expansion oracle
        u_ours = hermitian_exponential(zz.matrix, -1j * t)
        u_oracle = oracles.series_expm(-1j * t * zz.matrix)
        assert_allclose(u_ours, u_oracle, atol=1e-12)

    def test_layout_mismatch_rejected(self):
        rho = ket_density("0", "q")
        h = HermitianOperator(PAULI_X, qubits("other"))
        with pytest.raises(LayoutError):
            evolve(rho, h, 1.0)

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = helpers.random_density(rng, 2)
            h = helpers.random_hermitian(rng, 2)
            t = float(rng.uniform(0, 5))
            out = evolve(rho, h, t)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10
            assert_allclose(
                np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-9
            )

    def test_unitarity_three_qubits(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            h = helpers.random_hermitian(rng, 3)
            norm = np.linalg.norm(h.matrix, ord=2)
            m = h.matrix * (4.0 / norm)
            t = float(rng.uniform(0, 5))
            u = hermitian_exponential(m, -1j * t)
            ub = hermitian_exponential(m, 1j * t)
            assert np.max(np.abs(u @ ub - np.eye(8))) < 1e-10


class TestMetrics:
    def test_trace_distance_self_is_zero(self):
        rho = singlet("A", "B")
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_states(self):
        assert abs(trace_distance(ket_density("0", "q"), ket_density("1", "q")) - 1.0) < 1e-14

    def test_pure_vs_maximally_mixed(self):
        # eigenvalues of the difference are +/- 1/2
        assert abs(trace_distance(ket_density("0", "q"), dm(np.eye(2) / 2, "q")) - 0.5) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            trace_distance(ket_density("0", "q"), singlet("A", "B"))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a, b, c = (helpers.random_density(rng, 2) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 4e-9

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a, b = helpers.random_density(rng, 2), helpers.random_density(rng, 2)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12

    def test_purity_values(self):
        plus = np.full(2, 1 / math.sqrt(2), dtype=complex)
        assert abs(purity(dm(np.outer(plus, plus), "q")) - 1.0) < 1e-12
        assert abs(purity(dm(np.eye(2) / 2, "q")) - 0.5) < 1e-12
        assert abs(purity(dm(np.eye(4) / 4, "a", "b")) - 0.25) < 1e-12

    def test_expectation_values(self):
        z = HermitianOperator(PAULI_Z, qubits("q"))
        assert abs(expectation(ket_density("0", "q"), z) - 1.0) < 1e-12
        x = HermitianOperator(PAULI_X, qubits("q"))
        assert abs(expectation(dm(np.eye(2) / 2, "q"), x)) < 1e-12
        zz = HermitianOperator(np.kron(PAULI_Z, PAULI_Z), qubits("A", "B"))
        assert abs(expectation(singlet("A", "B"), zz) + 1.0) < 1e-12

    def test_expectation_layout_mismatch(self):
        z = HermitianOperator(PAULI_Z, qubits("other"))
        with pytest.raises(LayoutError):
            expectation(ket_density("0", "q"), z)


class TestEmbedOperator:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        lay = qubits("a", "b", "c", "d")
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for targets, positions in ((("b", "d"), [1, 3]), (("d", "a"), [3, 0]), (("c",), [2])):
            sub = op if len(targets) == 2 else op[:2, :2]
            ours = embed_operator(sub, lay, targets)
            oracle = oracles.embed_by_loops(sub, [2, 2, 2, 2], positions)
            assert_allclose(ours, oracle, atol=0)

    @pytest.mark.parametrize("targets", [("a",), ("b",), ("c", "a"), ("b", "c", "a")])
    def test_stack_matches_one_operator_at_a_time_bytes(self, targets):
        rng = np.random.default_rng(13)
        lay = SubsystemLayout((("a", 2), ("b", 3), ("c", 2)))
        d = math.prod(lay.dims[lay.position(t)] for t in targets)
        ops = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
        ops[0, 0, 0, 0] = complex(-0.0, -1.0)  # the sign of a zero survives too
        stacked = embed_operator(ops, lay, targets)
        assert stacked.shape == (2, 3, 12, 12)
        for idx in np.ndindex(2, 3):
            oracle = oracles.embed_by_loops(ops[idx], [2, 3, 2], [lay.position(t) for t in targets])
            assert stacked[idx].tobytes() == embed_operator(ops[idx], lay, targets).tobytes()
            assert_allclose(stacked[idx], oracle, atol=0)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(LayoutError):
            embed_operator(np.eye(4), qubits("a", "b"), ("a",))
