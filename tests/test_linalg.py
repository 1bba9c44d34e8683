"""Tests for the pair-sized linear algebra core."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from locclab import (
    DensityMatrix,
    HermitianOperator,
    LayoutError,
    SubsystemLayout,
    embed_operator,
    expectation,
    purity,
    qubits,
    trace_distance,
)
from locclab.linalg import (
    PAULI_X,
    PAULI_Z,
    Tolerances,
    check_density_stack,
    hermitian_exponential,
)

import helpers
import oracles


def dm(matrix, *labels) -> DensityMatrix:
    return DensityMatrix(np.array(matrix, dtype=complex), qubits(*labels))


def ket_density(bits: str, *labels) -> DensityMatrix:
    v = oracles.kron_chain([np.eye(2)[int(b)] for b in bits])
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

    def test_matrices_are_frozen(self):
        rho = ket_density("0", "q")
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestEvolve:
    """Time evolution by ``hermitian_exponential``, the propagator of each rest qubit."""

    def test_pauli_x_half_turn(self):
        u = hermitian_exponential(PAULI_X, -1j * math.pi / 2)
        assert_allclose(u @ [1, 0], [0, -1j], atol=1e-15)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(6)
        h = helpers.random_hermitian(rng, 2).matrix
        assert_allclose(hermitian_exponential(h, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_hamiltonian_phases(self):
        # Z(x)Z is diagonal: its propagator is the diagonal of phases
        # exp(-i t parity), and the whole unitary agrees with the
        # series-expansion oracle
        t = 0.7
        zz = np.kron(PAULI_Z, PAULI_Z)
        u = hermitian_exponential(zz, -1j * t)
        assert_allclose(u, np.diag(np.exp(-1j * t * np.array([1, -1, -1, 1]))), atol=1e-14)
        assert_allclose(u, oracles.series_expm(-1j * t * zz), atol=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(14)
        for n_qubits in (1, 2, 3):
            h = helpers.random_hermitian(rng, n_qubits).matrix
            t = float(rng.uniform(0, 3))
            assert_allclose(
                hermitian_exponential(h, -1j * t), oracles.series_expm(-1j * t * h), atol=1e-11
            )

    def test_trace_and_spectrum_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = helpers.random_density(rng, 2).matrix
            h = helpers.random_hermitian(rng, 2).matrix
            u = hermitian_exponential(h, -1j * rng.uniform(0, 5))
            out = u @ rho @ u.conj().T
            assert abs(np.trace(out) - 1.0) < 1e-10
            assert_allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-9)

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

    @pytest.mark.parametrize("n", [1, 3])
    def test_stack_matches_one_call_per_matrix(self, n):
        # the (branch, rest qubit, 2, 2) stack that pair_coherence exponentiates
        rng = np.random.default_rng(15 + n)
        h = np.stack([[helpers.random_hermitian(rng, 1).matrix for _ in range(n)] for _ in range(2)])
        stacked = hermitian_exponential(h, -1j * 0.9)
        assert stacked.shape == (2, n, 2, 2)
        for idx in np.ndindex(2, n):
            assert stacked[idx].tobytes() == hermitian_exponential(h[idx], -1j * 0.9).tobytes()


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

    def test_repeated_targets_rejected(self):
        with pytest.raises(LayoutError, match="repeated"):
            embed_operator(np.eye(4), qubits("a", "b"), ("a", "a"))
