"""Tests for the pair-sized linear algebra core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from locclab import (
    DensityMatrix,
    LayoutError,
    extend_to_pair,
    purity,
    trace_distance,
)
from locclab.linalg import PSD_ATOL, check_density_stack

import helpers
import oracles

#: Unit trace, but 0.1 above the diagonal against 0.3 below it: not Hermitian.
SKEW = np.diag([0.25, 0.25, 0.25, 0.25]) + 0.1 * np.eye(4, k=1) + 0.3 * np.eye(4, k=-1)


def dm(matrix) -> DensityMatrix:
    return DensityMatrix(np.array(matrix, dtype=complex))


def ket_density(bits: str) -> DensityMatrix:
    v = oracles.kron_chain([np.eye(2)[int(b)] for b in bits])
    return DensityMatrix(np.outer(v, v.conj()))


def singlet() -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dm(SKEW)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            dm(np.eye(4))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            dm(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            dm(np.diag([np.nan, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (4, 2), (1, 4, 4)])
    def test_only_pair_shape_accepted(self, shape):
        m = np.zeros(shape)
        m.flat[0] = 1.0
        with pytest.raises(LayoutError, match="4x4"):
            dm(m)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (SKEW, "Hermitian"),
            (np.eye(4), "trace"),
            (np.diag([1.5, -0.5, 0.0, 0.0]), "PSD"),
            (np.diag([np.inf, 1.0, 0.0, 0.0]), "finite"),
        ],
    )
    def test_stack_check_finds_one_bad_matrix(self, bad, message):
        good = np.diag([0.1, 0.2, 0.3, 0.4])
        stack = np.stack([good, good, bad, good]).astype(complex)
        check_density_stack(stack[:2])
        check_density_stack(stack[:0])
        with pytest.raises(ValueError, match=message):
            check_density_stack(stack)

    def test_stack_check_reports_worst_defect_at_given_tolerance(self):
        stack = np.stack([np.diag([1 + d, -d, 0.0, 0.0]) for d in (1e-10, 3e-3, 2e-3)])
        with pytest.raises(ValueError, match="-3.000e-03"):
            check_density_stack(stack.astype(complex))
        # PSD_ATOL is 1e-9: a defect of 1e-10 passes on its own
        check_density_stack(stack[:1].astype(complex))

    def test_stack_of_states_checked_once(self):
        good = np.stack([np.diag([0.1, 0.2, 0.3, 0.4]), np.eye(4) / 4]).astype(complex)
        states = DensityMatrix.stack(good)
        assert [rho.matrix.tobytes() for rho in states] == [m.tobytes() for m in good]
        with pytest.raises(ValueError):
            states[0].matrix[0, 0] = 2.0
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix.stack(np.concatenate([good, np.diag([1.5, -0.5, 0.0, 0.0])[None]]))
        with pytest.raises(LayoutError, match="4, 4"):
            DensityMatrix.stack(good[0])

    def test_single_state_is_one_checked_copy(self, monkeypatch):
        # one state is checked as a stack of one, with no second state built
        monkeypatch.setattr(DensityMatrix, "stack", None)
        source = np.diag([0.1, 0.2, 0.3, 0.4])
        rho = DensityMatrix(source)
        source[0, 0] = 2.0
        assert rho.matrix.dtype == complex and not rho.matrix.flags.writeable
        assert rho.matrix.tobytes() == np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex).tobytes()
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_matrices_are_frozen(self):
        rho = ket_density("00")
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


#: Planted smallest eigenvalues, in units of PSD_ATOL: all but the last three are accepted.
PLANTED = (0.0, -1e-12, -0.5, -0.99, -1.01, -2.0, -10.0)


def planted_state(seed: int, k: float) -> np.ndarray:
    """A random 4x4 unit-trace Hermitian matrix whose smallest eigenvalue is ``k * PSD_ATOL``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rest = rng.dirichlet(np.ones(3)) + 1e-3
    eigs = np.array([k * PSD_ATOL, *rest / rest.sum() * (1.0 - k * PSD_ATOL)])
    m = np.einsum("ij,j,kj->ik", u, eigs, u.conj())
    return (m + m.conj().T) / 2


class TestPositivityDecision:
    """One Cholesky per stack decides positivity as the minimum-eigenvalue rule does."""

    @staticmethod
    def decide(m: np.ndarray) -> tuple[bool, int, str]:
        """(accepted, eigvalsh calls, refusal message) of ``check_density_stack(m)``."""
        calls = []
        eigvalsh = np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
            try:
                check_density_stack(m)
            except ValueError as exc:
                return False, len(calls), str(exc)
        return True, len(calls), ""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), k=st.sampled_from(PLANTED))
    def test_single_state(self, seed, k):
        m = planted_state(seed, k)
        min_eig = float(np.linalg.eigvalsh(m)[0])
        accepted, eig_calls, message = self.decide(m)
        assert accepted == (min_eig >= -PSD_ATOL) == (k > -1.0)
        if accepted:
            assert eig_calls == 0  # the factorization alone decided
        else:
            assert message == f"density matrix not PSD (min eigenvalue {min_eig:.3e})"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), k=st.sampled_from(PLANTED),
           where=st.integers(0, 200))
    def test_one_state_hidden_in_a_stack(self, seed, k, where):
        good = [planted_state(seed + 1 + i, 0.0) for i in range(200)]
        bad = planted_state(seed, k)
        stack = np.array(good[:where] + [bad] + good[where:])
        min_eig = float(np.linalg.eigvalsh(stack)[:, 0].min())
        accepted, eig_calls, message = self.decide(stack)
        assert accepted == (min_eig >= -PSD_ATOL) == (k > -1.0)
        if accepted:
            assert eig_calls == 0
        else:
            assert message == f"density matrix not PSD (min eigenvalue {min_eig:.3e})"


class TestMetrics:
    def test_trace_distance_self_is_zero(self):
        rho = singlet()
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_states(self):
        assert abs(trace_distance(ket_density("00"), ket_density("01")) - 1.0) < 1e-14

    def test_pure_vs_maximally_mixed(self):
        # q_B pure against q_B maximally mixed: the difference has eigenvalues +/- 1/2
        half_mixed = dm(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        assert abs(trace_distance(ket_density("00"), half_mixed) - 0.5) < 1e-14

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a, b, c = (helpers.random_density(rng) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 4e-9

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a, b = helpers.random_density(rng), helpers.random_density(rng)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12

    def test_purity_values(self):
        plus = np.full(2, 1 / math.sqrt(2), dtype=complex)
        assert abs(purity(dm(np.kron(np.outer(plus, plus), np.outer(plus, plus)))) - 1.0) < 1e-12
        assert abs(purity(dm(np.kron(np.outer(plus, plus), np.eye(2) / 2))) - 0.5) < 1e-12
        assert abs(purity(dm(np.eye(4) / 4)) - 0.25) < 1e-12


class TestExtendToPair:
    @pytest.mark.parametrize("target,position", [("q_A", 0), ("q_B", 1)])
    def test_stack_matches_loop_oracle_bytes(self, target, position):
        rng = np.random.default_rng(13)
        ops = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        ops[0, 0, 0, 0] = complex(-0.0, -1.0)  # the sign of a zero survives too
        stacked = extend_to_pair(ops, target)
        assert stacked.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            assert stacked[idx].tobytes() == extend_to_pair(ops[idx], target).tobytes()
            # each entry is an entry of the operator or zero, exactly
            np.testing.assert_array_equal(
                stacked[idx], oracles.embed_by_loops(ops[idx], [2, 2], [position])
            )

    @pytest.mark.parametrize("shape", [(4, 4), (3, 3), (2,), (2, 2, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(LayoutError, match="2x2"):
            extend_to_pair(np.ones(shape), "q_A")

    @pytest.mark.parametrize("target", ["q_C", "A", ("q_A",)])
    def test_unknown_target_rejected(self, target):
        with pytest.raises(LayoutError, match="unknown target"):
            extend_to_pair(np.eye(2), target)
