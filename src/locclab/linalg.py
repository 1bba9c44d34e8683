"""Complex linear algebra sized for the two-qubit pair.

Alice and Bob only ever hold a two-qubit pair, so every state the package
builds is a 4x4 density matrix on the pair ``(q_A, q_B)``: a
:class:`DensityMatrix`.  ``q_A`` is the most significant index, matching
``numpy.kron`` order, so the basis state ``|a b>`` has linear index
``2 * a + b``.  A one-qubit Kraus operator acting on one of the two is
extended to the pair by :func:`extend_to_pair`.

Payload numbers are products of these small arrays by ``numpy.einsum``
(``optimize`` off), never ``@``, so their bytes do not depend on the host's
BLAS kernel.  LAPACK appears only in checks (one Cholesky per stack of
states, see :func:`check_density_stack`) and in :func:`trace_distance`.

All values are validated on construction and immutable afterwards; every
operation is a pure function of its inputs, so values can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError

__all__ = [
    "HERM_ATOL",
    "TRACE_ATOL",
    "PSD_ATOL",
    "PAIR_LABELS",
    "DensityMatrix",
    "check_density_stack",
    "trace_distance",
    "purity",
    "extend_to_pair",
    "ID2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

#: Largest Hermiticity defect a state or operator may have.
HERM_ATOL = 1e-10
#: Largest unit-trace defect a state may have.
TRACE_ATOL = 1e-10
#: How far below zero an eigenvalue of a state may sit before it is rejected as
#: non-positive.  Double-precision algebra on a pair stays far below all three.
PSD_ATOL = 1e-9
_PSD_SHIFT = PSD_ATOL * np.eye(4)

#: Labels of the boundary pair as seen by Alice and Bob, most significant first.
PAIR_LABELS = ("q_A", "q_B")

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def check_density_stack(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless every matrix of the stack ``m`` is a density matrix.

    ``m`` is one 4x4 matrix or a stack of them over its leading axes.  The
    checks are finiteness, then the Hermiticity defect, the trace defect and
    the minimum eigenvalue against :data:`HERM_ATOL`, :data:`TRACE_ATOL` and
    :data:`PSD_ATOL`; a failure reports the worst matrix's defect.

    Positivity is one Cholesky factorization of the stack shifted by
    ``PSD_ATOL * I``; only if it fails are the eigenvalues computed, and they
    decide by the rule above.
    """
    if m.size == 0:
        return
    if not np.isfinite(m).all():
        raise ValueError("density matrix contains non-finite entries")
    herm_defect = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if herm_defect > HERM_ATOL:
        raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.3e})")
    tr_defect = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max()
    if tr_defect > TRACE_ATOL:
        raise ValueError(f"density matrix trace != 1 (defect {tr_defect:.3e})")
    try:
        np.linalg.cholesky(m + _PSD_SHIFT)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(m)[..., 0].min())
        if min_eig < -PSD_ATOL:
            raise ValueError(f"density matrix not PSD (min eigenvalue {min_eig:.3e})") from None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A read-only density matrix on the pair ``(q_A, q_B)``.

    Construction checks the 4x4 shape (:class:`~locclab.errors.LayoutError`
    otherwise), then Hermiticity, unit trace and positive semidefiniteness
    (see :func:`check_density_stack`).  :meth:`stack` builds many at once
    from one check of their stack; a single one is a stack of one.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (4, 4):
            raise LayoutError(f"a pair state is 4x4, got shape {m.shape}")
        m = np.array(m, dtype=complex)
        m.setflags(write=False)
        check_density_stack(m[None])
        object.__setattr__(self, "matrix", m)

    @classmethod
    def stack(cls, ms: np.ndarray) -> list["DensityMatrix"]:
        """One state per matrix of the ``(n, 4, 4)`` stack ``ms``: views of one checked copy."""
        ms = np.array(ms, dtype=complex)
        ms.setflags(write=False)
        if ms.ndim != 3 or ms.shape[1:] != (4, 4):
            raise LayoutError(f"a stack of pair states is (n, 4, 4), got shape {ms.shape}")
        check_density_stack(ms)
        states = [object.__new__(cls) for _ in ms]
        for rho, m in zip(states, ms):
            object.__setattr__(rho, "matrix", m)
        return states


def extend_to_pair(ops: np.ndarray, target: str) -> np.ndarray:
    """Extend one-qubit operators on ``target`` to the pair by identity on the other qubit.

    ``ops`` is one 2x2 operator or a stack of them over its leading axes;
    ``target`` is ``"q_A"`` or ``"q_B"``.  Each entry of the result is an
    entry of ``ops`` times exactly 1 or 0.
    """
    if ops.shape[-2:] != (2, 2):
        raise LayoutError(f"a one-qubit operator is 2x2, got shape {ops.shape}")
    if target == PAIR_LABELS[0]:
        return np.kron(ops, ID2)
    if target == PAIR_LABELS[1]:
        return np.kron(ID2, ops)
    raise LayoutError(f"unknown target {target!r}; the pair is {PAIR_LABELS}")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of ``a - b``; in [0, 1] for density matrices."""
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(w)))


def purity(rho: DensityMatrix) -> float:
    """``Tr(rho^2)``; equals 1 exactly for pure states."""
    m = rho.matrix
    return float(np.einsum("ij,ji->", m, m).real)
