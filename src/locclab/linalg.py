"""Complex linear algebra sized for the two-qubit pair.

Alice and Bob only ever hold a two-qubit pair, so every state the package
builds is a 4x4 density matrix on the pair.  Values are plain ``numpy``
arrays wrapped together with a :class:`SubsystemLayout` that records the
tensor factorization.  The layout convention is fixed once, here: **factor 0
is the most significant index**, i.e. the basis state ``|k_0 k_1 ... k_{n-1}>``
has linear index ``k_0 * d_1 * ... * d_{n-1} + ... + k_{n-1}``, matching
``numpy.kron`` order.  A Kraus operator acting on some factors is extended to
the whole layout by :func:`embed_operator`.

All values are validated on construction and immutable afterwards; every
operation is a pure function of its inputs, so values can be shared freely
across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "SubsystemLayout",
    "DensityMatrix",
    "check_density_stack",
    "HermitianOperator",
    "trace_distance",
    "purity",
    "expectation",
    "embed_operator",
    "hermitian_exponential",
    "ID2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "plus_ket",
    "qubits",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by the state/operator validity checks.

    ``herm`` and ``trace`` bound the Hermiticity and unit-trace defects;
    ``psd`` bounds how far below zero an eigenvalue may sit before a matrix
    is rejected as non-positive.  Double-precision algebra on a pair stays
    far below the defaults.
    """

    herm: float = 1e-10
    trace: float = 1e-10
    psd: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered tensor factorization of a Hilbert space.

    ``factors`` is a tuple of ``(label, dimension)`` pairs; labels are unique
    and dimensions are at least 2.  Factor 0 is the most significant index.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(l), int(d)) for l, d in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise LayoutError("layout needs at least one factor")
        labels = [l for l, _ in factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate factor labels in {labels}")
        for l, d in factors:
            if d < 2:
                raise LayoutError(f"factor {l!r} has dimension {d} < 2")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def position(self, label: str) -> int:
        for i, (l, _) in enumerate(self.factors):
            if l == label:
                return i
        raise LayoutError(f"unknown factor label {label!r}; have {self.labels}")

    def dimension_of(self, labels: Iterable[str]) -> int:
        return math.prod(self.dims[self.position(l)] for l in labels)



def qubits(*labels: str) -> SubsystemLayout:
    """Layout of one qubit per label."""
    return SubsystemLayout(tuple((l, 2) for l in labels))


def check_density_stack(m: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Raise ``ValueError`` unless every matrix of the stack ``m`` is a density matrix.

    ``m`` is one square matrix or a stack of them over its leading axes.  The
    checks are finiteness, then the Hermiticity defect, the trace defect and
    the minimum eigenvalue against ``tol``; a failure reports the worst
    matrix's defect.
    """
    if m.size == 0:
        return
    _require_finite(m, "density matrix")
    herm_defect = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if herm_defect > tol.herm:
        raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.3e})")
    tr_defect = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max()
    if tr_defect > tol.trace:
        raise ValueError(f"density matrix trace != 1 (defect {tr_defect:.3e})")
    min_eig = float(np.linalg.eigvalsh(m)[..., 0].min())
    if min_eig < -tol.psd:
        raise ValueError(f"density matrix not PSD (min eigenvalue {min_eig:.3e})")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density operator together with its subsystem layout.

    Construction validates squareness, Hermiticity, unit trace, and positive
    semidefiniteness against :class:`Tolerances`.
    """

    matrix: np.ndarray
    layout: SubsystemLayout
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False, compare=False)

    def __post_init__(self):
        m = _freeze(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] != self.layout.total_dim:
            raise LayoutError(
                f"matrix dimension {m.shape[0]} != layout dimension {self.layout.total_dim}"
            )
        check_density_stack(m, self.tol)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian operator (observable or Hamiltonian) with a layout."""

    matrix: np.ndarray
    layout: SubsystemLayout
    tol: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False, compare=False)

    def __post_init__(self):
        m = _freeze(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if m.shape[0] != self.layout.total_dim:
            raise LayoutError(
                f"matrix dimension {m.shape[0]} != layout dimension {self.layout.total_dim}"
            )
        _require_finite(m, "operator")
        herm_defect = np.max(np.abs(m - m.conj().T))
        if herm_defect > self.tol.herm:
            raise ValueError(f"operator not Hermitian (defect {herm_defect:.3e})")


def _same_layout(a: SubsystemLayout, b: SubsystemLayout) -> bool:
    return a.factors == b.factors


def hermitian_exponential(h: np.ndarray, scale: complex) -> np.ndarray:
    """``exp(scale * h)`` for Hermitian ``h`` via eigendecomposition.

    ``h`` may also be a stack of matrices over its leading axes; each is
    exponentiated on its own.  Eigendecomposition is exact for Hermitian
    input up to roundoff and keeps the result unitary when ``scale`` is
    imaginary.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of ``a - b``; in [0, 1] for density matrices."""
    if a.dim != b.dim:
        raise LayoutError(f"dimension mismatch: {a.dim} vs {b.dim}")
    w = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(w)))


def purity(rho: DensityMatrix) -> float:
    """``Tr(rho^2)``; equals 1 exactly for pure states."""
    m = rho.matrix
    return float(np.real(np.trace(m @ m)))


def expectation(rho: DensityMatrix, obs: HermitianOperator) -> float:
    """``Tr(rho O)`` as a real number."""
    if not _same_layout(rho.layout, obs.layout):
        raise LayoutError(
            f"state layout {rho.layout.factors} != observable layout {obs.layout.factors}"
        )
    val = np.trace(rho.matrix @ obs.matrix)
    return float(np.real(val))


@functools.lru_cache(maxsize=None)
def _digit_map(dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Map original linear indices to indices of the basis permuted by ``perm``."""
    n = len(dims)
    total = math.prod(dims)
    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    idx = np.arange(total, dtype=np.int64)
    digits = [(idx // strides[i]) % dims[i] for i in range(n)]
    pdims = [dims[p] for p in perm]
    pstrides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        pstrides[i] = pstrides[i + 1] * pdims[i + 1]
    out = np.zeros(total, dtype=np.int64)
    for j, p in enumerate(perm):
        out += digits[p] * pstrides[j]
    out.setflags(write=False)
    return out


def embed_operator(op: np.ndarray, layout: SubsystemLayout, targets: Sequence[str]) -> np.ndarray:
    """Extend ``op`` (acting on ``targets``, in that order) by identity elsewhere.

    ``op`` is one square operator or a stack of them over its leading axes,
    with dimension equal to the product of the target factor dimensions.
    Each entry of the result is an entry of ``op`` times 1 or 0, as in
    ``numpy.kron(op, I)`` followed by a basis permutation.
    """
    positions = [layout.position(l) for l in targets]
    if len(set(positions)) != len(positions):
        raise LayoutError(f"repeated target labels in {targets}")
    dims = layout.dims
    target_dim = math.prod(dims[p] for p in positions)
    if op.shape[-2:] != (target_dim, target_dim):
        raise LayoutError(
            f"operator shape {op.shape} does not match target dimension {target_dim}"
        )
    rest = [i for i in range(len(dims)) if i not in positions]
    full = op
    if rest:
        # kron(op, I) over the last two axes: [i*r + k, j*r + l] = op[i, j] * I[k, l]
        rest_dim = math.prod(dims[i] for i in rest)
        full = op[..., :, None, :, None] * np.eye(rest_dim, dtype=complex)[:, None, :]
        full = full.reshape(op.shape[:-2] + (target_dim * rest_dim,) * 2)
    # targets may still be permuted relative to the layout
    q = _digit_map(dims, tuple(positions + rest))
    return np.ascontiguousarray(full[..., q[:, None], q])


def plus_ket(n: int = 1) -> np.ndarray:
    """``|+>^{\\otimes n}`` vector."""
    v = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    return v
