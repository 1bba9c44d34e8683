"""The two experimental worlds presented to Alice and Bob, seen only through their pairs.

An **ER world** hands the agents a boundary qubit pair that is directly
identified across their locations: the exact singlet, with zero environment
channel degrees of freedom, so its pair is :func:`singlet_density`.  An
**EPR world** routes the same pair through ``q_dim`` channel qubits inside
the environment, whose complement (``qbar_dim`` rest qubits) couples to
them with strength ``lam``.  A run's EPR worlds share the seed and
``qbar_dim``, so they share their rest terms: :func:`epr_pairs` draws those
once and delivers the pair of every world of the run, one per ``(q_dim,
lam)``, from one coherence pass; nothing else of a world is kept.

The environment Hamiltonian is used in factored form, because each of its
parts is local or diagonal::

    H = 0 (channel)  +  sum_j h_j (rest qubit j)  +  lam * sum_{i,j} w_i Z_i Z_j

with one seeded 2x2 Hermitian term ``h_j`` per rest qubit and one coupling
weight ``w_i`` per channel qubit.  The coupling is diagonal on the channel,
so a channel basis string ``z`` (``Z = +1`` on ``|0>``) is conserved and
imprints the field ``f(z) = lam * sum_i w_i z_i`` on every rest qubit, which
then evolves on its own under ``h_j + f(z) Z``.  The pair starts as the
singlet on channel qubits 0 and 1, with the spare channel qubits in ``|0>``
and the rest qubits in ``|+>``, so only the carrier strings ``01`` and ``10``
carry amplitude.  The delivered pair is therefore the singlet with its
coherence scaled by a product of 2x2 overlaps,

    c = prod_j <phi_j(10)|phi_j(01)>,   phi_j(z) = exp(-i t (h_j + f(z) Z)) |+>,

the decoherence factor of the spin-environment model (Zurek, PRD 26, 1862,
1982; Cucchietti, Paz and Zurek, PRA 72, 052113, 2005).  No matrix larger
than the 4x4 pair is formed.  At zero coupling both branches see the same
field, so ``c`` is 1 to rounding and the two worlds present the same pair;
any nonzero coupling dephases it.

Coupling form: the weights are staggered, ``+1/4, -1/4, +1/4, ...`` down the
channel.  A *uniform* collective coupling would be blind to the singlet
(both of its branches carry total-Z charge zero, so the environment cannot
distinguish them and no dephasing occurs); staggering the signs makes the
two branches imprint opposite fields on the rest qubits, ``+-lam/2``, plus
the common field ``lam/4`` of an odd channel's last spare qubit.  The 1/4
scale keeps the branch field difference at 1, so the pair coherence
responds monotonically to ``lam`` for ``lam * t <= pi/2``, the regime all
bundled sweeps use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapacityError
from .linalg import DensityMatrix

__all__ = ["QUBIT_CAP", "singlet_density", "epr_pairs"]

#: Largest EPR world, in qubits (boundary + channel + rest), that may be delivered.
QUBIT_CAP = 14

#: Lower ends and widths of the uniform draws of a rest term's ``h00, h11, Re h01, Im h01``.
_REST_LOW, _REST_SPAN = np.array([-1.0, -1.0, -0.7, -0.7]), np.array([2.0, 2.0, 1.4, 1.4])


@functools.cache
def singlet_density() -> DensityMatrix:
    """The canonical maximally entangled pair ``(|01> - |10>)/sqrt(2)``: built and checked once.

    It is the pair of the ER world.
    """
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / math.sqrt(2)
    v[2] = -1 / math.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


def epr_pairs(q_dims, qbar_dim: int, lams, seed: int, *,
              evolution_time: float = 1.0) -> list[DensityMatrix]:
    """The pairs of a run's EPR worlds, one per entry of ``q_dims`` and ``lams``, broadcast.

    Every world has ``qbar_dim`` rest qubits, the rest terms drawn once
    from ``seed`` (per rest qubit: two diagonal entries from U(-1, 1), then
    the real and imaginary off-diagonal parts from U(-0.7, 0.7)), and
    evolves for ``evolution_time``; a scalar ``q_dims`` and ``lams`` give one
    pair.  A world of more than ``QUBIT_CAP`` qubits, the two boundary
    qubits included, is refused before anything is drawn.  In each world
    the singlet is prepared on the two carrier channel qubits, the
    environment evolves, and everything but the carriers is traced out; by
    the factored form of the Hamiltonian (see the module docstring) this
    leaves the singlet with its coherence block scaled by ``c``: diagonal
    ``1/2`` on ``|01>`` and ``|10>`` and ``rho[01, 10] = -c/2``.  Nothing is
    assumed at zero coupling: there ``c`` is computed like any other and
    comes out as 1 to rounding.
    """
    q_dims, lams = np.broadcast_arrays(np.atleast_1d(q_dims), np.atleast_1d(lams).astype(float))
    q_dim = int(q_dims.max(initial=0))
    if 2 + q_dim + qbar_dim > QUBIT_CAP:
        raise CapacityError(
            f"world of {2 + q_dim + qbar_dim} qubits (2 boundary + {q_dim} channel + "
            f"{qbar_dim} rest) exceeds the cap of {QUBIT_CAP} qubits (dimension {2**QUBIT_CAP})"
        )
    if (q_dims < 2).any():
        raise ValueError(f"EPR worlds need q_dim >= 2 to carry the pair, got {q_dims.min()}")
    if qbar_dim < 1:
        raise ValueError("EPR worlds need at least one rest qubit (qbar_dim >= 1)")
    bad = lams[~((lams >= 0) & (lams < math.inf))]
    if bad.size:
        raise ValueError(f"lambda must be finite and >= 0, got {bad[0]}")
    if not 0 < evolution_time < math.inf:
        raise ValueError(f"evolution time must be finite and > 0, got {evolution_time}")
    c = _coherences(_rest_terms(qbar_dim, seed), q_dims, lams, float(evolution_time))
    rho = np.zeros((len(c), 4, 4), dtype=complex)
    rho[:, 1, 1] = rho[:, 2, 2] = 0.5
    rho[:, 1, 2], rho[:, 2, 1] = -0.5 * c, -0.5 * np.conj(c)
    return DensityMatrix.stack(rho)


def _rest_terms(qbar_dim: int, seed: int) -> np.ndarray:
    """The ``(qbar_dim, 2, 2)`` rest terms that ``seed`` draws, as :func:`epr_pairs` documents."""
    # numpy's uniform(low, high) is low + (high - low) * random(), so this is the same draw
    a, d, x, y = (_REST_LOW + _REST_SPAN * np.random.default_rng(seed).random((qbar_dim, 4))).T
    terms = np.empty((qbar_dim, 2, 2), dtype=complex)
    terms[:, 0, 0], terms[:, 0, 1], terms[:, 1, 0], terms[:, 1, 1] = a, x + 1j * y, x - 1j * y, d
    terms.setflags(write=False)  # one array serves every world of the run
    return terms


def _coherences(terms: np.ndarray, q_dims: np.ndarray, lams: np.ndarray, t: float) -> np.ndarray:
    """``c = prod_j <phi_j(10)|phi_j(01)>`` of worlds sharing the rest ``terms``, in closed form.

    World ``w`` has ``q_dims[w]`` channel qubits and coupling ``lams[w]``.
    Carrier branch ``01`` has ``z_0 = +1, z_1 = -1`` and ``10`` the reverse;
    the spare channel qubits sit in ``|0>`` (``z = +1``) in both, and their
    staggered weights sum to ``1/4`` on an odd channel and to 0 on an even
    one.  Rest qubit ``j`` starts in ``|+>`` and evolves for ``t`` under
    ``h_j + f Z = h0 I + n.sigma``, ``n = (Re h01, -Im h01, (h00 - h11)/2 + f)``
    with its branch's field ``f``: ``phi = cos(t|n|)|+> - i s (n.sigma)|+>``
    with ``s = sin(t|n|)/|n|``, or ``t`` at ``|n| = 0``.  ``|n|`` comes from
    nested ``hypot``, so no finite coupling overflows it, and the phase
    ``exp(-i t h0)``, common to both branches, cancels in the overlap.
    Every operation is elementwise over worlds: a world's ``c`` has the same bits in any stack.
    """
    # the field of branch 01, then of branch 10, on every rest qubit of each world
    fields = lams[:, None] * (np.array([0.5, -0.5]) + 0.25 * (q_dims % 2)[:, None])
    nx, ny = terms[:, 0, 1].real, -terms[:, 0, 1].imag  # over (world, branch, rest qubit)
    nz = (terms[:, 0, 0].real - terms[:, 1, 1].real) / 2 + fields[:, :, None]
    norm = np.hypot(np.hypot(nx, ny), nz)
    tn = t * norm
    s = np.divide(np.sin(tn), norm, out=t * np.ones_like(norm), where=norm > 0)
    # sqrt(2) (n.sigma)|+> and sqrt(2) phi, over (world, branch, rest qubit, basis state)
    n_plus = np.empty(norm.shape + (2,), dtype=complex)
    n_plus[..., 0], n_plus[..., 1] = nz + nx - 1j * ny, nx + 1j * ny - nz
    phi = np.cos(tn)[..., None] - 1j * s[..., None] * n_plus
    return np.prod(0.5 * np.einsum("wjk,wjk->wj", phi[:, 1].conj(), phi[:, 0]), axis=-1)
