"""The two experimental worlds presented to Alice and Bob.

An **ER world** hands the agents a boundary qubit pair that is directly
identified across their locations: the exact singlet, with zero environment
channel degrees of freedom.  An **EPR world** routes the same pair through
``q_dim`` channel qubits inside the environment, whose complement
(``qbar_dim`` rest qubits) couples to them with strength ``lam``.

The environment Hamiltonian is stored in factored form, because each of its
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
two branches imprint opposite fields on the rest qubits.  The 1/4 scale
keeps the branch field difference at 1, so the pair coherence responds
monotonically to ``lam`` for ``lam * t <= pi/2``, the regime all bundled
sweeps use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .linalg import HERM_ATOL, DensityMatrix

__all__ = [
    "QUBIT_CAP",
    "World",
    "singlet_density",
    "build_er_world",
    "build_epr_world",
    "deliver_pair",
    "deliver_pairs",
    "pair_coherence",
]

#: Largest EPR world, in qubits (boundary + channel + rest), that may be built.
QUBIT_CAP = 14

#: Lower ends and widths of the uniform draws of a rest term's ``h00, h11, Re h01, Im h01``.
_REST_LOW, _REST_SPAN = np.array([-1.0, -1.0, -0.7, -0.7]), np.array([2.0, 2.0, 1.4, 1.4])


def singlet_density() -> DensityMatrix:
    """The canonical maximally entangled pair ``(|01> - |10>)/sqrt(2)``."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / math.sqrt(2)
    v[2] = -1 / math.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class World:
    """A complete experimental configuration delivering one boundary pair.

    An EPR world holds its environment Hamiltonian in factored form: a
    read-only ``(qbar_dim, 2, 2)`` array ``rest_terms`` of one Hermitian
    term per rest qubit, and the staggered ``coupling_weights`` of its
    ``q_dim`` channel qubits, scaled by ``lam``.
    """

    mode: str  # "ER" | "EPR"
    q_dim: int
    evolution_time: float
    lam: float = 0.0
    rest_terms: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))

    def __post_init__(self):
        terms = np.array(self.rest_terms, dtype=complex)
        terms.setflags(write=False)
        object.__setattr__(self, "rest_terms", terms)
        if terms.ndim != 3 or terms.shape[1:] != (2, 2):
            raise ValueError(f"rest terms must have shape (qbar_dim, 2, 2), got {terms.shape}")
        if not np.isfinite(terms).all():
            raise ValueError("rest terms contain non-finite entries")
        if np.abs(terms - terms.conj().swapaxes(-1, -2)).max(initial=0.0) > HERM_ATOL:
            raise ValueError("rest terms must be Hermitian")
        if self.mode not in ("ER", "EPR"):
            raise ValueError(f"mode must be 'ER' or 'EPR', got {self.mode!r}")
        if self.mode == "ER" and (self.q_dim, self.qbar_dim, self.lam) != (0, 0, 0.0):
            raise ValueError("ER worlds have no channel, no rest qubits and no coupling")
        if self.mode == "EPR" and self.q_dim < 2:
            raise ValueError(f"EPR worlds need q_dim >= 2 to carry the pair, got {self.q_dim}")
        if self.mode == "EPR" and self.qbar_dim < 1:
            raise ValueError("EPR worlds need at least one rest qubit (qbar_dim >= 1)")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0 < self.evolution_time < math.inf:
            raise ValueError(f"evolution time must be finite and > 0, got {self.evolution_time}")

    @property
    def qbar_dim(self) -> int:
        return len(self.rest_terms)

    @property
    def coupling_weights(self) -> tuple[float, ...]:
        """Staggered ``+1/4, -1/4, ...`` weight of each channel qubit's coupling."""
        return tuple(0.25 if i % 2 == 0 else -0.25 for i in range(self.q_dim))


@functools.cache
def build_er_world() -> World:
    """The world where the measured locations are directly identified: one per process."""
    return World(mode="ER", q_dim=0, evolution_time=1.0)


def build_epr_world(
    q_dim: int,
    qbar_dim: int,
    lam: float,
    seed: int,
    *,
    evolution_time: float = 1.0,
) -> World:
    """A world whose pair is delivered through ``q_dim`` environment channel qubits.

    The channel part of the Hamiltonian is zero (channel qubits idle), the
    rest part is one seeded random single-qubit term per rest qubit (per
    qubit: two diagonal entries from U(-1, 1), then the real and imaginary
    off-diagonal parts from U(-0.7, 0.7)), and the coupling is the staggered
    dephasing form scaled by ``lam``.  Worlds of more than ``QUBIT_CAP``
    qubits, the two boundary qubits included, are refused.
    """
    if 2 + q_dim + qbar_dim > QUBIT_CAP:
        raise CapacityError(
            f"world of {2 + q_dim + qbar_dim} qubits (2 boundary + {q_dim} channel + "
            f"{qbar_dim} rest) exceeds the cap of {QUBIT_CAP} qubits (dimension {2**QUBIT_CAP})"
        )
    # numpy's uniform(low, high) is low + (high - low) * random(), so this is the same draw
    a, d, x, y = (_REST_LOW + _REST_SPAN * np.random.default_rng(seed).random((qbar_dim, 4))).T
    terms = np.empty((qbar_dim, 2, 2), dtype=complex)
    terms[:, 0, 0], terms[:, 0, 1], terms[:, 1, 0], terms[:, 1, 1] = a, x + 1j * y, x - 1j * y, d
    return World("EPR", q_dim, float(evolution_time), float(lam), terms)


def pair_coherence(world: World) -> complex:
    """The pair coherence ``c`` of an EPR world: :func:`_coherences` of it alone."""
    return complex(_coherences([world])[0])


def _coherences(worlds: Sequence[World]) -> np.ndarray:
    """``c = prod_j <phi_j(10)|phi_j(01)>`` of EPR worlds of one rest size, in closed form.

    Carrier branch ``01`` has ``z_0 = +1, z_1 = -1`` and ``10`` the reverse;
    the spare channel qubits sit in ``|0>`` (``z = +1``) in both.  Rest qubit
    ``j`` starts in ``|+>`` and evolves for ``t = evolution_time`` under
    ``h_j + f Z = h0 I + n.sigma``, ``n = (Re h01, -Im h01, (h00 - h11)/2 + f)``
    with its branch's field ``f``: ``phi = cos(t|n|)|+> - i s (n.sigma)|+>``
    with ``s = sin(t|n|)/|n|``, or ``t`` at ``|n| = 0``.  ``|n|`` comes from
    nested ``hypot``, so no finite coupling overflows it, and the phase
    ``exp(-i t h0)``, common to both branches, cancels in the overlap.
    Every operation is elementwise over worlds: a world's ``c`` has the same bits in any stack.
    """
    # the field of branch 01, then of branch 10, on every rest qubit of each world
    fields = np.array([[world.lam * (sign * (w[0] - w[1]) + sum(w[2:])) for sign in (1, -1)]
                       for world in worlds for w in (world.coupling_weights,)])
    h = np.array([world.rest_terms for world in worlds])
    t = np.array([world.evolution_time for world in worlds])[:, None, None]
    nx, ny = h[:, None, :, 0, 1].real, -h[:, None, :, 0, 1].imag  # (world, branch, rest qubit)
    nz = ((h[:, :, 0, 0].real - h[:, :, 1, 1].real) / 2)[:, None] + fields[:, :, None]
    norm = np.hypot(np.hypot(nx, ny), nz)
    tn = t * norm
    s = np.divide(np.sin(tn), norm, out=t * np.ones_like(norm), where=norm > 0)
    # sqrt(2) (n.sigma)|+> and sqrt(2) phi, over (world, branch, rest qubit, basis state)
    n_plus = np.empty(norm.shape + (2,), dtype=complex)
    n_plus[..., 0], n_plus[..., 1] = nz + nx - 1j * ny, nx + 1j * ny - nz
    phi = np.cos(tn)[..., None] - 1j * s[..., None] * n_plus
    return np.prod(0.5 * np.einsum("wjk,wjk->wj", phi[:, 1].conj(), phi[:, 0]), axis=-1)


def deliver_pairs(worlds: Sequence[World]) -> list[DensityMatrix]:
    """:func:`deliver_pair` of each of ``worlds``, the undelivered ones delivered together.

    The undelivered EPR worlds of each rest size get one :func:`_coherences` pass
    and one :meth:`~locclab.linalg.DensityMatrix.stack` check; each pair is then
    cached with its world, so it is computed once.
    """
    groups: dict[int, dict[World, None]] = {}  # undelivered worlds by rest size; ER's is 0
    for world in worlds:
        if "_pair" not in vars(world):
            groups.setdefault(world.qbar_dim, {})[world] = None
    for qbar_dim, group in groups.items():
        if qbar_dim == 0:
            pairs = [singlet_density() for _ in group]
        else:
            c = _coherences(list(group))
            rho = np.zeros((len(group), 4, 4), dtype=complex)
            rho[:, 1, 1] = rho[:, 2, 2] = 0.5
            rho[:, 1, 2], rho[:, 2, 1] = -0.5 * c, -0.5 * np.conj(c)
            pairs = DensityMatrix.stack(rho)
        for world, pair in zip(group, pairs):
            vars(world)["_pair"] = pair
    return [vars(world)["_pair"] for world in worlds]


def deliver_pair(world: World) -> DensityMatrix:
    """Run the world and return the pair state on ``(q_A, q_B)``.

    An ER world delivers the exact singlet.  In an EPR world the singlet is
    prepared on the two carrier channel qubits, the environment evolves for
    ``evolution_time``, and everything but the carriers is traced out.  By
    the factored form of the Hamiltonian (see the module docstring) this
    leaves the singlet with its coherence block scaled by
    :func:`pair_coherence`: diagonal ``1/2`` on ``|01>`` and ``|10>`` and
    ``rho[01, 10] = -c/2``.  Nothing is assumed at zero coupling: there
    ``c`` is computed like any other and comes out as 1 to rounding.

    The pair is computed once per world, by :func:`deliver_pairs`, and shared.
    """
    return deliver_pairs([world])[0]
