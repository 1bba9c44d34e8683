"""Shared random-object builders for the test suite."""

from __future__ import annotations

import io
from importlib import resources

import numpy as np

from locclab import PAIR_LABELS, DensityMatrix, apply_instrument
from locclab.instruments import PROB_FLOOR, InstrumentBranch, QuantumInstrument
from locclab.linalg import check_density_stack


def random_density(rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state of the pair ``(q_A, q_B)``."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m)


def random_target(rng: np.random.Generator) -> str:
    """``"q_A"`` or ``"q_B"``, uniformly."""
    return PAIR_LABELS[int(rng.integers(2))]


def random_hermitian(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_instrument(
    rng: np.random.Generator, n_outcomes: int, kraus_per_branch: int = 1
) -> QuantumInstrument:
    """Random valid one-qubit instrument from a Haar-ish isometry split into 2x2 blocks."""
    k_total = n_outcomes * kraus_per_branch
    g = rng.normal(size=(k_total * 2, 2)) + 1j * rng.normal(size=(k_total * 2, 2))
    isometry, _ = np.linalg.qr(g)
    blocks = [isometry[i * 2 : (i + 1) * 2, :] for i in range(k_total)]
    branches = []
    for j in range(n_outcomes):
        ops = tuple(blocks[j * kraus_per_branch + k] for k in range(kraus_per_branch))
        branches.append(InstrumentBranch(str(j), ops))
    return QuantumInstrument(tuple(branches))


def apply_to_state(
    inst: QuantumInstrument, state: np.ndarray, target: str
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel on the one 4x4 ``state``: a probability and a post-state per branch.

    The kernel leaves post-states unchecked, so the live ones are checked
    here; a dead branch's post-state is all zero.
    """
    probs, posts = apply_instrument(inst, target, state[None])
    probs, posts = probs[:, 0], posts[:, 0]
    check_density_stack(posts[probs > PROB_FLOOR])
    return probs, posts


def branches_of(inst: QuantumInstrument) -> list:
    """``inst`` as the ``(outcome, [2x2 kraus arrays])`` pairs of ``oracles.instrument_text``."""
    return [(b.outcome, list(b.kraus)) for b in inst.branches]


def sign_flip_one_term(inst: QuantumInstrument) -> QuantumInstrument:
    """Invalid variant: the first branch's first Kraus contribution negated."""
    first = inst.branches[0]
    weights = list(first.weights)
    weights[0] = -weights[0]
    bad = InstrumentBranch(first.outcome, first.kraus, tuple(weights))
    return QuantumInstrument((bad,) + inst.branches[1:])


def bundled_script_text(name: str) -> str:
    """JSON text of the script ``name`` shipped with the package."""
    return resources.files("locclab").joinpath(f"data/scripts/{name}.json").read_text("utf-8")


def transcript_rows(text: bytes) -> np.ndarray:
    """The ``(trial, x, y, a, b)`` integer rows of CHSH transcript text with at least one trial."""
    return np.loadtxt(io.BytesIO(text), dtype=np.int64, skiprows=1, ndmin=2)
