"""Shared random-object builders for the test suite."""

from __future__ import annotations

import builtins
import io
import math
from importlib import resources

import numpy as np

from locclab import PAIR_LABELS, DensityMatrix, apply_instrument
from locclab.instruments import PROB_FLOOR, QuantumInstrument
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
    return QuantumInstrument(
        (str(j), blocks[j * kraus_per_branch : (j + 1) * kraus_per_branch])
        for j in range(n_outcomes)
    )


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
    return [(outcome, ops) for outcome, ops, _ in weighted_branches_of(inst)]


def weighted_branches_of(inst: QuantumInstrument) -> list:
    """``inst`` as ``(outcome, [2x2 kraus arrays], [weights])`` triples, the constructor's input."""
    return [
        (o, list(inst.kraus[inst.branch == i]), inst.weight[inst.branch == i].tolist())
        for i, o in enumerate(inst.outcomes)
    ]


def sign_flip_one_term(inst: QuantumInstrument) -> QuantumInstrument:
    """Invalid variant: the first branch's first Kraus contribution negated."""
    branches = weighted_branches_of(inst)
    branches[0][2][0] = -branches[0][2][0]
    return QuantumInstrument(branches)


#: A valid instrument file: branch 0's 1.0000000004 leaves a completeness defect of
#: 8e-10, inside TP_ATOL but eight times the 1e-10 a distribution's total may miss 1 by alone.
LEAKY_INSTRUMENT = """instrument leaky
dimension 2
branch 0
op
1.0000000004+0i 0+0i
0+0i 0+0i
branch 1
op
0+0i 0+0i
0+0i 1+0i
end
"""


def bundled_script_text(name: str) -> str:
    """JSON text of the script ``name`` shipped with the package."""
    return resources.files("locclab").joinpath(f"data/scripts/{name}.json").read_text("utf-8")


def transcript_rows(text: bytes) -> np.ndarray:
    """The ``(trial, x, y, a, b)`` integer rows of CHSH transcript text with at least one trial."""
    return np.loadtxt(io.BytesIO(text), dtype=np.int64, skiprows=1, ndmin=2)


_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 and later add floats: Neumaier's compensated summation.

    A copy of the float path of ``builtin_sum_impl`` in CPython 3.12's
    ``Python/bltinmodule.c``.  An int ``start`` is added to the first item
    uncompensated, as the int path hands over to the float path there.  A
    non-float item, or a start that is neither int nor float, sends the
    whole sum to the interpreter's own ``sum``.
    """
    items = list(iterable)
    if type(start) not in (int, float) or any(type(x) is not float for x in items):
        return _BUILTIN_SUM(items, start)
    if type(start) is int:
        if not items:
            return start
        start, items = start + items[0], items[1:]
    total, c = start, 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    if c and math.isfinite(c):
        total += c
    return total
