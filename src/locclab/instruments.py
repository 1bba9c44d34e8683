"""Quantum instruments: finite families of CP branch maps with TP sum.

An instrument maps a density operator to a list of classical outcomes, each
with its probability and normalized post-measurement state.  Branches are
stored in Kraus form because Kraus collections compose and coarse-grain
cheaply.  On first use an instrument lays out all its Kraus operators as one
flat ``(K, 2, 2)`` stack, with the branch and weight of each; the validator
and the kernel read only that stack.  The report of
:func:`validate_instrument` is kept with the frozen instrument, and so is
its stack extended to each pair qubit it is applied on.  One kernel,
:func:`apply_instrument`, applies the stack to a whole stack of pair states
at once; transcript enumeration in :mod:`locclab.distinguish` runs it on
each round.  The kernel does not check the post-states it returns, so every
caller checks the live ones with :func:`~locclab.linalg.check_density_stack`.
Every instrument acts on one qubit: a branch refuses any Kraus operator that
is not 2x2 when it is built, so no caller checks for one.

Branches carry signed real weights on their Kraus terms.  With all weights
+1 (the default) a branch is automatically completely positive;
negative weights let callers construct *invalid* instruments on purpose,
which is what makes the validator's CP check falsifiable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ContractError, LayoutError
from .linalg import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    extend_to_pair,
)

__all__ = [
    "TP_ATOL",
    "PROB_FLOOR",
    "InstrumentBranch",
    "QuantumInstrument",
    "CoarseGrainingPartition",
    "Violation",
    "ValidationReport",
    "validate_instrument",
    "apply_instrument",
    "coarse_grain",
    "measure_z",
    "measure_x",
    "measure_angle",
    "identity_instrument",
    "depolarizing_kraus",
    "unsharp_z",
    "settings_choice_instrument",
    "parse_instrument",
    "load_instrument",
]

#: Tolerance on the Kraus completeness sum (trace preservation defect).
TP_ATOL = 1e-9
#: Outcomes below this probability have no defined post-state.
PROB_FLOOR = 1e-12
#: Tolerance for the PSD check on branch Choi matrices.
CP_ATOL = 1e-9


def _as_operator_tuple(ops: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    out = []
    for op in ops:
        m = np.array(op, dtype=complex, copy=True)
        if m.shape != (2, 2):
            raise LayoutError(f"a Kraus operator acts on one qubit and is 2x2, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("Kraus operator contains non-finite entries")
        m.setflags(write=False)
        out.append(m)
    if not out:
        raise ValueError("branch needs at least one Kraus operator")
    return tuple(out)


@dataclass(frozen=True, eq=False)
class InstrumentBranch:
    """One outcome of an instrument: a CP map in weighted Kraus form on one qubit.

    ``weights`` holds one float per Kraus operator; left empty, every weight is +1.
    """

    outcome: str
    kraus: tuple[np.ndarray, ...]
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kraus", _as_operator_tuple(self.kraus))
        w = tuple(float(x) for x in self.weights) or (1.0,) * len(self.kraus)
        if len(w) != len(self.kraus):
            raise ValueError("weights length must match Kraus operator count")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class QuantumInstrument:
    """A finite family of CP branch maps whose sum is trace preserving.

    ``report`` validates the instrument on first use and keeps the result;
    the flat Kraus stack, and that stack extended to each pair qubit it is
    applied on, are kept the same way.
    """

    branches: tuple[InstrumentBranch, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        object.__setattr__(self, "branches", branches)
        if not branches:
            raise ValueError("instrument needs at least one branch")
        outcomes = [b.outcome for b in branches]
        if len(set(outcomes)) != len(outcomes):
            raise ValueError(f"duplicate outcome labels: {outcomes}")

    @cached_property
    def outcomes(self) -> tuple[str, ...]:
        return tuple(b.outcome for b in self.branches)

    @cached_property
    def report(self) -> "ValidationReport":
        """:func:`validate_instrument`, run once."""
        return validate_instrument(self)

    @cached_property
    def _stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kraus, branch, weight)``: every Kraus operator, branch by branch, as one
        ``(K, 2, 2)`` stack, with the index of its branch and its weight."""
        kraus = np.stack([k for b in self.branches for k in b.kraus])
        branch = np.repeat(np.arange(len(self.branches)), [len(b.kraus) for b in self.branches])
        return kraus, branch, np.array([w for b in self.branches for w in b.weights])

    @cached_property
    def _embedded(self) -> dict:
        """The stack extended to the pair, and its adjoint, keyed by target qubit."""
        return {}

    def branch(self, outcome: str) -> InstrumentBranch:
        for b in self.branches:
            if b.outcome == outcome:
                return b
        raise KeyError(outcome)


@dataclass(frozen=True)
class CoarseGrainingPartition:
    """Disjoint grouping of outcome labels covering an instrument's outcomes."""

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        groups = tuple((str(g), tuple(str(m) for m in members)) for g, members in self.groups)
        object.__setattr__(self, "groups", groups)
        labels = [g for g, _ in groups]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate group labels: {labels}")
        seen: set[str] = set()
        for g, members in groups:
            if not members:
                raise ValueError(f"group {g!r} is empty")
            overlap = seen.intersection(members)
            if overlap:
                raise ValueError(f"outcomes {sorted(overlap)} appear in more than one group")
            seen.update(members)

    def covered(self) -> set[str]:
        return {m for _, members in self.groups for m in members}


@dataclass(frozen=True)
class Violation:
    """One named defect found by the validator, with its measured magnitude."""

    branch: str | None
    kind: str  # "cp" | "completeness"
    magnitude: float

    def __str__(self) -> str:
        where = f"branch {self.branch!r}" if self.branch is not None else "instrument"
        return f"{where}: {self.kind} defect {self.magnitude:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]


def validate_instrument(inst: QuantumInstrument) -> ValidationReport:
    """Check complete positivity per branch and total trace preservation, from the stack.

    Passes iff each branch's Choi matrix ``sum_k w_k vec(K_k) vec(K_k)^dag``
    (column-stacking) is PSD within :data:`CP_ATOL` and the stack's
    ``sum_k w_k K_k^dag K_k`` equals the identity within :data:`TP_ATOL`
    (spectral norm).  Violations name the failing branch and the defect magnitude.
    """
    kraus, branch, weight = inst._stack
    vec = kraus.swapaxes(-1, -2).reshape(-1, 4)
    choi = np.zeros((len(inst.branches), 4, 4), dtype=complex)
    np.add.at(choi, branch, weight[:, None, None] * np.einsum("ki,kj->kij", vec, vec.conj()))
    violations = [
        Violation(b.outcome, "cp", -min_eig)
        for b, min_eig in zip(inst.branches, np.linalg.eigvalsh(choi)[:, 0].tolist())
        if min_eig < -CP_ATOL
    ]
    total = np.einsum("k,kji,kjl->il", weight, kraus.conj(), kraus)
    defect = float(np.linalg.norm(total - ID2, ord=2))
    if defect > TP_ATOL:
        violations.append(Violation(None, "completeness", defect))
    return ValidationReport(passed=not violations, violations=tuple(violations))


def apply_instrument(
    inst: QuantumInstrument, target: str, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every branch of ``inst``, on the ``target`` qubit, applied to a stack of pair states.

    ``states`` is an ``(n, 4, 4)`` stack of density matrices on the pair.  The
    instrument's Kraus stack, extended to ``target`` by one :func:`extend_to_pair`
    call on the first use of each target and kept with ``inst``, gives every
    ``E rho E^dagger`` in two ``einsum`` products, so no BLAS kernel enters
    the result.  With one operator of weight 1 per branch these are the
    outputs; otherwise each branch adds its operators' ``w E rho E^dagger``
    into zeros in stack order.  Returns ``probs`` of shape ``(branches, n)``
    and the normalized ``posts`` of shape ``(branches, n, 4, 4)``.  A
    probability at or below :data:`PROB_FLOOR` has no post-state: it is
    clamped to be nonnegative and its post-state is left zero.  Raises
    :class:`LayoutError` unless ``target`` is ``"q_A"`` or ``"q_B"``, and
    :class:`ContractError` if ``inst`` failed its validation.  The post-states
    are not checked here, so every caller passes the live ones
    (``posts[probs > PROB_FLOOR]``) to :func:`~locclab.linalg.check_density_stack`,
    as :func:`~locclab.distinguish.accessible_distributions` does once per round.
    """
    kraus, branch, weight = inst._stack
    if target not in inst._embedded:
        e = extend_to_pair(kraus, target)
        inst._embedded[target] = e, e.conj().swapaxes(-1, -2)
    e, e_dag = inst._embedded[target]
    if not inst.report.passed:
        raise ContractError("invalid instrument: " + "; ".join(map(str, inst.report.violations)))
    out = np.einsum("rnij,rjk->rnik", np.einsum("rij,njk->rnik", e, states), e_dag)
    # one Kraus operator of weight 1 per branch: E rho E^dagger itself is the output, since
    # adding it to zeros and multiplying by 1 would change only the sign of an exact zero
    if len(branch) > len(inst.branches) or (weight != 1.0).any():
        terms, out = out, np.zeros((len(inst.branches),) + states.shape, dtype=complex)
        terms *= weight[:, None, None, None]
        np.add.at(out, branch, terms)
    probs = np.trace(out, axis1=-2, axis2=-1).real
    live = probs > PROB_FLOOR
    posts = np.zeros_like(out)
    np.divide(out, probs[..., None, None], out=posts, where=live[..., None, None])
    return np.where(live, probs, np.maximum(probs, 0.0)), posts


def coarse_grain(inst: QuantumInstrument, partition: CoarseGrainingPartition) -> QuantumInstrument:
    """Merge outcome groups; a group's branch map is the sum of its members'.

    Summing CP maps is a Kraus-list union, so the group branch simply
    concatenates the member operator lists.
    """
    covered = partition.covered()
    have = set(inst.outcomes)
    if covered != have:
        raise ValueError(
            f"partition does not cover outcomes exactly: missing {sorted(have - covered)}, "
            f"unknown {sorted(covered - have)}"
        )
    branches = []
    for group_label, members in partition.groups:
        kraus: list[np.ndarray] = []
        weights: list[float] = []
        for m in members:
            b = inst.branch(m)
            kraus.extend(b.kraus)
            weights.extend(b.weights)
        branches.append(InstrumentBranch(group_label, tuple(kraus), tuple(weights)))
    return QuantumInstrument(tuple(branches))


# ---------------------------------------------------------------------------
# Standard single-qubit instruments


def projector(angle: float, sign: int) -> np.ndarray:
    """Projector on the ±1 eigenvector of cos(a)Z + sin(a)X."""
    obs = math.cos(angle) * PAULI_Z + math.sin(angle) * PAULI_X
    return (ID2 + sign * obs) / 2.0


def measure_angle(angle: float) -> QuantumInstrument:
    """Projective measurement of cos(a)Z + sin(a)X; outcome "0" is the +1 branch."""
    return QuantumInstrument(
        (
            InstrumentBranch("0", (projector(angle, +1),)),
            InstrumentBranch("1", (projector(angle, -1),)),
        )
    )


def measure_z() -> QuantumInstrument:
    return measure_angle(0.0)


def measure_x() -> QuantumInstrument:
    return measure_angle(math.pi / 2)


def identity_instrument() -> QuantumInstrument:
    return QuantumInstrument((InstrumentBranch("id", (ID2,)),))


def depolarizing_kraus(p: float) -> tuple[np.ndarray, ...]:
    """Single-qubit depolarizing channel Kraus operators for strength ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    return (
        math.sqrt(1 - 3 * p / 4) * ID2,
        math.sqrt(p / 4) * PAULI_X,
        math.sqrt(p / 4) * PAULI_Y,
        math.sqrt(p / 4) * PAULI_Z,
    )


def unsharp_z(sharpness: float = 0.8) -> QuantumInstrument:
    """Two-outcome unsharp Z measurement with confusion ``1 - sharpness``."""
    if not 0.5 <= sharpness <= 1.0:
        raise ValueError(f"sharpness must be in [0.5, 1], got {sharpness}")
    s, u = math.sqrt(sharpness), math.sqrt(1 - sharpness)
    k0 = np.array([[s, 0], [0, u]], dtype=complex)
    k1 = np.array([[u, 0], [0, s]], dtype=complex)
    return QuantumInstrument(
        (InstrumentBranch("0", (k0,)), InstrumentBranch("1", (k1,)))
    )


def settings_choice_instrument(angle0: float, angle1: float) -> QuantumInstrument:
    """Uniform random setting choice folded into one instrument.

    Four outcomes, labeled setting bit then outcome bit ("00", "01", "10",
    "11").  Each branch's single Kraus operator is the projector scaled by
    1/sqrt(2), so the four branch maps sum to a trace-preserving whole.
    """
    r = 1 / math.sqrt(2)
    branches = []
    for s_bit, angle in ((0, angle0), (1, angle1)):
        for o_bit, sign in ((0, +1), (1, -1)):
            branches.append(
                InstrumentBranch(f"{s_bit}{o_bit}", (r * projector(angle, sign),))
            )
    return QuantumInstrument(tuple(branches))


# ---------------------------------------------------------------------------
# Instrument definition file format
#
# Grammar (one token or row per line, '#' starts a comment, blank lines
# ignored):
#
#     instrument <name>
#     dimension 2
#     branch <outcome-label>
#     op
#     <2 rows of 2 whitespace-separated complex entries>
#     op
#     ...
#     branch <outcome-label>
#     ...
#     end
#
# Complex entries are written ``<re><+/-><im>i``, e.g. ``0.5-0.25i``; 17
# significant digits give every double exactly.

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def _parse_complex(token: str) -> complex:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise ValueError(f"malformed complex entry {token!r} (expected like '1.5-0.25i')")
    return complex(float(m.group(1)), float(m.group(2)))


def parse_instrument(text: str) -> tuple[str, QuantumInstrument]:
    """Parse the textual definition format; returns ``(name, instrument)``."""
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("#")]
    head = lines[0].split(maxsplit=1) if lines else []
    if head[:1] != ["instrument"]:
        raise ValueError("file must start with 'instrument <name>'")
    name = head[1] if len(head) == 2 else "instrument"
    if lines[-1] != "end":
        raise ValueError("file must end with 'end'")
    if lines[1].split() != ["dimension", "2"]:
        raise ValueError(f"second line must be 'dimension <d>' with d = 2, got {lines[1]!r}")

    branches: list[InstrumentBranch] = []
    outcome: str | None = None
    ops: list[np.ndarray] = []
    rows: list[list[complex]] = []
    in_op = False

    def close_op():
        nonlocal in_op, rows
        if in_op:
            if len(rows) != 2:
                raise ValueError(f"operator has {len(rows)} rows, expected 2")
            ops.append(np.array(rows, dtype=complex))
            rows = []
            in_op = False

    def close_branch():
        nonlocal outcome, ops
        close_op()
        if outcome is not None:
            if not ops:
                raise ValueError(f"branch {outcome!r} has no operators")
            branches.append(InstrumentBranch(outcome, tuple(ops)))
            outcome, ops = None, []

    for line in lines[2:-1]:
        parts = line.split(maxsplit=1)
        if parts[0] == "branch":
            close_branch()
            if len(parts) != 2:
                raise ValueError("branch line needs an outcome label")
            outcome = parts[1]
        elif line == "op":
            if outcome is None:
                raise ValueError("'op' before any 'branch'")
            close_op()
            in_op = True
        else:
            if not in_op:
                raise ValueError(f"unexpected line {line!r}")
            entries = [_parse_complex(tok) for tok in line.split()]
            if len(entries) != 2:
                raise ValueError(f"row has {len(entries)} entries, expected 2")
            rows.append(entries)
    close_branch()
    if not branches:
        raise ValueError("no branches defined")
    return name, QuantumInstrument(tuple(branches))


def load_instrument(path) -> tuple[str, QuantumInstrument]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instrument(fh.read())
