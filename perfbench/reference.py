"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``locclab``.  The delivered pair is computed in closed
form instead of by dense evolution: the environment Hamiltonian has a zero
channel part, single-qubit rest terms and a ``Z (x) Z`` coupling, so given
the channel's Z-string every rest qubit evolves on its own.  Only the two
singlet branches ``|01>`` and ``|10>`` of the carrier qubits carry amplitude,
and the pair is the singlet with its coherence scaled by

    c = prod_j <phi_j(10)|phi_j(01)>,

a product of 2x2 overlaps (the spin-environment decoherence factor).  CHSH
values and purities follow from ``c`` alone; transcript distributions come
from Kraus recursion on the 4x4 pair.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
TSIRELSON = 2 * math.sqrt(2)
CHSH_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)  # a, a', b, b'


# ---------------------------------------------------------------------------
# The delivered pair


def rest_terms(seed: int, qbar_dim: int) -> list[tuple[float, float, float, float]]:
    """Single-qubit rest terms ``[[a, x+iy], [x-iy, d]]``, redrawn from the world seed.

    The draw order is the world's documented one: per rest qubit, two
    diagonal entries from U(-1, 1), then the off-diagonal parts from
    U(-0.7, 0.7).
    """
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(qbar_dim):
        a, d = rng.uniform(-1.0, 1.0, size=2)
        x, y = rng.uniform(-0.7, 0.7, size=2)
        terms.append((float(a), float(d), float(x), float(y)))
    return terms


def _evolved_plus(term, field: float, t: float) -> np.ndarray:
    """``exp(-i t (h + field Z)) |+>`` up to the global phase of ``h``'s trace.

    With ``h + field Z = h0 I + n.sigma`` the propagator is
    ``cos(t|n|) I - i sin(t|n|) n.sigma/|n|`` times ``exp(-i t h0)``; the
    phase is the same for both branches, so it cancels in every overlap.
    """
    a, d, x, y = term
    nx, ny, nz = x, -y, (a - d) / 2 + field
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if norm == 0.0:
        return PLUS.copy()
    n_sigma = (nx * X + ny * Y + nz * Z) / norm
    u = math.cos(t * norm) * I2 - 1j * math.sin(t * norm) * n_sigma
    return u @ PLUS


def pair_coherence(q_dim: int, qbar_dim: int, lam: float, seed: int, t: float) -> complex:
    """``c = <Phi(10)|Phi(01)>`` for an EPR world; exactly 1 at ``lam == 0`` up to rounding.

    Channel qubit ``i`` couples with weight ``+1/4`` (even ``i``) or ``-1/4``
    (odd ``i``).  The carriers are channel qubits 0 and 1; spare channel
    qubits stay in ``|0>`` (Z = +1).
    """
    spare = sum(0.25 if i % 2 == 0 else -0.25 for i in range(2, q_dim))
    field_01 = lam * (0.25 + 0.25 + spare)  # z0 = +1, z1 = -1
    field_10 = lam * (-0.25 - 0.25 + spare)
    c = 1.0 + 0.0j
    for term in rest_terms(seed, qbar_dim):
        c *= complex(np.vdot(_evolved_plus(term, field_10, t), _evolved_plus(term, field_01, t)))
    return c


def pair_state(c: complex) -> np.ndarray:
    """Singlet ``(|01> - |10>)/sqrt(2)`` with ``<01|rho|10> = -c/2``."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = -0.5 * c
    rho[2, 1] = -0.5 * np.conj(c)
    return rho


def correlation(c: complex, angle_a: float, angle_b: float) -> float:
    """``<O(a) (x) O(b)>`` on the dephased singlet; ``O(a) = cos(a) Z + sin(a) X``."""
    return -(math.cos(angle_a) * math.cos(angle_b) + c.real * math.sin(angle_a) * math.sin(angle_b))


def chsh(c: complex, b_shift: float = 0.0) -> dict:
    """Exact CHSH fields at the optimal angles, Bob's dials shifted by ``b_shift``."""
    a, ap, b, bp = CHSH_ANGLES
    b, bp = b + b_shift, bp + b_shift
    e = (correlation(c, a, b), correlation(c, a, bp), correlation(c, ap, b), correlation(c, ap, bp))
    s = e[0] + e[1] + e[2] - e[3]
    return {
        "e_ab": e[0],
        "e_ab_prime": e[1],
        "e_a_prime_b": e[2],
        "e_a_prime_b_prime": e[3],
        "s_value": s,
        "s_abs": abs(s),
        "tsirelson_gap": TSIRELSON - abs(s),
        "standard_error": 0.0,
    }


def s_abs(c: complex) -> float:
    return math.sqrt(2) * (1 + c.real)


def pair_purity(c: complex) -> float:
    return (1 + abs(c) ** 2) / 2


# ---------------------------------------------------------------------------
# Instruments and scripts


def projector(angle: float, sign: int) -> np.ndarray:
    return (I2 + sign * (math.cos(angle) * Z + math.sin(angle) * X)) / 2


def instrument_from_spec(spec: dict) -> list[tuple[str, list[np.ndarray]]]:
    """Branches ``(outcome, kraus list)`` of one bundled-script instrument spec."""
    kind = spec["kind"]
    if kind in ("measure_z", "measure_x", "measure_angle"):
        angle = {"measure_z": 0.0, "measure_x": math.pi / 2}.get(kind)
        angle = float(spec["angle"]) if angle is None else angle
        return [("0", [projector(angle, +1)]), ("1", [projector(angle, -1)])]
    if kind == "settings_choice":
        r = 1 / math.sqrt(2)
        return [
            (f"{s}{o}", [r * projector(float(angle), sign)])
            for s, angle in enumerate(spec["angles"])
            for o, sign in ((0, +1), (1, -1))
        ]
    if kind == "identity":
        return [("id", [I2.copy()])]
    if kind == "unsharp_z":
        s = float(spec.get("sharpness", 0.8))
        hi, lo = math.sqrt(s), math.sqrt(1 - s)
        return [("0", [np.diag([hi, lo]).astype(complex)]), ("1", [np.diag([lo, hi]).astype(complex)])]
    if kind == "depolarize_then_measure":
        p, angle = float(spec["p"]), float(spec.get("angle", 0.0))
        dep = [math.sqrt(1 - 3 * p / 4) * I2] + [math.sqrt(p / 4) * m for m in (X, Y, Z)]
        return [
            (label, [projector(angle, sign) @ k for k in dep])
            for label, sign in (("0", +1), ("1", -1))
        ]
    raise ValueError(f"unknown instrument kind {kind!r}")


def script_rounds(doc: dict) -> list[tuple[int, list, dict]]:
    """``(party, default branches, {visible outcomes: branches})`` per round; party 0 is Alice."""
    rounds = []
    for rdoc in doc["rounds"]:
        condition = {
            tuple(key.split(",")) if key else (): instrument_from_spec(spec)
            for key, spec in rdoc.get("condition", {}).items()
        }
        party = 0 if rdoc["party"] == "A" else 1
        rounds.append((party, instrument_from_spec(rdoc["instrument"]), condition))
    return rounds


def load_scripts(script_dir: Path) -> dict[str, list]:
    """Every bundled script by name, as reference rounds."""
    out = {}
    for path in sorted(Path(script_dir).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        out[doc["name"]] = script_rounds(doc)
    return out


def transcript_distribution(rho: np.ndarray, rounds, own_party: bool = False) -> dict:
    """Exact transcript probabilities by recursion over unnormalized 4x4 states.

    A conditioned round sees every earlier outcome, or with ``own_party``
    only its own party's earlier outcomes (the classical channel withheld).
    """
    out: dict[tuple[str, ...], float] = {}

    def recurse(transcript, parties, state, r):
        if r == len(rounds):
            out[transcript] = float(np.trace(state).real)
            return
        party, default, condition = rounds[r]
        visible = transcript
        if own_party:
            visible = tuple(o for o, p in zip(transcript, parties) if p == party)
        for outcome, kraus in condition.get(visible, default):
            nxt = np.zeros_like(state)
            for k in kraus:
                big = np.kron(k, I2) if party == 0 else np.kron(I2, k)
                nxt += big @ state @ big.conj().T
            recurse(transcript + (outcome,), parties + (party,), nxt, r + 1)

    recurse((), (), rho, 0)
    return out


def tvd(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def bob_marginal_spread(rho: np.ndarray, alice_variants: list) -> float:
    """Max TVD between Bob's Z-outcome marginals across Alice's instruments, channel withheld."""
    bob = (1, instrument_from_spec({"kind": "measure_z"}), {})
    marginals = []
    for branches in alice_variants:
        dist = transcript_distribution(rho, [(0, branches, {}), bob], own_party=True)
        m: dict[tuple[str, ...], float] = {}
        for t, p in dist.items():
            m[t[1:]] = m.get(t[1:], 0.0) + p
        marginals.append(m)
    return max(
        (tvd(marginals[i], marginals[j]) for i in range(len(marginals)) for j in range(i + 1, len(marginals))),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# Generated instrument files


def random_instrument(rng: np.random.Generator, outcomes: int, ops_per_branch: int) -> list:
    """A random valid qubit instrument: the blocks of a random isometry ``C^2 -> C^(2n)``."""
    n = outcomes * ops_per_branch
    g = rng.normal(size=(2 * n, 2)) + 1j * rng.normal(size=(2 * n, 2))
    v, _ = np.linalg.qr(g)
    blocks = [v[2 * r : 2 * r + 2, :] for r in range(n)]
    return [
        (f"o{o}", blocks[o * ops_per_branch : (o + 1) * ops_per_branch]) for o in range(outcomes)
    ]


def instrument_text(name: str, branches: list) -> str:
    """The package's textual instrument format, 17 significant digits per part."""
    lines = [f"instrument {name}", "dimension 2"]
    for outcome, kraus in branches:
        lines.append(f"branch {outcome}")
        for k in kraus:
            lines.append("op")
            lines.extend(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in k)
    lines.append("end")
    return "\n".join(lines) + "\n"


def parsed_instrument(text: str) -> list:
    """Branches as the file states them, so the check uses the rounded entries too."""
    branches: list = []
    rows: list = []
    for line in text.splitlines()[2:-1]:
        if line.startswith("branch"):
            branches.append((line.split(maxsplit=1)[1], []))
        elif line == "op":
            rows = []
            branches[-1][1].append(rows)
        else:
            rows.append([complex(tok.replace("i", "j")) for tok in line.split()])
    return [(o, [np.array(k, dtype=complex) for k in ks]) for o, ks in branches]
