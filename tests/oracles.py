"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch against plain numpy:
matrix exponentials by scaled Taylor series instead of eigendecomposition,
operator embedding and partial traces by explicit index loops instead of
reshapes, transcript distributions by direct recursion over embedded
Kraus operators, and CHSH trials, transcript text and counts one row at a time.
These functions trade speed for obviousness; they must never import from
the package under test.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)

SQRT2 = math.sqrt(2.0)


def kron_chain(ops) -> np.ndarray:
    out = np.array(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.array(op, dtype=complex))
    return out


def series_expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by Taylor series with scaling and squaring."""
    norm = np.linalg.norm(m, ord=np.inf)
    s = max(0, int(math.ceil(math.log2(norm)))) if norm > 1 else 0
    a = m / (2**s)
    term = np.eye(m.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 60):
        term = term @ a / k
        total += term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(s):
        total = total @ total
    return total


def digits_of(index: int, dims) -> list[int]:
    """Mixed-radix digits, factor 0 most significant."""
    out = []
    rem = index
    for d in reversed(dims):
        out.append(rem % d)
        rem //= d
    return list(reversed(out))


def index_of(digits, dims) -> int:
    idx = 0
    for g, d in zip(digits, dims):
        idx = idx * d + g
    return idx


def embed_by_loops(op: np.ndarray, dims, positions) -> np.ndarray:
    """Operator on the named positions, identity elsewhere, by explicit loops.

    Row ``r`` reaches only the columns that agree with it off the target
    positions, so for each row the loop runs over the target digits of the
    column alone.
    """
    total = math.prod(dims)
    target_dims = [dims[p] for p in positions]
    out = np.zeros((total, total), dtype=complex)
    for r in range(total):
        rd = digits_of(r, dims)
        tr = index_of([rd[p] for p in positions], target_dims)
        for tc, target_digits in enumerate(product(*(range(d) for d in target_dims))):
            cd = list(rd)
            for p, g in zip(positions, target_digits):
                cd[p] = g
            out[r, index_of(cd, dims)] = op[tr, tc]
    return out


def ptrace_by_loops(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit summation over the traced indices."""
    keep = list(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_states = list(product(*(range(dims[i]) for i in keep)))
    out = np.zeros((len(kept_states), len(kept_states)), dtype=complex)

    def index(kept_digits, traced_digits):
        digits = [0] * len(dims)
        for i, g in zip(keep, kept_digits):
            digits[i] = g
        for i, g in zip(traced, traced_digits):
            digits[i] = g
        return index_of(digits, dims)

    for traced_digits in product(*(range(dims[i]) for i in traced)):
        for rk, row_digits in enumerate(kept_states):
            r = index(row_digits, traced_digits)
            for ck, col_digits in enumerate(kept_states):
                out[rk, ck] += rho[r, index(col_digits, traced_digits)]
    return out


def rest_hamiltonian(terms) -> np.ndarray:
    """Sum of single-qubit terms, term ``j`` on qubit ``j``, embedded by loops."""
    n = len(terms)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for j, term in enumerate(terms):
        out += embed_by_loops(np.asarray(term, dtype=complex), [2] * n, [j])
    return out


def singlet_vector() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / SQRT2
    v[2] = -1 / SQRT2
    return v


def dense_world_pair(
    h_rest: np.ndarray, q_dim: int, qbar_dim: int, lam: float, t: float
) -> np.ndarray:
    """Brute-force delivered pair: full space incl. boundary, no shortcuts.

    Builds the complete register (2 boundary + q_dim channel + qbar_dim rest
    qubits), the full Hamiltonian with the staggered Z-Z coupling, evolves
    the full density matrix with the series exponential, and traces down to
    the two pair carriers by explicit summation.
    """
    n = 2 + q_dim + qbar_dim
    dims = [2] * n
    total = 2**n
    ham = np.zeros((total, total), dtype=complex)
    rest_positions = list(range(2 + q_dim, n))
    ham += embed_by_loops(h_rest, dims, rest_positions)
    for i in range(q_dim):
        w = 0.25 if i % 2 == 0 else -0.25
        for j in range(qbar_dim):
            ham += lam * w * embed_by_loops(np.kron(Z, Z), dims, [2 + i, 2 + q_dim + j])

    psi = kron_chain(
        [np.array([1, 0, 0, 0], dtype=complex), singlet_vector()]
        + [np.array([1, 0], dtype=complex)] * (q_dim - 2)
        + [np.array([1, 1], dtype=complex) / SQRT2] * qbar_dim
    )
    rho = np.outer(psi, psi.conj())
    u = series_expm(-1j * t * ham)
    rho_t = u @ rho @ u.conj().T
    pair = ptrace_by_loops(rho_t, dims, [2, 3])
    return pair / np.trace(pair).real


def coherence_by_series(terms, q_dim: int, lam: float, t: float) -> complex:
    """Pair coherence ``prod_j <phi_j(10)|phi_j(01)>`` with series-exponential propagators.

    Carrier branch ``01`` holds ``Z = +1`` on channel qubit 0 and ``-1`` on
    qubit 1, branch ``10`` the reverse, and the spare channel qubits hold
    ``+1``.  Rest qubit ``j`` starts in ``|+>`` and evolves under its term
    plus ``lam * sum_i w_i z_i`` times Z, with the staggered weights ``w_i``.
    """
    weights = [0.25 if i % 2 == 0 else -0.25 for i in range(q_dim)]
    branches = ([1, -1] + [1] * (q_dim - 2), [-1, 1] + [1] * (q_dim - 2))
    fields = [lam * sum(w * z for w, z in zip(weights, zs)) for zs in branches]
    plus = np.array([1, 1], dtype=complex) / SQRT2
    c = 1 + 0j
    for term in terms:
        h = np.asarray(term, dtype=complex)
        phi = [series_expm(-1j * t * (h + f * Z)) @ plus for f in fields]
        c *= np.vdot(phi[1], phi[0])
    return complex(c)


def dephased_singlet(coherence: complex) -> np.ndarray:
    """Singlet with its off-diagonal block scaled by ``coherence``."""
    out = np.zeros((4, 4), dtype=complex)
    out[1, 1] = out[2, 2] = 0.5
    out[1, 2] = -0.5 * np.conj(coherence)
    out[2, 1] = -0.5 * coherence
    return out


def singlet_correlation(angle_a: float, angle_b: float) -> float:
    return -math.cos(angle_a - angle_b)


def product_00_correlation(angle_a: float, angle_b: float) -> float:
    return math.cos(angle_a) * math.cos(angle_b)


def chsh_from_correlation(corr) -> float:
    a, ap, b, bp = 0.0, math.pi / 2, math.pi / 4, -math.pi / 4
    return corr(a, b) + corr(a, bp) + corr(ap, b) - corr(ap, bp)


def transcript_distribution(pair: np.ndarray, rounds) -> dict[tuple[str, ...], float]:
    """Exact transcript probabilities by recursion over embedded Kraus maps.

    ``rounds`` is a list of ``(party, branches)`` with party 0 acting on the
    first qubit and 1 on the second; ``branches`` is a list of
    ``(outcome, [2x2 kraus arrays])``.  Works on unnormalized states so
    zero-probability transcripts appear naturally.
    """
    out: dict[tuple[str, ...], float] = {}

    def recurse(transcript, rho, r):
        if r == len(rounds):
            out[transcript] = float(np.trace(rho).real)
            return
        party, branches = rounds[r]
        for outcome, kraus in branches:
            nxt = np.zeros_like(rho)
            for k in kraus:
                big = np.kron(k, I2) if party == 0 else np.kron(I2, k)
                nxt += big @ rho @ big.conj().T
            recurse(transcript + (outcome,), nxt, r + 1)

    recurse((), pair.astype(complex), 0)
    return out


def dial(angle: float) -> list:
    """The projective branches of cos(a)Z + sin(a)X, outcome "0" the +1 branch, as
    ``(outcome, [2x2 kraus arrays])`` pairs."""
    obs = math.cos(angle) * Z + math.sin(angle) * X
    return [("0", [(I2 + obs) / 2]), ("1", [(I2 - obs) / 2])]


def instrument_text(name: str, branches) -> str:
    """An instrument file: ``branches`` as ``(outcome, [2x2 kraus arrays])`` pairs, each
    entry written ``<re><+/-><im>i`` with 17 significant digits."""
    lines = [f"instrument {name}", "dimension 2"]
    for outcome, kraus in branches:
        lines.append(f"branch {outcome}")
        for k in kraus:
            lines.append("op")
            for row in np.asarray(k, dtype=complex):
                lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row.tolist()))
    return "\n".join(lines) + "\nend\n"


def tvd(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def format_transcript_rows(rows) -> str:
    """CHSH transcript text, one Python f-string per row under the fixed header."""
    lines = ["trial alice_setting bob_setting alice_outcome bob_outcome"]
    for row in rows:
        lines.append(f"{row[0]} {row[1]} {row[2]} {row[3]:+d} {row[4]:+d}")
    return "\n".join(lines) + "\n"


def chsh_counts(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Trials and summed outcome products ``a*b`` per setting pair, one row at a time."""
    counts = [[0, 0], [0, 0]]
    products = [[0, 0], [0, 0]]
    for row in rows:
        x, y = int(row[1]), int(row[2])
        counts[x][y] += 1
        products[x][y] += int(row[3]) * int(row[4])
    return counts, products


def sampled_codes(seed: int, trials, a_plus, b_plus) -> list[int]:
    """Outcome code ``8x + 4y + 2i + j`` of each trial, each trial drawn alone.

    Trial ``t`` takes four doubles from its own generator,
    ``Generator(Philox(key=seed, counter=t)).random(4)``: the settings are
    ``u >= 0.5`` and the outcome indices ``u >= a_plus[2x + y]`` and
    ``u >= b_plus[2(2x + y) + i]``, compared as floats.
    """
    codes = []
    for t in trials:
        u = np.random.Generator(np.random.Philox(key=seed, counter=t)).random(4)
        x, y = int(u[0] >= 0.5), int(u[1] >= 0.5)
        i = int(u[2] >= a_plus[2 * x + y])
        j = int(u[3] >= b_plus[2 * (2 * x + y) + i])
        codes.append(8 * x + 4 * y + 2 * i + j)
    return codes
