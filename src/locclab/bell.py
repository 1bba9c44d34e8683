"""CHSH experiments on a delivered pair: exact correlations and sampled trials.

Observables are parametrized by one angle in the Z-X plane,
``O(a) = cos(a) Z + sin(a) X``, which suffices to reach the quantum maximum
``2*sqrt(2)`` on the canonical pair.  Sampled runs draw each party's setting
independently and uniformly per trial (free choice), apply projective
instruments, and estimate each correlation from its conditioned subsample.
Both paths read one table of the pair's moments ``<A_x (x) B_y>``, with
``A_0 = B_0 = I``: the exact correlations are its lower-right 2x2 block, and
the sampler's outcome probabilities follow from all nine entries
(Clauser, Horne, Shimony and Holt, PRL 23, 880, 1969), so no instrument is
built or applied.

Randomness is counter-based: trial ``i`` owns Philox counter block ``i``
under the master seed, so trials can be drawn in any grouping and still
reproduce the same transcript bit for bit.  The sampler draws them in fixed
blocks of ``BLOCK_TRIALS``, whose edges do not depend on the parallelism
width.  A trial draws its settings and outcomes from its four raw Philox
words with integer comparisons alone, the same ones ``Generator.random``
would make in doubles.  Inside a block one Philox stream gives the words
``_CHUNK_TRIALS`` trials at a time, and each chunk becomes one ``uint8``
outcome code per trial, counted per code (and formatted into transcript
rows when exporting) before the next chunk is drawn.  The estimate comes
from the summed counts, split into trials per setting pair and sign of
``a*b``, so sampling memory is set by the chunk size and never grows with
the trial count; only an export holds a block's rows until their turn.
Threads run a sliding window of blocks, handed on in trial order, and a
transcript export is written block by block as the trials are drawn.
:func:`sample_chsh` is the one sampling path and :func:`exact_chsh` the one
exact path; the transcript exists only as the text a run writes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product
from typing import BinaryIO, Iterator

import numpy as np

from .errors import EmptyCellError
from .instruments import PROB_FLOOR
from .linalg import DensityMatrix

__all__ = [
    "TSIRELSON_BOUND",
    "OPTIMAL_ANGLES",
    "CHSHConfig",
    "CHSHResult",
    "exact_chsh",
    "sample_chsh",
    "BLOCK_TRIALS",
    "TRANSCRIPT_HEADER",
]

TSIRELSON_BOUND = 2 * math.sqrt(2)

#: 45-degree-separated angles attaining the quantum maximum on the singlet.
OPTIMAL_ANGLES = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)

#: Trials per sampler block.  Block edges never depend on the parallel width.
BLOCK_TRIALS = 1 << 16

#: Trials drawn and reduced at a time inside a block: their 512 KiB of words stay in cache.
_CHUNK_TRIALS = 1 << 14

_CELL_NAMES = {(0, 0): "(a, b)", (0, 1): "(a, b')", (1, 0): "(a', b)", (1, 1): "(a', b')"}


@dataclass(frozen=True)
class CHSHConfig:
    """Angle quadruple plus sampling parameters."""

    a: float = OPTIMAL_ANGLES[0]
    a_prime: float = OPTIMAL_ANGLES[1]
    b: float = OPTIMAL_ANGLES[2]
    b_prime: float = OPTIMAL_ANGLES[3]
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")

    def alice_angles(self) -> tuple[float, float]:
        return (self.a, self.a_prime)

    def bob_angles(self) -> tuple[float, float]:
        return (self.b, self.b_prime)


@dataclass(frozen=True)
class CHSHResult:
    """Four correlations and the CHSH statistic built from them.

    ``s_value = E(a,b) + E(a,b') + E(a',b) - E(a',b')``; ``standard_error``
    is 0 in exact mode and the binomial propagation otherwise.
    """

    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float
    s_value: float
    s_abs: float
    tsirelson_gap: float
    standard_error: float

    @property
    def correlations(self) -> tuple[float, float, float, float]:
        return (self.e_ab, self.e_ab_prime, self.e_a_prime_b, self.e_a_prime_b_prime)


def _result_from_correlations(e: tuple[float, float, float, float], se: float) -> CHSHResult:
    s = e[0] + e[1] + e[2] - e[3]
    return CHSHResult(
        e_ab=e[0],
        e_ab_prime=e[1],
        e_a_prime_b=e[2],
        e_a_prime_b_prime=e[3],
        s_value=s,
        s_abs=abs(s),
        tsirelson_gap=TSIRELSON_BOUND - abs(s),
        standard_error=se,
    )


def _moments(pair: DensityMatrix, config: CHSHConfig) -> np.ndarray:
    """``m[x, y] = Tr(rho A_x (x) B_y)`` with ``A = [I, O(a), O(a')]`` and ``B = [I, O(b), O(b')]``.

    One ``einsum`` of the pair, as ``rho[a, b, c, d]`` with ``(q_A, q_B)``
    row and column indices, and each party's three 2x2 operators.
    """

    def ops(angles):
        obs = [[[math.cos(x), math.sin(x)], [math.sin(x), -math.cos(x)]] for x in angles]
        return np.array([[[1.0, 0.0], [0.0, 1.0]], *obs])

    alice, bob = ops(config.alice_angles()), ops(config.bob_angles())
    return np.einsum("abcd,xca,ydb->xy", pair.matrix.reshape(2, 2, 2, 2), alice, bob).real


def exact_chsh(pair: DensityMatrix, config: CHSHConfig = CHSHConfig()) -> CHSHResult:
    """CHSH statistic from the four correlations in :func:`_moments`; no sampling error."""
    return _result_from_correlations(tuple(_moments(pair, config)[1:, 1:].ravel().tolist()), 0.0)


def _outcome_thresholds(pair: DensityMatrix, config: CHSHConfig) -> tuple[np.ndarray, np.ndarray]:
    """``a_plus[2x+y] = P(A=+1 | x, y)`` and ``b_plus[2(2x+y)+i] = P(B=+1 | x, y, A=i)``.

    ``P(i, j | x, y) = (1 + s_i <A_x> + s_j <B_y> + s_i s_j E_xy) / 4`` with
    ``s = (+1, -1)``; Bob's probability is 0 after an Alice outcome of
    probability at most ``PROB_FLOOR``.
    """
    m = _moments(pair, config)
    s = np.array([1.0, -1.0])
    a, b, e = m[1:, 0, None, None], m[0, 1:, None], m[1:, 1:, None]  # [x, y, i]
    p_a = (1 + s * a) / 2
    p_ab = (1 + s * a + b + s * e) / 4  # [x, y, i] with Bob's outcome +1
    live = p_a > PROB_FLOOR
    b_plus = np.where(live, p_ab / np.where(live, p_a, 1.0), 0.0)
    return np.repeat(p_a[:, 0, 0], 2), b_plus.ravel()


def _word_thresholds(p: np.ndarray) -> np.ndarray:
    """Integer thresholds ``T``: ``w >> 11 >= T`` exactly when ``(w >> 11) 2**-53 >= p``."""
    return np.ceil(np.clip(p, 0.0, 1.0) * 2.0**53).astype(np.uint64)


def _block_codes(start: int, stop: int, seed: int, a_t, b_t) -> Iterator[np.ndarray]:
    """``uint8`` codes of trials [start, stop), ``_CHUNK_TRIALS`` at a time.

    Trial t draws Philox block t, so one stream started at counter ``start``
    gives every chunk's words in order.  Each chunk's words live only for its
    :func:`_codes` call, so they are freed before the next chunk is drawn.
    """
    stream = np.random.Philox(key=seed, counter=start)
    for lo in range(start, stop, _CHUNK_TRIALS):
        n = min(_CHUNK_TRIALS, stop - lo)
        yield _codes(stream.random_raw(4 * n).reshape(n, 4), a_t, b_t)


def _codes(w: np.ndarray, a_t, b_t) -> np.ndarray:
    """``uint8`` codes ``8x + 4y + 2i + j`` of the trials whose four words are the rows of ``w``.

    ``x, y`` are the settings and ``i, j`` the outcome indices, 0 for the +1 outcome.  Each
    comes from one word ``w`` as from ``Generator.random``'s double ``u = (w >> 11) 2**-53``:
    ``u >= 0.5`` is the top bit of ``w``, and ``u >= p`` is ``w >> 11 >= _word_thresholds(p)``.
    """
    code = (w[:, 0] >= 2**63).view(np.uint8) << 1 | (w[:, 1] >= 2**63)
    w >>= 11
    code = code << 1 | (w[:, 2] >= a_t.take(code))
    return code << 1 | (w[:, 3] >= b_t.take(code))


def _threaded(fn, starts: range, workers: int) -> Iterator:
    """``fn`` over ``starts`` in order, from a sliding window of ``workers`` blocks in flight."""
    from concurrent.futures import ThreadPoolExecutor  # here, so importing locclab loads no logging

    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = []
        for start in starts:
            if len(window) == workers:
                yield window.pop(0).result()
            window.append(pool.submit(fn, start))
        yield from (future.result() for future in window)


def _tally(counts: np.ndarray) -> np.ndarray:
    """``tally[x, y, s]`` of 16 code counts: trials with settings ``(x, y)`` and ``a*b`` +1 or -1."""
    c = counts.reshape(2, 2, 2, 2)
    return np.stack([c[..., 0, 0] + c[..., 1, 1], c[..., 0, 1] + c[..., 1, 0]], axis=-1)


def _estimate(tally: np.ndarray) -> CHSHResult:
    counts = tally.sum(axis=-1)
    for cell, name in _CELL_NAMES.items():
        if counts[cell] == 0:
            raise EmptyCellError(name)
    e = (tally[..., 0] - tally[..., 1]) / counts
    var = np.maximum(1.0 - e**2, 0.0)
    se = math.sqrt(float(np.sum(var / counts)))
    return _result_from_correlations(
        (float(e[0, 0]), float(e[0, 1]), float(e[1, 0]), float(e[1, 1])), se
    )


def sample_chsh(
    pair: DensityMatrix,
    config: CHSHConfig,
    parallel_width: int = 1,
    transcript_out: BinaryIO | None = None,
) -> CHSHResult:
    """Sampled CHSH experiment on ``pair``; deterministic given ``config.seed``.

    Trials run in blocks of ``BLOCK_TRIALS``, whatever the width, on at most
    ``min(parallel_width, cpu count, blocks)`` threads, and are handed on in
    trial order.  Each chunk of trials is counted as it is drawn, so memory
    does not grow with ``config.trials``.  With ``transcript_out``, a binary
    file, the transcript text is written to it in trial order as it is
    drawn: the ``TRANSCRIPT_HEADER`` line, then one ``"trial x y a b"`` row
    per trial, with outcomes ``a, b`` as ``+1`` or ``-1``.
    """
    if parallel_width < 1:
        raise ValueError(f"parallel width must be >= 1, got {parallel_width}")
    a_t, b_t = map(_word_thresholds, _outcome_thresholds(pair, config))

    def block(start: int) -> tuple[np.ndarray, list]:
        """The code counts of the block from trial ``start`` and, when exporting, its rows."""
        stop = min(start + BLOCK_TRIALS, config.trials)
        counts, rows = np.zeros(16, dtype=np.int64), []
        for codes in _block_codes(start, stop, config.seed, a_t, b_t):
            counts += np.bincount(codes, minlength=16)
            if transcript_out is not None:
                rows += _format_rows(np.arange(start, start + len(codes)), codes)
            start += len(codes)
        return counts, rows

    starts = range(0, config.trials, BLOCK_TRIALS)
    workers = min(parallel_width, os.cpu_count() or 1, len(starts))
    blocks = map(block, starts) if workers == 1 else _threaded(block, starts, workers)
    counts = np.zeros(16, dtype=np.int64)
    if transcript_out is not None:
        transcript_out.write(_HEADER_LINE)
    for part, rows in blocks:
        counts += part
        for group in rows:
            transcript_out.write(group)
        rows.clear()  # so the next block is drawn without this one's rows
    return _estimate(_tally(counts))


#: Column layout of the exported transcript text format.
TRANSCRIPT_HEADER = "trial alice_setting bob_setting alice_outcome bob_outcome"

_HEADER_LINE = (TRANSCRIPT_HEADER + "\n").encode("ascii")

#: ``" x y +a +b\n"`` of each outcome code ``8x + 4y + 2i + j``, as two items that share a
#: byte: numpy copies items of 8 and 4 bytes much faster than items of 11.
_TAIL = np.dtype({"head": ("V8", 0), "end": ("V4", 7)})
_ROW_TAILS = np.array(
    [
        f" {x} {y} {1 - 2 * i:+d} {1 - 2 * j:+d}\n".encode("ascii")
        for x, y, i, j in product((0, 1), repeat=4)
    ],
    dtype="V11",
).view(_TAIL)

#: ``_DIGITS[k - 1][n]``: the ``k`` digits of ``n < 10**k``, zero-padded, as one ``np.take`` item.
_FOUR_DIGITS = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")).T.copy()
_DIGITS = [np.ascontiguousarray(_FOUR_DIGITS[: 10**k, -k:]).view(f"V{k}")[:, 0] for k in range(1, 5)]

#: 10, 100, ..., 10**18: where the trial numbers of each digit count above one start.
_DIGIT_EDGES = 10 ** np.arange(1, 19)


def _format_rows(trials: np.ndarray, codes: np.ndarray) -> list[np.ndarray]:
    """Transcript rows as ASCII byte arrays, for nonnegative ascending ``trials``.

    Rows whose trial numbers have ``d`` digits are contiguous, and each such
    group is built as one packed record array of ``d + 11`` bytes a row: the
    leading digits, the others four at a time from ``_DIGITS``, then the row
    tail of the outcome code.
    """
    edges = [0, *np.searchsorted(trials, _DIGIT_EDGES), len(trials)]
    parts = []
    for d, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1):
        if lo == hi:
            continue
        lead, fours = (d - 1) % 4 + 1, (d - 1) // 4
        rows = np.empty(hi - lo, [("lead", f"V{lead}"), ("fours", "V4", (fours,)), ("tail", _TAIL)])
        q = trials[lo:hi]
        for k in reversed(range(fours)):
            r, q = q, q // 10**4
            np.take(_DIGITS[3], r - q * 10**4, out=rows["fours"][:, k])
        np.take(_DIGITS[lead - 1], q, out=rows["lead"])
        for field in _TAIL.names:
            np.take(_ROW_TAILS[field], codes[lo:hi], out=rows["tail"][field])
        parts.append(rows.view(np.uint8))
    return parts
