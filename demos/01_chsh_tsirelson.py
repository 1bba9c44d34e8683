"""
CHSH at the quantum maximum
===========================

Two agents share a maximally entangled qubit pair.  Each trial, each of
them picks one of two measurement angles uniformly at random (Alice 0 or
90 degrees, Bob +45 or -45), measures their own qubit, and records the
+/-1 outcome.  Afterwards they pool their records, estimate the four
correlations E(x, y), and form the statistic

    S = E(a,b) + E(a,b') + E(a',b) - E(a',b').

Classical shared randomness caps |S| at 2; quantum mechanics caps it at
2*sqrt(2) ~ 2.8284, and the shared pair at these angles attains that
ceiling.  The exact computation hits it to machine precision; the sampled
run converges at the usual 1/sqrt(trials) rate, and the ratio
|S| / (2*sqrt(2)) doubles as an estimate of how much decoherence the
shared channel suffered (none, here).
"""

import io

import numpy as np

from locclab import (
    CHSHConfig,
    TSIRELSON_BOUND,
    exact_chsh,
    sample_chsh,
    singlet_density,
)


def main():
    pair = singlet_density()

    exact = exact_chsh(pair)
    print("exact correlations:", [round(e, 6) for e in exact.correlations])
    print(f"exact |S| = {exact.s_abs:.12f}   (2*sqrt(2) = {TSIRELSON_BOUND:.12f})")
    print(f"gap to the quantum bound: {exact.tsirelson_gap:.2e}")
    print()

    for trials in (1_000, 10_000, 100_000):
        res = sample_chsh(pair, CHSHConfig(trials=trials, seed=7))
        sigmas = abs(res.s_abs - TSIRELSON_BOUND) / res.standard_error
        print(
            f"trials={trials:>7}: |S| = {res.s_abs:.4f} +/- {res.standard_error:.4f}"
            f"   ({sigmas:.2f} standard errors from the bound)"
        )

    # the transcript is text, one "trial x y a b" row per trial under a header
    transcript = io.BytesIO()
    res = sample_chsh(pair, CHSHConfig(trials=100_000, seed=7), transcript_out=transcript)
    transcript.seek(0)
    rows = np.loadtxt(transcript, dtype=int, skiprows=1)
    counts = np.zeros((2, 2), dtype=int)
    np.add.at(counts, (rows[:, 1], rows[:, 2]), 1)
    print()
    print("setting-pair counts (free choice is uniform):")
    print(counts)

    print(f"\nestimated channel visibility: {res.s_abs / TSIRELSON_BOUND:.4f}")


if __name__ == "__main__":
    main()
