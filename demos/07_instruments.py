"""
Quantum instruments: validation, application, coarse-graining, files
====================================================================

An instrument is a finite family of completely positive branch maps whose
sum preserves trace; applying one yields classical outcomes paired with
probabilities and post-measurement states.  This tour builds a few,
validates them (including a deliberately broken one), applies them to
Alice's qubit of the pair state |+>|0>, coarse-grains a measurement into
full dephasing, and round-trips an instrument through the textual
definition format.
"""

import math

import numpy as np

from locclab import (
    CoarseGrainingPartition,
    apply_instrument,
    coarse_grain,
    measure_z,
    parse_instrument,
    serialize_instrument,
    unsharp_z,
    validate_instrument,
)
from locclab.instruments import InstrumentBranch, QuantumInstrument
from locclab.linalg import DensityMatrix


def main():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = DensityMatrix(np.kron(plus, np.diag([1.0, 0.0])))  # |+>|0> on (q_A, q_B)

    print("sharp Z measurement on q_A of |+>|0>:")
    for rec in apply_instrument(measure_z(), rho, "q_A"):
        print(f"  outcome {rec.outcome}: p = {rec.probability:.3f}")

    print("\nunsharp Z (sharpness 0.8) keeps some coherence in the post-state:")
    for rec in apply_instrument(unsharp_z(0.8), rho, "q_A"):
        off_diag = abs(rec.post_state.matrix[0, 2])  # <00|post|10>: q_A's coherence
        print(f"  outcome {rec.outcome}: p = {rec.probability:.3f}, |coherence| = {off_diag:.3f}")

    print("\nvalidation catches a broken instrument:")
    leaky = QuantumInstrument(
        (InstrumentBranch("only", (math.sqrt(0.5) * np.eye(2, dtype=complex),)),)
    )
    report = validate_instrument(leaky)
    print(f"  passed = {report.passed}")
    for v in report.violations:
        print(f"  {v}")

    print("\ngrouping both outcomes of a Z measurement gives pure dephasing:")
    part = CoarseGrainingPartition((("all", ("0", "1")),))
    dephase = coarse_grain(measure_z(), part)
    (rec,) = apply_instrument(dephase, rho, "q_A")
    print(f"  post-state of |+>|0>:\n{np.round(rec.post_state.matrix.real, 3)}")

    print("\ninstrument file format round-trip (17 significant digits, lossless):")
    text = serialize_instrument(unsharp_z(0.8), "unsharp-z")
    print("  " + "\n  ".join(text.splitlines()[:6]) + "\n  ...")
    name, back = parse_instrument(text)
    identical = all(
        np.array_equal(a.kraus[0], b.kraus[0])
        for a, b in zip(unsharp_z(0.8).branches, back.branches)
    )
    print(f"  parsed back '{name}', operators bit-identical: {identical}")


if __name__ == "__main__":
    main()
