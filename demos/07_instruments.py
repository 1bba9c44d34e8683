"""
Quantum instruments: validation, application, coarse-graining, files
====================================================================

An instrument is a finite family of completely positive branch maps whose
sum preserves trace; applying one yields classical outcomes paired with
probabilities and post-measurement states.  This tour builds a few,
validates them (including a deliberately broken one), applies them to
Alice's qubit of the pair state |+>|0>, coarse-grains a measurement into
full dephasing, and parses an instrument from the textual definition
format.
"""

import math

import numpy as np

from locclab import (
    CoarseGrainingPartition,
    apply_instrument,
    coarse_grain,
    measure_z,
    parse_instrument,
    unsharp_z,
    validate_instrument,
)
from locclab.instruments import PROB_FLOOR, InstrumentBranch, QuantumInstrument
from locclab.linalg import DensityMatrix, check_density_stack

#: ``unsharp_z(0.8)`` in the instrument file format, as README shows it.
UNSHARP_Z_TEXT = """\
instrument unsharp-z
dimension 2
branch 0
op
0.89442719099991586+0i 0+0i
0+0i 0.44721359549995787+0i
branch 1
op
0.44721359549995787+0i 0+0i
0+0i 0.89442719099991586+0i
end
"""


def outcomes(inst, rho, target):
    """``(outcome, probability, post-state matrix)`` of each branch of ``inst`` on ``rho``.

    The kernel leaves its post-states unchecked, so the live ones are checked here.
    """
    probs, posts = apply_instrument(inst, target, rho.matrix[None])
    check_density_stack(posts[probs > PROB_FLOOR])
    return zip(inst.outcomes, probs[:, 0].tolist(), posts[:, 0])


def main():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = DensityMatrix(np.kron(plus, np.diag([1.0, 0.0])))  # |+>|0> on (q_A, q_B)

    print("sharp Z measurement on q_A of |+>|0>:")
    for outcome, p, _ in outcomes(measure_z(), rho, "q_A"):
        print(f"  outcome {outcome}: p = {p:.3f}")

    print("\nunsharp Z (sharpness 0.8) keeps some coherence in the post-state:")
    for outcome, p, post in outcomes(unsharp_z(0.8), rho, "q_A"):
        off_diag = abs(post[0, 2])  # <00|post|10>: q_A's coherence
        print(f"  outcome {outcome}: p = {p:.3f}, |coherence| = {off_diag:.3f}")

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
    ((_, _, post),) = outcomes(dephase, rho, "q_A")
    print(f"  post-state of |+>|0>:\n{np.round(post.real, 3)}")

    print("\ninstrument file format round-trip (17 significant digits, lossless):")
    print("  " + "\n  ".join(UNSHARP_Z_TEXT.splitlines()[:6]) + "\n  ...")
    name, back = parse_instrument(UNSHARP_Z_TEXT)
    identical = all(
        np.array_equal(a.kraus[0], b.kraus[0])
        for a, b in zip(unsharp_z(0.8).branches, back.branches)
    )
    print(f"  parsed back '{name}', operators bit-identical: {identical}")


if __name__ == "__main__":
    main()
