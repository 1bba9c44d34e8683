"""
The shared pair cannot carry a message
======================================

Alice picks one of several local instruments -- measure Z, measure X, or
do nothing.  If Bob could detect her choice from his own marginal
statistics, the pair would be a faster-than-light telegraph.

He cannot: with the classical channel withheld, Bob's marginal is
identical across all of Alice's choices, in every world, decohered or
not.  The moment Alice *broadcasts* her outcome and Bob conditions on it,
his statistics do shift -- but that information traveled over the
classical (causal) channel, which the run says it used.
"""

from locclab import (
    ProtocolRound,
    epr_pairs,
    identity_instrument,
    measure_x,
    measure_z,
    no_signaling_check,
    singlet_density,
)


def main():
    variants = [measure_z(), measure_x(), identity_instrument()]
    bob = [ProtocolRound("B", measure_z())]

    quiet, loud = epr_pairs(2, 2, [0.0, 0.8], seed=0)
    pairs = {"identified pair": singlet_density(), "channel, lam=0": quiet, "channel, lam=0.8": loud}
    print("max shift of Bob's marginal across Alice's choices (channel withheld):")
    for name, pair in pairs.items():
        print(f"  {name:<17} {no_signaling_check(pair, variants, bob):.2e}")

    print("\nsame probe with Bob conditioning on Alice's broadcast outcome:")
    adaptive_bob = [ProtocolRound("B", measure_x(), {("0",): measure_z()})]
    classical_channel = True
    shift = no_signaling_check(
        singlet_density(), [measure_z(), identity_instrument()], adaptive_bob,
        classical_channel=classical_channel,
    )
    print(f"  marginal shift = {shift:.3f}")
    print(f"  classical_channel_used = {classical_channel}")
    print("  (classical correlation through a causal channel, not signaling)")


if __name__ == "__main__":
    main()
