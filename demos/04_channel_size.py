"""
How many qubits implement the channel?  The agents cannot count them.
=====================================================================

The channel world can route the pair through 2, 3, or 4 environment
qubits.  The extra carriers sit idle in |0>, but they do couple to the
rest of the environment whenever the coupling is on, so a priori they
could shift what the agents see.

At zero coupling they cannot: transcript distributions agree pairwise to
numerical precision across channel sizes, for every protocol tried.  The
number of environment degrees of freedom implementing the channel is
operationally invisible -- the agents can bound it only through the
decoherence it causes, which is exactly what the nonzero-coupling rows
show.
"""

from locclab import (
    build_epr_world,
    canonical_chsh_script,
    channel_size_check,
    deliver_pairs,
    load_bundled_script,
)


def channel_pairs(q_dims, lam=0.0):
    """The pairs of one channel world per size, with the same rest of the environment."""
    return deliver_pairs([build_epr_world(q_dim, 2, lam, seed=0) for q_dim in q_dims])


def main():
    scripts = {
        "chsh_canonical": canonical_chsh_script(),
        "zx": load_bundled_script("zx"),
        "adaptive_bob": load_bundled_script("adaptive_bob"),
    }

    print("max pairwise transcript distance across channel sizes {2, 3}:")
    print("  script            lam=0        lam=0.7")
    for name, script in scripts.items():
        quiet = channel_size_check(channel_pairs([2, 3]), script)
        loud = channel_size_check(channel_pairs([2, 3], lam=0.7), script)
        print(f"  {name:<16}  {quiet:.2e}     {loud:.2e}")

    print("\nwith three sizes at once, still invisible at zero coupling:")
    worst = channel_size_check(channel_pairs([2, 3, 4]), canonical_chsh_script())
    print(f"  sizes (2, 3, 4): {worst:.2e}")


if __name__ == "__main__":
    main()
