"""
Delivering the pair through an explicit environment
===================================================

Instead of handing the agents a pair directly, an EPR-style world prepares
it on two designated channel qubits inside the environment, lets the
environment's own dynamics run, and only then hands the carriers over.  The
environment splits into the channel qubits, the remaining qubits, and a
coupling between the two scaled by a single knob ``lam``.

With the coupling off the delivered pair is the exact singlet no matter
what the rest of the environment does.  Turning it up dephases the pair:
purity drops, and the attainable CHSH statistic decays with it.  The
coherence responds monotonically over the sweep range used here; the table
is one coupling sweep of the canonical CHSH script.
"""

from locclab import (
    build_epr_world,
    canonical_chsh_script,
    deliver_pair,
    exact_chsh,
    indistinguishability_sweep,
    purity,
    singlet_density,
    trace_distance,
)


def main():
    print("zero coupling: the internal environment dynamics are invisible")
    for seed in (0, 1, 2):
        pair = deliver_pair(build_epr_world(q_dim=2, qbar_dim=2, lam=0.0, seed=seed))
        dist = trace_distance(pair, singlet_density())
        print(f"  seed {seed}: trace distance to the singlet = {dist:.2e}")

    print("\ncoupling strength vs delivered-pair purity and CHSH statistic")
    print("  lam    purity    |S|")
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2]
    worlds = [build_epr_world(q_dim=2, qbar_dim=2, lam=lam, seed=0) for lam in grid]
    for row in indistinguishability_sweep(worlds, canonical_chsh_script()):
        print(f"  {row.lam:.1f}    {row.pair_purity:.4f}    {row.s_abs:.4f}")

    print("\nthe environment size matters only through the coupling:")
    for qbar_dim in (1, 2, 3):
        pair = deliver_pair(build_epr_world(2, qbar_dim, 0.8, seed=0))
        s = exact_chsh(pair).s_abs
        print(f"  qbar_dim={qbar_dim}: purity = {purity(pair):.4f}, |S| = {s:.4f}")


if __name__ == "__main__":
    main()
