"""
Can the agents tell the two worlds apart?
=========================================

Everything Alice and Bob can learn is the distribution of classical
transcripts their protocol produces.  This demo compares, script by
script, the transcript distribution of the identified-pair world against
the channel-delivered world, in total variation distance.

At zero coupling every bundled protocol -- projective measurements at
assorted angles, randomized CHSH settings, unsharp and noisy instruments,
adaptive multi-round scripts -- produces distance zero to numerical
precision: no experiment the agents can run distinguishes a direct
identification from a decoherence-free channel.  With coupling switched
on, the channel betrays itself exactly to the extent it decoheres.
"""

from locclab import (
    accessible_distributions,
    bundled_corpus,
    canonical_chsh_script,
    epr_pairs,
    indistinguishability_sweep,
    singlet_density,
    total_variation,
)


def main():
    # the agents hold only the pair each world delivers
    pairs = [*epr_pairs(q_dims=2, qbar_dim=2, lams=0.0, seed=0), singlet_density()]
    corpus = bundled_corpus()

    print("transcript distance at zero coupling, per bundled script:")
    for script, (epr0, er) in zip(corpus, accessible_distributions(pairs, corpus)):
        print(f"  {script.name:<16} {total_variation(epr0, er):.2e}")

    print("\nsweeping the coupling with the randomized-settings CHSH script:")
    grid = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
    pairs = epr_pairs(q_dims=2, qbar_dim=2, lams=grid, seed=0)
    rows = indistinguishability_sweep(grid, pairs, canonical_chsh_script())
    print(f"  {'lambda':>6} {'tvd_vs_er':>10} {'|S|':>7} {'purity':>7}")
    for r in rows:
        print(f"  {r.lam:6.2f} {r.tvd_vs_er:10.2e} {r.s_abs:7.4f} {r.pair_purity:7.4f}")
    print("distance from the identified world rises exactly as |S| and purity fall.")


if __name__ == "__main__":
    main()
