"""Operational distinguishability of worlds under two-party protocols.

Everything an agent pair can access is the classical transcript
distribution of a protocol script run on the pair its world delivers.
This module computes those distributions exactly (branch enumeration, no
sampling; every script and pair of an experiment in one pass), compares
them in total variation distance, and packages the standard experiments:
coupling-strength sweeps, channel-size comparisons at zero coupling,
no-signaling checks with the classical channel withheld, and
measurement-frame misalignment.  Each experiment reads delivered pairs;
only the sweep, whose rows (``SweepRow``s) carry each world's coupling,
takes built worlds and delivers them itself.  Building and delivering a
run's worlds and writing payloads is the CLI's job.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bell import CHSHConfig, CHSHResult, exact_chsh
from .errors import CapacityError
from .instruments import PROB_FLOOR, QuantumInstrument, apply_instrument
from .linalg import DensityMatrix, check_density_stack, purity
from .protocols import ProtocolRound, ProtocolScript
from .worlds import World, deliver_pairs, singlet_density

__all__ = [
    "OutcomeDistribution",
    "SweepRow",
    "accessible_distributions",
    "total_variation",
    "indistinguishability_sweep",
    "channel_size_check",
    "no_signaling_check",
    "frame_misalignment_demo",
]

_NORMALIZATION_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact probabilities over classical transcripts.

    Transcripts are tuples of per-round outcome strings.  Entries with
    probability zero are kept so that supports stay comparable across
    worlds.
    """

    entries: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self):
        keys, probs = zip(*self.entries) if self.entries else ((), ())
        keys, probs = tuple(map(tuple, keys)), tuple(map(float, probs))
        object.__setattr__(self, "entries", tuple(zip(keys, probs)))
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate transcripts in distribution")
        if any(map((-PROB_FLOOR).__gt__, probs)):
            raise ValueError("negative probability in distribution")
        total = sum(probs)
        if abs(total - 1.0) > _NORMALIZATION_ATOL:
            raise ValueError(f"distribution not normalized (sum {total!r})")

    def as_dict(self) -> dict[tuple[str, ...], float]:
        return dict(self.entries)

    def marginal(self, round_indices: Sequence[int]) -> "OutcomeDistribution":
        """Distribution of the outcomes at the given round positions."""
        keep = tuple(round_indices)
        acc: dict[tuple[str, ...], float] = {}
        for t, p in self.entries:
            key = tuple(t[i] for i in keep)
            acc[key] = acc.get(key, 0.0) + p
        return OutcomeDistribution(tuple(sorted(acc.items())))


def total_variation(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """``0.5 * sum |p_i - q_i|`` over the union of supports.

    The sum runs over the sorted union: set order follows string hashing,
    which changes between processes, and so would the rounding of the sum.
    """
    pd, qd = p.as_dict(), q.as_dict()
    keys = sorted(set(pd) | set(qd))
    return 0.5 * sum(abs(pd.get(k, 0.0) - qd.get(k, 0.0)) for k in keys)


def _visible(transcript: tuple[str, ...], script: ProtocolScript, r: int, mode: str) -> tuple[str, ...]:
    if mode == "full":
        return transcript
    party = script.rounds[r].party
    return tuple(transcript[j] for j in range(r) if script.rounds[j].party == party)


#: Bytes an enumeration holds per transcript and world: the 256 B of its 4x4 post-state,
#: the array view onto it, its probability and its share of the branch tuples.
_ENTRY_BYTES = 512


def _check_capacity(scripts: Sequence[ProtocolScript], n_worlds: int) -> None:
    """Refuse scripts whose transcripts, at ``_ENTRY_BYTES`` per world, overflow memory.

    A script has at most the product over its rounds of the most outcomes among
    the round's instrument and its condition variants as transcripts.
    """
    transcripts = sum(math.prod(
        max(len(inst.outcomes) for inst in (r.instrument, *(r.condition or {}).values()))
        for r in script.rounds) for script in scripts)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if transcripts * n_worlds * _ENTRY_BYTES > memory:
        raise CapacityError(f"up to {transcripts} transcripts on {n_worlds} worlds need more "
                            f"than the {memory} B of physical memory")


def accessible_distributions(
    pairs: Sequence[DensityMatrix],
    scripts: Sequence[ProtocolScript],
    *,
    condition_visibility: str = "full",
) -> list[list[OutcomeDistribution]]:
    """Exact transcript distributions: a per-pair list for each of ``scripts``.

    Each round's instrument acts on the acting party's own qubit of the
    pair; every branch is followed, so zero-probability transcripts stay in
    the support.  ``condition_visibility`` controls which prior outcomes a
    conditioned round may see: ``"full"`` models an open classical channel,
    ``"own-party"`` withholds it.

    All scripts and pairs share one enumeration.  Each round groups the
    live ``(script, branch, pair)`` states by instrument and target, runs
    each group as one stack, and checks every live post-state of the round
    in one batch before the next round uses any.  A branch dead on a pair
    (probability at most :data:`PROB_FLOOR`) is not applied there and its
    descendants get 0.0, so each script and pair gets the bytes it would
    get alone.  Equal instrument specs share one instrument (see
    :mod:`locclab.protocols`), validated once per process.  Scripts whose
    transcripts overflow physical memory raise ``CapacityError`` before
    any instrument is applied.
    """
    if condition_visibility not in ("full", "own-party"):
        raise ValueError(f"unknown condition visibility {condition_visibility!r}")
    _check_capacity(scripts, len(pairs))
    # per script: (transcript, [probability, post-state or None] per pair) of every branch so far
    trees = [[((), [(1.0, pair.matrix) for pair in pairs])] for _ in scripts]
    for r in range(max((len(s.rounds) for s in scripts), default=0)):
        acting = [(s, script) for s, script in enumerate(scripts) if r < len(script.rounds)]
        # the instrument of each (script, branch), and the live (script, branch, pair)
        # entries grouped by (instrument, target), each group to run as one stack
        insts, groups = {}, {}
        for s, script in acting:
            rnd = script.rounds[r]
            target = "q_A" if rnd.party == "A" else "q_B"
            for k, (t, cells) in enumerate(trees[s]):
                inst = insts[s, k] = rnd.resolve(_visible(t, script, r, condition_visibility))
                for w, (prob, state) in enumerate(cells):
                    if state is not None and prob > PROB_FLOOR:
                        groups.setdefault((inst, target), []).append((s, k, w))
        children = {}  # (script, branch, pair) -> a (probability, post-state) per outcome
        live_posts = []
        for (inst, target), entries in groups.items():
            states = np.array([trees[s][k][1][w][1] for s, k, w in entries])
            probs, posts = apply_instrument(inst, target, states)
            live_posts.append(posts[probs > PROB_FLOOR])
            for (s, k, w), ps, outs in zip(entries, probs.T.tolist(), posts.swapaxes(0, 1)):
                prob = trees[s][k][1][w][0]
                children[s, k, w] = [
                    (prob * p, post if p > PROB_FLOOR else None) for p, post in zip(ps, outs)
                ]
        if live_posts:
            check_density_stack(np.concatenate(live_posts))
        for s, _ in acting:
            grown = []
            for k, (transcript, cells) in enumerate(trees[s]):
                outcomes = insts[s, k].outcomes
                dead = [(0.0, None)] * len(outcomes)
                per_outcome = zip(*(children.get((s, k, w), dead) for w in range(len(cells))))
                grown.extend(zip((transcript + (o,) for o in outcomes), per_outcome))
            trees[s] = grown
    return [[OutcomeDistribution(tuple((t, c[w][0]) for t, c in tree)) for w in range(len(pairs))]
            for tree in trees]


@dataclass(frozen=True)
class SweepRow:
    lam: float
    tvd_vs_er: float
    s_abs: float
    pair_purity: float


def _max_pairwise_tvd(dists: Sequence[OutcomeDistribution]) -> float:
    return max((total_variation(p, q) for p, q in itertools.combinations(dists, 2)), default=0.0)


def indistinguishability_sweep(worlds: Sequence[World], script: ProtocolScript) -> list[SweepRow]:
    """Distinguishability of each channel world from the identified world.

    The worlds' couplings must ascend strictly from 0; the first row's
    distance is the zero-coupling limit and the remaining rows trace how
    decoherence exposes the channel.  The worlds are delivered by one
    :func:`deliver_pairs` call, and each row reads its world's pair.
    """
    couplings = [world.lam for world in worlds]
    if not couplings or couplings[0] != 0.0:
        raise ValueError("the worlds' couplings must start at 0")
    if any(b <= a for a, b in zip(couplings, couplings[1:])):
        raise ValueError("the worlds' couplings must be strictly ascending")
    pairs = deliver_pairs(worlds)
    [[*dists, er_dist]] = accessible_distributions([*pairs, singlet_density()], [script])
    return [SweepRow(lam=world.lam, tvd_vs_er=total_variation(dist, er_dist),
                     s_abs=exact_chsh(pair).s_abs, pair_purity=purity(pair))
            for world, pair, dist in zip(worlds, pairs, dists)]


def channel_size_check(pairs: Sequence[DensityMatrix], script: ProtocolScript) -> float:
    """Max pairwise transcript distance across ``pairs``.

    At zero coupling the channel size (the number of environment qubits
    implementing it) and the rest of the environment are invisible to the
    agents, so over the pairs of worlds that differ only there the result
    is zero to numerical precision; nonzero coupling exposes them only
    through decoherence.
    """
    return _max_pairwise_tvd(accessible_distributions(pairs, [script])[0])


def no_signaling_check(
    pair: DensityMatrix,
    alice_variants: Sequence[QuantumInstrument],
    bob_rounds: Sequence[ProtocolRound],
    *,
    classical_channel: bool = False,
) -> float:
    """Max distance between Bob's marginals across Alice's instrument choices.

    Runs one joint script per Alice variant, all in one enumeration, and
    marginalizes each transcript onto Bob's rounds.  With the classical
    channel withheld (the default) Bob's conditioned rounds see only his own
    prior outcomes.  With ``classical_channel`` set, Bob conditions on
    Alice's broadcast outcomes, and a nonzero distance then reflects
    ordinary classical correlation, not signaling.
    """
    if not alice_variants:
        raise ValueError("need at least one Alice instrument variant")
    bob_rounds = tuple(bob_rounds)
    if not bob_rounds:
        raise ValueError("Bob needs at least one round")
    for r in bob_rounds:
        if r.party != "B":
            raise ValueError("bob_rounds must all act as party B")
    visibility = "full" if classical_channel else "own-party"
    scripts = [
        ProtocolScript("no-signaling probe", (ProtocolRound("A", variant),) + bob_rounds)
        for variant in alice_variants
    ]
    dists = accessible_distributions([pair], scripts, condition_visibility=visibility)
    return _max_pairwise_tvd([dist.marginal(range(1, 1 + len(bob_rounds))) for [dist] in dists])


def frame_misalignment_demo(
    relative_angle: float,
    *,
    corrected: bool = False,
    config: CHSHConfig = CHSHConfig(),
) -> CHSHResult:
    """Exact CHSH when Bob's z-axis is rotated by ``relative_angle``.

    Bob's dialed angles are shifted by the frame offset before they act.
    The offset acts as an angle, so it is first reduced to
    ``r = math.remainder(relative_angle, 2*pi)`` in ``[-pi, pi]``; a huge
    offset would otherwise swamp the dials in rounding.  Uncorrected, the
    statistic degrades (to ``2*sqrt(2)*|cos(r)|`` at the optimal angles);
    with a classical description of the offset Bob pre-compensates his
    dials, so they act as ``config.b`` and ``config.b_prime`` themselves
    and the maximum is restored.
    """
    if not corrected:
        r = math.remainder(relative_angle, math.tau)
        config = replace(config, b=config.b + r, b_prime=config.b_prime + r)
    return exact_chsh(singlet_density(), config)
