"""Operational distinguishability of worlds under two-party protocols.

Everything an agent pair can access is the classical transcript
distribution of a protocol script run on the pair its world delivers.
This module computes those distributions exactly (branch enumeration, no
sampling; every script and pair of an experiment in one pass) as plain
dicts, checked where they are made, compares them in total variation
distance, and packages the standard experiments:
coupling-strength sweeps, channel-size comparisons at zero coupling,
no-signaling checks with the classical channel withheld, and
measurement-frame misalignment.  Each experiment reads delivered pairs;
building and delivering a run's worlds and writing payloads is the CLI's
job.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .bell import CHSHConfig, CHSHResult, exact_chsh
from .errors import CapacityError, ContractError
from .instruments import PROB_FLOOR, QuantumInstrument, apply_instrument
from .linalg import DensityMatrix, check_density_stack, purity
from .protocols import ProtocolRound, ProtocolScript
from .worlds import singlet_density

__all__ = [
    "SweepRow",
    "accessible_distributions",
    "total_variation",
    "indistinguishability_sweep",
    "channel_size_check",
    "no_signaling_check",
    "frame_misalignment_demo",
]

#: Slack on a distribution's total, before its rounds' completeness defects.
_NORMALIZATION_ATOL = 1e-10


def total_variation(p: Mapping[tuple[str, ...], float],
                    q: Mapping[tuple[str, ...], float]) -> float:
    """``0.5 * sum |p_t - q_t|`` over the union of the supports, added left to right.

    The terms are added in sorted order, and not by the builtin ``sum``: set
    order follows string hashing, which changes between processes, and
    ``sum`` compensates float rounding from CPython 3.12 on.
    """
    acc = 0.0
    for k in sorted(p.keys() | q.keys()):
        acc += abs(p.get(k, 0.0) - q.get(k, 0.0))
    return 0.5 * acc


def _visible(transcript: tuple[str, ...], script: ProtocolScript, r: int,
             classical_channel: bool) -> tuple[str, ...]:
    if classical_channel:
        return transcript
    party = script.rounds[r].party
    return tuple(transcript[j] for j in range(r) if script.rounds[j].party == party)


#: Bytes an enumeration holds per transcript and world: the 256 B of its 4x4 post-state,
#: the array view onto it, its probability and its share of the branch tuples.
_ENTRY_BYTES = 512


def _variants(rnd: ProtocolRound) -> tuple[QuantumInstrument, ...]:
    """The round's instrument and its condition variants."""
    return (rnd.instrument, *(rnd.condition or {}).values())


def _check_capacity(scripts: Sequence[ProtocolScript], n_worlds: int) -> None:
    """Refuse scripts whose transcripts, at ``_ENTRY_BYTES`` per world, overflow memory.

    A script has at most the product over its rounds of the most outcomes among
    the round's instrument and its condition variants as transcripts.
    """
    # the builtin sum adds integers here, so no rounding enters
    transcripts = sum(math.prod(max(len(inst.outcomes) for inst in _variants(r))
                                for r in script.rounds) for script in scripts)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if transcripts * n_worlds * _ENTRY_BYTES > memory:
        raise CapacityError(f"up to {transcripts} transcripts on {n_worlds} worlds need more "
                            f"than the {memory} B of physical memory")


def accessible_distributions(
    pairs: Sequence[DensityMatrix],
    scripts: Sequence[ProtocolScript],
    *,
    classical_channel: bool = True,
) -> list[list[dict[tuple[str, ...], float]]]:
    """Exact transcript distributions: for each of ``scripts``, one dict per pair
    from each transcript (a tuple of per-round outcomes, in enumeration order)
    to its probability.

    Each round's instrument acts on the acting party's own qubit of the
    pair; every branch is followed, so zero-probability transcripts stay in
    the support.  With ``classical_channel`` set (the default) a
    conditioned round sees every prior outcome; unset, it sees only its
    own party's.

    All scripts and pairs share one enumeration, whose trees grow in one
    pass per round.  Each branch gets its children as soon as its
    instrument is resolved, and its live pairs are queued by instrument
    and target.  Each queue then runs as one stack and writes the
    children's cells in place, and every live post-state of the round is
    checked in one batch before the next round uses any.  A branch dead on
    a pair (probability at most :data:`PROB_FLOOR`) is not applied there
    and its descendants get 0.0, so each script and pair gets the bytes it
    would get alone.  Equal instrument specs share one instrument (see
    :mod:`locclab.protocols`), validated once per process.  Scripts whose
    transcripts overflow physical memory raise ``CapacityError`` before
    any instrument is applied.  Each script's distributions are checked
    once, after the last round: a probability below ``-PROB_FLOOR``, or a
    total off 1 by more than 1e-10 plus each round's completeness defect,
    raises ``ContractError``.
    """
    _check_capacity(scripts, len(pairs))
    # per script: (transcript, [(probability, post-state or None) per pair]) of every branch so far
    trees = [[((), [(1.0, pair.matrix) for pair in pairs])] for _ in scripts]
    for r in range(max((len(s.rounds) for s in scripts), default=0)):
        # the live (probability, state, children, pair) entries grouped by (instrument,
        # target), each group to run as one stack and to write its children in place
        groups = {}
        for s, script in enumerate(scripts):
            if r >= len(script.rounds):
                continue
            rnd = script.rounds[r]
            target = "q_A" if rnd.party == "A" else "q_B"
            grown = []
            for t, cells in trees[s]:
                inst = rnd.resolve(_visible(t, script, r, classical_channel))
                kids = [[(0.0, None)] * len(cells) for _ in inst.outcomes]
                grown.extend(zip((t + (o,) for o in inst.outcomes), kids))
                for w, (prob, state) in enumerate(cells):
                    if state is not None and prob > PROB_FLOOR:
                        groups.setdefault((inst, target), []).append((prob, state, kids, w))
            trees[s] = grown
        live_posts = []
        for (inst, target), entries in groups.items():
            probs, posts = apply_instrument(inst, target, np.array([e[1] for e in entries]))
            live_posts.append(posts[probs > PROB_FLOOR])
            for (prob, _, kids, w), ps, outs in zip(entries, probs.T.tolist(), posts.swapaxes(0, 1)):
                for kid, p, post in zip(kids, ps, outs):
                    kid[w] = (prob * p, post if p > PROB_FLOOR else None)
        if live_posts:
            check_density_stack(np.concatenate(live_posts))
    dists = [[{t: cells[w][0] for t, cells in tree} for w in range(len(pairs))] for tree in trees]
    for script, per_pair in zip(scripts, dists):
        for dist in per_pair:
            if min(dist.values()) < -PROB_FLOOR:
                raise ContractError(f"script {script.name!r}: negative probability")
            miss = abs(sum(dist.values()) - 1.0)  # the builtin sum feeds only this tolerance test
            if miss > _NORMALIZATION_ATOL and miss > _slack(script):
                raise ContractError(f"script {script.name!r}: distribution misses 1 by {miss!r}")
    return dists


def _slack(script: ProtocolScript) -> float:
    """How far a total of ``script`` may miss 1: 1e-10, plus for each round the largest
    completeness defect (at most ``TP_ATOL``) of its instrument and condition variants.
    An instrument that failed validation never acts, so it adds nothing."""
    return _NORMALIZATION_ATOL + math.fsum(max(
        (i.report.completeness_defect for i in _variants(rnd) if i.report.passed), default=0.0)
        for rnd in script.rounds)


@dataclass(frozen=True)
class SweepRow:
    lam: float
    tvd_vs_er: float
    s_abs: float
    pair_purity: float


def _max_pairwise_tvd(dists: Sequence[Mapping[tuple[str, ...], float]]) -> float:
    return max((total_variation(p, q) for p, q in itertools.combinations(dists, 2)), default=0.0)


def indistinguishability_sweep(
    lams: Sequence[float], pairs: Sequence[DensityMatrix], script: ProtocolScript
) -> list[SweepRow]:
    """Distinguishability of each channel world's pair from the identified world's.

    ``pairs[i]`` is the pair of the world at coupling ``lams[i]``.  The
    couplings must ascend strictly from 0; the first row's distance is the
    zero-coupling limit and the remaining rows trace how decoherence
    exposes the channel.
    """
    if len(lams) == 0 or lams[0] != 0.0:
        raise ValueError("the worlds' couplings must start at 0")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("the worlds' couplings must be strictly ascending")
    [[*dists, er_dist]] = accessible_distributions([*pairs, singlet_density()], [script])
    return [SweepRow(lam=lam, tvd_vs_er=total_variation(dist, er_dist),
                     s_abs=exact_chsh(pair).s_abs, pair_purity=purity(pair))
            for lam, pair, dist in zip(lams, pairs, dists, strict=True)]


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
    if any(r.party != "B" for r in bob_rounds):
        raise ValueError("bob_rounds must all act as party B")
    scripts = [ProtocolScript("no-signaling probe", (ProtocolRound("A", variant),) + bob_rounds)
               for variant in alice_variants]
    marginals = [{} for _ in scripts]  # Bob's, summed in transcript order
    dists = accessible_distributions([pair], scripts, classical_channel=classical_channel)
    for bob, [dist] in zip(marginals, dists):
        for t, p in dist.items():
            bob[t[1:]] = bob.get(t[1:], 0.0) + p
    return _max_pairwise_tvd(marginals)


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
