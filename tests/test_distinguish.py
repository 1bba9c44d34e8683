"""Tests for transcript distributions, sweeps, no-signaling, and frames."""

import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from locclab import (
    CHSHConfig,
    DensityMatrix,
    OutcomeDistribution,
    ProtocolRound,
    ProtocolScript,
    TSIRELSON_BOUND,
    accessible_distributions,
    build_epr_world,
    build_er_world,
    bundled_corpus,
    bundled_script_names,
    canonical_chsh_script,
    channel_size_check,
    deliver_pair,
    deliver_pairs,
    frame_misalignment_demo,
    identity_instrument,
    load_bundled_script,
    measure_angle,
    measure_x,
    measure_z,
    no_signaling_check,
    sample_chsh,
    settings_choice_instrument,
    singlet_density,
    indistinguishability_sweep,
    total_variation,
)
from locclab import CapacityError, ContractError, distinguish, instruments, protocols
from locclab.cli import EXIT_OK, main
from locclab.protocols import script_from_dict

import helpers
import oracles


SINGLET = singlet_density()


def dist_of(*pairs) -> OutcomeDistribution:
    return OutcomeDistribution(tuple(((k,), v) for k, v in pairs))


def epr_pair(*args, **kwargs) -> DensityMatrix:
    """The pair the EPR world ``build_epr_world(*args, **kwargs)`` delivers."""
    return deliver_pair(build_epr_world(*args, **kwargs))


def distribution(pair: DensityMatrix, script: ProtocolScript, **kwargs) -> OutcomeDistribution:
    """``script``'s transcript distribution on ``pair`` alone."""
    [[dist]] = accessible_distributions([pair], [script], **kwargs)
    return dist


class TestAccessibleDistribution:
    def test_single_z_round_on_er(self):
        script = ProtocolScript("a_z", (ProtocolRound("A", measure_z()),))
        dist = distribution(SINGLET, script).as_dict()
        assert abs(dist[("0",)] - 0.5) < 1e-12
        assert abs(dist[("1",)] - 0.5) < 1e-12

    def test_double_z_anticorrelates_with_zero_entries_kept(self):
        script = ProtocolScript(
            "zz", (ProtocolRound("A", measure_z()), ProtocolRound("B", measure_z()))
        )
        dist = distribution(SINGLET, script).as_dict()
        assert set(dist) == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
        assert dist[("0", "0")] == 0.0
        assert dist[("1", "1")] == 0.0
        assert abs(dist[("0", "1")] - 0.5) < 1e-12
        assert abs(dist[("1", "0")] - 0.5) < 1e-12

    def test_chsh_script_against_dense_oracle(self):
        # decohered world, full independent path: dense-evolved pair plus
        # recursion over embedded Kraus maps
        world = build_epr_world(2, 2, 0.6, seed=5)
        script = canonical_chsh_script()
        ours = distribution(deliver_pair(world), script).as_dict()

        h_rest = oracles.rest_hamiltonian(list(world.rest_terms))
        pair = oracles.dense_world_pair(h_rest, 2, 2, 0.6, world.evolution_time)
        rounds = []
        for party, rnd in zip((0, 1), script.rounds):
            branches = [(b.outcome, list(b.kraus)) for b in rnd.instrument.branches]
            rounds.append((party, branches))
        oracle = oracles.transcript_distribution(pair, rounds)
        assert oracles.tvd(ours, oracle) < 1e-10

    def test_adaptive_script_uses_visible_transcript(self):
        script = load_bundled_script("adaptive_bob")
        dist = distribution(SINGLET, script).as_dict()
        # Alice "0" steers Bob to |1>: measuring Z gives "1" always
        assert dist[("0", "1")] == pytest.approx(0.5, abs=1e-12)
        assert dist[("0", "0")] == pytest.approx(0.0, abs=1e-12)
        # Alice "1" makes Bob measure X on |0>: uniform
        assert dist[("1", "0")] == pytest.approx(0.25, abs=1e-12)
        assert dist[("1", "1")] == pytest.approx(0.25, abs=1e-12)

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            distribution(SINGLET, ProtocolScript("none", ()))

    @pytest.mark.parametrize("conditioned", [False, True])
    def test_negative_weight_instrument_rejected(self, conditioned):
        bad = helpers.sign_flip_one_term(measure_x())
        if conditioned:
            bob = ProtocolRound("B", measure_z(), {("1",): bad})
        else:
            bob = ProtocolRound("B", bad)
        script = ProtocolScript("bad", (ProtocolRound("A", measure_z()), bob))
        with pytest.raises(ContractError, match="invalid instrument"):
            distribution(SINGLET, script)

    def test_instrument_on_dead_branches_only_is_not_applied(self):
        # Alice "0" steers Bob to |1>, so Bob's "0" branch is dead and the
        # invalid instrument conditioned on it never acts, as before
        bad = helpers.sign_flip_one_term(measure_x())
        script = ProtocolScript(
            "dead", (
                ProtocolRound("A", measure_z()),
                ProtocolRound("B", measure_z()),
                ProtocolRound("A", measure_z(), {("0", "0"): bad}),
            ),
        )
        dist = distribution(SINGLET, script).as_dict()
        assert dist[("0", "0", "0")] == dist[("0", "0", "1")] == 0.0

    def test_each_round_checked_in_one_batch_and_each_instrument_validated_once(
        self, monkeypatch
    ):
        checked, validated = [], []
        check_density_stack = distinguish.check_density_stack
        validate_instrument = instruments.validate_instrument

        def check(m):
            checked.append(m.shape)
            return check_density_stack(m)

        def validate(inst):
            validated.append(inst)
            return validate_instrument(inst)

        monkeypatch.setattr(distinguish, "check_density_stack", check)
        monkeypatch.setattr(instruments, "validate_instrument", validate)
        # parsed afresh, specs included: the shared instruments were validated earlier
        protocols._spec_instrument.cache_clear()
        script = script_from_dict(json.loads(helpers.bundled_script_text("adaptive_three")))
        pair = epr_pair(2, 2, 0.7, seed=3)
        distribution(pair, script)
        distribution(pair, script)
        assert len(checked) == 2 * len(script.rounds)
        assert all(c[0] >= 1 and c[1:] == (4, 4) for c in checked)
        assert len(validated) == len(set(map(id, validated))) >= 3

    def test_distribution_normalized_across_corpus(self):
        for script in bundled_corpus():
            dist = distribution(SINGLET, script)
            assert abs(sum(dist.as_dict().values()) - 1.0) < 1e-10

    @pytest.mark.parametrize("scripts", [[], [canonical_chsh_script()]])
    def test_unknown_visibility_refused_first(self, monkeypatch, scripts):
        # refused before the capacity check and before any instrument acts
        calls = []
        for name in ("apply_instrument", "_check_capacity"):
            fn = getattr(distinguish, name)
            monkeypatch.setattr(distinguish, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        pair = epr_pair(2, 2, 0.3, seed=1)
        with pytest.raises(ValueError, match="unknown condition visibility 'bogus'"):
            accessible_distributions([pair], scripts, condition_visibility="bogus")
        assert calls == []


class TestTotalVariation:
    def test_identical_is_zero(self):
        d = dist_of(("0", 0.5), ("1", 0.5))
        assert total_variation(d, d) == 0.0

    def test_disjoint_supports_is_one(self):
        assert total_variation(dist_of(("0", 1.0)), dist_of(("1", 1.0))) == 1.0

    def test_quarter_example(self):
        a = dist_of(("0", 0.75), ("1", 0.25))
        b = dist_of(("0", 0.5), ("1", 0.5))
        assert abs(total_variation(a, b) - 0.25) < 1e-15

    def test_metric_properties_on_corpus(self):
        script = canonical_chsh_script()
        p = distribution(SINGLET, script)
        q = distribution(epr_pair(2, 2, 0.7, seed=3), script)
        r = distribution(epr_pair(2, 2, 0.3, seed=3), script)
        assert abs(total_variation(p, q) - total_variation(q, p)) < 1e-15
        assert total_variation(p, q) <= total_variation(p, r) + total_variation(r, q) + 1e-12
        assert total_variation(p, p) < 1e-15


def epr_worlds(grid, q_dim=2, seed=0):
    """EPR worlds with two rest qubits at each coupling of ``grid``."""
    return [build_epr_world(q_dim, 2, lam, seed) for lam in grid]


class TestIndistinguishabilitySweep:
    def test_zero_grid(self):
        rows = indistinguishability_sweep(epr_worlds([0.0]), canonical_chsh_script())
        assert rows[0].tvd_vs_er <= 1e-10
        assert abs(rows[0].s_abs - TSIRELSON_BOUND) < 1e-10
        assert abs(rows[0].pair_purity - 1.0) < 1e-10

    def test_strictly_increasing_distance(self):
        rows = indistinguishability_sweep(epr_worlds([0.0, 0.5, 1.0], seed=4), canonical_chsh_script())
        tvds = [r.tvd_vs_er for r in rows]
        assert tvds[0] <= 1e-10
        assert tvds[0] < tvds[1] < tvds[2]

    def test_channel_size_invisible_at_zero(self):
        for q_dim in (2, 3):
            rows = indistinguishability_sweep(
                epr_worlds([0.0], q_dim=q_dim, seed=2), canonical_chsh_script()
            )
            assert rows[0].tvd_vs_er <= 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            indistinguishability_sweep([], canonical_chsh_script())
        with pytest.raises(ValueError):
            indistinguishability_sweep(epr_worlds([0.1, 0.5]), canonical_chsh_script())
        with pytest.raises(ValueError):
            indistinguishability_sweep(epr_worlds([0.0, 0.5, 0.5]), canonical_chsh_script())

    def test_corpus_indistinguishable_at_zero_coupling(self):
        epr = epr_pair(2, 2, 0.0, seed=17)
        corpus = bundled_corpus()
        assert len(corpus) >= 10
        for script in corpus:
            assert len(script.rounds) <= 3
            tvd = total_variation(distribution(epr, script), distribution(SINGLET, script))
            assert tvd <= 1e-10, script.name

    def test_decoupling_witness_rest_rerandomization(self):
        # at zero coupling the rest Hamiltonian's draw is invisible
        script = canonical_chsh_script()
        dists = [distribution(epr_pair(2, 2, 0.0, seed=s), script) for s in (0, 11, 42)]
        for other in dists[1:]:
            assert total_variation(dists[0], other) <= 1e-10


class TestChannelSizeCheck:
    def test_sizes_two_three_at_zero(self):
        pairs = [epr_pair(q_dim, 2, 0.0, seed=9) for q_dim in (2, 3)]
        assert channel_size_check(pairs, canonical_chsh_script()) <= 1e-10

    def test_single_size_is_zero(self):
        assert channel_size_check([epr_pair(2, 2, 0.0, seed=9)], load_bundled_script("zz")) == 0.0

    def test_coupling_reveals_size(self):
        pairs = [epr_pair(q_dim, 2, 0.7, seed=9) for q_dim in (2, 3)]
        assert channel_size_check(pairs, canonical_chsh_script()) > 1e-6

    def test_additional_scripts_at_zero(self):
        pairs = [epr_pair(q_dim, 2, 0.0, seed=1) for q_dim in (2, 3)]
        for name in ("zx", "adaptive_bob"):
            assert channel_size_check(pairs, load_bundled_script(name)) <= 1e-10

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_epr_world(1, 2, 0.0, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(2, 4), st.integers(1, 4), st.integers(0, 2**64),
                      st.floats(0.1, 5.0)),
            min_size=2, max_size=3,
        )
    )
    def test_whole_environment_invisible_at_zero_coupling(self, specs):
        # channel size, rest size, rest draw and evolution time all vary at once
        pairs = deliver_pairs([build_er_world()] + [
            build_epr_world(q_dim, qbar_dim, 0.0, seed, evolution_time=t)
            for q_dim, qbar_dim, seed, t in specs
        ])
        for script in bundled_corpus():
            assert channel_size_check(pairs, script) <= 1e-10, script.name


def bits(dist: OutcomeDistribution) -> list:
    """Entries with each probability as its exact bits, so that -0.0 differs from 0.0."""
    return [(t, p.hex()) for t, p in dist.entries]


def make_world(spec):
    return build_er_world() if spec is None else build_epr_world(*spec)


#: An ER world or ``(q_dim, qbar_dim, lam, seed)`` of an EPR world.
WORLD_SPECS = st.one_of(
    st.none(),
    st.tuples(
        st.integers(2, 3),
        st.integers(1, 3),
        st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        st.integers(0, 2**16),
    ),
)


class TestStackedWorlds:
    @pytest.mark.parametrize("visibility", ["full", "own-party"])
    def test_each_world_gets_its_own_bytes_across_the_corpus(self, visibility):
        pairs = [SINGLET, epr_pair(2, 2, 0.0, seed=21), epr_pair(2, 2, 0.8, seed=21)]
        names = bundled_script_names()
        assert len(names) == 13
        for name in names:
            script = load_bundled_script(name)
            [stacked] = accessible_distributions(pairs, [script], condition_visibility=visibility)
            assert len(stacked) == len(pairs)
            for pair, dist in zip(pairs, stacked):
                alone = distribution(pair, script, condition_visibility=visibility)
                assert bits(dist) == bits(alone), name

    @pytest.mark.parametrize("visibility", ["full", "own-party"])
    def test_every_script_at_once_equals_each_script_alone(self, visibility):
        pairs = [SINGLET, epr_pair(2, 2, 0.0, seed=21), epr_pair(2, 2, 0.8, seed=21)]
        scripts = bundled_corpus()
        assert len(scripts) == 13
        together = accessible_distributions(pairs, scripts, condition_visibility=visibility)
        assert len(together) == len(scripts)
        for script, dists in zip(scripts, together):
            alone = accessible_distributions(pairs, [script], condition_visibility=visibility)
            assert [bits(d) for d in dists] == [bits(d) for d in alone[0]], script.name
            for pair, dist in zip(pairs, dists):
                single = distribution(pair, script, condition_visibility=visibility)
                assert bits(dist) == bits(single), script.name

    def test_corrupt_post_state_raises_before_the_next_round(self, monkeypatch):
        # the last group of round 1 returns a post-state that is not a density
        # matrix; the round's one check must refuse it before round 2 runs
        scripts = [load_bundled_script(n) for n in ("three_round", "xx", "noisy_alice")]
        first_groups = len({(s.rounds[0].instrument, s.rounds[0].party) for s in scripts})
        assert first_groups == 3
        calls = []
        apply_instrument = distinguish.apply_instrument

        def corrupting(inst, target, states):
            calls.append(inst)
            probs, posts = apply_instrument(inst, target, states)
            if len(calls) == first_groups:
                posts = posts.copy()
                posts[0, -1, 0, 0] += 0.5
            return probs, posts

        monkeypatch.setattr(distinguish, "apply_instrument", corrupting)
        pairs = [SINGLET, epr_pair(2, 2, 0.8, seed=5)]
        with pytest.raises(ValueError, match="density matrix"):
            accessible_distributions(pairs, scripts)
        assert len(calls) == first_groups

    def test_no_scripts_no_distributions(self):
        assert accessible_distributions([SINGLET], []) == []

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        specs=st.lists(WORLD_SPECS, min_size=1, max_size=4),
        name=st.sampled_from(bundled_script_names()),
        visibility=st.sampled_from(["full", "own-party"]),
    )
    def test_stack_of_random_worlds_equals_each_world_alone(self, specs, name, visibility):
        pairs = deliver_pairs([make_world(spec) for spec in specs])
        script = load_bundled_script(name)
        [stacked] = accessible_distributions(pairs, [script], condition_visibility=visibility)
        for pair, dist in zip(pairs, stacked):
            alone = distribution(pair, script, condition_visibility=visibility)
            assert bits(dist) == bits(alone)

    def test_branches_dead_only_in_er(self):
        # X outcomes of the singlet anticorrelate, so "00" and "11" are dead
        # in ER (at most PROB_FLOOR, never negative) and live in a dephased world
        world = build_epr_world(2, 2, 0.8, seed=5)
        script = load_bundled_script("xx")
        [[er, epr]] = accessible_distributions([SINGLET, deliver_pair(world)], [script])
        for t in (("0", "0"), ("1", "1")):
            assert math.copysign(1.0, er.as_dict()[t]) == 1.0
            assert er.as_dict()[t] <= instruments.PROB_FLOOR
            assert epr.as_dict()[t] > 1e-3

        # a dead branch's descendants get +0.0 in ER only
        longer = ProtocolScript("xx then z", script.rounds + (ProtocolRound("A", measure_z()),))
        [[er3, epr3]] = accessible_distributions([SINGLET, deliver_pair(world)], [longer])
        for t in (("0", "0", "0"), ("0", "0", "1"), ("1", "1", "0"), ("1", "1", "1")):
            assert er3.as_dict()[t].hex() == "0x0.0p+0"
            assert epr3.as_dict()[t] > 1e-3

        h_rest = oracles.rest_hamiltonian(list(world.rest_terms))
        pair = oracles.dense_world_pair(h_rest, 2, 2, 0.8, world.evolution_time)
        rounds = [
            (party, [(b.outcome, list(b.kraus)) for b in rnd.instrument.branches])
            for party, rnd in zip((0, 1), script.rounds)
        ]
        oracle = oracles.transcript_distribution(pair, rounds)
        assert set(oracle) == set(epr.as_dict())
        for t, p in epr.entries:
            assert abs(p - oracle[t]) <= 1e-12, t

    @staticmethod
    def conditioned_on_00(instrument):
        bad = helpers.sign_flip_one_term(measure_x())
        return ProtocolScript(
            "bad after 00", (
                ProtocolRound("A", instrument),
                ProtocolRound("B", instrument),
                ProtocolRound("A", measure_z(), {("0", "0"): bad}),
            ),
        )

    def test_invalid_instrument_on_branches_dead_in_every_world_is_not_applied(self):
        # Z outcomes of a dephased singlet stay anticorrelated: "00" is dead everywhere
        script = self.conditioned_on_00(measure_z())
        pairs = [SINGLET, epr_pair(2, 2, 0.8, seed=5)]
        for dist in accessible_distributions(pairs, [script])[0]:
            assert dist.as_dict()[("0", "0", "0")] == dist.as_dict()[("0", "0", "1")] == 0.0

    def test_branch_whose_product_falls_below_the_floor_is_dead(self):
        # each step of "001" has probability about 1e-7, above PROB_FLOOR, but
        # their product is about 5e-15: the branch is dead and its instrument never acts
        tilt = measure_angle(6.3e-4)
        bad = helpers.sign_flip_one_term(measure_x())
        script = ProtocolScript(
            "tiny product", (
                ProtocolRound("A", measure_z()),
                ProtocolRound("B", tilt),
                ProtocolRound("A", tilt),
                ProtocolRound("B", measure_z(), {("0", "0", "1"): bad}),
            ),
        )
        pairs = [SINGLET, epr_pair(2, 2, 0.8, seed=5)]
        prefix = ProtocolScript("prefix", script.rounds[:3])
        for dist in accessible_distributions(pairs, [prefix])[0]:
            assert 0.0 < dist.as_dict()[("0", "0", "1")] <= instruments.PROB_FLOOR
        for dist in accessible_distributions(pairs, [script])[0]:
            probs = dist.as_dict()
            assert probs[("0", "0", "1", "0")] == probs[("0", "0", "1", "1")] == 0.0

    def test_invalid_instrument_on_a_branch_live_in_one_world_raises(self):
        # X outcomes: "00" is dead in ER and live in the dephased world
        script = self.conditioned_on_00(measure_x())
        accessible_distributions([SINGLET], [script])
        with pytest.raises(ContractError, match="invalid instrument"):
            accessible_distributions([SINGLET, epr_pair(2, 2, 0.8, seed=5)], [script])

    def test_no_worlds_no_distributions(self):
        assert accessible_distributions([], [canonical_chsh_script()]) == [[]]


class TestCallCounts:
    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        check_density_stack = distinguish.check_density_stack

        def check(m):
            calls.append(m.shape)
            return check_density_stack(m)

        monkeypatch.setattr(distinguish, "check_density_stack", check)
        return calls

    def test_corpus_distinguish_checks_each_round_once(self, checked, capsys):
        # all scripts share one enumeration: one check per round of the longest script
        argv = ["distinguish", "--seed", "3", "--lambda", "0.8", "--q-dim", "3"]
        assert main(argv) == EXIT_OK
        assert len(checked) == max(len(s.rounds) for s in bundled_corpus()) == 3

    @pytest.mark.parametrize("argv", [
        ["sweep", "--seed", "3", "--lambda-grid", "0,0.4,0.9,1.3"],
        ["qecc", "--seed", "3", "--q-dims", "2,3,4", "--lambda", "0.7"],
    ])
    def test_sweep_and_qecc_check_each_round_once(self, checked, capsys, argv):
        assert main([*argv, "--script", "adaptive_three"]) == EXIT_OK
        assert len(checked) == len(load_bundled_script("adaptive_three").rounds)

    def test_second_run_validates_nothing(self, monkeypatch, capsys):
        protocols.load_bundled_script.cache_clear()
        protocols._spec_instrument.cache_clear()
        validated = []
        validate_instrument = instruments.validate_instrument

        def validate(inst):
            validated.append(inst)
            return validate_instrument(inst)

        monkeypatch.setattr(instruments, "validate_instrument", validate)
        argv = ["distinguish", "--seed", "4", "--lambda", "0.5"]
        assert main(argv) == EXIT_OK
        first = len(validated)
        assert first == len(set(map(id, validated))) > 0
        assert main(argv) == EXIT_OK
        assert len(validated) == first

    def test_canonical_script_validated_once(self, monkeypatch, capsys):
        # sweep without --script runs the canonical CHSH script: its two
        # settings_choice instruments are validated on the first run only
        assert canonical_chsh_script() is canonical_chsh_script()
        assert canonical_chsh_script() is load_bundled_script("chsh_canonical")
        protocols.load_bundled_script.cache_clear()
        protocols._spec_instrument.cache_clear()
        validated = []
        validate_instrument = instruments.validate_instrument

        def validate(inst):
            validated.append(inst)
            return validate_instrument(inst)

        monkeypatch.setattr(instruments, "validate_instrument", validate)
        argv = ["sweep", "--seed", "5", "--lambda-grid", "0,0.5"]
        assert main(argv) == EXIT_OK
        assert len(validated) == 2
        assert main(argv) == EXIT_OK
        assert len(validated) == 2


class TestCapacity:
    #: Round 1 measures z (2 outcomes), or chooses a setting (4) after outcome "0": at most 8.
    SCRIPT = ProtocolScript("cond", (
        ProtocolRound("A", measure_z()),
        ProtocolRound("B", measure_z(), {("0",): settings_choice_instrument(0.0, 1.0)}),
    ))

    @pytest.mark.parametrize("spare,fits", [(0, True), (-1, False)])
    def test_bound_takes_each_rounds_most_outcomes(self, monkeypatch, spare, fits):
        scripts, pairs = [self.SCRIPT, load_bundled_script("zz")], [SINGLET] * 3
        memory = (2 * 4 + 2 * 2) * 3 * distinguish._ENTRY_BYTES + spare  # per transcript and world
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
        monkeypatch.setattr(distinguish.os, "sysconf", pages.__getitem__)
        if fits:
            assert len(accessible_distributions(pairs, scripts)) == 2
        else:
            with pytest.raises(CapacityError, match="up to 12 transcripts on 3 worlds"):
                accessible_distributions(pairs, scripts)

    def test_charge_covers_what_an_entry_holds(self):
        # alternating four-outcome rounds on 2 worlds: the traced peak per (transcript, world)
        # entry at 7 rounds, and per entry added from 6 to 7 rounds, stay under the charge
        pairs = [SINGLET] * 2
        choice = settings_choice_instrument(0.0, math.pi / 4)

        def script(rounds: int) -> ProtocolScript:
            return ProtocolScript("deep", [ProtocolRound("AB"[r % 2], choice) for r in range(rounds)])

        def peak(rounds: int) -> int:
            tracemalloc.start()
            try:
                accessible_distributions(pairs, [script(rounds)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        accessible_distributions(pairs, [script(2)])  # each party's instrument cache, untraced
        six, seven = peak(6), peak(7)
        entries = 2 * 4**7
        assert seven / entries <= distinguish._ENTRY_BYTES
        assert (seven - six) / (entries - 2 * 4**6) <= distinguish._ENTRY_BYTES


class TestNoSignaling:
    VARIANTS = None

    def variants(self):
        return [measure_z(), measure_x(), identity_instrument()]

    def test_er_world(self):
        max_tvd = no_signaling_check(SINGLET, self.variants(), [ProtocolRound("B", measure_z())])
        assert max_tvd <= 1e-10

    def test_decohered_world(self):
        max_tvd = no_signaling_check(
            epr_pair(2, 2, 0.8, seed=5),
            self.variants(),
            [ProtocolRound("B", measure_z())],
        )
        assert max_tvd <= 1e-10

    def test_multi_round_bob_with_own_conditioning(self):
        bob = [
            ProtocolRound("B", measure_z()),
            ProtocolRound("B", measure_x(), {("1",): measure_z()}),
        ]
        assert no_signaling_check(SINGLET, self.variants(), bob) <= 1e-10

    def test_classical_channel_flagged_and_distinguishing(self):
        # Bob conditions on Alice's broadcast outcome: marginals may shift
        bob = [ProtocolRound("B", measure_x(), {("0",): measure_z()})]
        variants = [measure_z(), identity_instrument()]
        assert no_signaling_check(SINGLET, variants, bob, classical_channel=True) > 1e-3
        # withholding the channel closes the gap
        assert no_signaling_check(SINGLET, variants, bob) <= 1e-10

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            no_signaling_check(SINGLET, [], [ProtocolRound("B", measure_z())])
        with pytest.raises(ValueError):
            no_signaling_check(SINGLET, self.variants(), [])
        with pytest.raises(ValueError):
            no_signaling_check(SINGLET, self.variants(), [ProtocolRound("A", measure_z())])


class TestFrames:
    def test_zero_offset(self):
        assert abs(frame_misalignment_demo(0.0).s_abs - TSIRELSON_BOUND) < 1e-10

    def test_quarter_turn_uncorrected_hits_classical_value(self):
        res = frame_misalignment_demo(math.pi / 4)
        assert abs(res.s_abs - 2.0) < 1e-10

    def test_quarter_turn_corrected_restores_maximum(self):
        res = frame_misalignment_demo(math.pi / 4, corrected=True)
        assert abs(res.s_abs - TSIRELSON_BOUND) < 1e-10

    def test_closed_form_for_generic_offsets(self):
        # uncorrected statistic is 2*sqrt(2)*|cos(offset)| at optimal angles
        for offset in (0.2, 0.9, 1.4, 2.2):
            res = frame_misalignment_demo(offset)
            assert abs(res.s_abs - TSIRELSON_BOUND * abs(math.cos(offset))) < 1e-10
            fixed = frame_misalignment_demo(offset, corrected=True)
            assert abs(fixed.s_abs - TSIRELSON_BOUND) < 1e-10


class TestCrossModule:
    def test_transcript_frequencies_match_exact_distribution(self):
        # every (settings, outcomes) cell of the sampled run agrees with the
        # exact enumeration within 5 standard errors
        dist = distribution(SINGLET, canonical_chsh_script()).as_dict()
        trials = 10**4
        out = io.BytesIO()
        sample_chsh(SINGLET, CHSHConfig(trials=trials, seed=11), transcript_out=out)
        counts: dict[tuple[str, str], int] = {}
        for _, x, y, a, b in helpers.transcript_rows(out.getvalue()):
            key = (f"{x}{0 if a == 1 else 1}", f"{y}{0 if b == 1 else 1}")
            counts[key] = counts.get(key, 0) + 1
        for key, p in dist.items():
            freq = counts.get(key, 0) / trials
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(freq - p) <= 5 * se, (key, freq, p)

    def test_sampled_frequencies_match_accessible_distribution(self):
        script = canonical_chsh_script()
        dist = distribution(SINGLET, script).as_dict()
        res = sample_chsh(SINGLET, CHSHConfig(trials=10**4, seed=3))
        from locclab import exact_chsh

        assert abs(res.s_abs - exact_chsh(SINGLET).s_abs) <= 5 * res.standard_error
        # the distribution's conditional correlations equal the exact ones
        for x, setting in ((0, "0"), (1, "1")):
            for y, bsetting in ((0, "0"), (1, "1")):
                cell = {
                    (a, b): dist[(setting + a, bsetting + b)]
                    for a in "01"
                    for b in "01"
                }
                total = sum(cell.values())
                corr = (
                    cell[("0", "0")] - cell[("0", "1")] - cell[("1", "0")] + cell[("1", "1")]
                ) / total
                angles_a = (0.0, math.pi / 2)
                angles_b = (math.pi / 4, -math.pi / 4)
                assert abs(corr - oracles.singlet_correlation(angles_a[x], angles_b[y])) < 1e-10
