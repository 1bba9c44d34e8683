"""Tests for quantum instruments, coarse-graining, and the file format."""

import dataclasses
import math
import re
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from locclab import (
    ContractError,
    DensityMatrix,
    LayoutError,
    apply_instrument,
    coarse_grain,
    depolarizing_kraus,
    identity_instrument,
    measure_x,
    measure_z,
    parse_instrument,
    validate_instrument,
)
from locclab import instruments
from locclab.instruments import (
    PROB_FLOOR,
    QuantumInstrument,
    measure_angle,
    settings_choice_instrument,
    unsharp_z,
)
from locclab.linalg import check_density_stack
from locclab.worlds import singlet_density

import helpers
import oracles
from helpers import apply_to_state


ZERO = np.diag([1.0, 0.0])  # |0><0|
#: The file of a projective Z measurement, written by the oracle's writer.
Z_TEXT = oracles.instrument_text("z", oracles.dial(0.0))


def plus_density() -> DensityMatrix:
    """``|+>|0>`` on the pair: ``q_A`` in ``|+>``, ``q_B`` in ``|0>``."""
    v = np.full(2, 1 / math.sqrt(2), dtype=complex)
    return DensityMatrix(np.kron(np.outer(v, v), ZERO))


class TestValidate:
    def test_projective_z_passes(self):
        report = validate_instrument(measure_z())
        assert report.passed and not report.violations

    def test_half_identity_fails_with_defect(self):
        inst = QuantumInstrument([("only", [math.sqrt(0.5) * np.eye(2, dtype=complex)])])
        report = validate_instrument(inst)
        assert not report.passed
        (violation,) = report.violations
        assert violation.kind == "completeness"
        assert abs(violation.magnitude - 0.5) < 1e-12

    def test_depolarizing_branch_passes(self):
        ops = depolarizing_kraus(0.3)
        # direct completeness oracle
        total = sum(k.conj().T @ k for k in ops)
        assert_allclose(total, np.eye(2), atol=1e-12)
        inst = QuantumInstrument([("d", ops)])
        assert validate_instrument(inst).passed

    def test_sign_flip_caught_as_cp_violation(self):
        rng = np.random.default_rng(0)
        inst = helpers.random_instrument(rng, n_outcomes=2, kraus_per_branch=2)
        bad = helpers.sign_flip_one_term(inst)
        report = validate_instrument(bad)
        assert not report.passed
        assert any(v.kind == "cp" for v in report.violations)

    def test_choi_agrees_with_direct_kraus_positivity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            inst = helpers.random_instrument(
                rng, n_outcomes=int(rng.integers(1, 4)), kraus_per_branch=2
            )
            # valid: all weights positive, every Choi PSD
            for _, ops, weights in helpers.weighted_branches_of(inst):
                direct = all(w > 0 for w in weights)
                choi = oracles.branch_choi(ops, weights)
                choi_ok = float(np.linalg.eigvalsh(choi)[0]) > -1e-9
                assert direct == choi_ok
            bad = helpers.sign_flip_one_term(inst)
            outcome, ops, weights = helpers.weighted_branches_of(bad)[0]
            assert any(w < 0 for w in weights)
            min_eig = float(np.linalg.eigvalsh(oracles.branch_choi(ops, weights))[0])
            assert min_eig < -1e-9
            # the validator's Choi matrices, built from the flat Kraus stack, agree
            (cp,) = [v for v in validate_instrument(bad).violations if v.kind == "cp"]
            assert cp.branch == outcome and abs(cp.magnitude + min_eig) < 1e-12

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(LayoutError):
            QuantumInstrument([("a", [np.eye(2)]), ("b", [np.eye(4)])])


class TestApply:
    def test_z_on_plus(self):
        probs, posts = apply_to_state(measure_z(), plus_density().matrix, "q_A")
        assert measure_z().outcomes == ("0", "1")
        for p, post, bits in zip(probs, posts, ("0", "1")):
            assert abs(p - 0.5) < 1e-12
            expected = np.zeros((2, 2))
            expected[int(bits), int(bits)] = 1.0
            assert_allclose(post, np.kron(expected, ZERO), atol=1e-12)

    def test_identity_instrument(self):
        rng = np.random.default_rng(2)
        rho = helpers.random_density(rng)
        assert identity_instrument().outcomes == ("id",)
        (p,), (post,) = apply_to_state(identity_instrument(), rho.matrix, "q_A")
        assert abs(p - 1.0) < 1e-12
        assert_allclose(post, rho.matrix, atol=1e-12)

    def test_z_on_alice_half_of_singlet(self):
        # Alice's outcome steers Bob's marginal to the opposite basis state
        probs, posts = apply_to_state(measure_z(), singlet_density().matrix, "q_A")
        for p, post, bob_bit in zip(probs, posts, ("1", "0")):
            assert abs(p - 0.5) < 1e-12
            bob = oracles.ptrace_by_loops(post, [2, 2], [1])
            expected = np.zeros((2, 2))
            expected[int(bob_bit), int(bob_bit)] = 1.0
            assert_allclose(bob, expected, atol=1e-12)

    def test_invalid_instrument_rejected(self):
        inst = QuantumInstrument([("only", [math.sqrt(0.5) * np.eye(2, dtype=complex)])])
        with pytest.raises(ContractError):
            apply_instrument(inst, "q_A", plus_density().matrix[None])

    def test_unknown_target_rejected(self):
        for target in ("nope", "q", ("q_A",)):
            with pytest.raises(LayoutError):
                apply_instrument(measure_z(), target, plus_density().matrix[None])

    def test_probabilities_sum_to_one_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_out = int(rng.integers(1, 5))
            inst = helpers.random_instrument(rng, n_out, kraus_per_branch=2)
            rho = helpers.random_density(rng)
            # apply_to_state checks every live post-state
            probs, _ = apply_to_state(inst, rho.matrix, helpers.random_target(rng))
            assert abs(sum(probs.tolist()) - 1.0) < 1e-10


def per_operator_oracle(branches, rho, target):
    """Each of the ``(outcome, ops, weights)`` branches one Kraus operator at a time, each
    extended on its own by loops.

    ``E rho E^dagger`` is contracted in the kernel's order: ``E rho`` first,
    each entry summed over the shared index in ascending order.
    """
    position = ("q_A", "q_B").index(target)
    probs, posts = [], []
    for _, ops, weights in branches:
        out = np.zeros_like(rho.matrix)
        for w, k in zip(weights, ops):
            big = oracles.embed_by_loops(k, [2, 2], [position])
            out += w * matrix_product(matrix_product(big, rho.matrix), big.conj().T)
        probs.append(float(np.real(np.trace(out))))
        posts.append(out / probs[-1])
    return probs, posts


def matrix_product(a, b):
    """``a b``, each entry summed over the shared index in ascending order, one term at a time."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i, k in np.ndindex(out.shape):
        for j in range(a.shape[1]):
            out[i, k] += a[i, j] * b[j, k]
    return out


def uneven_instrument(p: float = 0.3) -> QuantumInstrument:
    """Valid two-branch instrument whose branches hold one and two Kraus operators."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return QuantumInstrument(
        [("0", [math.sqrt(p) * p0]), ("1", [math.sqrt(p) * p1, math.sqrt(1 - p) * np.eye(2)])]
    )


class TestBranchKernel:
    """The branch kernel: validation and embedding once per instrument, states as one stack."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"validate": 0, "embed": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            instruments, "validate_instrument", counting("validate", instruments.validate_instrument)
        )
        monkeypatch.setattr(
            instruments, "extend_to_pair", counting("embed", instruments.extend_to_pair)
        )
        return counts

    def test_validated_once_per_instrument(self, calls):
        inst = helpers.random_instrument(np.random.default_rng(4), 3)
        rho = singlet_density()
        for target in ("q_A", "q_B", "q_A"):
            apply_instrument(inst, target, rho.matrix[None])
        apply_instrument(inst, "q_B", np.stack([rho.matrix] * 3))
        assert calls["validate"] == 1
        assert inst.report is inst.report and inst.report.passed

    def test_failed_report_raises_on_every_use(self, calls):
        bad = helpers.sign_flip_one_term(measure_z())
        for _ in range(2):
            with pytest.raises(ContractError, match="cp defect"):
                apply_instrument(bad, "q_A", singlet_density().matrix[None])
        with pytest.raises(ContractError):
            apply_instrument(bad, "q_B", np.stack([singlet_density().matrix] * 2))
        assert calls["validate"] == 1

    @pytest.mark.parametrize("kraus_per_branch", [1, 2])
    @pytest.mark.parametrize("target", ["q_A", "q_B"])
    def test_pair_matches_per_operator_embedding_bytes(self, kraus_per_branch, target):
        rng = np.random.default_rng(5)
        inst = helpers.random_instrument(rng, 3, kraus_per_branch=kraus_per_branch)
        rho = helpers.random_density(rng)
        probs, posts = apply_instrument(inst, target, rho.matrix[None])
        branches = helpers.weighted_branches_of(inst)
        oracle_probs, oracle_posts = per_operator_oracle(branches, rho, target)
        assert probs[:, 0].tolist() == oracle_probs
        for post, oracle in zip(posts[:, 0], oracle_posts):
            assert post.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("target", ["q_A", "q_B"])
    def test_uneven_branches_match_per_operator_embedding(self, target):
        # branches of one and two Kraus operators: the second position runs on one row only
        rho = helpers.random_density(np.random.default_rng(8))
        probs, posts = apply_to_state(uneven_instrument(), rho.matrix, target)
        branches = helpers.weighted_branches_of(uneven_instrument())
        oracle_probs, oracle_posts = per_operator_oracle(branches, rho, target)
        assert probs.tolist() == oracle_probs
        for post, oracle in zip(posts, oracle_posts):
            assert post.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("doubled", [False, True], ids=["K_K", "2K"])
    @pytest.mark.parametrize("target", ["q_A", "q_B"])
    def test_weighted_branch_matches_per_operator_embedding(self, doubled, target):
        # a valid branch whose weights are not 1: K twice at 0.25 and 0.75, or 2K at 0.25
        rng = np.random.default_rng(9)
        branches = helpers.weighted_branches_of(helpers.random_instrument(rng, 2))
        (k,) = branches[0][1]
        branches[0] = ("0", [2 * k], [0.25]) if doubled else ("0", [k, k], [0.25, 0.75])
        rho = helpers.random_density(rng)
        probs, posts = apply_to_state(QuantumInstrument(branches), rho.matrix, target)
        oracle_probs, oracle_posts = per_operator_oracle(branches, rho, target)
        assert probs.tolist() == oracle_probs
        for post, oracle in zip(posts, oracle_posts):
            assert post.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("target", ["q_A", "q_B"])
    def test_coarse_grained_weighted_matches_per_operator_embedding(self, target):
        # groups list their members out of outcome order: a group's operators, and so the
        # order its terms are added in, follow its members' order, each member's in stack order
        rng = np.random.default_rng(10)
        fine = helpers.weighted_branches_of(helpers.random_instrument(rng, 4, kraus_per_branch=2))
        outcome, (k1, k2), _ = fine[2]
        fine[2] = (outcome, [k1, k1, k2], [0.25, 0.75, 1.0])
        groups = {"x": ("2", "0"), "y": ("3", "1")}
        by_outcome = {o: (ops, weights) for o, ops, weights in fine}
        merged = [
            (label, [k for m in members for k in by_outcome[m][0]],
             [w for m in members for w in by_outcome[m][1]])
            for label, members in groups.items()
        ]
        inst = coarse_grain(QuantumInstrument(fine), groups)
        rho = helpers.random_density(rng)
        probs, posts = apply_to_state(inst, rho.matrix, target)
        oracle_probs, oracle_posts = per_operator_oracle(merged, rho, target)
        assert probs.tolist() == oracle_probs
        for post, oracle in zip(posts, oracle_posts):
            assert post.tobytes() == oracle.tobytes()

    def test_embedded_once_per_target(self, calls):
        rng = np.random.default_rng(6)
        inst = helpers.random_instrument(rng, 2, kraus_per_branch=2)
        rho = helpers.random_density(rng)
        for _ in range(3):
            apply_instrument(inst, "q_A", rho.matrix[None])
        assert calls["embed"] == 1
        apply_instrument(inst, "q_B", rho.matrix[None])
        apply_instrument(inst, "q_A", singlet_density().matrix[None])
        assert calls["embed"] == 2
        with pytest.raises(LayoutError):
            apply_instrument(inst, "q_C", rho.matrix[None])
        apply_instrument(inst, "q_B", rho.matrix[None])
        assert sorted(inst._embedded) == ["q_A", "q_B"]

    def test_caches_are_the_only_state_beside_the_stack(self):
        inst = helpers.random_instrument(np.random.default_rng(11), 2)
        apply_instrument(inst, "q_A", singlet_density().matrix[None])
        fields = [f.name for f in dataclasses.fields(QuantumInstrument)]
        assert fields == ["outcomes", "kraus", "branch", "weight"]
        assert sorted(vars(inst)) == sorted(fields + ["report", "_embedded"])

    def test_stack_is_read_only_and_fields_cannot_be_rebound(self):
        ops = [np.eye(2, dtype=complex), np.diag([0.0, 1.0]).astype(complex)]
        inst = QuantumInstrument([("a", ops[:1], [0.5]), ("b", ops, [0.5, 0.5])])
        ops[0][0, 0] = 7.0  # the instrument holds its own copy
        assert inst.kraus[0].tolist() == np.eye(2).tolist()
        assert inst.branch.tolist() == [0, 1, 1] and inst.weight.tolist() == [0.5] * 3
        for name in ("kraus", "branch", "weight"):
            array = getattr(inst, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, name, array.copy())
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.outcomes = ("b", "a")
        # weakly referenced and hashed by identity: an equal stack is another instrument
        assert weakref.ref(inst)() is inst
        twin = QuantumInstrument(helpers.weighted_branches_of(inst))
        assert twin != inst and len({inst, twin, inst}) == 2

    def test_stack_matches_one_state_at_a_time_bytes(self):
        rng = np.random.default_rng(7)
        inst = helpers.random_instrument(rng, 3, kraus_per_branch=2)
        rhos = [helpers.random_density(rng) for _ in range(6)]
        probs, posts = apply_instrument(inst, "q_B", np.stack([r.matrix for r in rhos]))
        for n, rho in enumerate(rhos):
            one_probs, one_posts = apply_to_state(inst, rho.matrix, "q_B")
            assert probs[:, n].tolist() == one_probs.tolist()
            assert posts[:, n].tobytes() == one_posts.tobytes()

    def test_dead_branch_has_no_post_state(self):
        up = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        probs, posts = apply_to_state(measure_z(), up.matrix, "q_A")
        assert probs.tolist() == [1.0, 0.0]
        # the dead branch's post-state stays all zero, positive zeros included
        assert posts[1].tobytes() == np.zeros((4, 4), dtype=complex).tobytes()

    def test_wrong_dimension_rejected(self):
        # a two-qubit instrument cannot be built, so it never reaches the kernel
        with pytest.raises(LayoutError, match="2x2"):
            QuantumInstrument([("id", [np.eye(4, dtype=complex)])])

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.diag([1.5, -0.5, 0.0, 0.0]), "not PSD"),
            (np.diag([0.5, 0.5, 0.0, 0.0]) + np.triu(np.full((4, 4), 0.1), 1), "not Hermitian"),
        ],
    )
    def test_batched_check_rejects_bad_post_states(self, bad, message):
        # the kernel does not check; a bad input state passes through the identity branch
        states = np.stack([singlet_density().matrix, bad.astype(complex)])
        probs, posts = apply_instrument(identity_instrument(), "q_A", states)
        live = posts[probs > PROB_FLOOR]
        assert len(live) == 2
        check_density_stack(live[:1])
        with pytest.raises(ValueError, match=message):
            check_density_stack(live)


class TestOneWayLocal:
    def test_tp_map_does_not_alter_outcome_probabilities(self):
        # marginalization oracle: a TP map on Bob cannot move Alice's probabilities
        bob_tp = QuantumInstrument([("tp", depolarizing_kraus(0.2))])
        assert validate_instrument(bob_tp).passed
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = helpers.random_density(rng)
            (p,), (after,) = apply_to_state(bob_tp, rho.matrix, "q_B")
            assert abs(p - 1.0) < 1e-12
            assert np.max(np.abs(after - rho.matrix)) > 1e-3
            before, _ = apply_to_state(measure_x(), rho.matrix, "q_A")
            moved, _ = apply_to_state(measure_x(), after, "q_A")
            assert_allclose(moved, before, atol=1e-10)


class TestCoarseGrain:
    def test_singleton_partition_is_identity(self):
        inst = measure_z()
        rng = np.random.default_rng(6)
        out = coarse_grain(inst, {"0": ("0",), "1": ("1",)})
        for _ in range(5):
            rho, target = helpers.random_density(rng), helpers.random_target(rng)
            a, _ = apply_to_state(inst, rho.matrix, target)
            b, _ = apply_to_state(out, rho.matrix, target)
            assert out.outcomes == inst.outcomes
            for pa, pb in zip(a, b):
                assert abs(pa - pb) < 1e-12

    def test_full_group_is_dephasing(self):
        out = coarse_grain(measure_z(), {"all": ("0", "1")})
        (p,), (post,) = apply_to_state(out, plus_density().matrix, "q_A")
        assert abs(p - 1.0) < 1e-12
        assert_allclose(post, np.kron(np.eye(2) / 2, ZERO), atol=1e-12)

    def test_probabilities_add_on_three_outcomes(self):
        rng = np.random.default_rng(7)
        inst = helpers.random_instrument(rng, n_outcomes=3)
        grouped = coarse_grain(inst, {"01": ("0", "1"), "2": ("2",)})
        for _ in range(10):
            rho, target = helpers.random_density(rng), helpers.random_target(rng)
            fine, _ = apply_to_state(inst, rho.matrix, target)
            coarse, _ = apply_to_state(grouped, rho.matrix, target)
            assert abs(coarse[0] - (fine[0] + fine[1])) < 1e-10
            assert abs(coarse[1] - fine[2]) < 1e-10

    def test_commutes_with_apply_as_mixture(self):
        # coarse then apply == apply then merge records (weighted mixture)
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_out = int(rng.integers(2, 5))
            inst = helpers.random_instrument(rng, n_out)
            rho, target = helpers.random_density(rng), helpers.random_target(rng)
            cut = int(rng.integers(1, n_out)) if n_out > 1 else 1
            groups = {
                "g0": tuple(str(i) for i in range(cut)),
                "g1": tuple(str(i) for i in range(cut, n_out)),
            }
            coarse = coarse_grain(inst, groups)
            coarse_probs, coarse_posts = apply_to_state(coarse, rho.matrix, target)
            fine = list(zip(inst.outcomes, *apply_to_state(inst, rho.matrix, target)))
            for q, post, members in zip(coarse_probs, coarse_posts, groups.values()):
                chunk = [(p, fine_post) for o, p, fine_post in fine if o in members]
                total = sum(p for p, _ in chunk)
                assert abs(q - total) < 1e-10
                if total > 1e-9:
                    mix = sum(p * fine_post for p, fine_post in chunk) / total
                    assert_allclose(post, mix, atol=1e-10)

    def test_members_keep_their_order_in_the_stack(self):
        inst = helpers.random_instrument(np.random.default_rng(12), 3, kraus_per_branch=2)
        merged = coarse_grain(inst, {"b": ("2", "0"), "a": ("1",)})
        assert merged.outcomes == ("b", "a") and merged.branch.tolist() == [0, 0, 0, 0, 1, 1]
        assert merged.kraus.tobytes() == inst.kraus[[4, 5, 0, 1, 2, 3]].tobytes()

    def test_non_partition_rejected(self):
        for groups, match in [
            ({"g": ("0",)}, "cover outcomes exactly: missing ['1'], unknown []"),
            ({"g": ("0", "1", "2")}, "cover outcomes exactly: missing [], unknown ['2']"),
            ({"g": ("0", "1"), "h": ("1",)}, "outcomes ['1'] appear in more than one group"),
            ({"g": (), "h": ("0", "1")}, "group 'g' is empty"),
        ]:
            with pytest.raises(ValueError, match=re.escape(match)):
                coarse_grain(measure_z(), groups)


class TestFileFormat:
    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(9)
        inst = helpers.random_instrument(rng, n_outcomes=3, kraus_per_branch=2)
        text = oracles.instrument_text("roundtrip", helpers.branches_of(inst))
        name, back = parse_instrument(text)
        assert name == "roundtrip"
        assert back.outcomes == inst.outcomes
        assert np.array_equal(back.branch, inst.branch)
        assert np.array_equal(back.kraus, inst.kraus)  # 17 significant digits: exact

    def test_settings_choice_round_trip(self):
        inst = settings_choice_instrument(0.0, math.pi / 2)
        _, back = parse_instrument(oracles.instrument_text("choice", helpers.branches_of(inst)))
        assert np.array_equal(back.kraus, inst.kraus)

    def test_comments_and_blank_lines_ignored(self):
        text = oracles.instrument_text("commented", helpers.branches_of(unsharp_z(0.8)))
        noisy = "# leading comment\n\n" + text.replace("branch 0", "branch 0\n# inline\n")
        _, inst = parse_instrument(noisy)
        assert validate_instrument(inst).passed

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="complex entry"):
            parse_instrument(Z_TEXT.replace("1+0i", "1:0i", 1))

    @pytest.mark.parametrize(
        "line",
        ["dimension", "dimension 2 3", "dimensions 2", "dimension 1", "dimension 3", "dimension 4"],
    )
    def test_bad_dimension_line_rejected(self, line):
        with pytest.raises(ValueError, match="dimension <d>") as info:
            parse_instrument(Z_TEXT.replace("dimension 2", line))
        assert repr(line) in str(info.value)

    def test_only_unit_weights_have_a_file_form(self):
        # the format has no weights: a parsed branch's are all +1
        explicit = QuantumInstrument([("id", [np.eye(2)], [1.0])])
        _, back = parse_instrument(oracles.instrument_text("id", helpers.branches_of(explicit)))
        assert back.weight.tolist() == explicit.weight.tolist() == [1.0]
        assert np.array_equal(back.kraus, explicit.kraus)

    @pytest.mark.parametrize("entry", ["1e999+0i", "1-1e999i"])
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            parse_instrument(Z_TEXT.replace("1+0i", entry, 1))

    @pytest.mark.parametrize("old, new, match", [
        # keywords are whole tokens, not prefixes
        ("instrument z", "instrumentation z", "must start with 'instrument"),
        ("instrument z", "instrumentz", "must start with 'instrument"),
        ("branch 0", "branches 0", "unexpected line 'branches 0'"),
        ("branch 1", "branchX 1", "malformed complex entry 'branchX'"),
        ("instrument z\ndimension 2\nbranch 0", "dimension 2\nbranch 0", "must start with 'instrument"),
        ("branch 0\nop", "op", "'op' before any 'branch'"),
        ("branch 0", "branch", "branch line needs an outcome label"),
        ("dimension 2\n", "dimension 2\nfoo\n", "unexpected line 'foo'"),
        ("1+0i 0+0i\n", "1+0i 0+0i 0+0i\n", "row has 3 entries"),
        ("1+0i 0+0i\n0+0i 0+0i\n", "1+0i 0+0i\n", "operator has 1 rows"),
        ("1+0i 0+0i\n", "1+0i 0+0i\n0+0i 0+0i\n", "operator has 3 rows"),
        ("\nend", "\nbranch 2\nend", "branch '2' has no operators"),
        ("branch 0\nop\n1+0i 0+0i\n0+0i 0+0i\nbranch 1\nop\n0+0i 0+0i\n0+0i 1+0i\n", "",
         "no branches defined"),
    ])
    def test_malformed_structure_rejected(self, old, new, match):
        assert old in Z_TEXT
        with pytest.raises(ValueError, match=re.escape(match)):
            parse_instrument(Z_TEXT.replace(old, new, 1))

    def test_missing_end_rejected(self):
        with pytest.raises(ValueError, match="end"):
            parse_instrument(Z_TEXT.replace("\nend\n", "\n"))

    def test_save_load(self, tmp_path):
        from locclab import load_instrument

        path = tmp_path / "z.instrument"
        path.write_text(oracles.instrument_text("zmeas", oracles.dial(0.0)))
        name, inst = load_instrument(path)
        assert name == "zmeas"
        assert validate_instrument(inst).passed
