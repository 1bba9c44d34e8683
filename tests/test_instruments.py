"""Tests for quantum instruments, coarse-graining, and the file format."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from locclab import (
    CoarseGrainingPartition,
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
    serialize_instrument,
    validate_instrument,
)
from locclab import instruments
from locclab.instruments import (
    PROB_FLOOR,
    InstrumentBranch,
    QuantumInstrument,
    _apply_branches,
    branch_choi,
    measure_angle,
    settings_choice_instrument,
    unsharp_z,
)
from locclab.linalg import check_density_stack
from locclab.worlds import singlet_density

import helpers
import oracles


ZERO = np.diag([1.0, 0.0])  # |0><0|


def plus_density() -> DensityMatrix:
    """``|+>|0>`` on the pair: ``q_A`` in ``|+>``, ``q_B`` in ``|0>``."""
    v = np.full(2, 1 / math.sqrt(2), dtype=complex)
    return DensityMatrix(np.kron(np.outer(v, v), ZERO))


class TestValidate:
    def test_projective_z_passes(self):
        report = validate_instrument(measure_z())
        assert report.passed and not report.violations

    def test_half_identity_fails_with_defect(self):
        inst = QuantumInstrument(
            (InstrumentBranch("only", (math.sqrt(0.5) * np.eye(2, dtype=complex),)),)
        )
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
        inst = QuantumInstrument((InstrumentBranch("d", ops),))
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
            for b in inst.branches:
                direct = all(w > 0 for w in b.weights)
                choi_ok = float(np.linalg.eigvalsh(branch_choi(b))[0]) > -1e-9
                assert direct == choi_ok
            bad = helpers.sign_flip_one_term(inst)
            flipped = bad.branches[0]
            assert any(w < 0 for w in flipped.weights)
            assert float(np.linalg.eigvalsh(branch_choi(flipped))[0]) < -1e-9

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(LayoutError):
            QuantumInstrument(
                (
                    InstrumentBranch("a", (np.eye(2, dtype=complex),)),
                    InstrumentBranch("b", (np.eye(4, dtype=complex),)),
                )
            )


class TestApply:
    def test_z_on_plus(self):
        records = apply_instrument(measure_z(), plus_density(), "q_A")
        assert [r.outcome for r in records] == ["0", "1"]
        for r, bits in zip(records, ("0", "1")):
            assert abs(r.probability - 0.5) < 1e-12
            expected = np.zeros((2, 2))
            expected[int(bits), int(bits)] = 1.0
            assert_allclose(r.post_state.matrix, np.kron(expected, ZERO), atol=1e-12)

    def test_identity_instrument(self):
        rng = np.random.default_rng(2)
        rho = helpers.random_density(rng)
        (record,) = apply_instrument(identity_instrument(), rho, "q_A")
        assert record.outcome == "id"
        assert abs(record.probability - 1.0) < 1e-12
        assert_allclose(record.post_state.matrix, rho.matrix, atol=1e-12)

    def test_z_on_alice_half_of_singlet(self):
        # Alice's outcome steers Bob's marginal to the opposite basis state
        rho = singlet_density()
        records = apply_instrument(measure_z(), rho, "q_A")
        for record, bob_bit in zip(records, ("1", "0")):
            assert abs(record.probability - 0.5) < 1e-12
            bob = oracles.ptrace_by_loops(record.post_state.matrix, [2, 2], [1])
            expected = np.zeros((2, 2))
            expected[int(bob_bit), int(bob_bit)] = 1.0
            assert_allclose(bob, expected, atol=1e-12)

    def test_invalid_instrument_rejected(self):
        inst = QuantumInstrument(
            (InstrumentBranch("only", (math.sqrt(0.5) * np.eye(2, dtype=complex),)),)
        )
        with pytest.raises(ContractError):
            apply_instrument(inst, plus_density(), "q_A")

    def test_unknown_target_rejected(self):
        for target in ("nope", "q", ("q_A",)):
            with pytest.raises(LayoutError):
                apply_instrument(measure_z(), plus_density(), target)

    def test_probabilities_sum_to_one_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_out = int(rng.integers(1, 5))
            inst = helpers.random_instrument(rng, n_out, kraus_per_branch=2)
            rho = helpers.random_density(rng)
            records = apply_instrument(inst, rho, helpers.random_target(rng))
            assert abs(sum(r.probability for r in records) - 1.0) < 1e-10
            for r in records:
                if r.probability > 1e-12:
                    assert r.post_state is not None  # construction validates it


def per_operator_oracle(inst, rho, target):
    """Each branch one Kraus operator at a time, each extended on its own by loops.

    ``E rho E^dagger`` is contracted in the kernel's order: ``E rho`` first,
    each entry summed over the shared index in ascending order.
    """
    position = ("q_A", "q_B").index(target)
    probs, posts = [], []
    for b in inst.branches:
        out = np.zeros_like(rho.matrix)
        for w, k in zip(b.weights, b.kraus):
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
        (
            InstrumentBranch("0", (math.sqrt(p) * p0,)),
            InstrumentBranch("1", (math.sqrt(p) * p1, math.sqrt(1 - p) * np.eye(2))),
        )
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
            apply_instrument(inst, rho, target)
        _apply_branches(inst, "q_B", np.stack([rho.matrix] * 3))
        assert calls["validate"] == 1
        assert inst.report is inst.report and inst.report.passed

    def test_failed_report_raises_on_every_use(self, calls):
        bad = helpers.sign_flip_one_term(measure_z())
        for _ in range(2):
            with pytest.raises(ContractError, match="cp defect"):
                apply_instrument(bad, singlet_density(), "q_A")
        with pytest.raises(ContractError):
            _apply_branches(bad, "q_B", singlet_density().matrix[None])
        assert calls["validate"] == 1

    @pytest.mark.parametrize("kraus_per_branch", [1, 2])
    @pytest.mark.parametrize("target", ["q_A", "q_B"])
    def test_pair_matches_per_operator_embedding_bytes(self, kraus_per_branch, target):
        rng = np.random.default_rng(5)
        inst = helpers.random_instrument(rng, 3, kraus_per_branch=kraus_per_branch)
        rho = helpers.random_density(rng)
        probs, posts = _apply_branches(inst, target, rho.matrix[None])
        oracle_probs, oracle_posts = per_operator_oracle(inst, rho, target)
        assert probs[:, 0].tolist() == oracle_probs
        for post, oracle in zip(posts[:, 0], oracle_posts):
            assert post.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("target", ["q_A", "q_B"])
    def test_uneven_branches_match_per_operator_embedding(self, target):
        # branches of one and two Kraus operators: the second position runs on one row only
        rho = helpers.random_density(np.random.default_rng(8))
        records = apply_instrument(uneven_instrument(), rho, target)
        oracle_probs, oracle_posts = per_operator_oracle(uneven_instrument(), rho, target)
        for rec, p, post in zip(records, oracle_probs, oracle_posts):
            assert rec.probability == p
            assert rec.post_state.matrix.tobytes() == post.tobytes()

    def test_embedded_once_per_target(self, calls):
        rng = np.random.default_rng(6)
        inst = helpers.random_instrument(rng, 2, kraus_per_branch=2)
        rho = helpers.random_density(rng)
        for _ in range(3):
            apply_instrument(inst, rho, "q_A")
        assert calls["embed"] == 1
        apply_instrument(inst, rho, "q_B")
        _apply_branches(inst, "q_A", singlet_density().matrix[None])
        assert calls["embed"] == 2
        with pytest.raises(LayoutError):
            apply_instrument(inst, rho, "q_C")
        apply_instrument(inst, rho, "q_B")
        assert sorted(inst._embedded) == ["q_A", "q_B"]

    def test_extension_cache_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(QuantumInstrument)] == ["branches"]

    def test_stack_matches_one_state_at_a_time_bytes(self):
        rng = np.random.default_rng(7)
        inst = helpers.random_instrument(rng, 3, kraus_per_branch=2)
        rhos = [helpers.random_density(rng) for _ in range(6)]
        probs, posts = _apply_branches(inst, "q_B", np.stack([r.matrix for r in rhos]))
        for n, rho in enumerate(rhos):
            for j, rec in enumerate(apply_instrument(inst, rho, "q_B")):
                assert probs[j, n] == rec.probability
                assert posts[j, n].tobytes() == rec.post_state.matrix.tobytes()

    def test_dead_branch_has_no_post_state(self):
        up = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        probs, posts = _apply_branches(measure_z(), "q_A", up.matrix[None])
        assert probs[:, 0].tolist() == [1.0, 0.0]
        assert not posts[1].any()
        (_, dead) = apply_instrument(measure_z(), up, "q_A")
        assert dead.probability == 0.0 and dead.post_state is None

    def test_wrong_dimension_rejected(self):
        # a two-qubit instrument cannot be built, so it never reaches the kernel
        with pytest.raises(LayoutError, match="2x2"):
            InstrumentBranch("id", (np.eye(4, dtype=complex),))

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
        probs, posts = _apply_branches(identity_instrument(), "q_A", states)
        live = posts[probs > PROB_FLOOR]
        assert len(live) == 2
        check_density_stack(live[:1])
        with pytest.raises(ValueError, match=message):
            check_density_stack(live)


class TestOneWayLocal:
    def test_tp_map_does_not_alter_outcome_probabilities(self):
        # marginalization oracle: a TP map on Bob cannot move Alice's probabilities
        bob_tp = QuantumInstrument((InstrumentBranch("tp", depolarizing_kraus(0.2)),))
        assert validate_instrument(bob_tp).passed
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = helpers.random_density(rng)
            (after,) = apply_instrument(bob_tp, rho, "q_B")
            assert abs(after.probability - 1.0) < 1e-12
            assert np.max(np.abs(after.post_state.matrix - rho.matrix)) > 1e-3
            before = [r.probability for r in apply_instrument(measure_x(), rho, "q_A")]
            moved = [r.probability for r in apply_instrument(measure_x(), after.post_state, "q_A")]
            assert_allclose(moved, before, atol=1e-10)


class TestCoarseGrain:
    def test_singleton_partition_is_identity(self):
        inst = measure_z()
        part = CoarseGrainingPartition((("0", ("0",)), ("1", ("1",))))
        rng = np.random.default_rng(6)
        out = coarse_grain(inst, part)
        for _ in range(5):
            rho, target = helpers.random_density(rng), helpers.random_target(rng)
            a = apply_instrument(inst, rho, target)
            b = apply_instrument(out, rho, target)
            for ra, rb in zip(a, b):
                assert abs(ra.probability - rb.probability) < 1e-12

    def test_full_group_is_dephasing(self):
        part = CoarseGrainingPartition((("all", ("0", "1")),))
        out = coarse_grain(measure_z(), part)
        (record,) = apply_instrument(out, plus_density(), "q_A")
        assert abs(record.probability - 1.0) < 1e-12
        assert_allclose(record.post_state.matrix, np.kron(np.eye(2) / 2, ZERO), atol=1e-12)

    def test_probabilities_add_on_three_outcomes(self):
        rng = np.random.default_rng(7)
        inst = helpers.random_instrument(rng, n_outcomes=3)
        part = CoarseGrainingPartition((("01", ("0", "1")), ("2", ("2",))))
        grouped = coarse_grain(inst, part)
        for _ in range(10):
            rho, target = helpers.random_density(rng), helpers.random_target(rng)
            fine = apply_instrument(inst, rho, target)
            coarse = apply_instrument(grouped, rho, target)
            assert abs(coarse[0].probability - (fine[0].probability + fine[1].probability)) < 1e-10
            assert abs(coarse[1].probability - fine[2].probability) < 1e-10

    def test_commutes_with_apply_as_mixture(self):
        # coarse then apply == apply then merge records (weighted mixture)
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_out = int(rng.integers(2, 5))
            inst = helpers.random_instrument(rng, n_out)
            rho, target = helpers.random_density(rng), helpers.random_target(rng)
            cut = int(rng.integers(1, n_out)) if n_out > 1 else 1
            part = CoarseGrainingPartition(
                (
                    ("g0", tuple(str(i) for i in range(cut))),
                    ("g1", tuple(str(i) for i in range(cut, n_out))),
                )
            )
            coarse = apply_instrument(coarse_grain(inst, part), rho, target)
            fine = apply_instrument(inst, rho, target)
            for rec, (_, members) in zip(coarse, part.groups):
                chunk = [r for r in fine if r.outcome in members]
                p = sum(r.probability for r in chunk)
                assert abs(rec.probability - p) < 1e-10
                if p > 1e-9:
                    mix = sum(r.probability * r.post_state.matrix for r in chunk) / p
                    assert_allclose(rec.post_state.matrix, mix, atol=1e-10)

    def test_non_partition_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            coarse_grain(measure_z(), CoarseGrainingPartition((("g", ("0",)),)))
        with pytest.raises(ValueError, match="more than one group"):
            CoarseGrainingPartition((("g", ("0", "1")), ("h", ("1",))))


class TestFileFormat:
    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(9)
        inst = helpers.random_instrument(rng, n_outcomes=3, kraus_per_branch=2)
        name, back = parse_instrument(serialize_instrument(inst, "roundtrip"))
        assert name == "roundtrip"
        assert back.outcomes == inst.outcomes
        for b_in, b_out in zip(inst.branches, back.branches):
            for k_in, k_out in zip(b_in.kraus, b_out.kraus):
                assert np.array_equal(k_in, k_out)  # 17 significant digits: exact

    def test_settings_choice_round_trip(self):
        inst = settings_choice_instrument(0.0, math.pi / 2)
        _, back = parse_instrument(serialize_instrument(inst))
        for b_in, b_out in zip(inst.branches, back.branches):
            assert np.array_equal(b_in.kraus[0], b_out.kraus[0])

    def test_comments_and_blank_lines_ignored(self):
        text = serialize_instrument(unsharp_z(0.8), "commented")
        noisy = "# leading comment\n\n" + text.replace("branch 0", "branch 0\n# inline\n")
        _, inst = parse_instrument(noisy)
        assert validate_instrument(inst).passed

    def test_malformed_entry_rejected(self):
        good = serialize_instrument(measure_z())
        with pytest.raises(ValueError, match="complex entry"):
            parse_instrument(good.replace("1+0i", "1:0i", 1))

    @pytest.mark.parametrize(
        "line",
        ["dimension", "dimension 2 3", "dimensions 2", "dimension 1", "dimension 3", "dimension 4"],
    )
    def test_bad_dimension_line_rejected(self, line):
        good = serialize_instrument(measure_z())
        with pytest.raises(ValueError, match="dimension <d>") as info:
            parse_instrument(good.replace("dimension 2", line))
        assert repr(line) in str(info.value)

    def test_only_unit_weights_have_a_file_form(self):
        with pytest.raises(ValueError, match="weight other than"):
            serialize_instrument(helpers.sign_flip_one_term(measure_z()))
        explicit = QuantumInstrument((InstrumentBranch("id", (np.eye(2),), (1.0,)),))
        _, back = parse_instrument(serialize_instrument(explicit))
        assert back.branches[0].weights == explicit.branches[0].weights == (1.0,)
        assert np.array_equal(back.branches[0].kraus[0], explicit.branches[0].kraus[0])

    @pytest.mark.parametrize("entry", ["1e999+0i", "1-1e999i"])
    def test_non_finite_entry_rejected(self, entry):
        good = serialize_instrument(measure_z())
        with pytest.raises(ValueError, match="non-finite"):
            parse_instrument(good.replace("1+0i", entry, 1))

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
        good = serialize_instrument(measure_z(), "z")
        assert old in good
        with pytest.raises(ValueError, match=re.escape(match)):
            parse_instrument(good.replace(old, new, 1))

    def test_missing_end_rejected(self):
        good = serialize_instrument(measure_z())
        with pytest.raises(ValueError, match="end"):
            parse_instrument(good.replace("\nend\n", "\n"))

    def test_save_load(self, tmp_path):
        from locclab import load_instrument, save_instrument

        path = tmp_path / "z.instrument"
        save_instrument(path, measure_z(), "zmeas")
        name, inst = load_instrument(path)
        assert name == "zmeas"
        assert validate_instrument(inst).passed
