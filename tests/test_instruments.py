"""Tests for quantum instruments, coarse-graining, and the file format."""

import dataclasses
import math

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
    qubits,
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
from locclab.linalg import check_density_stack, embed_operator
from locclab.worlds import singlet_density

import helpers
import oracles


def plus_density(label="q") -> DensityMatrix:
    v = np.full(2, 1 / math.sqrt(2), dtype=complex)
    return DensityMatrix(np.outer(v, v), qubits(label))


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
        inst = helpers.random_instrument(rng, 2, n_outcomes=2, kraus_per_branch=2)
        bad = helpers.sign_flip_one_term(inst)
        report = validate_instrument(bad)
        assert not report.passed
        assert any(v.kind == "cp" for v in report.violations)

    def test_choi_agrees_with_direct_kraus_positivity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            inst = helpers.random_instrument(
                rng, 2, n_outcomes=int(rng.integers(1, 4)), kraus_per_branch=2
            )
            # valid: all weights positive, every Choi PSD
            for b in inst.branches:
                direct = all(w > 0 for w in b.effective_weights())
                choi_ok = float(np.linalg.eigvalsh(branch_choi(b))[0]) > -1e-9
                assert direct == choi_ok
            bad = helpers.sign_flip_one_term(inst)
            flipped = bad.branches[0]
            assert any(w < 0 for w in flipped.effective_weights())
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
        records = apply_instrument(measure_z(), plus_density(), ("q",))
        assert [r.outcome for r in records] == ["0", "1"]
        for r, bits in zip(records, ("0", "1")):
            assert abs(r.probability - 0.5) < 1e-12
            expected = np.zeros((2, 2))
            expected[int(bits), int(bits)] = 1.0
            assert_allclose(r.post_state.matrix, expected, atol=1e-12)

    def test_identity_instrument(self):
        rng = np.random.default_rng(2)
        rho = helpers.random_density(rng, 2)
        (record,) = apply_instrument(identity_instrument(), rho, (rho.layout.labels[0],))
        assert record.outcome == "id"
        assert abs(record.probability - 1.0) < 1e-12
        assert_allclose(record.post_state.matrix, rho.matrix, atol=1e-12)

    def test_z_on_alice_half_of_singlet(self):
        # Alice's outcome steers Bob's marginal to the opposite basis state
        rho = singlet_density()
        records = apply_instrument(measure_z(), rho, ("q_A",))
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
            apply_instrument(inst, plus_density(), ("q",))

    def test_unknown_target_rejected(self):
        with pytest.raises(LayoutError):
            apply_instrument(measure_z(), plus_density(), ("nope",))

    def test_probabilities_sum_to_one_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_out = int(rng.integers(1, 5))
            inst = helpers.random_instrument(rng, 2, n_out, kraus_per_branch=2)
            rho = helpers.random_density(rng, 2)
            records = apply_instrument(inst, rho, (rho.layout.labels[0],))
            assert abs(sum(r.probability for r in records) - 1.0) < 1e-10
            for r in records:
                if r.probability > 1e-12:
                    assert r.post_state is not None  # construction validates it


def per_operator_oracle(inst, rho, targets):
    """Each branch one Kraus operator at a time, each extended on its own."""
    probs, posts = [], []
    for b in inst.branches:
        out = np.zeros_like(rho.matrix)
        for w, k in zip(b.effective_weights(), b.kraus):
            big = embed_operator(k, rho.layout, targets)
            out += w * (big @ rho.matrix @ big.conj().T)
        probs.append(float(np.real(np.trace(out))))
        posts.append(out / probs[-1])
    return probs, posts


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

    PAIR = qubits("q_A", "q_B")

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
        monkeypatch.setattr(instruments, "embed_operator", counting("embed", embed_operator))
        return counts

    def test_validated_once_per_instrument(self, calls):
        inst = helpers.random_instrument(np.random.default_rng(4), 2, 3)
        rho = singlet_density()
        for target in ("q_A", "q_B", "q_A"):
            apply_instrument(inst, rho, (target,))
        _apply_branches(inst, rho.layout, ("q_B",), np.stack([rho.matrix] * 3))
        assert calls["validate"] == 1
        assert inst.report is inst.report and inst.report.passed

    def test_failed_report_raises_on_every_use(self, calls):
        bad = helpers.sign_flip_one_term(measure_z())
        for _ in range(2):
            with pytest.raises(ContractError, match="cp defect"):
                apply_instrument(bad, singlet_density(), ("q_A",))
        with pytest.raises(ContractError):
            _apply_branches(bad, self.PAIR, ("q_B",), singlet_density().matrix[None])
        assert calls["validate"] == 1

    @pytest.mark.parametrize("kraus_per_branch", [1, 2])
    @pytest.mark.parametrize("target", ["q_A", "q_B"])
    def test_pair_matches_per_operator_embedding_bytes(self, kraus_per_branch, target):
        rng = np.random.default_rng(5)
        inst = helpers.random_instrument(rng, 2, 3, kraus_per_branch=kraus_per_branch)
        rho = helpers.random_density(rng, 2, ["q_A", "q_B"])
        probs, posts = _apply_branches(inst, self.PAIR, (target,), rho.matrix[None])
        oracle_probs, oracle_posts = per_operator_oracle(inst, rho, (target,))
        assert probs[:, 0].tolist() == oracle_probs
        for post, oracle in zip(posts[:, 0], oracle_posts):
            assert post.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("targets", [("q0",), ("q2",), ("q2", "q0")])
    def test_three_qubits_match_per_operator_embedding(self, targets):
        rng = np.random.default_rng(8)
        rho = helpers.random_density(rng, 3)
        inst = uneven_instrument() if len(targets) == 1 else helpers.random_instrument(rng, 4, 2, 3)
        records = apply_instrument(inst, rho, targets)
        oracle_probs, oracle_posts = per_operator_oracle(inst, rho, targets)
        for rec, p, post in zip(records, oracle_probs, oracle_posts):
            assert rec.probability == p
            assert rec.post_state.matrix.tobytes() == post.tobytes()

    def test_embedded_once_per_layout_and_targets(self, calls):
        rng = np.random.default_rng(6)
        inst = helpers.random_instrument(rng, 2, 2, kraus_per_branch=2)
        rho = helpers.random_density(rng, 3)
        for _ in range(3):
            apply_instrument(inst, rho, ("q1",))
        assert calls["embed"] == 1
        apply_instrument(inst, rho, ("q2",))
        _apply_branches(inst, self.PAIR, ("q_A",), singlet_density().matrix[None])
        assert calls["embed"] == 3
        apply_instrument(inst, rho, ("q2",))
        assert calls["embed"] == 3

    def test_extension_cache_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(QuantumInstrument)] == ["branches"]

    def test_stack_matches_one_state_at_a_time_bytes(self):
        rng = np.random.default_rng(7)
        inst = helpers.random_instrument(rng, 2, 3, kraus_per_branch=2)
        rhos = [helpers.random_density(rng, 2, ["q_A", "q_B"]) for _ in range(6)]
        probs, posts = _apply_branches(inst, self.PAIR, ("q_B",), np.stack([r.matrix for r in rhos]))
        for n, rho in enumerate(rhos):
            for j, rec in enumerate(apply_instrument(inst, rho, ("q_B",))):
                assert probs[j, n] == rec.probability
                assert posts[j, n].tobytes() == rec.post_state.matrix.tobytes()

    def test_dead_branch_has_no_post_state(self):
        up = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), self.PAIR)
        probs, posts = _apply_branches(measure_z(), self.PAIR, ("q_A",), up.matrix[None])
        assert probs[:, 0].tolist() == [1.0, 0.0]
        assert not posts[1].any()
        (_, dead) = apply_instrument(measure_z(), up, ("q_A",))
        assert dead.probability == 0.0 and dead.post_state is None

    def test_wrong_dimension_rejected(self):
        with pytest.raises(LayoutError):
            _apply_branches(measure_z(), self.PAIR, ("q_A", "q_B"), singlet_density().matrix[None])

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
        probs, posts = _apply_branches(identity_instrument(), self.PAIR, ("q_A",), states)
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
            rho = helpers.random_density(rng, 2, labels=["q_A", "q_B"])
            (after,) = apply_instrument(bob_tp, rho, ("q_B",))
            assert abs(after.probability - 1.0) < 1e-12
            assert np.max(np.abs(after.post_state.matrix - rho.matrix)) > 1e-3
            before = [r.probability for r in apply_instrument(measure_x(), rho, ("q_A",))]
            moved = [r.probability for r in apply_instrument(measure_x(), after.post_state, ("q_A",))]
            assert_allclose(moved, before, atol=1e-10)


class TestCoarseGrain:
    def test_singleton_partition_is_identity(self):
        inst = measure_z()
        part = CoarseGrainingPartition((("0", ("0",)), ("1", ("1",))))
        rng = np.random.default_rng(6)
        out = coarse_grain(inst, part)
        for _ in range(5):
            rho = helpers.random_density(rng, 1, labels=["q"])
            a = apply_instrument(inst, rho, ("q",))
            b = apply_instrument(out, rho, ("q",))
            for ra, rb in zip(a, b):
                assert abs(ra.probability - rb.probability) < 1e-12

    def test_full_group_is_dephasing(self):
        part = CoarseGrainingPartition((("all", ("0", "1")),))
        out = coarse_grain(measure_z(), part)
        (record,) = apply_instrument(out, plus_density(), ("q",))
        assert abs(record.probability - 1.0) < 1e-12
        assert_allclose(record.post_state.matrix, np.eye(2) / 2, atol=1e-12)

    def test_probabilities_add_on_three_outcomes(self):
        rng = np.random.default_rng(7)
        inst = helpers.random_instrument(rng, 2, n_outcomes=3)
        part = CoarseGrainingPartition((("01", ("0", "1")), ("2", ("2",))))
        grouped = coarse_grain(inst, part)
        for _ in range(10):
            rho = helpers.random_density(rng, 1, labels=["q"])
            fine = apply_instrument(inst, rho, ("q",))
            coarse = apply_instrument(grouped, rho, ("q",))
            assert abs(coarse[0].probability - (fine[0].probability + fine[1].probability)) < 1e-10
            assert abs(coarse[1].probability - fine[2].probability) < 1e-10

    def test_commutes_with_apply_as_mixture(self):
        # coarse then apply == apply then merge records (weighted mixture)
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_out = int(rng.integers(2, 5))
            n_qubits = int(rng.integers(1, 3))
            inst = helpers.random_instrument(rng, 2**n_qubits, n_out)
            labels = [f"q{i}" for i in range(n_qubits)]
            rho = helpers.random_density(rng, n_qubits, labels=labels)
            cut = int(rng.integers(1, n_out)) if n_out > 1 else 1
            part = CoarseGrainingPartition(
                (
                    ("g0", tuple(str(i) for i in range(cut))),
                    ("g1", tuple(str(i) for i in range(cut, n_out))),
                )
            )
            coarse = apply_instrument(coarse_grain(inst, part), rho, labels)
            fine = apply_instrument(inst, rho, labels)
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
        inst = helpers.random_instrument(rng, 2, n_outcomes=3, kraus_per_branch=2)
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

    @pytest.mark.parametrize("line", ["dimension", "dimension 2 3", "dimensions 2"])
    def test_bad_dimension_line_rejected(self, line):
        good = serialize_instrument(measure_z())
        with pytest.raises(ValueError, match="dimension <d>"):
            parse_instrument(good.replace("dimension 2", line))

    @pytest.mark.parametrize("entry", ["1e999+0i", "1-1e999i"])
    def test_non_finite_entry_rejected(self, entry):
        good = serialize_instrument(measure_z())
        with pytest.raises(ValueError, match="non-finite"):
            parse_instrument(good.replace("1+0i", entry, 1))

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
