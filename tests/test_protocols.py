"""Tests for protocol scripts, depth classification, and the bundled corpus."""

import numpy as np
import pytest

from locclab import (
    LayoutError,
    ProtocolRound,
    ProtocolScript,
    accessible_distributions,
    bundled_corpus,
    bundled_script_names,
    load_bundled_script,
    measure_x,
    measure_z,
    singlet_density,
    validate_instrument,
)
from locclab.instruments import InstrumentBranch, QuantumInstrument
from locclab.protocols import canonical_chsh_script, instrument_from_spec, script_from_dict


def transcript_lengths(script: ProtocolScript) -> set[int]:
    """Lengths of the transcripts ``script`` can produce: one outcome per round."""
    [[dist]] = accessible_distributions([singlet_density()], [script])
    return {len(t) for t, _ in dist.entries}


class TestDepth:
    """A script's LOCC depth is its round count, and each round adds one outcome."""

    def test_single_round_is_depth_one(self):
        script = ProtocolScript("one", (ProtocolRound("A", measure_z()),))
        assert len(script.rounds) == 1
        assert transcript_lengths(script) == {1}

    def test_chsh_script_is_depth_two(self):
        assert transcript_lengths(canonical_chsh_script()) == {2}

    def test_alternating_rounds_count(self):
        for k in range(1, 6):
            rounds = tuple(
                ProtocolRound("A" if i % 2 == 0 else "B", measure_z()) for i in range(k)
            )
            assert transcript_lengths(ProtocolScript(f"alt{k}", rounds)) == {k}

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError, match="no rounds"):
            ProtocolScript("none", ())
        with pytest.raises(ValueError, match="no rounds"):
            script_from_dict({"name": "none", "rounds": []})


class TestRounds:
    def test_unknown_party_rejected(self):
        with pytest.raises(ValueError, match="party"):
            ProtocolRound("C", measure_z())

    def test_two_qubit_instrument_rejected(self):
        # refused when its branch is built, before any round can hold it
        with pytest.raises(LayoutError):
            ProtocolRound("A", QuantumInstrument((InstrumentBranch("id", (np.eye(4),)),)))

    def test_condition_resolution(self):
        rnd = ProtocolRound("B", measure_z(), {("1",): measure_x()})
        assert rnd.resolve(("0",)) is rnd.instrument
        assert rnd.resolve(("1",)) is not rnd.instrument

    def test_condition_cannot_see_the_future(self):
        with pytest.raises(ValueError, match="precede"):
            ProtocolScript(
                "bad",
                (ProtocolRound("A", measure_z(), {("0", "0"): measure_x()}),),
            )


class TestCorpus:
    def test_corpus_is_large_enough(self):
        names = bundled_script_names()
        assert len(names) >= 10

    def test_scripts_are_wellformed_two_party(self):
        for script in bundled_corpus():
            assert 1 <= len(script.rounds) <= 3
            assert {r.party for r in script.rounds} <= {"A", "B"}
            for rnd in script.rounds:
                assert all(k.shape == (2, 2) for b in rnd.instrument.branches for k in b.kraus)
                assert validate_instrument(rnd.instrument).passed
                if rnd.condition:
                    for variant in rnd.condition.values():
                        assert validate_instrument(variant).passed

    def test_bundled_scripts_are_shared_and_read_only(self):
        for name in bundled_script_names():
            assert load_bundled_script(name) is load_bundled_script(name)
        script = load_bundled_script("adaptive_bob")
        with pytest.raises(TypeError):
            script.rounds[1].condition[("0",)] = measure_x()
        with pytest.raises(TypeError):
            bundled_script_names()[0] = "other"

    def test_adaptive_script_parses_conditions(self):
        script = load_bundled_script("adaptive_bob")
        assert script.rounds[1].condition is not None
        assert ("1",) in script.rounds[1].condition

    def test_script_from_dict_round_trip(self):
        doc = {
            "name": "tiny",
            "rounds": [
                {"party": "A", "instrument": {"kind": "measure_angle", "angle": 0.25}},
                {
                    "party": "B",
                    "instrument": {"kind": "measure_z"},
                    "condition": {"0": {"kind": "measure_x"}},
                },
            ],
        }
        script = script_from_dict(doc)
        assert script.name == "tiny"
        variant = script.rounds[1].resolve(("0",))
        assert all(k.shape == (2, 2) for b in variant.branches for k in b.kraus)

    def test_equal_specs_share_one_instrument(self):
        a = instrument_from_spec({"kind": "measure_angle", "angle": 0.25})
        b = instrument_from_spec({"angle": 0.25, "kind": "measure_angle"})
        assert a is b
        assert instrument_from_spec({"kind": "measure_angle", "angle": 0.5}) is not a
        # one measure_z object in every bundled script that measures Z
        z = instrument_from_spec({"kind": "measure_z"})
        users = [s.name for s in bundled_corpus()
                 if any(r.instrument is z for r in s.rounds)]
        assert len(users) == 5

    @pytest.mark.parametrize("name", ["my script", "a\nb", "tab\there", " x", "", ["x"], 3, None])
    def test_name_must_be_one_word(self, name):
        # a columnar row is the name and one number: whitespace would split it
        doc = {"name": name, "rounds": [{"party": "A", "instrument": {"kind": "measure_z"}}]}
        with pytest.raises(ValueError, match="nonempty string without whitespace"):
            script_from_dict(doc)

    def test_unknown_instrument_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown instrument kind"):
            script_from_dict(
                {"name": "x", "rounds": [{"party": "A", "instrument": {"kind": "nope"}}]}
            )
