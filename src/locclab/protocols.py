"""Two-party protocol scripts: ordered one-way-local rounds with conditioning.

A script is a finite list of rounds.  In each round one party (``"A"`` or
``"B"``) applies a single-qubit instrument to its own boundary qubit and
broadcasts the classical outcome.  A round may condition its instrument on
outcomes of *earlier* rounds (the classical channel is causal); the set of
prior outcomes a round can see is decided at execution time, which is how
the classical channel is withheld in no-signaling checks.

Scripts are plain data and can be serialized to JSON; a corpus of scripts
ships with the package under ``data/scripts``.  Scripts are immutable: each
round's ``condition`` is a read-only mapping.  A bundled script, like the
canonical CHSH script, is built once per process and then shared by every
caller.  Instrument specs are shared per process too: equal specs (the same
JSON up to key order) give one instrument, in every script that uses it, so
each is validated once per process.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .instruments import (
    InstrumentBranch,
    QuantumInstrument,
    depolarizing_kraus,
    identity_instrument,
    measure_angle,
    measure_x,
    measure_z,
    projector,
    settings_choice_instrument,
    unsharp_z,
)

__all__ = [
    "ProtocolRound",
    "ProtocolScript",
    "instrument_from_spec",
    "script_from_dict",
    "load_script",
    "bundled_script_names",
    "load_bundled_script",
    "bundled_corpus",
    "canonical_chsh_script",
]

PARTIES = ("A", "B")


@dataclass(frozen=True, eq=False)
class ProtocolRound:
    """One one-way-local round: acting party, instrument, optional conditioning.

    ``condition`` maps a tuple of previously visible outcomes to an
    instrument variant; when the visible transcript has no entry, the
    default ``instrument`` is used.  It is stored as a read-only mapping.
    """

    party: str
    instrument: QuantumInstrument
    condition: Mapping[tuple[str, ...], QuantumInstrument] | None = None

    def __post_init__(self):
        if self.party not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {self.party!r}")
        if self.condition is not None:
            cond = {tuple(k): v for k, v in self.condition.items()}
            object.__setattr__(self, "condition", MappingProxyType(cond))

    def resolve(self, visible: tuple[str, ...]) -> QuantumInstrument:
        """Instrument to run given the outcomes visible to this round."""
        if self.condition is None:
            return self.instrument
        return self.condition.get(visible, self.instrument)


@dataclass(frozen=True, eq=False)
class ProtocolScript:
    """A nonempty ordered sequence of one-way-local rounds.

    Its LOCC depth is ``len(rounds)``: depth 1 is a single local round with
    broadcast.
    """

    name: str
    rounds: tuple[ProtocolRound, ...]

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        if not self.rounds:
            raise ValueError("script has no rounds")
        for i, r in enumerate(self.rounds):
            if r.condition is not None:
                for key in r.condition:
                    if len(key) > i:
                        raise ValueError(
                            f"round {i} conditions on {len(key)} outcomes but only "
                            f"{i} rounds precede it"
                        )


# ---------------------------------------------------------------------------
# JSON serialization
#
# {
#   "name": "...",
#   "rounds": [
#     {"party": "A", "instrument": {"kind": "measure_angle", "angle": 0.3},
#      "condition": {"0": {"kind": "measure_x"}}}
#   ]
# }
#
# Condition keys are the visible prior outcomes joined with ",".


def depolarize_then_measure(p: float, angle: float = 0.0) -> QuantumInstrument:
    """Depolarize with strength ``p``, then measure projectively at ``angle``."""
    dk = depolarizing_kraus(p)
    branches = []
    for outcome, sign in (("0", +1), ("1", -1)):
        pi = projector(angle, sign)
        branches.append(InstrumentBranch(outcome, tuple(np.einsum("ij,jk->ik", pi, d) for d in dk)))
    return QuantumInstrument(tuple(branches))


def instrument_from_spec(spec: Mapping) -> QuantumInstrument:
    """The instrument a JSON spec names; equal specs share one instrument per process."""
    return _spec_instrument(json.dumps(spec, sort_keys=True))


@lru_cache(maxsize=64)
def _spec_instrument(text: str) -> QuantumInstrument:
    spec = json.loads(text)
    kind = spec["kind"]
    if kind == "measure_z":
        return measure_z()
    if kind == "measure_x":
        return measure_x()
    if kind == "measure_angle":
        return measure_angle(float(spec["angle"]))
    if kind == "settings_choice":
        a0, a1 = (float(x) for x in spec["angles"])
        return settings_choice_instrument(a0, a1)
    if kind == "identity":
        return identity_instrument()
    if kind == "unsharp_z":
        return unsharp_z(float(spec.get("sharpness", 0.8)))
    if kind == "depolarize_then_measure":
        return depolarize_then_measure(float(spec["p"]), float(spec.get("angle", 0.0)))
    raise ValueError(f"unknown instrument kind {kind!r}")


def script_from_dict(doc: Mapping) -> ProtocolScript:
    """The script of a JSON document; its name, one field of a columnar payload
    row, must be a nonempty string without whitespace (``ValueError`` otherwise)."""
    name = doc["name"]
    if not isinstance(name, str) or name.split() != [name]:
        raise ValueError(f"a script name is a nonempty string without whitespace, got {name!r}")
    rounds = []
    for rdoc in doc["rounds"]:
        condition = None
        if "condition" in rdoc:
            cond = rdoc["condition"]
            if not isinstance(cond, dict):
                raise TypeError(f"a round's condition must be a JSON object, got {cond!r}")
            condition = {
                tuple(key.split(",")) if key else (): instrument_from_spec(spec)
                for key, spec in cond.items()
            }
        rounds.append(
            ProtocolRound(rdoc["party"], instrument_from_spec(rdoc["instrument"]), condition)
        )
    return ProtocolScript(name, tuple(rounds))


def load_script(path) -> ProtocolScript:
    with open(path, "r", encoding="utf-8") as fh:
        return script_from_dict(json.load(fh))


def _script_dir():
    return resources.files("locclab").joinpath("data/scripts")


@cache
def bundled_script_names() -> tuple[str, ...]:
    return tuple(sorted(
        p.name.removesuffix(".json") for p in _script_dir().iterdir() if p.name.endswith(".json")
    ))


@cache
def load_bundled_script(name: str) -> ProtocolScript:
    """The bundled script ``name``, parsed on the first call and shared after it."""
    text = _script_dir().joinpath(f"{name}.json").read_text(encoding="utf-8")
    return script_from_dict(json.loads(text))


def bundled_corpus() -> list[ProtocolScript]:
    """All scripts shipped with the package, sorted by name."""
    return [load_bundled_script(n) for n in bundled_script_names()]


@cache
def canonical_chsh_script() -> ProtocolScript:
    """Two rounds of randomized setting choice at the optimal CHSH angles, built once."""
    return ProtocolScript(
        "chsh_canonical",
        (
            ProtocolRound("A", settings_choice_instrument(0.0, math.pi / 2)),
            ProtocolRound("B", settings_choice_instrument(math.pi / 4, -math.pi / 4)),
        ),
    )
