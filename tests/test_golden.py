"""CLI payloads and transcripts compared byte for byte with recorded files.

The sampled CHSH files in ``golden/`` were written by the exporter that
built the whole transcript and formatted it one row at a time, before the
block sampler.  The payloads of the five other experiments were written by
the enumeration that applied each instrument to one validated
``DensityMatrix`` at a time, before the stacked transcript kernel; each of
their configurations is recorded in both payload formats.  The two ``xx``
files were written by the enumeration that ran one world at a time, before
a sweep or channel-size check ran all its worlds as one stack; ``xx`` has
branches that are dead in ER and live in a dephased world.  Every columnar
payload was written by hand-built text for its experiment, before one
writer rendered them all from rows, and the sampled files by an outcome
table from instrument-kernel calls, before it came from the pair's moments.

The exact payloads were re-recorded once when payload arithmetic left BLAS
for closed forms and ``einsum``; ``golden/skylakex/`` keeps each file that
changed as it was recorded before, under OpenBLAS's SkylakeX kernels, and
:func:`test_rerecord_moved_only_rounding` holds every number of the new
file within 4e-15 of it.
"""

import builtins
import hashlib
import re
from pathlib import Path

import pytest

from locclab.cli import EXIT_OK, main

import helpers

GOLDEN = Path(__file__).parent / "golden"
SKYLAKEX = GOLDEN / "skylakex"

#: A decimal number as the payloads print it, sign and exponent included.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")

PAYLOADS = {
    "chsh_er_200003.json": [
        "--seed", "11", "--mode", "er", "--trials", "200003", "--parallel", "2",
    ],
    "chsh_epr_65537.txt": [
        "--seed", "12", "--mode", "epr", "--q-dim", "3", "--qbar-dim", "2", "--lambda", "0.4",
        "--trials", "65537", "--parallel", "3", "--format", "columnar",
    ],
    "chsh_epr_131072.json": [
        "--seed", "13", "--mode", "epr", "--q-dim", "2", "--qbar-dim", "4", "--lambda", "1.1",
        "--evolution-time", "0.7", "--trials", "131072",
    ],
}


#: Exact experiments: file stem -> argv, each recorded as ``.json`` and ``.txt``.
EXACT = {
    "chsh_exact_er": ["chsh", "--seed", "1", "--mode", "er", "--exact"],
    "chsh_exact_epr": [
        "chsh", "--seed", "2", "--mode", "epr", "--q-dim", "3", "--qbar-dim", "2",
        "--lambda", "0.7", "--evolution-time", "1.3", "--exact",
    ],
    "sweep_adaptive_three": [
        "sweep", "--seed", "3", "--lambda-grid", "0,0.35,0.9", "--script", "adaptive_three",
        "--q-dim", "2", "--qbar-dim", "2",
    ],
    "distinguish_lam0": [
        "distinguish", "--seed", "4", "--lambda", "0", "--q-dim", "2", "--qbar-dim", "2",
    ],
    "distinguish_lam08": [
        "distinguish", "--seed", "5", "--lambda", "0.8", "--q-dim", "3", "--qbar-dim", "2",
        "--evolution-time", "0.9",
    ],
    "nosignal_default": ["nosignal", "--seed", "6"],
    "nosignal_files": [
        "nosignal", "--seed", "7", "--mode", "epr", "--lambda", "0.5",
        "--alice-instrument", str(GOLDEN / "alice_random3.inst"),
        "--alice-instrument", str(GOLDEN / "alice_unsharp.inst"),
    ],
    "qecc": [
        "qecc", "--seed", "8", "--q-dims", "2,3,4", "--qbar-dim", "2", "--lambda", "0.6",
        "--script", "chsh_rotated",
    ],
    "frames": ["frames", "--seed", "9", "--offset", "0.5"],
    "sweep_xx": ["sweep", "--seed", "16", "--lambda-grid", "0,0.5,1.1", "--script", "xx"],
    "qecc_xx": ["qecc", "--seed", "17", "--q-dims", "2,3,4", "--lambda", "0.7", "--script", "xx"],
}

FORMATS = {".json": "structured", ".txt": "columnar"}

#: Transcript exports: argv without ``--transcript``.  The first file is kept
#: whole, the second, 2.3 MB of text, only as its SHA-256.
TRANSCRIPT = ["chsh", "--seed", "14", "--mode", "er", "--trials", "1200"]
MULTI_BLOCK_TRANSCRIPT = [
    "chsh", "--seed", "15", "--mode", "epr", "--q-dim", "2", "--qbar-dim", "3",
    "--lambda", "0.6", "--trials", "140001", "--parallel", "2",
]


def exact_argv(stem: str, suffix: str, out: Path) -> list[str]:
    return [*EXACT[stem], "--format", FORMATS[suffix], "--out", str(out)]


@pytest.mark.parametrize("suffix", sorted(FORMATS))
@pytest.mark.parametrize("stem", sorted(EXACT))
def test_exact_payload_bytes(tmp_path, capsys, stem, suffix):
    out = tmp_path / (stem + suffix)
    assert main(exact_argv(stem, suffix, out)) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / (stem + suffix)).read_bytes()


@pytest.mark.parametrize("name", sorted(p.name for p in SKYLAKEX.iterdir()))
def test_rerecord_moved_only_rounding(name):
    old, new = ((d / name).read_text() for d in (SKYLAKEX, GOLDEN))
    assert old != new
    # the same text between the numbers, and each number moved by at most 4e-15
    assert NUMBER.split(old) == NUMBER.split(new)
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))]
    assert max(abs(a - b) for a, b in pairs) <= 4e-15


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_sampled_payload_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(["chsh", *PAYLOADS[name], "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_transcript_file_bytes(tmp_path, capsys):
    out = tmp_path / "transcript.txt"
    assert main([*TRANSCRIPT, "--transcript", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "transcript_er_1200.txt").read_bytes()


def test_multi_block_transcript_digest(tmp_path, capsys):
    out = tmp_path / "transcript.txt"
    assert main([*MULTI_BLOCK_TRANSCRIPT, "--transcript", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "22035f476fe79f71243dce3ec7c40903ecad0e1dd2e7054e6a67c03d70ad1a23"


def test_every_golden_file_under_the_compensated_sum_of_python_312(tmp_path, capsys, monkeypatch):
    # from CPython 3.12 on, the builtin sum of floats compensates its rounding: no golden
    # byte may depend on which sum the interpreter has
    monkeypatch.setattr(builtins, "sum", helpers.compensated_sum)
    assert sum([1.0, 1e-16, 1e-16]) == 1.0000000000000002
    for stem in sorted(EXACT):
        for suffix in sorted(FORMATS):
            test_exact_payload_bytes(tmp_path, capsys, stem, suffix)
    for name in sorted(PAYLOADS):
        test_sampled_payload_bytes(tmp_path, capsys, name)
    test_transcript_file_bytes(tmp_path, capsys)
    test_multi_block_transcript_digest(tmp_path, capsys)
