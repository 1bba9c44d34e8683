"""Sampled CHSH payloads and transcripts compared byte for byte with recorded files.

The files in ``golden/`` were written by the exporter that built the whole
transcript and formatted it one row at a time, before the block sampler.
"""

import hashlib
from pathlib import Path

import pytest

from locclab.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

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


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_sampled_payload_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(["chsh", *PAYLOADS[name], "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_transcript_file_bytes(tmp_path, capsys):
    out = tmp_path / "transcript.txt"
    args = ["chsh", "--seed", "14", "--mode", "er", "--trials", "1200", "--transcript", str(out)]
    assert main(args) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "transcript_er_1200.txt").read_bytes()


def test_multi_block_transcript_digest(tmp_path, capsys):
    # 2.3 MB of text, so only its SHA-256 is kept
    out = tmp_path / "transcript.txt"
    args = ["chsh", "--seed", "15", "--mode", "epr", "--q-dim", "2", "--qbar-dim", "3",
            "--lambda", "0.6", "--trials", "140001", "--parallel", "2", "--transcript", str(out)]
    assert main(args) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "22035f476fe79f71243dce3ec7c40903ecad0e1dd2e7054e6a67c03d70ad1a23"
