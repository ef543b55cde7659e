"""Pinned JSON bytes for a fixed list of commands.

The digests were recorded before the sparse kernels were merged; a
refactor of linalg, planes, skew, fiber or scans must reproduce them.
"""

import hashlib

import pytest

from qks.cli import main

PINNED = [
    ("center --case iii --n 3 --localization none --degree 8",
     "906db186aae0a1b3d2de70a9eb1c9dc97b014791b4d37aa71da1f2c13236f42a"),
    ("invariants --case ii --localization none --degree 6",
     "596863a0d85960b5c4a994129968c47870c15992147eb453b226b2c9ceef8901"),
    ("scan --case i --n 3 --k 2 --samples 2 --seed 7",
     "6668fef8479ace018f47eaf2c4f9679ea7e34a44dd2d1a19a21d384d1e8cf2fa"),
    ("scan --case ii --localization torus --samples 3 --seed 7",
     "bf39f6cf823aa41cdad38eabf2b3c202ade28a51cabe3f538db964fe65a40a88"),
    ("auslander --case iv --degree 2 --guard 4",
     "92eebdfe2398b5021f311bac1486a035ba1a30d2ff7e84a9a4cb5ef217c91339"),
    ("fiber --case ii --localization full --point s2=5,y=3",
     "253e0e6589896f5528b88665156c7066dfb200c6729d9c467fa04ab0e346928e"),
]


@pytest.mark.parametrize("command,digest", PINNED)
def test_json_bytes_are_pinned(capsys, command, digest):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
