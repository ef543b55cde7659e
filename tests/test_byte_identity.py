"""Pinned JSON bytes for a fixed list of commands.

The first six digests were recorded before the sparse kernels were
merged, the rest before the catalog's per-case samplers and recipes moved
into the case builders; a refactor of linalg, planes, skew, fiber, catalog
or scans must reproduce them.  Together the scan, freeness and molien
commands reach every case's sampler, Z(A) sampler and fiber recipe.
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
    ("scan --case 0 --localization none --samples 3 --seed 7",
     "305ac2c6327431adea5a448305fbffdefc3c3858918567bfa11cd78278c1c38e"),
    ("scan --case iii --n 2 --localization torus --samples 2 --seed 7",
     "7eb83187ebb662c5437ef2186118a21256c7d957b5f578eb524ee9ba9570d93d"),
    ("scan --case iii --n 3 --localization torus --stabilized --samples 1 --seed 7",
     "a07decb0a70825cf9e0c0c33701e2437ab938fd657a65ee58e12985a2eb817f2"),
    ("scan --case iii --n 3 --localization full --samples 1 --seed 7",
     "6dbc779618cd86ba1df4edfb484685a1b3c7857b821eb48bdc01e0e55ac6fd65"),
    ("freeness --case 0 --localization none --samples 6 --seed 7",
     "84bec28acec9ec1e03b1644ccbab22d2ad2466db42055ec6af095fab15210433"),
    ("freeness --case ii --localization full --samples 6 --seed 7",
     "fbd16b47c27edd6c4b0a68f1a37e9838271657869651ae72fad05341aa9201d3"),
    ("freeness --case iii --n 3 --localization full --samples 6 --seed 7",
     "d951f2b95fbd54870a24c225586f3b9a1d5bbd30b46823a46f8db3e89838751c"),
    ("freeness --case i --n 3 --k 2 --samples 6 --seed 7",
     "6f1f1e1e3bee6c2e417f392b480e559dde6e757e098ff2f9459819505acbbbdf"),
    ("molien --case i --m 4 --degree 8",
     "82085578664d68162977128b9bb2f00bf947d53d748991a63e8c6e69c68ba57f"),
    ("molien --case iii --m 3 --degree 8",
     "dc018def1ab515387127976aacde398e409b9f6ef32068e668cbdcf2802eb377"),
]


@pytest.mark.parametrize("command,digest", PINNED)
def test_json_bytes_are_pinned(capsys, command, digest):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
