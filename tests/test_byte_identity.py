"""Pinned JSON bytes for a fixed list of commands.

The first six digests were recorded before the sparse kernels were
merged, the next ten before the catalog's per-case samplers and recipes
moved into the case builders, the next two (fibers of dim 100 and 144,
where associativity is sampled) before fibers took their center and
associativity at their generators, the next two (the benchmark's C2 k=4
and S2 full scans) before the structure table reused the box part of each
product across group elements, and the last one (D4 torus) when the
(-1)-plane cases took the orbit-polynomial fiber rule; a refactor of
linalg, planes, skew, fiber, catalog or scans must reproduce them.  The D2
torus scan was re-recorded with that rule: its old digest recorded a
sampler that drew only points with u^2 and v^2 at the same value.  Together the scan, freeness
and molien commands reach every case's sampler, Z(A) sampler and fiber
recipe.
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
     "894b6cac43b9097a3a7db5621c025d895b016b4f28d08b25efbfb921ade22fa9"),
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
    ("scan --case i --n 5 --k 2 --samples 1 --seed 7",
     "b9586d357865cbba3f04886e023e222b5e22029118d77c8dccb637abf465d5d7"),
    ("scan --case iii --n 3 --localization torus --samples 3 --seed 7",
     "e30ebb5472d3bee9bed43bd65c614bb868df1ef846a54af7f92013295fc11a54"),
    ("scan --case i --n 2 --k 4 --samples 3 --seed 7",
     "9c851c2136d125dc5f0ee1b47dc88b2c4a18689d524feaf555df8538da1010f2"),
    ("scan --case ii --localization full --samples 3 --seed 7",
     "ced5667b882fbc4e3dc428814b440d2414361822dcbaf34ee493afd37991432e"),
    ("scan --case iii --n 4 --localization torus --samples 3 --seed 7",
     "1d86e1c157282e33c9392fb3fa26c2f266fca82f84e87c504a42462f7e795825"),
]


@pytest.mark.parametrize("command,digest", PINNED)
def test_json_bytes_are_pinned(capsys, command, digest):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
