"""Pinned JSON bytes for a fixed list of commands.

Each group of digests was recorded at the parent of the change named:
- the first six, before the sparse kernels were merged;
- the next ten, before the catalog's per-case samplers and recipes moved
  into the case builders;
- the next two (fibers of dim 100 and 144, where associativity is sampled),
  before fibers took their center and associativity at their generators;
- the next two (the benchmark's C2 k=4 and S2 full scans), before the
  structure table reused the box part of each product across group elements;
- the next one (D4 torus), when the (-1)-plane cases took the
  orbit-polynomial fiber rule;
- the next three (centers and a scan on the full localizations, whose
  algebras declare a denominator), before elements stopped carrying
  denominator tags;
- the next two (an agreeing auslander check and the case-0 control, whose
  Hom systems then took the certified mod-p path and the exact fallback), before
  the Hom dimensions were certified mod p;
- the next three (a Laurent and a cyclic invariant ring, and the Jordan
  center), before Z(T), A^G and Z(A) became commutants from one builder;
- the next two (the D3 center with both variables inverted, conductor 6,
  and the quantum-plane center), before the commutant rows were built from
  monomial products;
- the next four (case iii at n = 1: two scans, a freeness scan and a
  center), before cases ii and iii came from one (-1)-plane builder;
- the next three (the benchmark's case-ii auslander check, the case-0
  check at degree 0 and guard 0, whose Hom dimension moves between the
  caps, and a case-i check), before each degree's Hom dimensions at both
  caps came from one elimination;
- the next four (two centers and a fiber whose bytes pass through skew
  element products, and a case-iii auslander check that is unstable at
  guard 2 and goes through the natural map), before every monomial
  product of A # G went through `SkewRing.mono_product`;
- the next two (D5 full and D5 torus at a stabilized point, fibers of
  dim 400 on which the closure kills nothing), before such fibers took
  their products on demand and a graded trace form;
- the next three (the D3 full and C3 k=2 centers at their default window,
  as the benchmark runs them, and the D5 full center at window 10), before
  the commutants were intersected one generator at a time;
- the next three (freeness on case ii none, where a scan reason is set, and
  on D4 torus and C4 k=2, whose actions are not X-outer), before
  X-outerness and the generators of Z(A) were read off the ring;
- the next one (case i at (n, k) = (2, 2), a quotient whose residual mixes
  group components), before fibers of dim <= 40 were certified on their box
  algebra and the group action;
- the last three (case i at (7, 3), whose box went from 21 x 21 to 21 x 3,
  at (4, 2), a quotient, and a C5 k=2 fiber at a given point), before case i
  took its box from w^gcd(n, k) = (uv)^-k.

`HUMAN_PINNED` holds one command per human-format report body (points,
stabilizers, graded dims, Hom degrees, Molien series, one fiber), recorded
before the action check read the relation and the group law.

A refactor of linalg, planes, skew, fiber, catalog or scans must reproduce
them.  The D2 torus scan was re-recorded with the orbit-polynomial rule: its
old digest recorded a sampler that drew only points with u^2 and v^2 at the
same value.  Together the scan, freeness and molien commands reach every
case's sampler, Z(A) sampler and fiber recipe.
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
    ("center --case ii --localization full --degree 4",
     "331304dcd33f0fa903aa86eee143bd3f876ba24df9b7259a28c17e418c9539ea"),
    ("center --case 0 --degree 4",
     "7687ad5bc865698a6d53f4e6fc1bb3314ed4ab34e3392a5185cd7e3166d06cc1"),
    ("scan --case 0 --samples 3 --seed 7",
     "00965f53320e136332b96d5ec389a2f71cbcab28e44167e6648e8dd9b38475ef"),
    ("auslander --case ii --localization none --degree 2 --guard 4",
     "6ce8ea796619dad0b65ae2987eed3a848a628b70a6cd82febeb1e689d15e7f01"),
    ("auslander --case 0 --localization none --degree 2 --guard 4",
     "af2c75989c8da8f7b1b423abe44c2afcb4eb84c6e9fe29ad1008a1b2bc688789"),
    ("invariants --case iii --n 4 --localization torus --degree 6",
     "1a1ed3272e58a8241511180ca0aa95a84a73e1cbf0daf93c71f22c336eb902ec"),
    ("invariants --case i --n 3 --k 2 --degree 6",
     "fff74e5b778be8ae5d08a6d9ae427e45be24e06d43e717e8a013c9470e991d16"),
    ("center --case iv --degree 8",
     "7ec12669b521991b8ae0a71c61e7de64a07d0d6cb6904ec27536ecf66bf28afc"),
    ("center --case iii --n 3 --localization full --degree 6",
     "7c9ecef50e8913a2885a33635e97e8b420d8d64563497785bd63c76e58f0731f"),
    ("center --case i --n 3 --k 2 --degree 6",
     "de83b4be5b50f36a85d8ed328e69bcfa94d642ed9827080611f47694b71cc4f9"),
    ("scan --case iii --n 1 --localization full --samples 3 --seed 7",
     "205ec309655f6096fed8fa61fc86035c11fc9a5536e98285459cc852784c022c"),
    ("scan --case iii --n 1 --localization torus --samples 3 --seed 7",
     "4c86c8a4f18e2336d04cc23ee4db8ab082340e9d34b3d3e1997f3acb9d7ae1e9"),
    ("freeness --case iii --n 1 --localization full --samples 6 --seed 7",
     "961de730ddf62899d8ca23eed9317de40ea91b6c4b4314111c2bfe6998861b42"),
    ("center --case iii --n 1 --localization none --degree 4",
     "53f1a08078c740dba3c693bcb8858674a0d4b664552be01605b5c8f7a110dda8"),
    ("auslander --case ii --localization none --degree 4 --guard 6",
     "ea069b05eea29a0c8bb728ad6c6c076edfb4c2f507410833fc7006a5ae47317e"),
    ("auslander --case 0 --localization none --degree 0 --guard 0",
     "ca791608378e84bd61a86fac6a284b70468d209beba07ed46cb77db91799cb60"),
    ("auslander --case i --n 3 --k 2 --localization none --degree 2 --guard 2",
     "658c1ce85c770a5cfef6dac4d88415fb2ad2e81b0e3d7b331cfe4b73e63312eb"),
    ("center --case i --n 2 --k 4 --degree 6",
     "7ce1e9ca7861e3b7016eac8a34d490f04100a858f690d43fb07632833ecc5f92"),
    ("center --case iii --n 4 --localization torus --degree 6",
     "86d9e4a53690678fb617fb738b2c5aff78eb4bc4a761f1f2bc2f7c314c0b3ea9"),
    ("fiber --case i --n 3 --k 3 --point x=2,w=1/2",
     "65d224b25058c85915cb1314beaec04b7d82e2b972e012ee842e08f0aa19f39e"),
    ("auslander --case iii --n 3 --localization none --degree 2 --guard 2",
     "fef2deb2f7b7b7b7ddeaefedf8dea50386653cce06c8385fdc2f4439ba358560"),
    ("scan --case iii --n 5 --localization full --samples 1 --seed 7",
     "94665c1e3b23ba030086e98be27763951df10e7c0be580f5d26ee6a59b692706"),
    ("scan --case iii --n 5 --localization torus --stabilized --samples 1 --seed 7",
     "9b17608f77df48c94a422b1a52906042f0794ab494d860bbb3fec66d8bf21cf4"),
    ("center --case iii --n 3 --localization full",
     "024984e56944f1cd453da7d0427542a2c212d36f456becddb44fa53c2e83b985"),
    ("center --case i --n 3 --k 2",
     "7eccd722dbe54f99b125ba168a6148ea3ad163ee393fe872fae31d99cd77f0f8"),
    ("center --case iii --n 5 --localization full --degree 10",
     "7f03fbdd2c9a435220125989ec0c36f90ba51303b25686f0baf77d0ccf5c81d5"),
    ("freeness --case ii --localization none --samples 3 --seed 7",
     "827bc50fcbf7630bfe63c5a4d87b48db7a74b632787ddc93edcda09f52b4de28"),
    ("freeness --case iii --n 4 --localization torus --samples 3 --seed 7",
     "59c89e390069609dfe06d42baaa875eac466967e07d2e1b636d7185073a0de94"),
    ("freeness --case i --n 4 --k 2 --samples 3 --seed 7",
     "5c82dd242019a17a9ed13e909fb2ccb32f5a2e602cce82f4669387f02ab4e41d"),
    ("scan --case i --n 2 --k 2 --samples 3 --seed 7",
     "833e85f23d7ea2b8bd49a95061fe1afe55f0651e4245f685314fdd736cdb11b2"),
    ("scan --case i --n 7 --k 3 --localization torus --samples 1 --seed 1",
     "0b9372058fe0f93b776b75bf167aab93d87ac4c0df4c5a99d88ba4543d35b764"),
    ("scan --case i --n 4 --k 2 --samples 2 --seed 7",
     "17be84f0b0129a7906f8515b4affffad6a936e4e7c83cc5c5a71142de80ec0a5"),
    ("fiber --case i --n 5 --k 2 --point x=2,w=3",
     "2410cb1f4a7351a633d512ff8ab23f01ace9860a5336977daa099fce76abee06"),
]

# pinned commands whose verdict is not a pass: the case-0 control's
# mismatch, the truncation instability of case 0 at guard 0 and of
# case iii n = 3 at guard 2, and the not-applicable freeness scans
EXIT_CODES = {"auslander --case 0 --localization none --degree 2 --guard 4": 1,
              "auslander --case 0 --localization none --degree 0 --guard 0": 2,
              "auslander --case iii --n 3 --localization none --degree 2 --guard 2": 2,
              "freeness --case ii --localization none --samples 3 --seed 7": 2,
              "freeness --case iii --n 4 --localization torus --samples 3 --seed 7": 2,
              "freeness --case i --n 4 --k 2 --samples 3 --seed 7": 2}


# the default --format human, one command per report body kind
HUMAN_PINNED = [
    ("scan --case ii --localization torus --samples 3 --seed 7",
     "b64a3a116751e815931e0d3db1adbe7cc7b7f1f464487eef9116e69c2a847226"),
    ("freeness --case 0 --localization none --samples 3 --seed 7",
     "8019b6e4876818c454426f61a47839ff10583d4edaedd8834b9c8d6d0233491a"),
    ("center --case iii --n 3 --localization none --degree 8",
     "71dbe3ff24df55bd4a04450236d6a8d5f14af40d612fb8cef40bff873fc458a9"),
    ("invariants --case ii --localization none --degree 6",
     "051c5ebb8840f8e9dbbde3b1ba9f720220f2da2b2d8ec558ff37b7bc756c8957"),
    ("auslander --case ii --localization none --degree 2 --guard 4",
     "067d3746d0be44782d29fbdbd5bbaa9e100d7e708ff5aa80e2a5fc2b8dd62d58"),
    ("molien --case iii --m 2 --degree 8",
     "dc048b3770e6203f849ba24dadd41f2c6848303c834846b8ef73e8bf39542cc2"),
    ("fiber --case ii --localization full --point s2=5,y=3",
     "30f232327c50ed197bc62d82991815f85083637870e8c072e4c3946212d23623"),
]


@pytest.mark.parametrize("command,digest", PINNED)
def test_json_bytes_are_pinned(capsys, command, digest):
    code = main(command.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_CODES.get(command, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", HUMAN_PINNED)
def test_human_bytes_are_pinned(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
