"""Golden hashes of `dfipp run` reports and recorded transcripts.

Every verdict, ledger count and transcript byte follows from (config, seed),
so a change that claims to alter none of them must leave these sha256 digests
alone.  There is one non-amplified config per protocol, two for the protocols
with two distribution modes or profiles, and two rejecting configs that pin
the ledgers of the reject path at the leaf spot checks.
"""

import hashlib

import pytest

from dfipp.experiments import cmd_run, record_transcript
from dfipp.field import InputTensor, PrimeField, lde_eval

TRANSCRIPT_SEED = 20230817


def _member_alternative(p: int, k: int, m: int):
    """X, claim points J, P_W(J) and a W that differs from X in every cell.

    W satisfies the claims, so a prover committed to W passes the folding and
    leaf PVAL checks and can only be caught by the leaf spot checks.
    """
    field = PrimeField(p)
    x = [(5 * i + 3) % p for i in range(k ** m)]
    w = [(v + 1) % p for v in x]
    points = [[(7 * j + 2 * t + 1) % p for t in range(m)] for j in range(2)]
    W = InputTensor(field, k, m, tuple(w))
    values = [lde_eval(W, tuple(pt)) for pt in points]
    return {"x": x, "points": points, "values": values,
            "prover": {"mode": "fixed-alternative", "alt": w}}


SHAPED_2X3 = {"kind": "explicit", "shape": [2, 3],
              "masses": ["1/4", "1/8", "1/16", "1/16", "1/8", "1/8", "1/8", "1/8"]}

CONFIGS = {
    "echo": {"protocol": "echo", "trials": 3, "seed": 11, "bits": 12},
    "ham": {"protocol": "ham", "trials": 3, "seed": 12, "n": 16, "eps": "1/4"},
    "symmetric": {"protocol": "symmetric", "trials": 3, "seed": 13, "n": 8, "eps": "1/4",
                  "x": [1, 0, 1, 1, 0, 0, 1, 0], "predicate": 2},
    "poly_fold": {"protocol": "poly_fold", "trials": 3, "seed": 14, "field_modulus": 17,
                  "k": 2, "m": 3, "t": 3},
    "df_ipp_nc": {"protocol": "df_ipp_nc", "trials": 2, "seed": 15, "field_modulus": 17,
                  "k": 2, "m": 3, "r": 1, "eps": "1/2"},
    "dispersed_ipp_nc": {"protocol": "dispersed_ipp_nc", "trials": 2, "seed": 16,
                         "field_modulus": 17, "k": 2, "m": 3, "r": 1, "eps": "1/2",
                         "distribution": SHAPED_2X3},
    "rlcc": {"protocol": "rlcc", "trials": 3, "seed": 17, "bits": 4, "eps": "1/8"},
    "set_lower_bound": {"protocol": "set_lower_bound", "trials": 3, "seed": 18, "ell": 4},
    "fin_ipp/oracle": {"protocol": "fin_ipp", "trials": 2, "seed": 19, "field_modulus": 17,
                       "k": 2, "m": 3, "r": 1, "eps": "1/2", "distribution": SHAPED_2X3},
    "fin_ipp/uniform": {"protocol": "fin_ipp", "trials": 2, "seed": 20, "field_modulus": 17,
                        "k": 2, "m": 3, "r": 2, "eps": "1/2", "dist_mode": "uniform"},
    "whitebox_product/dyadic-random/r2": {
        "protocol": "whitebox_product", "trials": 1, "seed": 21, "field_modulus": 17,
        "k": 2, "m": 3, "r": 2, "eps": "1", "profile": "dyadic-random"},
    "whitebox_product/uniform": {
        "protocol": "whitebox_product", "trials": 2, "seed": 22, "field_modulus": 17,
        "k": 2, "m": 3, "r": 1, "eps": "1/2", "profile": "uniform"},
    "fin_ipp/fixed-alternative": {
        "protocol": "fin_ipp", "trials": 2, "seed": 23, "field_modulus": 17,
        "k": 2, "m": 3, "r": 1, "eps": "1/2", "distribution": SHAPED_2X3,
        **_member_alternative(17, 2, 3)},
    "whitebox_product/fixed-alternative": {
        "protocol": "whitebox_product", "trials": 2, "seed": 24, "field_modulus": 17,
        "k": 2, "m": 3, "r": 1, "eps": "1/2", "profile": "dyadic-random",
        **_member_alternative(17, 2, 3)},
}

REJECTING = {"fin_ipp/fixed-alternative", "whitebox_product/fixed-alternative"}

# (CSV, JSON, transcript) sha256 digests
GOLDEN = {
    "df_ipp_nc": (
        "0a143aeb3f7861a45b975a3d49775ddcdb5e4ffaa34d10a66c6d98ec6d1865f3",
        "6eccecb8a30c06aec626af564a8fe79b27d19a9d5298150c243fc6d062b189ad",
        "66dabdfe325ce6f44cb854b5d49f448655bd107d9bb59d5a9a25cebe5d255424",
    ),
    "dispersed_ipp_nc": (
        "8f6f40fd1d7d4d9605a9748c768e722b62be713a35c6d957ed37ce8fff7efe64",
        "9fead1c1d3ede7226ca7eab6dcbd19631de56837206029c831f0f83e820349f1",
        "ea3f7a5d1643eb2f4b2119c744253e4d4484638c8ba3e49997c0b0efef538f03",
    ),
    "echo": (
        "58154dad3afdb26d3d39f2e3298ef0cc388511bae4202d70da4c08bdcf7cad5c",
        "d7b0efe750e557c0d6784f68a5db24fda62cfe364e628624a78bb5f2db979ed4",
        "99c6440773db102101831dda861aa8ed9341e1dd70854a1a3a00819cfc3fca4f",
    ),
    "fin_ipp/fixed-alternative": (
        "0f58fad01fba0634dc1359353aabea58a72601502b9403012801b2056146e056",
        "3e46402fec1e3aa7a4d9513082aaee6173e44cc61e6cb7df8911a05da5b98382",
        "4aa850b4baced9496818361caa919757264996e7fa3510ae64079535eca654ac",
    ),
    "fin_ipp/oracle": (
        "4407eba2afe292831f66fb1546e9b29044b8d3c6476beb54a00a062a642d0543",
        "bfe8d37330e179a514bc126abbb6f4ce8f434dd27a81006ea2c1d1db1f3b83d8",
        "92b56d08979e958e51b6242fd42039018265390f548fd3bc7e6b989d6264f2f4",
    ),
    "fin_ipp/uniform": (
        "4be4e8db4b48bac0f496b12710c6dd40ea44fb4d7e753ee9654ed50b43e75398",
        "4fe0662ec84268442493fde1a4e4de153e72cd8ca74806a2b9a8ab1466e3b263",
        "57c28e09a104fbe38225f093ff2a47b9981e24e839b7b1ae01011faa9e30a7aa",
    ),
    "ham": (
        "b8b68028ebb97181cd38d0fef497c5402ddfefc95750efdfc821841317035c7c",
        "f81c75dbccaceee58876904e17e5d8be64f0a27dcfc8de0b27f5f5612b4536e7",
        "5edf226cf678d13c475e19f741b01e225d3375ed3fe45d084682ceedf48738f5",
    ),
    "poly_fold": (
        "96343c95e4b6fced603ec2aa07b94bd0a6408c18e2eb7d4cd842da18e094166e",
        "de63d024da73edadbb186eca908ce6d8a8962c3ccb25cc81c333fd8e75983b45",
        "873f246be49b5f87449e5d46aa6ca64b8ab5d3589a47fa98ce7d9667f26b5182",
    ),
    "rlcc": (
        "660eceaf4c9673ead9eb198fcbfc6045c0f3d5db0d5e443d2aabda6c6a9fe638",
        "fdd808c31b0b55faf0e0fff8e75c81a85ee8211e684bae31d90c3dae50885232",
        "94c2066fcf18db2b7797fc37017e331c345807fbbad3a5d7df02ca69133920fc",
    ),
    "set_lower_bound": (
        "5cf3740767dd9ab323ce8d22ff194b8ad894a21cb911e87d19453385032bf238",
        "ad30cf0120f6b2618cd6469e6536c9ed2365efa6b10800ff43b723a132021512",
        "3d1572b524509b3b87b11cdd61e7fc52a203087e2a093a07258282b342e50889",
    ),
    "symmetric": (
        "7adb5831197db4f29bfc4e810c97b00c0edcb37a246c73a6756c493950852b89",
        "1a8d09fc9ac2eec90f310e0097810346ce3c5c3f13cbfb09c3acab82dc12049a",
        "2b70304b7e0d4561e9e36b58678bf638353fa1202f87880eb832bebe834e3168",
    ),
    "whitebox_product/dyadic-random/r2": (
        "9a7b642e7dbc72c058e80afbc560985baa794e4f667d029380de6af9db90b57a",
        "0047befc455c9236d7c728672a53b5785854c627597ec464ff155c4ffcdfbbba",
        "b07e34ebbcee908ea1b35f1f74b1d3a51aa5cd2f5e76dbab8f017f6c4706d392",
    ),
    "whitebox_product/fixed-alternative": (
        "3e48425d1ca0aeb9a5d4f6f2f28594ea5cfe2654a97c738680edfb7cf35d066d",
        "3a9de4b9913de1f668d12907a9ddf13c56d908bc1fb1819df7354a64b16d8648",
        "60b2c98d1a452e322d8bc428b7387fc144db8a4dbfd99d50fd587f4684d90b0b",
    ),
    "whitebox_product/uniform": (
        "35aa1a9fdb741f0d21a8e508c9feeb441e439285679550d5cd5770fdb7ebeba0",
        "f0fe6d1a9ea2abcb843d8a2012b590578182119de6b4cd874e8f5bbfad273947",
        "bbc9b633f53ea84c68b15aa7f040892a2af5ebdcd8e4efbb904d9161d9a6a268",
    ),
}


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_digests(name: str, tmp_path):
    config = CONFIGS[name]
    prefix = str(tmp_path / "run")
    record = cmd_run(dict(config), out_prefix=prefix)
    transcript = str(tmp_path / "transcript.jsonl")
    record_transcript(dict(config), TRANSCRIPT_SEED, transcript)
    return record, (_sha(prefix + ".csv"), _sha(prefix + ".json"), _sha(transcript))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_reports_and_transcripts(name, tmp_path):
    record, digests = golden_digests(name, tmp_path)
    if name in REJECTING:
        assert record["reject_reasons"] == {"leaf-sample": record["trials"]}
    else:
        assert record["accepted"] == record["trials"]
    assert digests == GOLDEN[name]
