"""Refusals that no other test reaches: each bad input raises its own error type
with its own message, so deleting any one of these checks fails a case here."""

import re
from fractions import Fraction
from unittest.mock import patch

import pytest

from dfipp.distributions import GranularitySet, Pmf, extension_row_map, tv_distance
from dfipp.field import InputTensor, PrimeField
from dfipp.product import (FIXTURE_PROFILES, HonestSlbProver, MarginalClaim, Preimages,
                           _encode_fraction, gen_product_fixture)
from dfipp.protocols import HonestFoldProver, HonestHamProver, run_fin_ipp
from dfipp.session import ProtocolViolation, amplify
from dfipp.tensors import PvalInstance, dist, pval_member

F7 = PrimeField(7)
X7 = InputTensor(F7, 2, 2, (1, 2, 3, 4))
INST7 = PvalInstance(F7, 2, 2, ((0, 0),), (1,))


def _non_dyadic_fixture():
    # no profile draws a non-dyadic factor, so one is registered for the call
    thirds = Pmf([Fraction(1, 3), Fraction(2, 3)])
    with patch.dict(FIXTURE_PROFILES, {"thirds": lambda k, m, rng: [thirds] * m}):
        gen_product_fixture(2, 2, "thirds")


CASES = {
    # composites with no factor <= 37, so Miller-Rabin alone refuses them; 3215031751 is
    # a strong pseudoprime to bases 2, 3, 5 and 7
    "composite-41x43": (lambda: PrimeField(1763), ValueError, "modulus 1763 is not prime"),
    "strong-pseudoprime": (lambda: PrimeField(3215031751), ValueError,
                           "modulus 3215031751 is not prime"),
    "modulus-over-64-bits": (lambda: PrimeField((1 << 89) - 1), ValueError,
                             "modulus must fit in 64 bits"),
    "tensor-cell-count": (lambda: InputTensor(F7, 2, 2, (1, 2, 3)), ValueError,
                          "expected 4 cells, got 3"),
    "pval-points-values": (lambda: PvalInstance(F7, 2, 2, ((0, 0),), (1, 2)), ValueError,
                           "|J| != |v|"),
    "pval-point-outside": (lambda: PvalInstance(F7, 2, 2, ((0,),), (1,)), ValueError,
                           "point (0,) is not in F^2"),
    "pval-member-mismatch": (lambda: pval_member(InputTensor(F7, 2, 1, (1, 2)), INST7),
                             ValueError, "tensor and instance disagree on (field, k, m)"),
    "dist-shape": (lambda: dist((0, 1), (0,), Pmf.uniform(2)), ValueError, "shape mismatch"),
    "dist-support": (lambda: dist((0, 1), (1, 0), Pmf.uniform(3)), ValueError,
                     "distribution support does not match shape"),
    "tv-support": (lambda: tv_distance(Pmf.uniform(2), Pmf.uniform(3)), ValueError,
                   "support size mismatch"),
    "row-map-all-zeros": (lambda: extension_row_map((0, 0)), ValueError,
                          "extension must keep at least one row"),
    "granularity-remainder": (lambda: GranularitySet((9, -1)), ValueError,
                              "remainder must be nonnegative"),
    "fixture-non-dyadic": (_non_dyadic_fixture, ValueError, "factor masses must be dyadic"),
    "claim-negative": (lambda: MarginalClaim((Fraction(-1, 2), Fraction(3, 2)),
                                             Fraction(1, 2), Fraction(1, 2)),
                       ValueError, "negative claimed probability"),
    "fraction-past-64-bits": (lambda: _encode_fraction(Fraction(1, 1 << 64)),
                              ProtocolViolation,
                              f"rational 1/{1 << 64} does not fit the wire format"),
    "amplify-repetitions": (lambda: amplify(None, 0, "all-accept", 0), ValueError,
                            "repetitions >= 1"),
    "amplify-rule": (lambda: amplify(None, 3, "unanimous", 0), ValueError,
                     "unknown rule 'unanimous'"),
    "fin-dist-mode": (lambda: run_fin_ipp(X7, INST7, Pmf.uniform(4), Fraction(1),
                                          Fraction(1, 2), 1, HonestFoldProver(X7), 0,
                                          dist_mode="sampled"),
                      ValueError, "unknown dist_mode 'sampled'"),
    "ham-prover-tag": (lambda: HonestHamProver((1, 0)).reply("fold/matrix", None),
                       ProtocolViolation, "unexpected tag fold/matrix"),
    "fold-prover-tag": (lambda: HonestFoldProver(X7).reply("ham/split", (1, 2, 1)),
                        ProtocolViolation, "unexpected tag ham/split"),
    "slb-prover-tag": (lambda: HonestSlbProver(Preimages(1, {})).reply("wb/marginal", 0),
                       ProtocolViolation, "unexpected tag wb/marginal"),
}


@pytest.mark.parametrize("call,error,message", CASES.values(), ids=CASES.keys())
def test_bad_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
