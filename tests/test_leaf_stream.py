"""Pins of the spot-check stream: a prover that lies on exactly one leaf cell.

The prover commits to W, which differs from X in one cell only and satisfies
the claims, so it passes every fold and leaf PVAL check: only a spot check at
the lying leaf cell rejects it, and where in the stream that cell is first
drawn fixes the session's ledger.  Each session's (reject reason, queries,
samples) is pinned over 10 seeds.

In oracle mode the law puts its last grain on the lying cell, the last cell
of [k]^m, so a sampler that loses or moves that grain (a short range, a
boundary bisected the wrong way) never draws it and the pins move.
"""

import random
from fractions import Fraction

import pytest

from dfipp.distributions import Pmf, dispersion_rho
from dfipp.field import InputTensor, PrimeField, lde_eval
from dfipp.product import (WhiteboxFoldProver, coordinate_preimages, gen_product_fixture,
                           run_whitebox_product_ipp)
from dfipp.protocols import HonestFoldProver, run_fin_ipp
from dfipp.tensors import PvalInstance

F17 = PrimeField(17)
SEEDS = range(10)


def _lying_on_one_cell(k, m, cell, seed):
    """(X, W, claims): W is X with cell changed, and the claims are W's own values."""
    rng = random.Random(seed)
    X = InputTensor.random(F17, k, m, rng)
    w = list(X.data)
    w[cell] = (w[cell] + 1) % F17.modulus
    W = InputTensor(F17, k, m, tuple(w))
    points = tuple(F17.rand_point(m, rng) for _ in range(2))
    return X, W, PvalInstance(F17, k, m, points, tuple(lde_eval(W, pt) for pt in points))


def _outcome(res):
    return res.verdict.reject_reason, res.ledger.queries, res.ledger.samples


def _fin_ipp(dist_mode):
    k, m = 2, 8
    weights = [0] * k ** m
    weights[0], weights[100], weights[200], weights[-1] = 3, 2, 2, 1
    D = Pmf.from_weights(weights, 8, shape=(k, m))
    X, W, inst = _lying_on_one_cell(k, m, k ** m - 1, 1)
    rho = dispersion_rho(D, (k, m)).rho
    return [_outcome(run_fin_ipp(X, inst, D, rho, Fraction(1), 1, HonestFoldProver(W), seed,
                                 dist_mode)) for seed in SEEDS]


def _whitebox_r1():
    k, m = 2, 4
    X, W, inst = _lying_on_one_cell(k, m, k ** m - 1, 2)
    P, circuit = gen_product_fixture(k, m, "dyadic-random", rng=random.Random(5))
    preimages = coordinate_preimages(circuit, k, m)
    return [_outcome(run_whitebox_product_ipp(X, inst, Fraction(1), circuit, 1,
                                              WhiteboxFoldProver(W, P.factors, preimages),
                                              seed)) for seed in SEEDS]


RUNS = {"fin_ipp-oracle": lambda: _fin_ipp("oracle"),
        "fin_ipp-uniform": lambda: _fin_ipp("uniform"),
        "whitebox-r1": _whitebox_r1}
REJECT = "leaf-sample"
PINS = {
    "fin_ipp-oracle": [(REJECT, 96, 40), (REJECT, 82, 40), (REJECT, 76, 40), (REJECT, 96, 40),
                       (REJECT, 92, 40), (REJECT, 210, 60), (REJECT, 82, 40), (REJECT, 64, 40),
                       (REJECT, 62, 40), (REJECT, 100, 40)],
    "fin_ipp-uniform": [(None, 240, 0), (REJECT, 82, 0), (REJECT, 76, 0), (None, 240, 0),
                        (None, 240, 0), (None, 240, 0), (REJECT, 196, 0), (REJECT, 64, 0),
                        (REJECT, 62, 0), (REJECT, 100, 0)],
    "whitebox-r1": [(REJECT, 15, 0), (REJECT, 90, 0), (REJECT, 15, 0), (REJECT, 30, 0),
                    (REJECT, 60, 0), (REJECT, 15, 0), (REJECT, 135, 0), (REJECT, 120, 0),
                    (REJECT, 570, 0), (REJECT, 2520, 0)],
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_one_cell_liar_is_caught_where_the_stream_first_draws_its_cell(name):
    assert RUNS[name]() == PINS[name]
