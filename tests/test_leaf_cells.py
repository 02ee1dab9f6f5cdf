"""Spot-check cells as flat leaf indices: a uniform cell is one randrange(k^(m-r))."""

import random
from fractions import Fraction

import pytest

from dfipp import protocols
from dfipp.field import InputTensor, PrimeField, cell_coords, cell_index
from dfipp.protocols import FoldState, _leaf_phase
from dfipp.session import ProverStrategy, Session

SHAPES = [(2, 1, 0), (2, 4, 1), (2, 4, 3), (3, 3, 1), (3, 3, 2), (4, 3, 2), (5, 2, 1)]
F17 = PrimeField(17)


@pytest.mark.parametrize("k,m,r", SHAPES)
def test_leaf_index_drops_the_first_r_coordinates(k, m, r):
    leaf_n = k ** (m - r)
    for i in range(k ** m):
        assert i % leaf_n == cell_index(cell_coords(i, k, m)[r:], k)


class _LeafProver(ProverStrategy):
    def __init__(self, leaf):
        self.sections = [(tuple(leaf), F17.bits)]

    def reply(self, tag, payload):
        return self.sections


# The id is older than the flat draw it now pins; it is kept stable.
@pytest.mark.parametrize("k,m,r", SHAPES)
def test_uniform_cells_match_the_coordinate_draw(k, m, r, monkeypatch):
    """The leaf phase's uniform batch is [randrange(k ** leaf_m) for _ in range(nq)]:
    its cells are checked in first-draw order, every draw is charged, and the
    session's rng ends where the reference's does."""
    leaf_m, nq = m - r, 37
    leaf_n = k ** leaf_m
    checked = []
    real = protocols.folded_eval
    monkeypatch.setattr(protocols, "folded_eval", lambda *a: checked.append(a[3]) or real(*a))
    for seed in range(5):
        X = InputTensor.random(F17, k, m, random.Random(100 + seed))
        # an unfolded state reads X[cell] at a leaf cell, so the prover's leaf is X's prefix
        st = FoldState((), (), (), (), (), ())
        session, ref = Session(_LeafProver(X.data[:leaf_n]), seed, X.data), random.Random(seed)
        del checked[:]
        verdict = _leaf_phase(session, X, [st], r, Fraction(10, nq), Fraction(1), lambda n: [])
        cells = [ref.randrange(k ** leaf_m) for _ in range(nq)]
        assert verdict.accepted
        assert checked == list(dict.fromkeys(cells))
        assert session.ledger.queries == nq
        assert session.rng.getstate() == ref.getstate()
