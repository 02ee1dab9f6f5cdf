"""Spot-check cells as flat leaf indices: the same cells the coordinate form gave."""

import random

import pytest

from dfipp.field import cell_coords, cell_index
from dfipp.protocols import _uniform_cells

SHAPES = [(2, 1, 0), (2, 4, 1), (2, 4, 3), (3, 3, 1), (3, 3, 2), (4, 3, 2), (5, 2, 1)]


@pytest.mark.parametrize("k,m,r", SHAPES)
def test_leaf_index_drops_the_first_r_coordinates(k, m, r):
    leaf_n = k ** (m - r)
    for i in range(k ** m):
        assert i % leaf_n == cell_index(cell_coords(i, k, m)[r:], k)


@pytest.mark.parametrize("k,m,r", SHAPES)
def test_uniform_cells_match_the_coordinate_draw(k, m, r):
    leaf_m, nq = m - r, 37
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        got = _uniform_cells(rng, k, leaf_m, nq)
        cells = [tuple(ref.randrange(k) for _ in range(leaf_m)) for _ in range(nq)]
        assert got == [cell_index(c, k) for c in cells]
        assert rng.getstate() == ref.getstate()
