"""uniform_draws is the randrange comprehension: the same values, then the same state;
rand_points is the rand_point loop in one such draw."""

import random

import pytest

from dfipp.field import PrimeField, uniform_draws

RANGES = [1, 2, 3, 5, 16, 17, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 61 - 1,
          2 ** 100 + 7]


@pytest.mark.parametrize("n", RANGES)
@pytest.mark.parametrize("count", [0, 1, 64])
def test_same_values_and_state_as_randrange(n, count):
    for seed in (0, 1, 20230817, 2 ** 64 + 3):
        rng, ref = random.Random(seed), random.Random(seed)
        assert uniform_draws(rng, n, count) == [ref.randrange(n) for _ in range(count)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, -1, -17])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_empty_range_raises(n, count):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        uniform_draws(rng, n, count)
    assert rng.getstate() == state


@pytest.mark.parametrize("p", [2, 5, 17, 97, 2 ** 61 - 1])
@pytest.mark.parametrize("t,m", [(0, 3), (1, 1), (1, 4), (7, 2), (320, 5)])
def test_rand_points_is_the_per_point_loop(p, t, m):
    field = PrimeField(p)
    for seed in (0, 3, 20230817):
        rng, ref = random.Random(seed), random.Random(seed)
        assert field.rand_points(t, m, rng) == tuple(field.rand_point(m, ref) for _ in range(t))
        assert rng.getstate() == ref.getstate()
