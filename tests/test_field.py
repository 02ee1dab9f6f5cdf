import random
from itertools import product

import pytest

from dfipp import field as field_module
from dfipp.field import (InputTensor, PrimeField, basis_row, cell_coord, cell_coords,
                         lagrange_basis, lagrange_eval_univariate, lde_eval, lde_eval_batch)

from _oracles import poly_eval, vandermonde_coeffs, vandermonde_lde_eval, vandermonde_lde_evals

F7 = PrimeField(7)


def test_prime_check():
    with pytest.raises(ValueError):
        PrimeField(15)
    PrimeField(2)
    PrimeField((1 << 61) - 1)  # Mersenne prime, 61 bits


def test_k_exceeding_the_field_size_is_refused():
    # the LDE needs k distinct nodes in F_p
    with pytest.raises(ValueError, match="exceeds field size"):
        InputTensor(F7, 8, 1, (0,) * 8)
    with pytest.raises(ValueError, match="exceeds field size"):
        lagrange_basis(7, 8, 3)


def test_lagrange_constant():
    for t in range(7):
        assert lagrange_eval_univariate(F7, [3, 3, 3], t) == 3


def test_lagrange_line_through_two_points():
    # values (1, 4) over F_7 lie on 1 + 3t
    assert lagrange_eval_univariate(F7, [1, 4], 1) == 4
    assert lagrange_eval_univariate(F7, [1, 4], 2) == 0  # 1 + 6 = 7 = 0 mod 7


def _oracle_basis(p, k):
    """L_0..L_{k-1} in coefficient form: the polynomials through the unit vectors."""
    return [vandermonde_coeffs([int(i == j) for j in range(k)], p) for i in range(k)]


@pytest.mark.parametrize("p", [5, 7, 17])
def test_lagrange_basis_matches_vandermonde_at_every_point(p):
    for k in range(1, p + 1):
        polys = _oracle_basis(p, k)
        for t in range(p):
            assert lagrange_basis(p, k, t) == tuple(poly_eval(c, t, p) for c in polys)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lagrange_basis_matches_vandermonde_at_m61(k):
    p = (1 << 61) - 1
    polys = _oracle_basis(p, k)
    rng = random.Random(k)
    for t in [rng.randrange(p) for _ in range(200)] + [t + p for t in range(k)]:
        assert lagrange_basis(p, k, t) == tuple(poly_eval(c, t % p, p) for c in polys)
    for t in range(k):  # a node is a unit vector, however it is written mod p
        unit = tuple(int(i == t) for i in range(k))
        assert lagrange_basis(p, k, t) == lagrange_basis(p, k, t + p) == unit


def test_lde_constant_tensor():
    X = InputTensor(F7, 2, 2, (5, 5, 5, 5))
    for pt in product(range(7), repeat=2):
        assert lde_eval(X, pt) == 5


def test_lde_grid_agreement():
    rng = random.Random(7)
    X = InputTensor.random(F7, 3, 2, rng)
    for cell in product(range(3), repeat=2):
        assert lde_eval(X, cell) == X.cell(cell)


def test_lde_univariate_example():
    X = InputTensor(F7, 2, 1, (1, 4))
    assert lde_eval(X, (2,)) == 0


def test_lde_batch():
    X = (1, 4)
    assert lde_eval_batch(F7, 2, 1, [X], []) == [[]]
    grid = [(0,), (1,)]
    assert lde_eval_batch(F7, 2, 1, [X], grid) == [[1, 4]]
    assert lde_eval_batch(F7, 2, 1, [X], [(2,)]) == [[0]]


@pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_lde_matches_vandermonde_everywhere(k, m):
    # uniqueness oracle: coefficient-form interpolation via Gaussian elimination
    rng = random.Random(100 * k + m)
    for _ in range(3):
        X = InputTensor.random(F7, k, m, rng)
        for pt in product(range(7), repeat=m):
            assert lde_eval(X, pt) == vandermonde_lde_eval(X.data, k, m, pt, 7)


@pytest.mark.parametrize("modulus,k,m", [(97, 3, 2), ((1 << 61) - 1, 2, 3)])
def test_lde_matches_vandermonde_off_grid(modulus, k, m):
    field = PrimeField(modulus)
    rng = random.Random(modulus + 10 * k + m)
    for _ in range(3):
        X = InputTensor.random(field, k, m, rng)
        for _ in range(4):
            pt = tuple(rng.randrange(k, modulus) for _ in range(m))
            assert lde_eval(X, pt) == vandermonde_lde_eval(X.data, k, m, pt, modulus)


def test_lde_batch_matches_lde_eval_per_tensor():
    field = PrimeField(97)
    rng = random.Random(5)
    tensors = [InputTensor.random(field, 3, 2, rng) for _ in range(4)]
    datas = [X.data for X in tensors]
    points = [field.rand_point(2, rng) for _ in range(6)] + [(0, 2)]
    expected = [[lde_eval(X, pt) for pt in points] for X in tensors]
    assert lde_eval_batch(field, 3, 2, datas, points) == expected
    assert lde_eval_batch(field, 3, 2, datas[1:2], points) == expected[1:2]
    assert lde_eval_batch(field, 3, 2, datas, []) == [[], [], [], []]
    assert lde_eval_batch(field, 3, 2, [], points) == []
    with pytest.raises(ValueError):
        lde_eval_batch(field, 3, 2, [datas[0][:-1]], points)
    with pytest.raises(ValueError):
        lde_eval_batch(field, 3, 2, datas, [(1, 2, 3)])


@pytest.mark.parametrize("p,k,m", [(p, k, m) for p in (2, 5, 17, 97, (1 << 61) - 1,
                                                        (1 << 64) - 59)
                                    for k in (1, 2, 3, 4) if k <= p for m in range(6)])
def test_lde_batch_matches_the_vandermonde_oracle(p, k, m):
    # all-(p-1) tensors at all-(p-1) and all-2 points fill the packed slots nearest
    # their bound, so a slot too narrow carries into its neighbour
    field, rng = PrimeField(p), random.Random(p * 100 + k * 10 + m)
    full = (p - 1,) * k ** m
    datas = [full, full] + [InputTensor.random(field, k, m, rng).data for _ in range(3)]
    points = [(p - 1,) * m, (2,) * m, tuple(rng.randrange(p, 3 * p) for _ in range(m)),
              field.rand_point(m, rng), cell_coords(rng.randrange(k ** m), k, m)]
    want = {data: vandermonde_lde_evals(data, k, m, points, p) for data in datas}
    if k ** m <= 27:
        assert want[datas[-1]] == [vandermonde_lde_eval(datas[-1], k, m, pt, p) for pt in points]
    for D in (0, 1, 2, 5):
        assert lde_eval_batch(field, k, m, datas[:D], points) == [want[d] for d in datas[:D]]
        with pytest.raises(ValueError, match="coordinates"):
            lde_eval_batch(field, k, m, datas[:D], points + [(0,) * (m + 1)])
        if D:
            with pytest.raises(ValueError, match="cells"):
                lde_eval_batch(field, k, m, datas[:D - 1] + [full + (0,)], points)


def _kronecker_reference(p, k, point):
    """The basis row left to right: row <- row (x) L(t) per coordinate t, each
    L_i(t) = prod_{j != i} (t - j) / (i - j) with a Fermat inverse."""
    row = [1]
    for t in point:
        basis = []
        for i in range(k):
            num = den = 1
            for j in range(k):
                if j != i:
                    num, den = num * (t - j) % p, den * (i - j) % p
            basis.append(num * pow(den, p - 2, p) % p)
        row = [r * b % p for r in row for b in basis]
    return tuple(row)


@pytest.mark.parametrize("modulus", [17, 97, (1 << 61) - 1])
@pytest.mark.parametrize("k", [2, 3])
def test_basis_row_matches_a_left_to_right_kronecker_reference(modulus, k):
    # each point also under a second (p, k), whose memoised rows must not be mixed up
    # with the first's; coordinates run past p; a cold pass, then a warm one
    second = (17 if modulus != 17 else 97, 5 - k)
    rng = random.Random(modulus + k)
    points = [tuple(rng.randrange(3 * modulus) for _ in range(m))
              for m in range(6) for _ in range(4)]
    field_module._kron_row.cache_clear()
    for warm in (False, True):
        misses = field_module._kron_row.cache_info().misses
        for pt in points:
            for p, k_ in ((modulus, k), second):
                want = _kronecker_reference(p, k_, pt)
                assert basis_row(PrimeField(p), k_, len(pt), pt) == want
                assert basis_row(PrimeField(p), k_, len(pt), list(pt)) == want
        assert (field_module._kron_row.cache_info().misses == misses) == warm
    with pytest.raises(ValueError, match="coordinates"):
        basis_row(PrimeField(modulus), k, 3, (1, 2))


def test_basis_row_cache_is_bounded():
    assert field_module._kron_row.cache_info().maxsize is not None


def test_lde_linearity():
    rng = random.Random(11)
    for _ in range(50):
        X = InputTensor.random(F7, 2, 2, rng)
        Y = InputTensor.random(F7, 2, 2, rng)
        a, b = rng.randrange(7), rng.randrange(7)
        Z = InputTensor(F7, 2, 2, tuple((a * x + b * y) % 7 for x, y in zip(X.data, Y.data)))
        pt = F7.rand_point(2, rng)
        assert lde_eval(Z, pt) == (a * lde_eval(X, pt) + b * lde_eval(Y, pt)) % 7


def test_tensor_row_view_fixes_first_coordinate():
    X = InputTensor(F7, 2, 2, (1, 2, 3, 4))
    assert X.row(0) == (1, 2)
    assert X.row(1) == (3, 4)
    assert X.cell((1, 0)) == 3


def test_tensor_requires_k_at_most_modulus():
    with pytest.raises(ValueError):
        InputTensor(PrimeField(3), 4, 1, (0, 1, 2, 0))


@pytest.mark.parametrize("cell", [7, -1, 8, -7])
def test_tensor_cells_outside_the_field_are_refused(cell):
    # an alias of a field element is refused, not reduced mod p
    with pytest.raises(ValueError, match=r"^cells must be field elements in \[0, 7\)$"):
        InputTensor(F7, 2, 2, (1, cell, 3, 4))


@pytest.mark.parametrize("k,m", [(2, 1), (2, 5), (3, 3), (4, 2), (5, 4)])
def test_cell_coord_reads_one_coordinate(k, m):
    for d in range(m):
        assert [cell_coord(y, k, m, d) for y in range(k ** m)] == \
            [cell_coords(y, k, m)[d] for y in range(k ** m)]
