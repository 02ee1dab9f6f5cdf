import random
from fractions import Fraction

import pytest

from dfipp.field import InputTensor, PrimeField
from dfipp.tensors import (BudgetExceeded, INF, PvalInstance, dist, dist_to_pval_bruteforce,
                           enumerate_pval, hybrid_dist, pval_member, pval_min_distance)
from dfipp.distributions import Pmf

from _oracles import exhaustive_hybrid_distance, fraction_dist, scan_pval

F5 = PrimeField(5)
F7 = PrimeField(7)


def test_pval_member_empty_J_vacuous():
    X = InputTensor(F7, 2, 1, (3, 6))
    inst = PvalInstance(F7, 2, 1, (), ())
    assert pval_member(X, inst)


def test_pval_member_lagrange_example():
    X = InputTensor(F7, 2, 1, (1, 4))
    assert pval_member(X, PvalInstance(F7, 2, 1, ((2,),), (0,)))
    assert not pval_member(X, PvalInstance(F7, 2, 1, ((2,),), (1,)))


def test_dist_identity_and_hamming():
    U4 = Pmf.uniform(4)
    x = (1, 2, 3, 4)
    assert dist(x, x, U4) == 0
    assert dist(x, (1, 2, 3, 0), U4) == Fraction(1, 4)


def test_dist_zero_mass_cells():
    D = Pmf([Fraction(1, 2), Fraction(1, 2), 0, 0])
    assert dist((1, 1, 1, 1), (1, 1, 0, 1), D) == 0


def test_hybrid_dist():
    U4 = Pmf.uniform(4)
    point = Pmf.point_mass(0, 4)
    x, y = (1, 0, 0, 0), (0, 0, 0, 0)
    assert hybrid_dist(x, y, point, U4) == 1  # max(1, 1/4)
    assert hybrid_dist(x, x, point, U4) == 0
    # D1 = D2 = U reduces to the one-distribution distance
    z = (1, 1, 0, 0)
    assert hybrid_dist(x, z, U4, U4) == dist(x, z, U4)


def test_hybrid_triangle_inequality_random():
    rng = random.Random(5)
    for _ in range(200):
        n = 4
        masses = [rng.randrange(8) for _ in range(n)]
        total = sum(masses) or 1
        if sum(masses) == 0:
            masses[0] = 1
        D1 = Pmf([Fraction(v, total) for v in masses])
        U = Pmf.uniform(n)
        x, y, z = (tuple(rng.randrange(3) for _ in range(n)) for _ in range(3))
        assert hybrid_dist(x, y, D1, U) <= hybrid_dist(x, z, D1, U) + hybrid_dist(z, y, D1, U)


def test_ball_membership_strict():
    U4 = Pmf.uniform(4)
    x = (0, 0, 0, 0)
    assert dist(x, x, U4) < Fraction(1, 100)
    # one disagreement at eps = 1/4 sits on the boundary: excluded
    assert not dist(x, (1, 0, 0, 0), U4) < Fraction(1, 4)
    assert dist(x, (1, 0, 0, 0), U4) < Fraction(1, 3)


def test_bruteforce_distance_member_is_zero():
    X = InputTensor(F5, 2, 2, (1, 2, 3, 4))
    points = ((2, 3), (4, 1))
    from dfipp.field import lde_eval
    values = tuple(lde_eval(X, p) for p in points)
    inst = PvalInstance(F5, 2, 2, points, values)
    D = Pmf.uniform(4, shape=(2, 2))
    assert dist_to_pval_bruteforce(X, inst, D) == 0


def test_bruteforce_distance_empty_J():
    X = InputTensor(F5, 2, 2, (1, 2, 3, 4))
    inst = PvalInstance(F5, 2, 2, (), ())
    assert dist_to_pval_bruteforce(X, inst, Pmf.uniform(4)) == 0


def test_bruteforce_matches_independent_enumeration():
    rng = random.Random(17)
    U = Pmf.uniform(4, shape=(2, 2))
    for _ in range(5):
        X = InputTensor.random(F5, 2, 2, rng)
        points = tuple(F5.rand_point(2, rng) for _ in range(2))
        values = tuple(rng.randrange(5) for _ in range(2))
        inst = PvalInstance(F5, 2, 2, points, values)
        masses = [rng.randrange(1, 5) for _ in range(4)]
        D = Pmf([Fraction(v, sum(masses)) for v in masses], shape=(2, 2))
        got = dist_to_pval_bruteforce(X, inst, ("hybrid", D, U))
        # second path: explicit member list + exhaustive metric scan
        members = list(enumerate_pval(inst))
        if members:
            want = exhaustive_hybrid_distance(X.data, members, D.masses, U.masses)
            assert got == want
        else:
            assert got == INF


@pytest.mark.parametrize("hybrid", [False, True], ids=["pmf", "hybrid"])
def test_bruteforce_integer_scan_matches_a_fraction_scan(hybrid):
    # members from the independent candidate scan, distances summed as Fractions
    rng = random.Random(2401 + hybrid)
    empty = zero = 0
    for _ in range(30):
        X = InputTensor.random(F5, 2, 2, rng)
        points = tuple(F5.rand_point(2, rng) for _ in range(rng.randrange(3)))
        values = tuple(rng.randrange(5) for _ in points)
        inst = PvalInstance(F5, 2, 2, points, values)
        laws = [Pmf.from_weights(w, sum(w)) for w in
                ([rng.randrange(4) for _ in range(3)] + [1 + rng.randrange(9)] for _ in "12")]
        metric = ("hybrid", *laws) if hybrid else laws[0]
        members = scan_pval(2, 2, points, values, 5)
        if hybrid:
            want = exhaustive_hybrid_distance(X.data, members, laws[0].masses, laws[1].masses)
        else:
            want = min((fraction_dist(X.data, w, laws[0].masses) for w in members), default=None)
        got = dist_to_pval_bruteforce(X, inst, metric)
        assert got == (INF if want is None else want), (X, inst, metric)
        assert got is INF or type(got) is Fraction
        empty, zero = empty + (want is None), zero + (want == 0)
    assert empty and zero  # both the INF return and the stop at 0 are exercised


def test_budget_refusal():
    big = PrimeField(101)
    X = InputTensor(big, 3, 2, tuple(range(9)))
    inst = PvalInstance(big, 3, 2, (), ())
    with pytest.raises(BudgetExceeded):
        dist_to_pval_bruteforce(X, inst, Pmf.uniform(9), budget=10 ** 4)


def test_min_distance_fully_constrained_singleton():
    X = InputTensor(F5, 2, 1, (2, 3))
    points = ((0,), (1,))
    inst = PvalInstance(F5, 2, 1, points, (2, 3))
    assert pval_min_distance(inst) == INF


def test_min_distance_unconstrained():
    inst = PvalInstance(F5, 2, 1, (), ())
    # all of F^2: two distinct vectors differ in at least one of two cells
    assert pval_min_distance(inst) == Fraction(1, 2)


def test_min_distance_matches_pairwise_scan():
    rng = random.Random(23)
    for _ in range(3):
        X = InputTensor.random(F5, 2, 2, rng)
        points = (F5.rand_point(2, rng),)
        from dfipp.field import lde_eval
        inst = PvalInstance(F5, 2, 2, points, (lde_eval(X, points[0]),))
        members = list(enumerate_pval(inst))
        best = INF
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                diff = sum(1 for a, b in zip(members[i], members[j]) if a != b)
                best = min(best, Fraction(diff, 4))
        assert pval_min_distance(inst) == best


def test_distance_zero_iff_member_up_to_null_mass():
    # zero-mass cell lets a non-member sit at distance 0
    D = Pmf([Fraction(1, 2), Fraction(1, 2), 0, 0], shape=(2, 2))
    rng = random.Random(3)
    X = InputTensor.random(F5, 2, 2, rng)
    points = (F5.rand_point(2, rng),)
    from dfipp.field import lde_eval
    inst = PvalInstance(F5, 2, 2, points, ((lde_eval(X, points[0]) + 1) % 5,))
    d = dist_to_pval_bruteforce(X, inst, D)
    if d == 0:
        assert not pval_member(X, inst)
        assert any(
            all(w[i] == X.data[i] for i in range(4) if D.masses[i] > 0)
            for w in enumerate_pval(inst))
