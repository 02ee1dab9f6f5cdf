"""PVAL test instances shared by the protocol and acceptance tests.

Each helper draws from rng in a fixed order, so a test's seed pins its
instance.
"""

from fractions import Fraction

from dfipp.distributions import Pmf
from dfipp.field import InputTensor, lde_eval
from dfipp.tensors import INF, PvalInstance, dist_to_pval_bruteforce, enumerate_pval, \
    hybrid_dist


def member_instance(field, k, m, rng, t=2):
    """(X, inst): a random X and t random points with X's own LDE values."""
    X = InputTensor.random(field, k, m, rng)
    points = tuple(field.rand_point(m, rng) for _ in range(t))
    return X, PvalInstance(field, k, m, points, tuple(lde_eval(X, pt) for pt in points))


def certified_far_instance(field, k, m, rng, D, min_mu=Fraction(2, 5), attempts=200):
    """(X, inst, mu) with mu_{D,U}(X, PVAL) >= min_mu certified by brute force."""
    U = Pmf.uniform(k ** m, shape=(k, m))
    for _ in range(attempts):
        X = InputTensor.random(field, k, m, rng)
        points = tuple(field.rand_point(m, rng) for _ in range(2))
        values = tuple(rng.randrange(field.modulus) for _ in range(2))
        inst = PvalInstance(field, k, m, points, values)
        mu = dist_to_pval_bruteforce(X, inst, ("hybrid", D, U))
        if mu != INF and mu >= min_mu:
            return X, inst, mu
    raise AssertionError("no far instance found")


def closest_member(X, inst, D):
    """The member of PVAL(inst) nearest X in the (D, U) hybrid distance, first on ties."""
    U = Pmf.uniform(X.n, shape=(X.k, X.m))
    best, best_d = None, None
    for w in enumerate_pval(inst):
        d = hybrid_dist(X.data, w, D, U)
        if best_d is None or d < best_d:
            best, best_d = w, d
    return InputTensor(X.field, X.k, X.m, best)
