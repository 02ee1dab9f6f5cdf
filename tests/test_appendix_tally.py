"""check_appendix_claims draws every folding vector first, tallies the draws, and
decides each distinct (support, z) once.  Its report must equal that of the
per-trial loop it replaced, copied here as the reference, and the folded-instance
oracle must run once per distinct draw."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from dfipp import protocols
from dfipp.distributions import Pmf, dispersion_rho, marginal_first
from dfipp.field import InputTensor, PrimeField, lde_eval
from dfipp.protocols import (check_appendix_claims, fold_kappa, fold_rows, fold_vector,
                             hybrid_pval_distance, project_points, row_distances,
                             weight_classes)
from dfipp.tensors import DEFAULT_ENUM_BUDGET, INF, PvalInstance

F5 = PrimeField(5)
TRIALS = (1, 2, 25, 96, 224)

# (k, m, t, noise, kappa, budget).  The appendix-a suite's size, with a uniform X.  And
# k = 4 with kappa = 1, where X is a member W with noise on about half its cells: its
# rows are then often about equally far, the witness is found at b >= 1 and the
# folding weight is 2 < k, so the supports vary.  There k^m = 16 cells exceed the
# default budget, and t = 14 distinct claim points leave few PVAL members.
SIZES = {"golden": (2, 2, 2, 1.0, fold_kappa(2, 2), DEFAULT_ENUM_BUDGET),
         "k4-kappa1": (4, 2, 14, 0.5, 1, 5 ** 16)}


def per_trial_appendix_claims(X, D, Y, inst, kappa, trials, seed, budget=DEFAULT_ENUM_BUDGET):
    """check_appendix_claims as a per-trial loop: each trial draws one folding vector
    and runs both events on it, the folded-instance oracle included."""
    field, k, m = inst.field, inst.k, inst.m
    p = field.modulus
    rho = dispersion_rho(D).rho
    mu = hybrid_pval_distance(X, inst, D, budget)
    marg = marginal_first(D)
    j2, _cols = project_points(inst.points)
    eps_i = row_distances(X, marg, Y, j2, tuple(range(k)), budget)
    log2k = math.log2(k)

    report = {"mu": mu, "eps_i": eps_i, "rho": rho}
    if mu == 0 or mu == INF:
        report["sum_eps"] = {"vacuous": True}
        return report

    found = None
    for b in range(int(log2k) + 1):
        threshold = Fraction(k) * mu / (2 ** (b + 1) * rho)
        I = [i for i in range(k) if eps_i[i] >= threshold]
        if len(I) * 4 * log2k >= 2 ** b:
            found = {"b": b, "rows": I}
            break
    report["sum_eps"] = {"vacuous": False, "witness": found, "holds": found is not None}

    classes = weight_classes(k, kappa)
    exponent = 0  # ceil(log2(k / kappa)), or 0 when kappa >= k
    while (kappa << exponent) < k:
        exponent += 1
    b = found["b"] if found else 0
    a_star = min(max(min(exponent, int(log2k) - b), 1), len(classes))
    weight = classes[a_star - 1][1]

    hit_threshold = mu * (2 ** a_star) / (2 * rho)
    far_threshold = mu * (2 ** a_star) / (4 * rho)
    rng = random.Random(seed)
    misses = 0
    not_far = 0
    rows = [X.row(i) for i in range(k)]
    for _ in range(trials):
        support, z = fold_vector(rng, k, weight, p)
        if not any(eps_i[i] >= hit_threshold for i in support):
            misses += 1
        fold_tensor = InputTensor(field, k, m - 1, fold_rows(z, rows, p))
        fold_inst = PvalInstance(field, k, m - 1, tuple(j2), fold_rows(z, Y, p))
        if hybrid_pval_distance(fold_tensor, fold_inst, marg, budget) < far_threshold:
            not_far += 1

    miss_bound = math.exp(-kappa / (4 * log2k))
    far_bound = 1 / (p - 1) + math.exp(-kappa / (4 * log2k))
    report["support_hit"] = {"a_star": a_star, "weight": weight, "trials": trials,
                             "miss_rate": misses / trials, "bound": miss_bound}
    report["folded_far"] = {"fail_rate": not_far / trials, "bound": far_bound}
    return report


def _instance(k, m, t, noise, rng):
    """(X, D, Y, inst): claims read off a random member W at t distinct points, so
    v = P_W(J), Y's row i is W's row i at the tails J_2 and step 1 holds; X is W
    with a uniform value added to each cell with probability noise; D is a random
    law of 64 grains per cell."""
    W = InputTensor.random(F5, k, m, rng)
    X = InputTensor(F5, k, m, [(w + rng.randrange(5)) % 5 if rng.random() < noise else w
                               for w in W.data])
    points = tuple(rng.sample(list(itertools.product(range(5), repeat=m)), t))
    j2, _cols = project_points(points)
    Y = [[lde_eval(InputTensor(F5, k, m - 1, W.row(i)), tail) for tail in j2]
         for i in range(k)]
    inst = PvalInstance(F5, k, m, points, tuple(lde_eval(W, pt) for pt in points))
    return X, Pmf.random_grains(k ** m, 64 * k ** m, rng, shape=(k, m)), Y, inst


@pytest.mark.parametrize("size", SIZES)
def test_tally_equals_the_per_trial_loop(size):
    k, m, t, noise, kappa, budget = SIZES[size]
    rng = random.Random(30)
    weights = Counter()
    for _ in range(50):
        X, D, Y, inst = _instance(k, m, t, noise, rng)
        seed = rng.getrandbits(63)
        for trials in TRIALS:
            report = check_appendix_claims(X, D, Y, inst, kappa, trials, seed, budget)
            assert report == per_trial_appendix_claims(X, D, Y, inst, kappa, trials, seed,
                                                       budget)
        if not report["sum_eps"]["vacuous"]:
            weights[report["support_hit"]["weight"]] += 1
    assert sum(weights.values()) >= 40 and set(weights) == {2, k}


@pytest.mark.parametrize("size", SIZES)
def test_the_folded_oracle_runs_once_per_distinct_draw(size, monkeypatch):
    k, m, t, noise, kappa, budget = SIZES[size]
    rng = random.Random(32)
    X, D, Y, inst = _instance(k, m, t, noise, rng)
    trials, seed = 224, 7
    calls = []

    def counting(*args):
        calls.append(args)
        return hybrid_pval_distance(*args)

    monkeypatch.setattr(protocols, "hybrid_pval_distance", counting)
    report = check_appendix_claims(X, D, Y, inst, kappa, trials, seed, budget)
    assert not report["sum_eps"]["vacuous"]
    draw_rng = random.Random(seed)
    p, weight = F5.modulus, report["support_hit"]["weight"]
    distinct = len({fold_vector(draw_rng, k, weight, p) for _ in range(trials)})
    assert distinct < trials
    # one call for mu, one per row for eps_i, one per distinct folding vector
    assert len(calls) == 1 + k + distinct
