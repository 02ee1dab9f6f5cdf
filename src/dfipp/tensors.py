"""The PVAL language, distance metrics, and brute-force distance oracles.

Distances are exact Fractions, summed in the integer weights of the
distribution over its one denominator; "eps-far" always means distance
strictly greater than eps, and ball membership is strict (<), since the lemma
checks built on these must not be confounded by boundary or float issues.
The enumeration oracles refuse (BudgetExceeded) instead of approximating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ne
from typing import Callable, Iterable, Sequence

from .field import InputTensor, PrimeField, basis_row, lde_eval

INF = math.inf

DEFAULT_ENUM_BUDGET = 10 ** 7


class BudgetExceeded(Exception):
    """Raised when an exhaustive scan would exceed the enumeration budget."""


@dataclass(frozen=True)
class PvalInstance:
    """PVAL(F, k, m, J, v): tensors X with P_X(J) = v.  J is a multiset."""

    field: PrimeField
    k: int
    m: int
    points: tuple[tuple[int, ...], ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("|J| != |v|")
        for j in self.points:
            if len(j) != self.m:
                raise ValueError(f"point {j} is not in F^{self.m}")

    @property
    def t(self) -> int:
        return len(self.points)


def pval_member(X: InputTensor, inst: PvalInstance) -> bool:
    """True iff P_X(j) = v_j for every claimed point (vacuously true for empty J)."""
    if (X.field, X.k, X.m) != (inst.field, inst.k, inst.m):
        raise ValueError("tensor and instance disagree on (field, k, m)")
    return all(lde_eval(X, j) == v for j, v in zip(inst.points, inst.values))


def _diff_weight(x: Sequence[int], y: Sequence[int], D: "Pmf") -> int:
    """The summed integer weight of D on the cells where x and y differ."""
    if len(x) != len(y):
        raise ValueError("shape mismatch")
    if D.n != len(x):
        raise ValueError("distribution support does not match shape")
    return sum(itertools.compress(D.weights, map(ne, x, y)))


def dist(x: Sequence[int], y: Sequence[int], D: "Pmf") -> Fraction:
    """d_D(x, y) = P_{i ~ D}[x_i != y_i], exactly."""
    return Fraction(_diff_weight(x, y, D), D.denom)


def hybrid_dist(x: Sequence[int], y: Sequence[int], D1: "Pmf", D2: "Pmf") -> Fraction:
    """mu_{D1,D2}(x, y) = max(d_D1, d_D2); the max of two metrics is a metric."""
    a, b = _diff_weight(x, y, D1), _diff_weight(x, y, D2)
    return Fraction(a, D1.denom) if a * D2.denom >= b * D1.denom else Fraction(b, D2.denom)


def ball_membership(x: Sequence[int], y: Sequence[int], D: "Pmf", eps: Fraction) -> bool:
    """y in B_{D,eps}(x), i.e. d_D(x,y) < eps (strict)."""
    return dist(x, y, D) < eps


def metric_fn(metric) -> Callable[[Sequence[int], Sequence[int]], Fraction]:
    """Normalize a metric selector: a Pmf, or a ("hybrid", D1, D2) tuple."""
    if isinstance(metric, tuple) and metric and metric[0] == "hybrid":
        _, d1, d2 = metric
        return lambda x, y: hybrid_dist(x, y, d1, d2)
    return lambda x, y: dist(x, y, metric)


def _check_budget(field: PrimeField, k: int, m: int, budget: int) -> None:
    n = k ** m
    if n * math.log(field.modulus) > math.log(budget) + 1e-9:
        raise BudgetExceeded(
            f"|F|^(k^m) = {field.modulus}^{n} exceeds enumeration budget {budget}"
        )


def enumerate_pval(inst: PvalInstance,
                   budget: int = DEFAULT_ENUM_BUDGET) -> Iterable[tuple[int, ...]]:
    """Yield every member of PVAL(J, v) by scanning all of F^(k^m).

    The membership test per candidate is a dot product against precomputed
    basis rows, the same rows lde_eval uses; the independent check of both
    is the Vandermonde oracle in tests/_oracles.py.
    """
    _check_budget(inst.field, inst.k, inst.m, budget)
    p = inst.field.modulus
    n = inst.k ** inst.m
    rows = [basis_row(inst.field, inst.k, inst.m, j) for j in inst.points]
    for cand in itertools.product(range(p), repeat=n):
        ok = True
        for row, v in zip(rows, inst.values):
            if sum(r * c for r, c in zip(row, cand)) % p != v:
                ok = False
                break
        if ok:
            yield cand


def dist_to_pval_bruteforce(X: InputTensor, inst: PvalInstance, metric,
                            budget: int = DEFAULT_ENUM_BUDGET):
    """min over W in PVAL(J, v) of the metric distance; inf if PVAL is empty."""
    d = metric_fn(metric)
    best = INF
    for w in enumerate_pval(inst, budget=budget):
        best = min(best, d(X.data, w))
        if best == 0:
            break
    return best


def pval_min_distance(inst: PvalInstance, budget: int = DEFAULT_ENUM_BUDGET):
    """Relative minimum Hamming distance between distinct members; inf if <= 1 member."""
    members = list(enumerate_pval(inst, budget=budget))
    if len(members) <= 1:
        return INF
    n = inst.k ** inst.m
    best = INF
    for a, b in itertools.combinations(members, 2):
        diff = sum(1 for x, y in zip(a, b) if x != y)
        best = min(best, Fraction(diff, n))
        if best == Fraction(1, n):
            break
    return best
