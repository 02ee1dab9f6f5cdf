"""The PVAL language, distance metrics, and brute-force distance oracles.

Distances are exact Fractions, summed in the integer weights of the
distribution over its one denominator; "eps-far" always means distance
strictly greater than eps, since the lemma checks built on these must not be
confounded by boundary or float issues.

PVAL(J, v) is the affine coset {X : B X = v} of a linear code, row j of B
being basis_row(J_j).  One solver (solve_affine) eliminates B over F_p once,
and one enumerator (coset) lists a coset or a span in lexicographic order;
every PVAL, span and constraint-solution enumeration goes through the pair.
The enumeration oracles refuse (BudgetExceeded) instead of approximating:
the budget bounds the |F|^(k^m) candidate space, whatever the coset's size.
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
    key, denom = metric_key(("hybrid", D1, D2))
    return Fraction(key(x, y), denom)


def metric_key(metric) -> tuple[Callable[[Sequence[int], Sequence[int]], int], int]:
    """(key, denom) of a metric selector, a Pmf or a ("hybrid", D1, D2) tuple: the
    distance of x and y is key(x, y) / denom, so integer keys order distances."""
    if isinstance(metric, tuple) and metric and metric[0] == "hybrid":
        _, d1, d2 = metric
        den1, den2 = d1.denom, d2.denom
        return (lambda x, y: max(_diff_weight(x, y, d1) * den2,
                                 _diff_weight(x, y, d2) * den1)), den1 * den2
    return (lambda x, y: _diff_weight(x, y, metric)), metric.denom


def _check_budget(field: PrimeField, k: int, m: int, budget: int) -> None:
    """Refuse when |F|^(k^m) > budget, compared exactly in integers.

    The bit-length test refuses a power that is certainly too large before
    it is built, so a huge field or tensor costs nothing to refuse.
    """
    p, n = field.modulus, k ** m
    if (p.bit_length() - 1) * n >= budget.bit_length() or p ** n > budget:
        raise BudgetExceeded(f"|F|^(k^m) = {p}^{n} exceeds enumeration budget {budget}")


def solve_affine(p: int, n: int, rows: Sequence[Sequence[int]], rhs: Sequence[int]):
    """Solve rows . x = rhs over F_p^n: None, or (particular solution, kernel basis).

    Gauss-Jordan elimination takes pivots from column n-1 backwards, so each
    pivot variable depends only on free variables of lower index.  The
    particular solution has every free variable 0, the kernel one vector per
    free variable in increasing index, and coset(p, *solution) then lists the
    solutions in lexicographic order.  A right-hand side outside 0..p-1 is
    no element of F_p, so it has no solution.
    """
    if any(not 0 <= v < p for v in rhs):
        return None
    aug = [[c % p for c in row] + [v] for row, v in zip(rows, rhs)]
    pivots: list[int] = []  # the pivot of row i is pivots[i]
    for col in range(n - 1, -1, -1):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        inv = pow(aug[sel][col], -1, p)
        prow = [v * inv % p for v in aug[sel]]
        aug[sel], aug[r] = aug[r], prow
        for i, row in enumerate(aug):
            f = row[col]
            if f and i != r:
                aug[i] = [(a - f * b) % p for a, b in zip(row, prow)]
        pivots.append(col)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    free = [f for f in range(n) if f not in pivots]
    offset = [0] * n
    kernel = [[int(j == f) for j in range(n)] for f in free]
    for col, row in zip(pivots, aug):
        offset[col] = row[n]
        for f, vec in zip(free, kernel):
            vec[col] = -row[f] % p
    return tuple(offset), [tuple(vec) for vec in kernel]


def coset(p: int, offset: Sequence[int], basis: Sequence[Sequence[int]]
          ) -> Iterable[tuple[int, ...]]:
    """Yield offset + sum_i a_i basis_i mod p for every a in F_p^|basis|, lazily,
    the coefficient tuples a in lexicographic order."""
    if not basis:
        yield tuple(offset)
        return
    last = basis[-1]
    for vec in coset(p, offset, basis[:-1]):
        for _ in range(p - 1):
            yield vec
            vec = tuple([(x + y) % p for x, y in zip(vec, last)])
        yield vec


def span(field: PrimeField, basis: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The F_p-span of a nonempty basis, in lexicographic order.

    A span is the dual of its dual: the solutions of K x = 0, where the rows
    of K are a kernel basis of the basis vectors taken as rows.
    """
    p, n = field.modulus, len(basis[0])
    _, dual = solve_affine(p, n, basis, [0] * len(basis))
    return list(coset(p, *solve_affine(p, n, dual, [0] * len(dual))))


def _pval_coset(inst: PvalInstance):
    """solve_affine for P_X(J) = v: None if PVAL is empty, else (member, kernel)."""
    rows = [basis_row(inst.field, inst.k, inst.m, j) for j in inst.points]
    return solve_affine(inst.field.modulus, inst.k ** inst.m, rows, inst.values)


def enumerate_pval(inst: PvalInstance,
                   budget: int = DEFAULT_ENUM_BUDGET) -> Iterable[tuple[int, ...]]:
    """Yield every member of PVAL(J, v), in lexicographic order over F^(k^m).

    The claims are solved once as an affine system, and the members are its
    particular solution plus every kernel combination, so an empty PVAL
    yields nothing without any scan.  The budget still bounds |F|^(k^m), the
    space of candidates, and it is checked before the first member; the
    independent check is the Vandermonde candidate scan in tests/_oracles.py.
    """
    _check_budget(inst.field, inst.k, inst.m, budget)
    solved = _pval_coset(inst)
    if solved is not None:
        yield from coset(inst.field.modulus, *solved)


def dist_to_pval_bruteforce(X: InputTensor, inst: PvalInstance, metric,
                            budget: int = DEFAULT_ENUM_BUDGET):
    """min over W in PVAL(J, v) of the metric distance; inf if PVAL is empty.

    The scan compares integer keys (metric_key) and builds one Fraction at the end.
    """
    key, denom = metric_key(metric)
    best = None
    for w in enumerate_pval(inst, budget=budget):
        k = key(X.data, w)
        if best is None or k < best:
            best = k
            if best == 0:
                break
    return INF if best is None else Fraction(best, denom)


def pval_min_distance(inst: PvalInstance, budget: int = DEFAULT_ENUM_BUDGET):
    """Relative minimum Hamming distance between distinct members; inf if <= 1 member.

    Differences of distinct members are exactly the nonzero kernel vectors.
    """
    _check_budget(inst.field, inst.k, inst.m, budget)
    solved = _pval_coset(inst)
    if solved is None or not solved[1]:
        return INF
    n = inst.k ** inst.m
    vectors = coset(inst.field.modulus, (0,) * n, solved[1])
    next(vectors)  # the zero vector comes first
    best = n
    for vec in vectors:
        best = min(best, n - vec.count(0))
        if best == 1:
            break
    return Fraction(best, n)
