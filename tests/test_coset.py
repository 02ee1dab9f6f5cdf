"""PVAL, span and constraint-solution enumeration against candidate-scan oracles.

The library solves each claim system once and lists its coset; the oracles
in _oracles.py test every candidate with Vandermonde evaluation instead.
Member lists must agree in content and in lexicographic order, since first-tie
picks and seeded draws index into them.
"""

import os
import random
import subprocess
import sys

import pytest

from dfipp.cli import main as cli_main
from dfipp.experiments import _consistent_matrix
from dfipp.field import PrimeField
from dfipp.protocols import project_points
from dfipp.tensors import (INF, BudgetExceeded, PvalInstance, enumerate_pval,
                           pval_min_distance, span)

from _oracles import (pairwise_min_distance, scan_pval, span_set, univariate_solutions,
                      vandermonde_lde_eval)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (p, k, m): every k <= p from {2, 3} with m in {1, 2}, up to 3^9 candidates
SHAPES = [(p, k, m) for p in (2, 3, 5, 7) for k in (2, 3) for m in (1, 2)
          if k <= p and p ** (k ** m) <= 3 ** 9]


def _instance(p, k, m, points, values):
    return PvalInstance(PrimeField(p), k, m, tuple(points), tuple(values))


def _random_instances(p, k, m, rng, count):
    """Random (points, values): t = 0 .. n + 2, repeated points one time in three,
    values from a random tensor one time in two and uniform otherwise."""
    n = k ** m
    for _ in range(count):
        t = rng.randrange(n + 3)
        points = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(t)]
        if t >= 2 and rng.randrange(3) == 0:
            points[-1] = points[0]
        if rng.randrange(2):
            data = [rng.randrange(p) for _ in range(n)]
            values = [vandermonde_lde_eval(data, k, m, pt, p) for pt in points]
        else:
            values = [rng.randrange(p) for _ in points]
        yield points, values


@pytest.mark.parametrize("p,k,m", SHAPES)
def test_enumerate_pval_matches_candidate_scan_in_order(p, k, m):
    rng = random.Random(p * 100 + k * 10 + m)
    count = 4 if p ** (k ** m) > 5000 else 25
    for points, values in _random_instances(p, k, m, rng, count):
        got = list(enumerate_pval(_instance(p, k, m, points, values)))
        assert got == scan_pval(k, m, points, values, p)


@pytest.mark.parametrize("p,k,m", SHAPES)
def test_min_distance_matches_pairwise_oracle(p, k, m):
    rng = random.Random(p * 100 + k * 10 + m + 1)
    count = 3 if p ** (k ** m) > 5000 else 15
    for points, values in _random_instances(p, k, m, rng, count):
        members = scan_pval(k, m, points, values, p)
        if len(members) > 400:   # keep the pairwise oracle's O(|C|^2) small
            continue
        got = pval_min_distance(_instance(p, k, m, points, values))
        assert got == pairwise_min_distance(members, k ** m)


def test_edge_systems():
    p, k, m = 5, 2, 2
    # t = 0: all of F^4
    assert list(enumerate_pval(_instance(p, k, m, [], []))) == scan_pval(k, m, [], [], p)
    # a repeated point with one value adds nothing; with two values PVAL is empty
    once = list(enumerate_pval(_instance(p, k, m, [(3, 4)], [2])))
    assert list(enumerate_pval(_instance(p, k, m, [(3, 4), (3, 4)], [2, 2]))) == once
    assert len(once) == p ** 3
    clash = _instance(p, k, m, [(3, 4), (3, 4)], [2, 1])
    assert list(enumerate_pval(clash)) == [] == scan_pval(k, m, clash.points, clash.values, p)
    assert pval_min_distance(clash) == INF
    # full rank: the grid points pin every cell, so the one member is the data
    grid = [(0, 0), (0, 1), (1, 0), (1, 1)]
    data = (4, 0, 2, 3)
    full = _instance(p, k, m, grid, data)
    assert list(enumerate_pval(full)) == [data] == scan_pval(k, m, grid, data, p)
    assert pval_min_distance(full) == INF
    # a value outside F_p is no element of it: no member, as in the scan
    assert list(enumerate_pval(_instance(p, k, m, [(3, 4)], [p]))) == []


def test_span_matches_combination_set():
    rng = random.Random(5)
    for p, n in ((2, 4), (3, 3), (5, 4), (7, 2)):
        for _ in range(10):
            basis = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
            basis.append([0] * n)                                        # a zero vector
            basis.append([(2 * a + b) % p for a, b in zip(basis[0], basis[-2])])  # dependent
            rng.shuffle(basis)
            got = span(PrimeField(p), basis)
            assert len(got) == len(set(got))
            assert set(got) == span_set(basis, p)


def _consistent_matrix_scan(field, k, inst, rng):
    """_consistent_matrix with each constrained column's options from a scan of F^k."""
    j2, cols = project_points(inst.points)
    p = field.modulus
    constraints = {}
    for (pt, v), c in zip(zip(inst.points, inst.values), cols):
        constraints.setdefault(c, []).append((pt[0], v))
    matrix_cols = []
    for c in range(len(j2)):
        if c not in constraints:
            matrix_cols.append(tuple(rng.randrange(p) for _ in range(k)))
            continue
        options = univariate_solutions(k, constraints[c], p)
        if not options:
            return None
        matrix_cols.append(options[rng.randrange(len(options))])
    return [[matrix_cols[c][i] for c in range(len(j2))] for i in range(k)], j2


@pytest.mark.parametrize("p,k", [(2, 2), (3, 3), (5, 2), (5, 3), (7, 3)])
def test_consistent_matrix_matches_option_scan(p, k):
    field = PrimeField(p)
    rng = random.Random(p * 10 + k)
    for _ in range(40):
        t = rng.randrange(1, 2 * k + 2)
        points = [(rng.randrange(p), rng.randrange(p)) for _ in range(t)]
        points.append((points[0][0], points[-1][1]))   # share a column tail
        values = [rng.randrange(p) for _ in points]
        inst = PvalInstance(field, k, 2, tuple(points), tuple(values))
        seed = rng.getrandbits(32)
        a, b = random.Random(seed), random.Random(seed)
        assert _consistent_matrix(field, k, inst, a) == _consistent_matrix_scan(field, k, inst, b)
        assert a.getstate() == b.getstate()


# --- the budget -----------------------------------------------------------------------

def test_refusal_comes_before_any_member():
    # the instance of test_tensors.py::test_budget_refusal, called directly
    big = PrimeField(101)
    inst = PvalInstance(big, 3, 2, (), ())
    members = enumerate_pval(inst, budget=10 ** 4)
    with pytest.raises(BudgetExceeded):
        next(members)
    with pytest.raises(BudgetExceeded):
        pval_min_distance(inst, budget=10 ** 4)


@pytest.mark.parametrize("budget,refused", [(624, True), (625, False)])
def test_budget_boundary_at_5_to_the_4(budget, refused):
    inst = PvalInstance(PrimeField(5), 2, 2, (), ())
    if refused:
        with pytest.raises(BudgetExceeded, match=r"5\^4 exceeds enumeration budget 624"):
            next(enumerate_pval(inst, budget=budget))
        with pytest.raises(BudgetExceeded):
            pval_min_distance(inst, budget=budget)
    else:
        assert len(list(enumerate_pval(inst, budget=budget))) == 625


@pytest.mark.parametrize("slack,refused", [(-2, True), (-1, True), (0, False)])
def test_budget_boundary_at_a_31_bit_field(slack, refused):
    p = 2 ** 31 - 1
    inst = PvalInstance(PrimeField(p), 1, 1, (), ())
    if refused:
        with pytest.raises(BudgetExceeded):
            next(enumerate_pval(inst, budget=p + slack))
        with pytest.raises(BudgetExceeded):
            pval_min_distance(inst, budget=p + slack)
    else:
        assert next(enumerate_pval(inst, budget=p + slack)) == (0,)
        assert pval_min_distance(inst, budget=p + slack) == 1


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_cli_bad_budget_flag_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["check-lemma", "epsilons", "--trials", "5", f"--budget={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("dfipp: error: ") and "--budget" in last


def test_cli_reads_the_budget_variable_when_it_runs(monkeypatch, capsys):
    monkeypatch.setenv("DFIPP_BUDGET", "624")
    assert cli_main(["check-lemma", "epsilons", "--trials", "5"]) == 3
    assert "exceeds enumeration budget 624" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_budget_variable_is_a_usage_error(value):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "DFIPP_BUDGET": value}
    proc = subprocess.run([sys.executable, "-m", "dfipp.cli", "check-lemma", "epsilons",
                           "--trials", "5"], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("dfipp: error: ") and "DFIPP_BUDGET" in last
