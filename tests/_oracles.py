"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's Lagrange basis rows (lagrange_basis,
basis_row): polynomial evaluation goes through coefficient vectors obtained
by solving the Vandermonde system with plain Gaussian elimination mod p.
The PVAL, span and constraint-solution oracles test every candidate in turn
instead of solving the claim system.
The distribution oracles take masses as a list of Fractions and sum them as
Fractions, never reading the library's integer weights.
"""

import itertools
import math
from fractions import Fraction


def solve_mod(A, b, p):
    """Solve A x = b over F_p by Gaussian elimination; A square invertible."""
    n = len(A)
    M = [row[:] + [bv] for row, bv in zip(A, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] % p != 0)
        M[col], M[pivot] = M[pivot], M[col]
        inv = pow(M[col][col], p - 2, p)
        M[col] = [v * inv % p for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                factor = M[r][col]
                M[r] = [(a - factor * b) % p for a, b in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def vandermonde_coeffs(values, p):
    """Coefficients of the unique degree-(k-1) polynomial through (i, values[i])."""
    k = len(values)
    A = [[pow(i, e, p) for e in range(k)] for i in range(k)]
    return solve_mod(A, list(values), p)


def poly_eval(coeffs, t, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % p
    return acc


def vandermonde_lde_eval(data, k, m, point, p):
    """m-variate LDE via coefficient form: solve the full k^m x k^m system
    in the monomial basis, then evaluate the monomials at the point."""
    cells = list(itertools.product(range(k), repeat=m))
    exps = list(itertools.product(range(k), repeat=m))
    A = [[_monomial(cell, e, p) for e in exps] for cell in cells]
    coeffs = solve_mod(A, list(data), p)
    return sum(c * _monomial(point, e, p) for c, e in zip(coeffs, exps)) % p


def vandermonde_lde_evals(data, k, m, points, p):
    """vandermonde_lde_eval at every point, from one solve.  The system matrix is
    the m-th Kronecker power of the k x k Vandermonde matrix, so the solve is a
    Vandermonde solve along each axis in turn, which keeps k^m = 1024 cheap."""
    coeffs = list(data)
    for stride in (k ** j for j in range(m)):
        for base in range(len(coeffs)):
            if base // stride % k == 0:
                fiber = vandermonde_coeffs([coeffs[base + i * stride] for i in range(k)], p)
                for i, c in enumerate(fiber):
                    coeffs[base + i * stride] = c
    exps = list(itertools.product(range(k), repeat=m))
    return [sum(c * _monomial(pt, e, p) for c, e in zip(coeffs, exps)) % p for pt in points]


def _monomial(point, exps, p):
    acc = 1
    for x, e in zip(point, exps):
        acc = acc * pow(x, e, p) % p
    return acc


def vandermonde_rows(k, m, points, p):
    """Row j holds P_{e_cell}(points[j]) for every unit tensor e_cell, by
    vandermonde_lde_eval; the LDE is linear in the data, so P_X(points[j])
    is the dot of row j with X."""
    n = k ** m
    units = [[int(i == cell) for i in range(n)] for cell in range(n)]
    return [[vandermonde_lde_eval(e, k, m, pt, p) for e in units] for pt in points]


def scan_pval(k, m, points, values, p):
    """Every X in F_p^(k^m) with P_X(points) = values, by testing all p^(k^m)
    candidates in lexicographic order, never solving the claim system."""
    rows = vandermonde_rows(k, m, points, p)
    return [cand for cand in itertools.product(range(p), repeat=k ** m)
            if all(sum(r * c for r, c in zip(row, cand)) % p == v
                   for row, v in zip(rows, values))]


def pairwise_min_distance(members, n):
    """min over pairs of distinct members of their Hamming distance over n; inf below two."""
    best = math.inf
    for a, b in itertools.combinations(members, 2):
        best = min(best, Fraction(sum(x != y for x, y in zip(a, b)), n))
    return best


def span_set(basis, p):
    """The span of basis over F_p as a set, by one combination layer per basis vector."""
    vectors = {tuple(0 for _ in basis[0])}
    for b in basis:
        vectors = {tuple((v + c * bb) % p for v, bb in zip(vec, b))
                   for vec in vectors for c in range(p)}
    return vectors


def univariate_solutions(k, constraints, p):
    """Every value vector in F_p^k, lexicographically, whose Vandermonde
    interpolant P has P(t) = v for every (t, v) in constraints."""
    return [cand for cand in itertools.product(range(p), repeat=k)
            if all(poly_eval(vandermonde_coeffs(cand, p), t, p) == v for t, v in constraints)]


def exhaustive_hybrid_distance(x, candidates, d1_masses, d2_masses):
    """min over candidates of max(d_D1, d_D2), exact Fractions."""
    best = None
    for cand in candidates:
        a = sum((m for m, (u, v) in zip(d1_masses, zip(x, cand)) if u != v), Fraction(0))
        b = sum((m for m, (u, v) in zip(d2_masses, zip(x, cand)) if u != v), Fraction(0))
        d = max(a, b)
        if best is None or d < best:
            best = d
    return best


def materialised_fold_value(data, k, m, zs, rowmaps, coords, p):
    """One coordinate of z_r . (... (z_1 . X)) read off the fully folded tensor.

    Each level views the current tensor as k rows, appends the all-zero row
    as source k, folds row j of the result as sum_i z[i] * row[rowmaps[s][i]]
    over every cell, and the leaf cell is then read directly: no term list.
    """
    cur = list(data)
    for z, rowmap in zip(zs, rowmaps):
        step = len(cur) // k
        rows = [cur[i * step:(i + 1) * step] for i in range(k)] + [[0] * step]
        cur = [sum(zi * rows[src][j] for zi, src in zip(z, rowmap)) % p for j in range(step)]
    assert len(cur) == k ** (m - len(zs))
    idx = 0
    for c in coords:
        idx = idx * k + c
    return cur[idx]


def circuit_eval(circuit, x):
    """A sampling circuit's output index on input x, one gate at a time."""
    wires = [(x >> j) & 1 for j in range(circuit.n_inputs)]
    for gate in circuit.gates:
        if gate[0] == "AND":
            wires.append(wires[gate[1]] & wires[gate[2]])
        elif gate[0] == "XOR":
            wires.append(wires[gate[1]] ^ wires[gate[2]])
        else:
            wires.append(1 - wires[gate[1]])
    out = 0
    for j, w in enumerate(circuit.outputs):
        out |= wires[w] << j
    return out


def slb_witness_reason(circuit, symbol_of, probs, tau, payload, sections):
    """The set lower bound's verdict on a witness reply, one witness at a time: the
    reject reason of the first section that is malformed, holds a repeated,
    out-of-range, nonzero-hash or wrong-symbol witness, or has too few witnesses
    for (1 - tau/2) * p_i * 2^ell, in section order; None when every one passes."""
    size, width = 1 << circuit.n_inputs, max(circuit.n_inputs, 1)
    for (i, b, rows, c), (values, w) in zip(payload, sections):
        if w != width or len(values) > size:
            return "malformed"
        seen = set()
        for x in values:
            if x in seen or x >= size or symbol_of(circuit_eval(circuit, x)) != i or any(
                    bin(row & x).count("1") % 2 != (c >> j) & 1 for j, row in enumerate(rows)):
                return "witness"
            seen.add(x)
        if Fraction(len(values) << b) < (1 - tau / 2) * probs[i] * size:
            return "lower-bound"
    return None


def bucket_bits_loop(N, ell, tau, delta_sym):
    """Largest b with 2^b <= delta*tau^2*N^2 / (4*2^ell), by exact Fraction search."""
    cap = delta_sym * tau * tau * N * N / (4 * (1 << ell))
    b = 0
    while (1 << (b + 1)) <= cap:
        b += 1
    return b if cap >= 1 else 0


def fraction_dist(x, y, masses):
    """d_D(x, y): the D-mass of the cells where x and y differ, summed as Fractions."""
    return sum((m for m, a, b in zip(masses, x, y) if a != b), Fraction(0))


def fraction_dispersion(masses, k, m):
    """(rho, dim, cell) of dispersion_rho by a Fraction scan over every cell.

    Lines along each axis are visited in order of their first cell; a line's
    witness is its first heaviest cell and only a strictly larger ratio
    replaces the running witness, so ties keep the earliest line.
    """
    best = Fraction(1)
    witness = (0, (0,) * m)
    for dim in range(m):
        seen = set()
        for cell in itertools.product(range(k), repeat=m):
            base = cell[:dim] + (0,) + cell[dim + 1:]
            if base in seen:
                continue
            seen.add(base)
            line = [base[:dim] + (t,) + base[dim + 1:] for t in range(k)]
            line_masses = [masses[_flat(c, k)] for c in line]
            total = sum(line_masses, Fraction(0))
            if total == 0:
                continue
            top = max(range(k), key=lambda t: line_masses[t])
            ratio = Fraction(k) * line_masses[top] / total
            if ratio > best:
                best, witness = ratio, (dim, line[top])
    return best, witness[0], witness[1]


def _flat(cell, k):
    idx = 0
    for c in cell:
        idx = idx * k + c
    return idx


def fraction_granularise(masses):
    """a_i = floor(6n p_i) + 2 for i <= n, then the remainder up to 8n."""
    n = len(masses)
    counts = [math.floor(6 * n * v) + 2 for v in masses]
    return tuple(counts + [8 * n - sum(counts)])


def fraction_tv_distance(p_masses, q_masses):
    """sum_i |p_i - q_i|, summed as Fractions."""
    return sum((abs(a - b) for a, b in zip(p_masses, q_masses)), Fraction(0))


def fraction_sampler_table(masses, bits=64):
    """floor(acc * 2^bits) over the running Fraction sums acc, last entry clamped to 2^bits."""
    table = []
    acc = Fraction(0)
    for v in masses:
        acc += v
        table.append(math.floor(acc * (1 << bits)))
    table[-1] = 1 << bits
    return table


def factor_circuit_table(masses):
    """(d, table) of a dyadic factor's sampling circuit by Fraction bounds.

    d input bits, with 2^d the lcm of the masses' denominators (at least 2);
    input u maps to the first symbol whose cumulative mass exceeds u / 2^d.
    """
    denom = 1
    for mass in masses:
        denom = math.lcm(denom, mass.denominator)
    d = max(1, denom.bit_length() - 1)
    acc = Fraction(0)
    bounds = []
    for mass in masses:
        acc += mass
        bounds.append(acc * (1 << d))
    return d, [next(i for i, bd in enumerate(bounds) if u < bd) for u in range(1 << d)]
