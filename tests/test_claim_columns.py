"""The honest fold prover's claims come off its round-0 columns, and the verifier's
step-1 column check contracts one Lagrange basis per point."""

import random

import pytest

from _oracles import poly_eval, vandermonde_coeffs
from dfipp import field as field_module
from dfipp import protocols
from dfipp.experiments import run_protocol
from dfipp.field import InputTensor, PrimeField, cell_coords, lagrange_basis, lde_eval, \
    lde_eval_batch
from dfipp.protocols import HonestFoldProver, _columns_consistent, project_points

F17, F97, M61 = PrimeField(17), PrimeField(97), PrimeField((1 << 61) - 1)


@pytest.mark.parametrize("fld,k,m,t", [(F17, 2, 1, 5), (F17, 2, 4, 6), (F97, 3, 3, 7),
                                       (M61, 2, 5, 6), (M61, 3, 2, 4)])
def test_honest_claim_values_equal_lde_eval(fld, k, m, t):
    rng = random.Random(fld.modulus % 1000 + 10 * k + m)
    X = InputTensor.random(fld, k, m, rng)
    points = [fld.rand_point(m, rng) for _ in range(t)]
    # repeated points, and a repeated tail under a new first coordinate
    points += [points[0], points[-1], ((points[1][0] + 1) % fld.modulus,) + points[1][1:]]
    [(values, width)] = HonestFoldProver(X).reply("claims/values", tuple(points))
    assert width == fld.bits
    assert values == tuple(lde_eval(X, pt) for pt in points)


def test_honest_claim_values_of_no_points_is_empty():
    X = InputTensor.random(F97, 3, 2, random.Random(1))
    assert HonestFoldProver(X).reply("claims/values", ()) == [((), F97.bits)]


@pytest.mark.parametrize("fld,k,m", [(F17, 2, 4), (F97, 3, 3), (M61, 2, 3)])
def test_round0_matrix_is_the_same_after_claims(fld, k, m):
    # the kept columns give the s = 0 reply a fresh prover computes from scratch
    rng = random.Random(k * m)
    X = InputTensor.random(fld, k, m, rng)
    claims = tuple(fld.rand_point(m, rng) for _ in range(5))
    points = claims + tuple(cell_coords(rng.randrange(k ** m), k, m) for _ in range(4))
    request = (0, tuple(range(k)), points)
    warm = HonestFoldProver(X)
    warm.reply("claims/values", claims)
    got = warm.reply("fold/matrix", request)
    assert got == HonestFoldProver(X).reply("fold/matrix", request)
    j2, _cols = project_points(points)
    rows = lde_eval_batch(fld, k, m - 1, [X.row(i) for i in range(k)], j2)
    assert got == [(tuple(v for row in rows for v in row), fld.bits)]


def _oracle_consistent(p, k, points, values, Y, cols):
    """Column check by Vandermonde interpolation, one point at a time."""
    return all(poly_eval(vandermonde_coeffs([Y[i][c] for i in range(k)], p), pt[0], p) == v
               for pt, v, c in zip(points, values, cols))


@pytest.mark.parametrize("fld,k,m", [(PrimeField(7), 2, 2), (F17, 3, 3), (F97, 3, 2),
                                     (M61, 2, 3)])
def test_columns_consistent_matches_the_per_point_oracle(fld, k, m):
    p = fld.modulus
    rng = random.Random(p % 977 + k)
    for _ in range(40):
        # off-grid first coordinates, so every row of a used column has weight
        points = tuple((rng.randrange(k, p),) + fld.rand_point(m - 1, rng)
                       for _ in range(rng.randrange(1, 6)))
        j2, cols = project_points(points)
        Y = [tuple(fld.rand_point(len(j2), rng)) for _ in range(k)]
        bases = [lagrange_basis(p, k, pt[0]) for pt in points]
        truth = [poly_eval(vandermonde_coeffs([Y[i][c] for i in range(k)], p), pt[0], p)
                 for pt, c in zip(points, cols)]
        assert _columns_consistent(p, bases, truth, Y, cols)
        values = list(truth)
        values[rng.randrange(len(values))] = rng.randrange(p)  # at times the true value
        assert _columns_consistent(p, bases, values, Y, cols) == \
            _oracle_consistent(p, k, points, values, Y, cols)
        # one corrupted matrix entry in a used column is caught
        i, c = rng.randrange(k), cols[rng.randrange(len(cols))]
        bad = [list(row) for row in Y]
        bad[i][c] = (bad[i][c] + 1 + rng.randrange(p - 1)) % p
        assert not _columns_consistent(p, bases, truth, bad, cols)


def test_columns_consistent_passes_no_points():
    assert _columns_consistent(17, [], (), [(), ()], [])
    assert _columns_consistent(17, [], (), [(3, 4), (5, 6)], [])


def test_nc_prover_evaluates_each_round0_tail_once_and_no_claim_at_full_depth(monkeypatch):
    # one honest df_ipp_nc session at F17, k = 2, m = 5, r = 2
    k, m = 2, 5
    batches, rows = [], []
    real_batch, real_row = protocols.lde_eval_batch, field_module.basis_row

    def batch(fld, k_, m_, tensors, points):
        points = list(points)
        batches.append((m_, [tuple(t) for t in tensors], points))
        return real_batch(fld, k_, m_, tensors, points)

    def basis_row(fld, k_, m_, point):
        rows.append(m_)
        return real_row(fld, k_, m_, point)

    monkeypatch.setattr(protocols, "lde_eval_batch", batch)
    monkeypatch.setattr(field_module, "basis_row", basis_row)
    X = InputTensor.random(F17, k, m, random.Random(3))
    config = {"protocol": "df_ipp_nc", "trials": 1, "seed": 3, "field_modulus": 17,
              "k": k, "m": m, "r": 2, "eps": "1/2", "x": list(X.data)}
    result, _meta = run_protocol(config, 7)
    assert result.verdict.accepted

    msgs = {msg.tag: msg for msg in result.transcript}
    flat = msgs["claims/points"].values()
    claims = [tuple(flat[i:i + m]) for i in range(0, len(flat), m)]
    cells = [cell_coords(i, k, m) for i in msgs["nc/samples"].values(0)]
    tails = {pt[1:] for pt in claims + cells}
    assert len(tails) < len(claims) + len(cells)  # some tail repeats

    round0 = [(tensors, points) for m_, tensors, points in batches if m_ == m - 1]
    assert all(tensors == [X.row(i) for i in range(k)] for tensors, _ in round0)
    evaluated = [tail for _, points in round0 for tail in points]
    assert sorted(evaluated) == sorted(tails)  # each distinct tail exactly once
    assert all(m_ < m for m_, _, _ in batches)  # no claim point evaluated whole
    assert rows == []  # the session evaluates every LDE without a basis row


@pytest.mark.parametrize("protocol", ["df_ipp_nc", "dispersed_ipp_nc"])
def test_no_phase_of_an_nc_session_builds_a_basis_row(monkeypatch, protocol):
    # one honest session at F17, k = 2, m = 5, r = 2: the claim columns, both fold
    # rounds and the leaf checks each run, and none of them builds a row
    k, m = 2, 5
    rows, built = field_module._kron_row, {}
    real_columns, real_matrices = HonestFoldProver._columns, HonestFoldProver._matrices
    real_leaf = protocols._leaf_phase

    def counted(key, fn, *args):
        before = rows.cache_info().misses
        out = fn(*args)
        built[key] = built.get(key, 0) + rows.cache_info().misses - before
        return out

    monkeypatch.setattr(HonestFoldProver, "_columns", lambda self, *args: counted(
        "columns", real_columns, self, *args))
    monkeypatch.setattr(HonestFoldProver, "_matrices", lambda self, s, *args: counted(
        ("matrices", s), real_matrices, self, s, *args))
    monkeypatch.setattr(protocols, "_leaf_phase", lambda *args: counted(
        "leaf", real_leaf, *args))
    rows.cache_clear()
    config = {"protocol": protocol, "trials": 1, "seed": 3, "field_modulus": 17,
              "k": k, "m": m, "r": 2, "eps": "1/2"}
    result, _meta = run_protocol(config, 7)
    assert result.verdict.accepted
    assert set(built) == {"columns", ("matrices", 0), ("matrices", 1), "leaf"}
    assert set(built.values()) == {0}
    assert rows.cache_info().misses == 0  # nor does anything else in the session
