"""folded_eval against a materialised fold, and its cached fold-term table."""

import itertools
import random

import pytest

from _oracles import materialised_fold_value
from dfipp.distributions import extension_row_map
from dfipp.field import InputTensor, PrimeField, cell_index
from dfipp.protocols import FoldState, folded_eval
from dfipp.session import CostLedger, OracleHandles

F17 = PrimeField(17)
M61 = PrimeField((1 << 61) - 1)


def _charged(X, st, coords):
    """(folded value, queries charged) on a fresh ledger."""
    oracles = OracleHandles(X.data)
    ledger = CostLedger()
    oracles.bind(ledger, random.Random(0))
    return folded_eval(oracles, X, st, cell_index(coords, X.k)), ledger.queries


def _random_level(rng, k, p, extended):
    """(rowmap, support, z) for one fold level.

    An extended level uses a granular extension row map with at least one
    row backed by the zero row (source k), and its support includes one.
    Some sampled coefficients are forced to 0.
    """
    if extended:
        counts = [rng.randrange(3) for _ in range(k)] + [1 + rng.randrange(2)]
        rowmap = extension_row_map(counts)
    else:
        rowmap = tuple(range(k))
    n_rows = len(rowmap)
    support = set(rng.sample(range(n_rows), 1 + rng.randrange(n_rows)))
    if extended:
        support.add(rng.choice([i for i, src in enumerate(rowmap) if src == k]))
    support = tuple(sorted(support))
    z = [0] * n_rows
    for i in support:
        z[i] = 0 if rng.random() < 0.25 else rng.randrange(p)
    return rowmap, support, tuple(z)


def _random_state(rng, k, r, p, extended_levels):
    levels = [_random_level(rng, k, p, s in extended_levels) for s in range(r)]
    return FoldState(zs=tuple(z for _, _, z in levels),
                     supports=tuple(sup for _, sup, _ in levels),
                     rowmaps=tuple(rm for rm, _, _ in levels),
                     weights=(1,) * r, points=(), values=())


@pytest.mark.parametrize("field", [F17, M61], ids=["F17", "M61"])
@pytest.mark.parametrize("k,m,r", [(2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 3, 2)])
def test_folded_eval_matches_materialised_fold(field, k, m, r):
    rng = random.Random(1000 * k + 10 * m + r + field.bits)
    p = field.modulus
    for trial in range(12):
        X = InputTensor.random(field, k, m, rng)
        extended = {s for s in range(r) if (trial >> s) & 1}
        st = _random_state(rng, k, r, p, extended)
        live = 1
        for support, rowmap in zip(st.supports, st.rowmaps):
            live *= sum(1 for i in support if rowmap[i] != k)
        assert live <= st.tau
        if not extended:
            assert live == st.tau
        for coords in itertools.product(range(k), repeat=m - r):
            got, queries = _charged(X, st, coords)
            assert got == materialised_fold_value(X.data, k, m, st.zs, st.rowmaps, coords, p)
            assert queries == live


def test_term_table_cache_keeps_equality_and_hash():
    rng = random.Random(7)
    X = InputTensor.random(F17, 2, 4, rng)
    st = _random_state(rng, 2, 2, 17, {1})
    twin = FoldState(st.zs, st.supports, st.rowmaps, st.weights, st.points, st.values)
    before = hash(st)
    first = _charged(X, st, (1, 0))
    assert st == twin and hash(st) == hash(twin) == before
    assert len({st, twin}) == 1
    assert _charged(X, st, (1, 0)) == first
    assert _charged(X, twin, (1, 0)) == first
