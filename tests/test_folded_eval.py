"""folded_eval against a materialised fold, its cached fold-term table, and
the leaf phase's spot checks: one fold per distinct cell, every check charged."""

import itertools
import random
from fractions import Fraction

import pytest

from _instances import member_instance
from _oracles import materialised_fold_value
from dfipp import protocols
from dfipp.distributions import extend_rows, extension_row_map, granularise
from dfipp.field import InputTensor, PrimeField, cell_index
from dfipp.product import (WhiteboxFoldProver, coordinate_preimages, gen_product_fixture,
                           run_whitebox_product_ipp)
from dfipp.protocols import (FoldState, _leaf_phase, fold_rows, folded_eval,
                             source_weights)
from dfipp.session import ProverStrategy, Session

F17 = PrimeField(17)
M61 = PrimeField((1 << 61) - 1)


def _charged(X, st, coords):
    """(folded value, queries charged) on a fresh ledger."""
    session = Session(ProverStrategy(), 0, X.data)
    return folded_eval(session, X, st, cell_index(coords, X.k)), session.ledger.queries


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


@pytest.mark.parametrize("k,m,r", [(2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 3, 2)])
def test_folded_eval_reads_each_source_row_once(k, m, r, monkeypatch):
    # every extension row copies a source row or the zero row: a coordinate reads
    # each distinct product of per-level sources once and charges every support index
    rng = random.Random(7000 + 100 * k + 10 * m + r)
    reads = []
    real = Session.read
    monkeypatch.setattr(Session, "read",
                        lambda self, base, offsets: reads.append(len(offsets))
                        or real(self, base, offsets))
    repeated = False
    for _trial in range(12):
        X = InputTensor.random(F17, k, m, rng)
        st = _random_state(rng, k, r, 17, set(range(r)))
        live = distinct = 1
        for support, rowmap in zip(st.supports, st.rowmaps):
            sources = [rowmap[i] for i in support if rowmap[i] != k]
            live *= len(sources)
            distinct *= len(set(sources))
        repeated |= distinct < live
        for coords in itertools.product(range(k), repeat=m - r):
            del reads[:]
            assert _charged(X, st, coords)[1] == live
            assert reads == [distinct]
    assert repeated  # some support reads a source row twice


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_source_weights_fold_equals_the_extended_fold(k):
    rng = random.Random(40 + k)
    p = F17.modulus
    for _trial in range(50):
        counts = [rng.randrange(4) for _ in range(k)] + [rng.randrange(3)]
        if sum(counts) == 0:
            counts[0] = 1
        rowmap = extension_row_map(counts)
        width = 1 + rng.randrange(4)
        Y = [tuple(rng.randrange(p) for _ in range(width)) for _ in range(k)]
        z = [0 if rng.random() < 0.3 else rng.randrange(p) for _ in rowmap]
        want = fold_rows(z, extend_rows(Y, rowmap, (0,) * width), p)
        assert fold_rows(source_weights(z, rowmap, k), Y, p) == want


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


# --- leaf phase: spot checks --------------------------------------------------------

def _counted_whitebox(monkeypatch, X, inst, circuit, r, prover, seed):
    """(result, folded_eval calls) of one white-box session at eps = 1/2."""
    calls = []
    real = protocols.folded_eval

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(protocols, "folded_eval", counted)
    res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, r, prover, seed)
    return res, len(calls)


def _spot_checks(notes):
    """(checks, tau * checks) summed over the leaf notes: 2 * nq checks per tuple."""
    checks = charge = 0
    for note in notes:
        if note.startswith("leaf "):
            fields = dict(f.split("=") for f in note.split()[1:])
            checks += 2 * int(fields["nq"])
            charge += 2 * int(fields["nq"]) * int(fields["tau"])
    return checks, charge


# The ledger pins below are those of a fold on every spot check: a repeated
# cell must cost what folding it again would.

def test_leaf_phase_honest_r2_folds_each_cell_once_and_charges_every_check(monkeypatch):
    D, circuit = gen_product_fixture(2, 5, "uniform")
    X, inst = member_instance(F17, 2, 5, random.Random(21))
    prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, 2, 5))
    res, calls = _counted_whitebox(monkeypatch, X, inst, circuit, 2, prover, 3)
    assert res.verdict.accepted
    assert (res.ledger.queries, res.ledger.comm_bits) == (1474560, 1552)
    checks, charge = _spot_checks(res.notes)
    assert res.ledger.queries == charge  # every check charges tau = 256, repeats included
    assert checks == 5760
    assert calls <= 4 * 2 ** 3  # at most one fold per (live tuple, leaf cell)


def test_leaf_phase_fixed_alternative_rejects_at_its_first_check(monkeypatch):
    D, circuit = gen_product_fixture(2, 4, "uniform")
    W, inst = member_instance(F17, 2, 4, random.Random(22))
    X = InputTensor(F17, 2, 4, [(v + 1) % 17 for v in W.data])  # differs from W everywhere
    prover = WhiteboxFoldProver(W, D.factors, coordinate_preimages(circuit, 2, 4))
    res, calls = _counted_whitebox(monkeypatch, X, inst, circuit, 2, prover, 4)
    assert res.verdict.reject_reason == "leaf-sample"
    assert (res.ledger.queries, res.ledger.comm_bits) == (256, 1276)
    assert calls == 1


def test_leaf_phase_extended_fold_charges_below_tau_on_zero_rows(monkeypatch):
    rng = random.Random(101)
    D, circuit = gen_product_fixture(2, 3, "dyadic-random", rng=rng)
    assert granularise(D.factors[0]).counts[-1] > 0  # the extension has a zero row
    X, inst = member_instance(F17, 2, 3, rng)
    prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, 2, 3))
    res, calls = _counted_whitebox(monkeypatch, X, inst, circuit, 1, prover, 5)
    assert res.verdict.accepted
    assert (res.ledger.queries, res.ledger.comm_bits) == (7200, 10736)
    checks, charge = _spot_checks(res.notes)
    assert res.ledger.queries < charge
    assert calls < checks


class _LeafProver(ProverStrategy):
    def __init__(self, leaves, width):
        self.sections = [(tuple(leaf), width) for leaf in leaves]

    def reply(self, tag, payload):
        return self.sections


@pytest.mark.parametrize("tamper", [False, True], ids=["honest", "second-tuple-lies"])
def test_leaf_phase_keeps_one_fold_memo_per_tuple(tamper):
    # two live tuples fold the same X under different vectors and are checked
    # at the same leaf cell 0 only; each tuple's check reads its own fold
    k, m, p = 2, 2, 17
    X = InputTensor(F17, k, m, [3, 5, 7, 11])
    states = [FoldState(zs=(z,), supports=((0, 1),), rowmaps=((0, 1),), weights=(1,),
                        points=(), values=()) for z in [(1, 2), (4, 1)]]
    leaves = [[materialised_fold_value(X.data, k, m, st.zs, st.rowmaps, (c,), p)
               for c in range(k)] for st in states]
    assert leaves[0][0] != leaves[1][0]
    if tamper:
        leaves[1][0] = leaves[0][0]
    session = Session(_LeafProver(leaves, F17.bits), 0, X.data)
    # eps_r = 2, so nq = 5 uniform cells, then 5 distribution cells that are all 0
    verdict = _leaf_phase(session, X, states, 1, Fraction(1), Fraction(1),
                          lambda nq: [0] * nq)
    if tamper:
        assert verdict.reject_reason == "leaf-sample"
    else:
        assert verdict.accepted
        assert session.ledger.queries == 2 * 10 * 2  # tuples * checks * tau
