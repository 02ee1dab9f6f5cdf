"""The leaf phase charges repeated spot-check cells in bulk: its verdict and ledger
equal those of a per-draw loop that folds and charges every draw in order, on an
accept and on a reject at a cell first drawn after several repeats."""

import itertools
import random
from fractions import Fraction

import pytest

from _oracles import materialised_fold_value
from dfipp import protocols
from dfipp.distributions import extension_row_map
from dfipp.field import InputTensor, PrimeField
from dfipp.protocols import FoldState, _leaf_phase
from dfipp.session import ProverStrategy, Session

F17 = PrimeField(17)
NQ = 5  # eps = 1, one fold of weight 1 and shrink 1: eps_r = 2, so ceil(10 / 2) checks

# name -> (k, m, rowmap, support, z per live tuple): a plain fin_ipp fold over the k
# rows, and an extended white-box fold whose support holds zero rows (source k),
# which cost no query
FOLDS = {
    "plain": (3, 3, (0, 1, 2), (0, 1, 2), [(5, 0, 11), (1, 7, 2)]),
    "extended-zero-rows": (2, 4, extension_row_map((2, 1, 2)), (0, 2, 3, 4),
                           [(3, 0, 9, 4, 6), (8, 0, 1, 16, 2)]),
}


class _LeafProver(ProverStrategy):
    def __init__(self, leaves):
        self.sections = [(tuple(leaf), F17.bits) for leaf in leaves]

    def reply(self, tag, payload):
        return self.sections


def _uniform_leaf_cells(rng, k, leaf_m, nq):
    """The uniform batch: one flat draw in [k^leaf_m) per cell."""
    return [rng.randrange(k ** leaf_m) for _ in range(nq)]


def _per_draw(cells_per_tuple, leaves, truths, reads):
    """(reject reason or None, queries) of folding and charging every draw in order."""
    queries = 0
    for cells, leaf, truth in zip(cells_per_tuple, leaves, truths):
        for cell in cells:
            queries += reads
            if leaf[cell] != truth[cell]:
                return "leaf-sample", queries
    return None, queries


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("lie", [False, True], ids=["honest", "lies-after-repeats"])
@pytest.mark.parametrize("fold", list(FOLDS))
def test_bulk_charge_equals_the_per_draw_loop(fold, lie, seed, monkeypatch):
    k, m, rowmap, support, zs = FOLDS[fold]
    leaf_m, p = m - 1, F17.modulus
    leaf_n = k ** leaf_m
    reads = sum(1 for i in support if rowmap[i] != k)
    X = InputTensor.random(F17, k, m, random.Random(100 + seed))
    states = [FoldState(zs=(z,), supports=(support,), rowmaps=(rowmap,), weights=(1,),
                        points=(), values=()) for z in zs]
    truths = [[materialised_fold_value(X.data, k, m, (z,), (rowmap,), coords, p)
               for coords in itertools.product(range(k), repeat=leaf_m)] for z in zs]

    # per tuple, NQ uniform cells from the session's coins, then a distribution batch
    # of repeats around one cell the uniform batch missed
    ref = random.Random(seed)
    uniform = [_uniform_leaf_cells(ref, k, leaf_m, NQ) for _ in states]
    batches = []
    for u in uniform:
        fresh = min(set(range(leaf_n)) - set(u))  # NQ < leaf_n, so one is missed
        batches.append([u[0], u[-1], u[0], fresh, u[1]])
    cells = [u + b for u, b in zip(uniform, batches)]
    leaves = [list(t) for t in truths]
    if lie:  # the second tuple is wrong only at its fresh cell, first drawn at index NQ + 3
        bad = batches[1][3]
        leaves[1][bad] = (leaves[1][bad] + 1) % p
        assert cells[1].index(bad) == NQ + 3 > len(set(cells[1][:NQ + 3]))

    folds = []
    real = protocols.folded_eval
    monkeypatch.setattr(protocols, "folded_eval", lambda *a: folds.append(a[3]) or real(*a))
    session = Session(_LeafProver(leaves), seed, X.data)
    pending = iter(batches)
    verdict = _leaf_phase(session, X, states, 1, Fraction(1), Fraction(1),
                          lambda nq: [(k - 1) * leaf_n + y for y in next(pending)])

    reason, queries = _per_draw(cells, leaves, truths, reads)
    assert verdict.reject_reason == reason
    assert session.ledger.queries == queries
    assert session.ledger.samples == 0
    # each distinct cell of a tuple is folded once, up to and including a bad one
    checked = [list(dict.fromkeys(c)) for c in cells]
    if lie:
        checked[1] = checked[1][:checked[1].index(batches[1][3]) + 1]
    assert folds == checked[0] + checked[1]
