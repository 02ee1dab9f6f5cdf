import json
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import pytest

from _oracles import (circuit_eval, factor_circuit_table, fraction_dispersion, fraction_dist,
                      fraction_granularise, fraction_sampler_table, fraction_tv_distance)
from dfipp.distributions import (GranularitySet, Pmf, ProductDistribution, SamplingCircuit,
                                 _bit_planes, circuit_pmf, dispersion_rho, extend_rows,
                                 extension_row_map, granularise, marginal_first, tv_distance)
from dfipp.experiments import _DISTRIBUTION, _check, _setup_rng
from dfipp.product import (ExtensionEchoProver, _factor_table, exact_learner,
                           gen_product_fixture, run_learnable_ipp)
from dfipp.session import ACCEPT
from dfipp.tensors import dist, hybrid_dist


def distribution_to_json(D) -> dict:
    """The config-file object that distribution_from_config builds back into D."""
    if isinstance(D, Pmf):
        out = {"kind": "explicit", "masses": [str(v) for v in D.masses]}
        if D.shape is not None:
            out["shape"] = list(D.shape)
        return out
    if isinstance(D, ProductDistribution):
        return {"kind": "product",
                "factors": [[str(v) for v in f.masses] for f in D.factors]}
    if isinstance(D, SamplingCircuit):
        return {"kind": "circuit", "inputs": D.n_inputs,
                "gates": [list(g) for g in D.gates], "outputs": list(D.outputs)}
    raise TypeError(f"not a distribution: {D!r}")


def distribution_from_config(obj: dict):
    """The distribution that a config's checked `distribution` object builds."""
    _check(obj, _DISTRIBUTION, "distribution")
    return _DISTRIBUTION.build(obj)


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        Pmf([Fraction(3, 2), Fraction(-1, 2)])


def test_point_mass_sampling():
    D = Pmf.point_mass(2, 4)
    rng = random.Random(0)
    assert all(D.sample(rng) == 2 for _ in range(100))


def test_sampling_deterministic_given_seed():
    D = Pmf([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)])
    a = [D.sample(random.Random(42)) for _ in range(10)]
    b = [D.sample(random.Random(42)) for _ in range(10)]
    assert a == b


def test_uniform_sampling_frequencies_within_5_sigma():
    D = Pmf.uniform(4)
    rng = random.Random(1)
    n = 10 ** 5
    counts = [0] * 4
    for _ in range(n):
        counts[D.sample(rng)] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in counts:
        assert abs(c - n / 4) <= 5 * sigma


def test_circuit_sampling_frequencies():
    C = SamplingCircuit.identity(2)
    rng = random.Random(2)
    n = 10 ** 5
    counts = [0] * 4
    for _ in range(n):
        counts[C.sample(rng)] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in counts:
        assert abs(c - n / 4) <= 5 * sigma


def test_dispersion_uniform_is_one():
    for k, m in [(2, 2), (3, 2), (4, 3)]:
        D = Pmf.uniform(k ** m, shape=(k, m))
        assert dispersion_rho(D).rho == 1


def test_dispersion_single_line_cell_is_k():
    # one nonzero cell per line along the first dimension
    k = 3
    masses = [Fraction(0)] * 9
    masses[0] = Fraction(1, 3)   # cells (0,0), (1,1), (2,2) carry each line's mass
    masses[4] = Fraction(1, 3)
    masses[8] = Fraction(1, 3)
    D = Pmf(masses, shape=(3, 2))
    assert dispersion_rho(D).rho == 3


def test_dispersion_simple_ratio():
    D = Pmf([Fraction(3, 4), Fraction(1, 4)], shape=(2, 1))
    report = dispersion_rho(D)
    assert report.rho == Fraction(3, 2)
    assert report.cell == (0,)


def test_dispersion_reads_every_kind_of_distribution_in_a_shape():
    shaped = Pmf(["1/2", 0, "1/2", 0], shape=(2, 2))
    unshaped = Pmf(shaped.masses)
    product = ProductDistribution([Pmf(["1/2", "1/2"]), Pmf([1, 0])])
    circuit = SamplingCircuit(1, (("XOR", 0, 0),), (1, 0))  # y = 2 * input bit
    report = dispersion_rho(shaped)
    assert report.rho == 2
    for D in (shaped, unshaped, product, circuit):
        assert dispersion_rho(D, (2, 2)) == report
    assert dispersion_rho(product) == report  # a product has a shape of its own
    for D, shape in ((unshaped, None), (circuit, None), (shaped, (2, 3)), (unshaped, (3, 2))):
        with pytest.raises(ValueError, match="^dispersion needs a shape of 4 cells"):
            dispersion_rho(D, shape)


def test_marginal_first_examples():
    assert marginal_first(Pmf.uniform(4, shape=(2, 2))).masses == \
        (Fraction(1, 2), Fraction(1, 2))
    D = Pmf([Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)],
            shape=(2, 2))
    assert marginal_first(D).masses == (Fraction(4, 10), Fraction(6, 10))
    # product distribution: the first factor integrates out
    f1 = Pmf([Fraction(1, 4), Fraction(3, 4)])
    f2 = Pmf([Fraction(2, 3), Fraction(1, 3)])
    joint = ProductDistribution([f1, f2]).joint_pmf()
    assert marginal_first(joint).masses == f2.masses


def test_marginal_requires_m_at_least_two():
    with pytest.raises(ValueError):
        marginal_first(Pmf.uniform(4, shape=(4, 1)))


def test_granularise_examples():
    assert granularise(Pmf([Fraction(1, 2), Fraction(1, 2)])).counts == (8, 8, 0)
    assert granularise(Pmf([Fraction(1), Fraction(0)])).counts == (14, 2, 0)
    third = Fraction(1, 3)
    assert granularise(Pmf([third, third, third])).counts == (8, 8, 8, 0)


def test_granularity_invariants_enforced():
    with pytest.raises(ValueError):
        GranularitySet((8, 9, 0))  # sums to 17, not 16
    with pytest.raises(ValueError):
        GranularitySet((15, 1, 0))  # a_2 < 2


def test_extend_counting_matches_granular_distribution():
    pmf = Pmf([Fraction(3, 4), Fraction(1, 4)])
    grains = granularise(pmf)
    row_map = extension_row_map(grains.counts)
    n = len(row_map)
    for j, a in enumerate(grains.counts):
        assert row_map.count(j) == a
        assert Fraction(row_map.count(j), n) == grains.pmf().masses[j]
    # first occurrences in order, then the extra copies in order
    assert extension_row_map((1, 1)) == (0, 1)
    assert extension_row_map((8, 8, 0)) == (0, 1) + (0,) * 7 + (1,) * 7


def test_circuit_pmf_examples():
    assert circuit_pmf(SamplingCircuit.identity(2)).masses == (Fraction(1, 4),) * 4
    # constant output: NOT(x0) AND x0 = 0
    C = SamplingCircuit(1, (("NOT", 0), ("AND", 0, 1)), (2,))
    assert circuit_pmf(C).masses == (Fraction(1), Fraction(0))
    # AND of two bits: P[1] = 1/4
    C2 = SamplingCircuit(2, (("AND", 0, 1),), (2,))
    assert circuit_pmf(C2).masses == (Fraction(3, 4), Fraction(1, 4))


@pytest.mark.parametrize("n_inputs,gates,outputs", [
    (-1, (), ()),                       # no input count below zero
    (2, ((),), (0,)),                   # a gate needs an op
    (2, (("AND", 0),), (0,)),           # AND takes two wires
    (2, (("NOT", -1),), (0,)),          # no wire below 0
    (2, (("XOR", 0, 2),), (0,)),        # nor one not yet defined
    (2, (("AND", 0, 1),), (3,)),        # an output is a defined wire
    (2, (), (-1,)),
])
def test_circuit_rejects_malformed_wiring(n_inputs, gates, outputs):
    with pytest.raises(ValueError):
        SamplingCircuit(n_inputs, gates, outputs)


def test_circuit_json_round_trip():
    C = SamplingCircuit(2, (("AND", 0, 1), ("XOR", 0, 2)), (3, 1))
    back = distribution_from_config(distribution_to_json(C))
    assert back == C
    D = Pmf([Fraction(1, 3), Fraction(2, 3)], shape=(2, 1))
    back_d = distribution_from_config(distribution_to_json(D))
    assert back_d.masses == D.masses and back_d.shape == D.shape


def test_tv_distance_l1_convention():
    assert tv_distance(Pmf([1, 0]), Pmf([0, 1])) == 2
    assert tv_distance(Pmf([Fraction(1, 2), Fraction(1, 2)]),
                       Pmf([Fraction(1, 4), Fraction(3, 4)])) == Fraction(1, 2)
    D = Pmf([Fraction(1, 3), Fraction(2, 3)])
    assert tv_distance(D, D) == 0


def _virtual_read(pmf: Pmf, x, slot: int) -> tuple[int, int]:
    """(value, queries charged) of one virtual slot read in run_learnable_ipp."""
    seen = {}

    def factory(Q, eps4):
        def ipp(session, vquery):
            seen["value"] = vquery(slot)
            return ACCEPT
        return ipp

    res = run_learnable_ipp(x, pmf, Fraction(1, 2), exact_learner(pmf), factory,
                            ExtensionEchoProver(x), 0)
    return seen["value"], res.ledger.queries


def test_virtual_slot_layout_and_read_cost():
    pmf = Pmf([Fraction(1, 2), Fraction(1, 2)])
    Q = extension_row_map(granularise(pmf).counts)
    assert len(Q) == 16
    assert Q[:2] == (0, 1)
    assert Q[2:9] == (0,) * 7
    assert Q[9:16] == (1,) * 7
    assert 2 not in Q  # the appended-zero index never appears when a_{n+1} = 0
    # one virtual query = one source query, of source Q[5] = 0
    assert _virtual_read(pmf, (7, 9), 5) == (7, 1)


def test_virtual_zero_slots_cost_nothing():
    pmf = Pmf([Fraction(7, 8), Fraction(1, 8)])
    grains = granularise(pmf)
    assert grains.counts[-1] > 0
    Q = extension_row_map(grains.counts)
    zero_slot = Q.index(2)
    assert _virtual_read(pmf, (1, 1), zero_slot) == (0, 0)


def test_extend_rows_reads_the_appended_zero_row():
    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        n = rng.randrange(1, 6)
        counts = granularise(Pmf.random_grains(n, rng.randrange(1, 40), rng)).counts
        if counts[-1] == 0:
            continue
        rowmap = extension_row_map(counts)
        assert n in rowmap
        rows = [tuple(rng.randrange(17) for _ in range(3)) for _ in range(n)]
        zero = (0, 0, 0)
        assert extend_rows(rows, rowmap, zero) == [(list(rows) + [zero])[src] for src in rowmap]
        checked += 1
    assert checked >= 50


def test_uniform_virtual_sampling_matches_granular_distribution():
    pmf = Pmf([Fraction(3, 4), Fraction(1, 4)])
    grains = granularise(pmf)
    Q = extension_row_map(grains.counts)
    counts = [Q.count(j) for j in range(3)]
    assert counts == list(grains.counts)


def test_sample_dispatch():
    rng = random.Random(5)
    assert Pmf.point_mass(1, 3).sample(rng) == 1
    prod = ProductDistribution([Pmf.point_mass(1, 2), Pmf.point_mass(0, 2)])
    assert prod.sample(rng) == 2  # cell (1, 0) -> flat 1*2+0


# --- bitsliced circuit evaluation ---------------------------------------------------

def _random_table_circuit(n_inputs, n_outputs, rng):
    table = [rng.getrandbits(n_outputs) for _ in range(1 << n_inputs)]
    return SamplingCircuit.from_tables([(n_inputs, table)], n_outputs)


@pytest.mark.parametrize("n_outputs", [0, 1, 4, 9, 12])
@pytest.mark.parametrize("n_inputs", range(1, 8))
def test_eval_many_matches_gate_loop_on_random_tables(n_inputs, n_outputs):
    rng = random.Random(n_inputs * 100 + n_outputs)
    C = _random_table_circuit(n_inputs, n_outputs, rng)
    xs = list(range(1 << n_inputs))
    rng.shuffle(xs)
    assert C.eval_many(xs) == [circuit_eval(C, x) for x in xs]


@pytest.mark.parametrize("seed", range(8))
def test_from_tables_lays_the_tables_side_by_side(seed):
    # table t reads its slice of x's bits from a running offset, and its value,
    # masked to n_outputs bits, lands above the groups of every later table
    rng = random.Random(seed)
    n_outputs = 1 + seed % 3
    widths = [1] + [rng.randrange(1, 4) for _ in range(1 + rng.randrange(2))]
    rng.shuffle(widths)
    tables = [(d, [rng.getrandbits(n_outputs + 2) for _ in range(1 << d)]) for d in widths]
    n_inputs = sum(widths)
    C = SamplingCircuit.from_tables(tables, n_outputs)
    assert (C.n_inputs, len(C.outputs)) == (n_inputs, n_outputs * len(tables))
    ys = C.eval_many(range(1 << n_inputs))
    for x in range(1 << n_inputs):
        want, offset = 0, 0
        for d, table in tables:
            want = want << n_outputs | table[x >> offset & ((1 << d) - 1)] & ((1 << n_outputs) - 1)
            offset += d
        assert ys[x] == want


@pytest.mark.parametrize("n_bits", [0, 1, 3, 8, 9, 17])
def test_eval_many_on_identity(n_bits):
    C = SamplingCircuit.identity(n_bits)
    xs = [random.Random(n_bits).getrandbits(n_bits) for _ in range(300)]
    assert C.eval_many(xs) == xs == [circuit_eval(C, x) for x in xs]


@pytest.mark.parametrize("config_seed", [1, 2, 6, 9, 57])
def test_eval_many_on_dyadic_product_fixtures(config_seed):
    _, C = gen_product_fixture(2, 4, "dyadic-random", rng=_setup_rng(config_seed))
    xs = range(1 << C.n_inputs)  # every input: the closed-form input planes
    assert C.eval_many(xs) == C.eval_many(list(xs)) == [circuit_eval(C, x) for x in xs]


def test_bit_planes_of_every_input_match_the_transpose():
    for ell in range(15):
        xs = range(1 << ell)
        assert _bit_planes(xs, ell) == _bit_planes(list(xs), ell), ell
        # any other range is transposed, wider ones masked to the low ell bits
        for other in (range(1, 1 << ell), range(1 << (ell + 1)), range(0, 1 << ell, 2)):
            assert _bit_planes(other, ell) == _bit_planes(list(other), ell), (ell, other)


def test_eval_many_edge_inputs():
    rng = random.Random(3)
    C = _random_table_circuit(5, 9, rng)
    assert C.eval_many([]) == [] == C.eval_many(iter(()))
    xs = [7, 7, 0, 7, 31, 0]  # repeats
    assert C.eval_many(xs) == [circuit_eval(C, x) for x in xs]
    # only the low n_inputs bits count, as in eval (negatives in two's complement)
    wide = [32 + 5, (1 << 70) | 3, -1, -6, -(1 << 40)]
    assert C.eval_many(wide) == [circuit_eval(C, x) for x in wide]
    assert C.eval_many(iter(wide)) == C.eval_many(tuple(wide))
    assert [C.eval(x) for x in wide] == C.eval_many(wide)


def test_eval_many_keeps_equality_and_hash():
    C = SamplingCircuit(2, (("AND", 0, 1), ("XOR", 0, 2)), (3, 1))
    D = SamplingCircuit(2, (("AND", 0, 1), ("XOR", 0, 2)), (3, 1))
    C.eval_many(range(4))  # builds C's cached schedule, but not D's
    assert C == D and hash(C) == hash(D)


def test_circuit_pmf_matches_gate_loop_counts():
    rng = random.Random(11)
    for C in [_random_table_circuit(6, 3, rng), SamplingCircuit.identity(4),
              gen_product_fixture(2, 4, "dyadic-random", rng=_setup_rng(9))[1]]:
        counts = [0] * C.n
        for x in range(1 << C.n_inputs):
            counts[circuit_eval(C, x)] += 1
        expected = [Fraction(c, 1 << C.n_inputs) for c in counts]
        assert list(circuit_pmf(C).masses) == expected


def test_eval_many_frees_dead_wires():
    # about 50k gates; holding every wire over 4096 inputs would peak near 26 MB
    C = _random_table_circuit(12, 4, random.Random(12))
    C.eval_many(range(2))  # builds the cached gate schedule outside the measurement
    tracemalloc.start()
    try:
        out = C.eval_many(range(4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[:64] == [circuit_eval(C, x) for x in range(64)]
    assert peak < 8 * 2 ** 20


# --- integer weights against the Fraction oracles -------------------------------------

def test_from_weights_is_canonical():
    D = Pmf.from_weights([2, 2, 4], 8)
    E = Pmf(["1/4", "1/4", "1/2"])
    assert D == E
    assert D.weights == E.weights == (1, 1, 2)
    assert D.denom == E.denom == 4
    assert D.masses == E.masses == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert Pmf.from_weights([0, 3, 0], 3) == Pmf.point_mass(1, 3)
    assert Pmf.point_mass(1, 3).denom == 1
    assert Pmf.uniform(6).weights == (1,) * 6 and Pmf.uniform(6).denom == 6


def test_from_weights_json_round_trip_is_byte_identical():
    D = Pmf.from_weights([2, 0, 4, 2], 8, shape=(2, 2))
    wire = json.dumps(distribution_to_json(D))
    assert wire == json.dumps(distribution_to_json(Pmf(["1/4", 0, "1/2", "1/4"], shape=(2, 2))))
    back = distribution_from_config(json.loads(wire))
    assert back == D and back.shape == D.shape
    assert json.dumps(distribution_to_json(back)) == wire


def test_from_weights_rejects_with_the_constructor_messages():
    with pytest.raises(ValueError, match="^negative mass$"):
        Pmf.from_weights([3, -1], 2)
    with pytest.raises(ValueError, match="^negative mass$"):
        Pmf([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError, match="^masses sum to 5/8, not 1$"):
        Pmf.from_weights([2, 3], 8)
    with pytest.raises(ValueError, match="^masses sum to 5/8, not 1$"):
        Pmf(["1/4", "3/8"])
    with pytest.raises(ValueError, match=r"^shape \(2, 2\) does not match 3 masses$"):
        Pmf.from_weights([1, 1, 1], 3, shape=(2, 2))
    with pytest.raises(ValueError):
        Pmf.from_weights([0, 0], 0)


def _reference_grains(rng, n, grains):
    """Grain counts from one randrange(n) per grain, in draw order."""
    counts = [0] * n
    for _ in range(grains):
        counts[rng.randrange(n)] += 1
    return counts


def _oracle_cases(count=200):
    """Seeded random-grain PMFs over [k]^m, k and m in 2..4.

    Grain counts range below and above the cell count, so some cells carry
    zero mass, and the weights are scaled by a random factor before the
    Pmf reduces them to lowest terms.
    """
    rng = random.Random(20230817)
    for _ in range(count):
        k, m = rng.randrange(2, 5), rng.randrange(2, 5)
        n = k ** m
        grains = rng.randrange(1, 3 * n)
        counts = _reference_grains(rng, n, grains)
        scale = rng.choice([1, 2, 3, 12])
        D = Pmf.from_weights([scale * c for c in counts], scale * grains, shape=(k, m))
        yield rng, k, m, D


def test_kernels_match_fraction_oracles_on_random_grains():
    for rng, k, m, D in _oracle_cases():
        masses = list(D.masses)
        assert sum(masses) == 1 and math.gcd(D.denom, *D.weights) == 1
        x = [rng.randrange(3) for _ in range(D.n)]
        y = [rng.randrange(3) for _ in range(D.n)]
        U = Pmf.uniform(D.n)
        assert dist(x, y, D) == fraction_dist(x, y, masses)
        assert hybrid_dist(x, y, D, U) == hybrid_dist(x, y, U, D) == max(
            fraction_dist(x, y, masses), fraction_dist(x, y, U.masses))
        report = dispersion_rho(D)
        assert (report.rho, report.dim, report.cell) == fraction_dispersion(masses, k, m)
        step = k ** (m - 1)
        assert marginal_first(D).masses == tuple(
            sum(masses[u::step], Fraction(0)) for u in range(step))
        assert granularise(D).counts == fraction_granularise(masses)
        E = Pmf.random_grains(D.n, rng.randrange(1, 2 * D.n), rng)
        assert tv_distance(D, E) == fraction_tv_distance(masses, E.masses)


def test_random_grains_match_the_reference_draw():
    for rng, k, m, D in _oracle_cases(50):
        grains = rng.randrange(1, 3 * D.n)
        ref = random.Random()
        ref.setstate(rng.getstate())
        E = Pmf.random_grains(D.n, grains, rng, shape=(k, m))
        F = Pmf.from_weights(_reference_grains(ref, D.n, grains), grains, shape=(k, m))
        assert E == F
        assert rng.getstate() == ref.getstate()


def test_sampler_table_matches_fraction_table_on_random_grains():
    for _, _, _, D in _oracle_cases():
        table = fraction_sampler_table(D.masses)
        assert D._table() == table
        assert table[-1] == 2 ** 64
        seed = D.n * 7919 + D.denom
        rng, ref = random.Random(seed), random.Random(seed)
        assert [D.sample(rng) for _ in range(1000)] == \
            [bisect_right(table, ref.getrandbits(64)) for _ in range(1000)]


@pytest.mark.parametrize("config_seed", [1, 2, 6, 9, 57])
def test_factor_circuit_matches_fraction_bounds(config_seed):
    D, _ = gen_product_fixture(2, 4, "dyadic-random", rng=_setup_rng(config_seed))
    for factor in [*D.factors, Pmf.point_mass(0, 2), Pmf.uniform(4),
                   Pmf(["1/8", "3/8", "1/4", "1/4"])]:
        assert _factor_table(factor) == factor_circuit_table(factor.masses)
