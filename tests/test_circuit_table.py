"""SamplingCircuit.table, the circuit's memoised truth table: it equals per-input
evaluation, eval_many read from it equals the bitsliced pass, it leaves == and
hash alone, and over the input budget it is refused before any evaluation, which
no set-lower-bound session then reaches."""

import random
from fractions import Fraction

import pytest

from _oracles import circuit_eval
from dfipp import distributions, product
from dfipp.distributions import CIRCUIT_INPUT_BUDGET, SamplingCircuit
from dfipp.product import (FIXTURE_PROFILES, HonestSlbProver, MarginalClaim,
                           gen_product_fixture, run_set_lower_bound, slb_preimages)
from dfipp.tensors import BudgetExceeded


def _twin(C):
    """An equal circuit with no memo, so its eval_many runs the bitsliced pass."""
    return SamplingCircuit(C.n_inputs, C.gates, C.outputs)


def _random_circuit(rng):
    n_inputs = rng.randrange(1, 9)
    gates = []
    for wires in range(n_inputs, n_inputs + rng.randrange(40)):
        op = rng.choice(("AND", "XOR", "NOT"))
        gates.append((op, rng.randrange(wires)) if op == "NOT"
                     else (op, rng.randrange(wires), rng.randrange(wires)))
    n_wires = n_inputs + len(gates)
    return SamplingCircuit(n_inputs, tuple(gates),
                           tuple(rng.randrange(n_wires) for _ in range(rng.randrange(6))))


def _circuits():
    """{test id: circuit}: identities, every fixture profile, random gate lists."""
    circuits = {f"identity{n}": SamplingCircuit.identity(n) for n in (0, 1, 5, 9)}
    for profile in FIXTURE_PROFILES:
        for seed in range(3):
            circuits[f"{profile}-{seed}"] = gen_product_fixture(
                2, 3, profile, rng=random.Random(seed))[1]
    rng = random.Random(31)
    circuits.update((f"random-{i}", _random_circuit(rng)) for i in range(25))
    return circuits


CIRCUITS = _circuits()
RANDOM = [name for name in CIRCUITS if name.startswith("random-")][:10]


@pytest.mark.parametrize("C", CIRCUITS.values(), ids=CIRCUITS.keys())
def test_table_equals_per_input_eval(C):
    inputs = range(1 << C.n_inputs)
    per_input = [_twin(C).eval(x) for x in inputs]
    assert per_input == [circuit_eval(C, x) for x in inputs]
    assert C.table == tuple(per_input)
    assert C.table is C.table  # built once


@pytest.mark.parametrize("name", RANDOM + ["dyadic-random-0"])
def test_eval_many_from_the_table_equals_the_bitsliced_pass(name, monkeypatch):
    C = _twin(CIRCUITS[name])
    rng = random.Random(C.n_inputs)
    size = 1 << C.n_inputs
    # bits above n_inputs are ignored, negatives in two's complement
    wide = [rng.getrandbits(70) for _ in range(50)] + [size, size + 3, -1, -size - 2]
    batches = [wide, tuple(wide), range(3, 2 * size + 5), [], ()]
    sliced = [_twin(C).eval_many(xs) for xs in batches]
    sliced.append(_twin(C).eval_many(iter(wide)))
    assert "table" not in C.__dict__
    C.table
    monkeypatch.setattr(distributions, "_bit_planes", None)  # served: no bitsliced pass
    served = [C.eval_many(xs) for xs in batches] + [C.eval_many(x for x in wide)]
    assert served == sliced
    assert served[-1] == sliced[0] and served[3] == served[4] == []
    assert [C.eval(x) for x in wide] == sliced[0]


def test_table_keeps_equality_and_hash():
    C = gen_product_fixture(2, 3, "dyadic-random", rng=random.Random(4))[1]
    twin = _twin(C)
    before = hash(C)
    C.table
    assert "table" in C.__dict__ and "table" not in twin.__dict__
    assert C == twin and hash(C) == hash(twin) == before
    assert len({C, twin}) == 1
    assert repr(C) == repr(twin)


def test_over_budget_table_is_refused_before_any_evaluation(monkeypatch):
    C = SamplingCircuit.identity(CIRCUIT_INPUT_BUDGET + 1)
    evaluated = []
    monkeypatch.setattr(distributions, "_bit_planes", lambda *a: evaluated.append(a))
    with pytest.raises(BudgetExceeded, match="exceeds exhaustive budget"):
        C.table
    assert evaluated == [] and "table" not in C.__dict__


def test_set_lower_bound_over_budget_never_builds_the_table(monkeypatch):
    # a witness union that covers every input is read from the table only within
    # the budget; past it the session evaluates the witnesses and ends in a verdict
    ell = 4
    claim = MarginalClaim((Fraction(1, 1 << ell),) * (1 << ell), Fraction(1, 1000),
                          Fraction(1, 20))
    prover = HonestSlbProver(slb_preimages(SamplingCircuit.identity(ell), lambda y: y))
    inside = SamplingCircuit.identity(ell)
    within = run_set_lower_bound(inside, claim, prover, 7, bucket_bits=0)
    assert "table" in inside.__dict__  # bucket_bits = 0: every preimage is a witness
    for module in (distributions, product):
        monkeypatch.setattr(module, "CIRCUIT_INPUT_BUDGET", ell - 1)
    C = SamplingCircuit.identity(ell)
    with pytest.raises(BudgetExceeded):
        C.table
    over = run_set_lower_bound(C, claim, prover, 7, bucket_bits=0)
    assert "table" not in C.__dict__
    assert over.verdict.accepted
    assert (over.verdict, over.ledger, over.transcript) == \
        (within.verdict, within.ledger, within.transcript)
