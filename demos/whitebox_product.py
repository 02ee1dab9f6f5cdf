"""The white-box path: a product distribution handed to the verifier as a
sampling circuit, marginals certified by parallel set-lower-bound proofs,
granular extensions, and the extended folding recursion.

Run:  python3 demos/whitebox_product.py
"""

import random
from fractions import Fraction

from dfipp import InputTensor, Pmf, PrimeField, PvalInstance, circuit_pmf, \
    dispersion_rho, granularise, lde_eval
from dfipp.product import (HonestSlbProver, MarginalClaim, WhiteboxFoldProver,
                           coordinate_preimages, gen_product_fixture, run_set_lower_bound,
                           run_whitebox_product_ipp, slb_preimages)

rng = random.Random(2)
F17 = PrimeField(17)

print("== a dyadic product distribution and its exact sampling circuit ==")
D, circuit = gen_product_fixture(2, 4, "row-concentrated")
print("factors:", [[str(v) for v in f.masses] for f in D.factors])
print("circuit: ", circuit.n_inputs, "input bits,", len(circuit.gates), "gates")
print("circuit law == joint law:", circuit_pmf(circuit).masses == D.joint_pmf().masses)
print("dispersion of the joint:", dispersion_rho(D.joint_pmf()).rho,
      "(concentrated rows are the bad case for the black-box recursion)")

print()
print("== the set lower bound certifies claimed marginals against the circuit ==")
honest = MarginalClaim((Fraction(1, 4),) * 4, Fraction(1, 1000), Fraction(1, 20))
c4 = gen_product_fixture(4, 1, "uniform")[1]
preimages = slb_preimages(c4, lambda y: y)  # one table for every prover of this circuit
res = run_set_lower_bound(c4, honest, HonestSlbProver(preimages), seed=0)
print("honest uniform claims accepted:", res.verdict.accepted)
inflated = MarginalClaim((Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 4)),
                         Fraction(1, 1000), Fraction(1, 20))
res = run_set_lower_bound(c4, inflated, HonestSlbProver(preimages), seed=0)
print("inflated claim rejected:       ", not res.verdict.accepted,
      f"({res.verdict.reject_reason})")

print()
print("== granularisation turns learned marginals into integer row counts ==")
claims = Pmf([Fraction(3, 4), Fraction(1, 4)])
grains = granularise(claims)
print("granularities of an 8k-grained distribution:", grains.counts,
      "(the last entry is the appended zero row)")

print()
print("== the full white-box protocol: zero sample-oracle calls ==")
X = InputTensor.random(F17, 2, 4, rng)
pts = tuple(F17.rand_point(4, rng) for _ in range(2))
inst = PvalInstance(F17, 2, 4, pts, tuple(lde_eval(X, p) for p in pts))
# the prover builds one preimage table per round it is asked: here r = 1, so one
prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, X.k, X.m))
res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 1, prover, seed=0)
print(f"accepted={res.verdict.accepted}, queries={res.ledger.queries}, "
      f"samples={res.ledger.samples}, messages={res.ledger.messages}")
for note in res.notes:
    print("  ", note)
