"""Polynomial folding and the recursive PVAL protocol, with the exact cost
ledger narrated: bounded locality, message counts, and the leaf spot checks.

Run:  python3 demos/folding_and_recursion.py
"""

import random
from fractions import Fraction

from dfipp import InputTensor, Pmf, PrimeField, ProverStrategy, PvalInstance, Session, \
    lde_eval, pval_member
from dfipp.protocols import (HonestFoldProver, RowTamperFoldProver, folded_eval,
                             run_fin_ipp, run_poly_fold)

rng = random.Random(3)
F17 = PrimeField(17)

X = InputTensor.random(F17, 2, 4, rng)
points = tuple(F17.rand_point(4, rng) for _ in range(3))
inst = PvalInstance(F17, 2, 4, points, tuple(lde_eval(X, p) for p in points))

print("== one folding round: a claim in F^(2^4) becomes claims in F^(2^3) ==")
result, outputs = run_poly_fold(X, inst, kappa=1, prover=HonestFoldProver(X), seed=0)
print("verifier verdict:", result.verdict.accepted)
for st in outputs:
    z = st.zs[0]
    folded = tuple(sum(z[i] * X.row(i)[u] for i in range(2)) % 17 for u in range(8))
    child = InputTensor(F17, 2, 3, folded)
    member = pval_member(child, PvalInstance(F17, 2, 3, st.points, st.values))
    print(f"  class a={st.weights[0]}: |support| = tau = {st.tau}, "
          f"folded tensor still a member: {member}")

print()
print("== bounded locality: one folded coordinate costs exactly tau queries ==")
st = outputs[0]
session = Session(ProverStrategy(), 0, X.data)
folded_eval(session, X, st, 0)
print(f"queries issued: {session.ledger.queries} (tau = {st.tau})")

print()
print("== tampering with one matrix entry trips the column consistency check ==")
bad, _ = run_poly_fold(X, inst, kappa=1, prover=RowTamperFoldProver(X, row=0), seed=0)
print("verdict:", bad.verdict)

print()
print("== the full recursion: r rounds, 2r+1 messages, then leaf checks ==")
U = Pmf.uniform(16, shape=(2, 4))
for r in (1, 2, 3):
    res = run_fin_ipp(X, inst, U, 1, Fraction(1, 2), r, HonestFoldProver(X), seed=5)
    print(f"r={r}: accepted={res.verdict.accepted}, messages={res.ledger.messages}, "
          f"queries={res.ledger.queries}, samples={res.ledger.samples}")
    for note in res.notes:
        if note.startswith("leaf"):
            print("   ", note)
