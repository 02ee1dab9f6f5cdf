"""The end-to-end pipelines: claim generation, the sampled-constraint
extension, and the distribution-aware recursion -- honest runs and a
Monte-Carlo soundness estimate against certified-far instances.

Run:  python3 demos/nc_pipeline.py
"""

import random
from fractions import Fraction

from dfipp import InputTensor, Pmf, PrimeField, PvalInstance, dispersion_rho, \
    dist_to_pval_bruteforce
from dfipp.protocols import (ClaimGenerator, HonestFoldProver, ScriptedClaimsProver,
                             run_df_ipp_nc, run_dispersed_ipp_nc)
from dfipp.tensors import INF, enumerate_pval, hybrid_dist

rng = random.Random(1)
F17 = PrimeField(17)
F5 = PrimeField(5)

print("== honest pipeline: claims -> fresh samples -> uniform recursion ==")
X = InputTensor.random(F17, 2, 4, rng)
U = Pmf.uniform(16, shape=(2, 4))
res = run_df_ipp_nc(X, U, Fraction(1, 2), ClaimGenerator(),
                    HonestFoldProver(X), seed=0)
print(f"accepted={res.verdict.accepted}, samples={res.ledger.samples} "
      f"(= ceil(3/eps)), queries={res.ledger.queries}")

print()
print("== a skewed but smooth distribution: the dispersed pipeline ==")
D = Pmf([Fraction(3, 32) if i % 2 else Fraction(1, 32) for i in range(16)],
        shape=(2, 4))
print("dispersion rho =", dispersion_rho(D).rho)
res = run_dispersed_ipp_nc(X, D, dispersion_rho(D).rho, Fraction(1, 2), ClaimGenerator(),
                           HonestFoldProver(X), seed=0, r=1)
print(f"accepted={res.verdict.accepted}; {res.notes[0]}")

print()
print("== soundness: a certified-far instance against the optimal adversary ==")
U5 = Pmf.uniform(4, shape=(2, 2))
while True:
    Xf = InputTensor.random(F5, 2, 2, rng)
    pts = tuple(F5.rand_point(2, rng) for _ in range(2))
    vals = tuple(rng.randrange(5) for _ in range(2))
    inst = PvalInstance(F5, 2, 2, pts, vals)
    mu = dist_to_pval_bruteforce(Xf, inst, ("hybrid", U5, U5))
    if mu != INF and mu >= Fraction(2, 5):
        break
print("brute-force certified: mu_{D,U}(X, PVAL) =", mu)
best, best_d = None, None
for w in enumerate_pval(inst):
    d = hybrid_dist(Xf.data, w, U5, U5)
    if best_d is None or d < best_d:
        best, best_d = w, d
W = InputTensor(F5, 2, 2, best)
print("the adversary commits to the closest member, at distance", best_d)
rejects = 0
trials = 200
gen = ClaimGenerator(points=inst.points)  # the adversary answers the fixed v
prover = ScriptedClaimsProver(HonestFoldProver(W), inst.values, F5.bits)
for seed in range(trials):
    r = run_df_ipp_nc(Xf, U5, mu * Fraction(99, 100), gen, prover, seed)
    rejects += not r.verdict.accepted
print(f"empirical reject rate: {rejects}/{trials}")
