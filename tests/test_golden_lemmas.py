"""Golden hashes of `dfipp check-lemma` reports and of the demo outputs.

Every lemma suite draws its instances from a seeded rng, so a change that
claims to alter no report must leave these sha256 digests alone.  Each of
the nine suites is pinned at a small trial count and two seeds; budget
refusals pin exit code 3 and the stderr line; each demo script is run as a
subprocess and its stdout pinned.  The suite reports only print counts, so
the exact sides of the preservation inequalities and the full folding-claim
reports are pinned too, over a fixed stream of instances.
"""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from dfipp.cli import main
from dfipp.distributions import Pmf, granularise
from dfipp.experiments import LEMMA_CHECKS, _consistent_matrix, _random_shaped_pmf
from dfipp.field import InputTensor, PrimeField
from dfipp.product import check_product_dpl, gen_product_fixture
from dfipp.protocols import check_appendix_claims, check_distance_preservation, fold_kappa
from dfipp.tensors import PvalInstance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRIALS = {
    "epsilons": 20,
    "dpl_product": 16,
    "linSub": 8,
    "grainer-claim": 300,
    "grainer-distance": 200,
    "fold_dispersed": 30,
    "tvineq": 200,
    "rr20_min_dist": 40,
    "appendix-a": 60,
}
SEEDS = (3, 11)

# (lemma, seed) -> sha256 of the `dfipp check-lemma` stdout
GOLDEN_LEMMAS = {
    "epsilons/3":
        "9e813bc66fd9f499ad11b2fa604b342455acb4e68b03165889b76695184d0820",
    "epsilons/11":
        "879c3cad1f386689f51cea7bb0e7c2999858b63b95c60370e352e73acb933449",
    "dpl_product/3":
        "6cf0462157684232c916a0246da03957b49d8e2dc889463457ae081a3cb05efc",
    "dpl_product/11":
        "708690d8a48a18032519fa5277f4e8906d247db4611656fb2d4c6c946fb3eef0",
    "linSub/3":
        "9d0780ea9f7583d47090e1339a0eb353f7a6304e300130f7ef32d674a66f646b",
    "linSub/11":
        "9d0780ea9f7583d47090e1339a0eb353f7a6304e300130f7ef32d674a66f646b",
    "grainer-claim/3":
        "087910c1bb2633bf622ecc01c70d9dfab7b3e7f322af814397a4509b2cbcabb8",
    "grainer-claim/11":
        "087910c1bb2633bf622ecc01c70d9dfab7b3e7f322af814397a4509b2cbcabb8",
    "grainer-distance/3":
        "c37baa007178f34c084c976c42b146369a0c9b5c75235a598a7cd22ad1259d80",
    "grainer-distance/11":
        "c37baa007178f34c084c976c42b146369a0c9b5c75235a598a7cd22ad1259d80",
    "fold_dispersed/3":
        "f6a7cad9a8c12834cefd6263b86440e4cb03663292973f530f0fcff8f735e899",
    "fold_dispersed/11":
        "f6a7cad9a8c12834cefd6263b86440e4cb03663292973f530f0fcff8f735e899",
    "tvineq/3":
        "ed6175a179ed177b446524414f937274d524d021dc554fe87c8c038306ac2907",
    "tvineq/11":
        "ed6175a179ed177b446524414f937274d524d021dc554fe87c8c038306ac2907",
    "rr20_min_dist/3":
        "b977e306b0ddd4d4a4309f4a2691e5f47439d72dcd374f0d4280e1fc846b31b8",
    "rr20_min_dist/11":
        "b977e306b0ddd4d4a4309f4a2691e5f47439d72dcd374f0d4280e1fc846b31b8",
    "appendix-a/3":
        "ed0fd31ce2931b55f5391c0dc7a91c78c860a71d26eb44aecb42f84aea6ac108",
    "appendix-a/11":
        "ed0fd31ce2931b55f5391c0dc7a91c78c860a71d26eb44aecb42f84aea6ac108",
}

# demo script -> sha256 of its stdout
GOLDEN_DEMOS = {
    "folding_and_recursion.py":
        "aef60374031e0d59a6f0245941e54975291b0fca805867d2a66bb935080b7259",
    "lde_and_pval.py":
        "2fe625764cf4489ecd2b24b927fa7f863cb853d07f9e725b4b53c0edf5894573",
    "lemma_checks.py":
        "3418077156b8f422566d11261c48504e2992ccd5cf995fe7d25c16aa4d3dc870",
    "nc_pipeline.py":
        "9f3e5f25fe4f426d18cf41ea51839bd974b5740d24295c8696b6092d7764b99f",
    "weight_protocol.py":
        "36645b94b4b930b5449b4200a17da56ee34bbb95f0a85b77bfc4dacce059da8d",
    "whitebox_product.py":
        "e3b48cb7abf3fd9b2c77e772a8816e81bb4f2d6dc1b3bf4e43837d08fb5ff925",
}

# sha256 of the repr of every (vacuous, holds, lhs, rhs) or appendix report
GOLDEN_INEQUALITIES = "765e967bde6dcf441331f442548a4c86f87c2cbde19435e227d2b44dac9b2ac2"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("lemma,seed", [(lemma, seed) for lemma in TRIALS for seed in SEEDS])
def test_golden_check_lemma_report(lemma, seed):
    code, out, _err = _cli(["check-lemma", lemma, "--trials", str(TRIALS[lemma]),
                            "--seed", str(seed)])
    assert code == 0
    assert _sha(out.encode()) == GOLDEN_LEMMAS[f"{lemma}/{seed}"]


def test_golden_budget_refusal():
    code, out, err = _cli(["check-lemma", "epsilons", "--trials", "5", "--budget", "10"])
    assert code == 3
    assert out == ""
    assert err == ('{"status": "refused", "reason": '
                   '"|F|^(k^m) = 5^4 exceeds enumeration budget 10"}\n')


@pytest.mark.parametrize("lemma", ["dpl_product", "rr20_min_dist", "appendix-a"])
def test_budget_refusal_before_any_output(lemma):
    code, out, err = _cli(["check-lemma", lemma, "--trials", "5", "--budget", "10"])
    assert (code, out) == (3, "")
    assert err == ('{"status": "refused", "reason": '
                   '"|F|^(k^m) = 5^4 exceeds enumeration budget 10"}\n')


def test_every_suite_has_a_golden_pin():
    assert set(TRIALS) == set(LEMMA_CHECKS)


@pytest.mark.parametrize("demo", sorted(GOLDEN_DEMOS))
def test_golden_demo_output(demo):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    env.pop("DFIPP_BUDGET", None)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=ROOT,
                          env=env, capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert _sha(proc.stdout) == GOLDEN_DEMOS[demo]


def _instance_stream(seed: int, count: int):
    """count (X, J, v, Y) draws over F_5, k = m = 2, each passing the step-1 checks."""
    rng = random.Random(seed)
    field = PrimeField(5)
    while count:
        X = InputTensor.random(field, 2, 2, rng)
        points = tuple(field.rand_point(2, rng) for _ in range(2))
        values = tuple(rng.randrange(5) for _ in range(2))
        inst = PvalInstance(field, 2, 2, points, values)
        got = _consistent_matrix(field, 2, inst, rng)
        if got is not None:
            count -= 1
            yield X, inst, got[0], rng


def test_golden_inequality_sides():
    out = []
    for X, inst, Y, rng in _instance_stream(5, 12):
        D = _random_shaped_pmf(2, 2, rng)
        rep = check_distance_preservation(X, D, Y, inst)
        out.append((rep.vacuous, rep.holds) + ((rep.lhs, rep.rhs) if not rep.vacuous else ()))
        P, _circuit = gen_product_fixture(2, 2, "dyadic-random", rng=rng)
        B = granularise(Pmf(list(P.factors[0].masses)))
        rep = check_product_dpl(X, list(P.factors), Y, B, inst, Fraction(1, 1000))
        out.append((rep.vacuous, rep.holds) + ((rep.lhs, rep.rhs) if not rep.vacuous else ()))
    for X, inst, Y, rng in _instance_stream(6, 3):
        D = _random_shaped_pmf(2, 2, rng)
        rep = check_appendix_claims(X, D, Y, inst, fold_kappa(2, 2), 40, rng.getrandbits(63))
        out.append(sorted(rep.items()))
    assert _sha(repr(out).encode()) == GOLDEN_INEQUALITIES
