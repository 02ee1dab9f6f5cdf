import math
import random
from fractions import Fraction

import pytest

from _instances import certified_far_instance, closest_member, member_instance
from dfipp.field import InputTensor, PrimeField, lde_eval
from dfipp.tensors import PvalInstance, dist_to_pval_bruteforce, enumerate_pval, \
    pval_member
from dfipp.distributions import Pmf, dispersion_rho
from dfipp.session import ProverStrategy, Session, Verdict
from dfipp.protocols import (BadSumHamProver, ClaimGenerator, CorrectorHandle,
                             HonestFoldProver, HonestHamProver, RandomLieFoldProver,
                             RowTamperFoldProver, ScriptedClaimsProver, blr_linearity_ipp,
                             check_appendix_claims,
                             check_distance_preservation, check_subspace_lemma,
                             fold_kappa, folded_eval,
                             generate_pval_claims, hadamard_codeword, hadamard_corrector,
                             run_df_ipp_nc, run_dispersed_ipp_nc, run_fin_ipp, run_ham_ipp,
                             run_poly_fold, run_rlcc_transform, run_symmetric_ipp,
                             weight_classes, NullProver)
from dfipp.session import run_session

F5 = PrimeField(5)
F17 = PrimeField(17)
U4 = Pmf.uniform(4)


# --- HAM -----------------------------------------------------------------------

def test_ham_perfect_completeness():
    x = (1, 0, 1, 0)
    for seed in range(50):
        res = run_ham_ipp(x, U4, 2, Fraction(1, 4), HonestHamProver(x), seed)
        assert res.verdict.accepted


def test_ham_no_queries_only_samples():
    x = (1, 0, 1, 0)
    res = run_ham_ipp(x, U4, 2, Fraction(1, 4), HonestHamProver(x), 7)
    assert res.ledger.queries == 0
    assert res.ledger.samples == math.ceil(2 / Fraction(1, 4))


def test_ham_bad_sum_rejected_at_root():
    x = (1, 0, 1, 0)
    res = run_ham_ipp(x, U4, 2, Fraction(1, 4), BadSumHamProver(x), 3)
    assert res.verdict == Verdict(False, "sum")


def test_ham_committed_adversary_caught():
    # X = 0000 vs committed Y of weight 2: per-iteration catch prob >= 1/2
    x = (0, 0, 0, 0)
    y = (1, 1, 0, 0)
    rejects = 0
    trials = 400
    for seed in range(trials):
        res = run_ham_ipp(x, U4, 2, Fraction(1, 4), HonestHamProver(y), seed)
        if not res.verdict.accepted:
            rejects += 1
            assert res.verdict.reject_reason == "leaf"
    # one run has ceil(2/eps) = 8 iterations; accept prob (1/2)^8
    assert rejects / trials >= 0.95


def test_ham_range_check():
    class RangeViolatingProver(HonestHamProver):
        def reply(self, tag, payload):
            if tag == "ham/split":
                lo, hi, mid = payload
                width = self.width
                bogus = mid - lo + 2  # exceeds |I0|
                return [((bogus, (self.weight(1, self.n) - bogus) % (1 << width)),
                         width)]
            return super().reply(tag, payload)

    x = (1, 1, 1, 1)
    res = run_ham_ipp(x, U4, 4, Fraction(1, 2), RangeViolatingProver(x), 0)
    assert not res.verdict.accepted
    assert res.verdict.reject_reason in ("range", "sum")


def test_ham_range_check_alone_refuses_an_overloaded_unsampled_cell():
    # weight 5 over 1111, two of it on cell 0, which D never samples: every sum check
    # holds and every sampled leaf is true, so only the range check can reject
    x = (1, 1, 1, 1)
    D = Pmf([0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])
    for seed in range(20):
        res = run_ham_ipp(x, D, 5, Fraction(1, 4), HonestHamProver((2, 1, 1, 1)), seed)
        assert res.verdict == Verdict(False, "range")


def extract_committed_string(prover, n: int, w: int) -> list[int]:
    """Walk every binary-descent path and read off the implied leaf string.

    For any path-consistent strategy that passes all sum/range checks, the
    implied string has Hamming weight exactly w.
    """
    out = []
    for i in range(1, n + 1):
        lo, hi, v = 1, n, w
        while lo < hi:
            mid = (lo + hi) // 2
            h0, h1 = prover.reply("ham/split", (lo, hi, mid))[0][0]
            if i <= mid:
                hi, v = mid, h0
            else:
                lo, v = mid + 1, h1
        out.append(v)
    return out


def test_ham_implied_string_has_weight_w():
    # any split-consistent strategy that passes sum/range checks commits to
    # a string of weight exactly w
    for committed in [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0, 1, 0, 0, 0)]:
        n, w = len(committed), sum(committed)
        prover = HonestHamProver(committed)
        implied = extract_committed_string(prover, n, w)
        assert tuple(implied) == committed
        assert sum(implied) == w


def test_symmetric_completeness_and_gate():
    x = (1, 1, 0, 0)
    res = run_symmetric_ipp(x, U4, lambda w: w % 2 == 0, Fraction(1, 2),
                            HonestHamProver(x), 1)
    assert res.verdict.accepted

    class OddClaimingProver(HonestHamProver):
        def reply(self, tag, payload):
            if tag == "ham/weight":
                return [((3,), self.width)]
            return super().reply(tag, payload)

    res = run_symmetric_ipp(x, U4, lambda w: w % 2 == 0, Fraction(1, 2),
                            OddClaimingProver(x), 1)
    assert res.verdict == Verdict(False, "predicate")
    assert res.ledger.samples == 0  # rejected before sampling


def test_symmetric_far_input_rejected():
    # predicate: weight == n; X = 0^n is 1-far under the full-support uniform D
    n = 8
    x = (0,) * n
    y = (1,) * n
    rejects = 0
    for seed in range(100):
        res = run_symmetric_ipp(x, Pmf.uniform(n), lambda w: w == n, Fraction(1, 2),
                                HonestHamProver(y), seed)
        if not res.verdict.accepted:
            rejects += 1
    assert rejects == 100  # every sampled leaf disagrees


# --- claim generation ------------------------------------------------------------

def run_claims(gen, X, eps, seed, prover=None):
    holder = {}

    def verifier(session):
        holder["inst"] = generate_pval_claims(session, gen, X.field, X.k, X.m, eps)
        from dfipp.session import ACCEPT
        return ACCEPT

    verdict, ledger, transcript, notes = run_session(
        verifier, prover or HonestFoldProver(X), seed, X.data)
    return holder["inst"], ledger, transcript


def test_honest_claims_always_member():
    rng = random.Random(0)
    X = InputTensor.random(F17, 2, 4, rng)
    gen = ClaimGenerator()
    for seed in range(1000):
        inst, _, _ = run_claims(gen, X, Fraction(1, 2), seed)
        assert pval_member(X, inst)


def test_honest_claim_count_formula():
    rng = random.Random(1)
    X = InputTensor.random(F17, 2, 4, rng)  # n = 16
    gen = ClaimGenerator()
    inst, _, _ = run_claims(gen, X, Fraction(1, 2), 0)
    assert len(inst.points) == math.ceil(4 * Fraction(1, 2) * 16 * math.log2(16))


def test_claim_points_uniform_chi_square():
    rng = random.Random(2)
    X = InputTensor.random(F5, 2, 2, rng)
    gen = ClaimGenerator(t=1)
    counts = {}
    draws = 10 ** 4
    for seed in range(draws):
        inst, _, _ = run_claims(gen, X, Fraction(1, 2), seed)
        counts[inst.points[0]] = counts.get(inst.points[0], 0) + 1
    bins = 25
    expected = draws / bins
    chi2 = sum((counts.get((a, b), 0) - expected) ** 2 / expected
               for a in range(5) for b in range(5))
    df = bins - 1
    assert chi2 <= df + 5 * math.sqrt(2 * df)


def test_adversarial_claims_fixed():
    rng = random.Random(3)
    X = InputTensor.random(F5, 2, 2, rng)
    points = ((1, 2),)
    values = ((lde_eval(X, points[0]) + 1) % 5,)
    gen = ClaimGenerator(points=points)
    prover = ScriptedClaimsProver(HonestFoldProver(X), values, F5.bits)
    inst, _, _ = run_claims(gen, X, Fraction(1, 2), 9, prover)
    assert inst.points == points and inst.values == values
    assert not pval_member(X, inst)


# --- polynomial folding ------------------------------------------------------------

def test_poly_fold_honest_outputs_are_members():
    rng = random.Random(4)
    for seed in range(30):
        X, inst = member_instance(F17, 2, 3, rng)
        result, outputs = run_poly_fold(X, inst, kappa=1, prover=HonestFoldProver(X), seed=seed)
        assert result.verdict.accepted
        for st in outputs:
            z = st.zs[0]
            folded = tuple(
                sum(z[i] * X.row(i)[u] for i in range(2)) % 17
                for u in range(4))
            child = InputTensor(F17, 2, 2, folded)
            assert pval_member(child, PvalInstance(F17, 2, 2, st.points, st.values))


def test_poly_fold_tamper_rejected():
    rng = random.Random(5)
    X, inst = member_instance(F17, 2, 3, rng)
    # a tampered entry in a constrained column breaks the column LDE check
    j2_first = inst.points[0][1:]
    result, outputs = run_poly_fold(X, inst, kappa=1,
                                    prover=RowTamperFoldProver(X, row=0, col=0), seed=0)
    assert result.verdict == Verdict(False, "fold-consistency")
    assert outputs is None


def test_weight_classes_formula_and_clamps():
    # k=4, kappa=1: ceil(log2(4)) = 2 classes + 1
    assert weight_classes(4, 1) == [(1, 2), (2, 4), (3, 4)]
    # kappa >= k degenerates to two full-weight classes
    assert weight_classes(2, 8) == [(1, 2), (2, 2)]


def test_nonpositive_kappa_is_a_value_error():
    # kappa <= 0 never reaches kappa * 2^e >= k; it must raise, not loop
    with pytest.raises(ValueError):
        weight_classes(4, 0)
    X, inst = member_instance(F17, 2, 3, random.Random(4))
    for kappa in (0, -1):
        with pytest.raises(ValueError):
            run_poly_fold(X, inst, kappa=kappa, prover=HonestFoldProver(X), seed=0)


def test_bounded_locality_exact():
    rng = random.Random(6)
    X, inst = member_instance(F17, 4, 2, rng)
    result, outputs = run_poly_fold(X, inst, kappa=1, prover=HonestFoldProver(X), seed=1)
    assert result.verdict.accepted
    for st in outputs:
        a = st.weights[0]
        target = 2 ** a * 1
        expected = min(max(target, 1), 4)
        assert len(st.supports[0]) == expected == st.tau
        session = Session(ProverStrategy(), 0, X.data)
        folded_eval(session, X, st, 0)
        assert session.ledger.queries == st.tau


# --- FinIPP ---------------------------------------------------------------------

def test_fin_ipp_perfect_completeness_both_configs():
    rng = random.Random(7)
    for field, k, m in [(F17, 2, 4), (F5, 2, 2)]:
        D = Pmf.uniform(k ** m, shape=(k, m))
        for seed in range(100):
            X, inst = member_instance(field, k, m, rng)
            res = run_fin_ipp(X, inst, D, 1, Fraction(1, 2), 1,
                              HonestFoldProver(X), seed)
            assert res.verdict.accepted


def test_fin_ipp_message_count_is_2r_plus_1():
    rng = random.Random(8)
    X, inst = member_instance(F17, 2, 4, rng)
    D = Pmf.uniform(16, shape=(2, 4))
    for r in (1, 2, 3):
        res = run_fin_ipp(X, inst, D, 1, Fraction(1, 2), r,
                          HonestFoldProver(X), 0)
        assert res.verdict.accepted
        assert res.ledger.messages == 2 * r + 1


def test_fin_ipp_query_count_matches_leaf_formula():
    rng = random.Random(9)
    X, inst = member_instance(F17, 2, 4, rng)
    D = Pmf.uniform(16, shape=(2, 4))
    res = run_fin_ipp(X, inst, D, 1, Fraction(1, 2), 2,
                      HonestFoldProver(X), 5)
    assert res.verdict.accepted
    expected = 0
    for note in res.notes:
        if note.startswith("leaf "):
            fields = dict(part.split("=") for part in note.split()[1:])
            expected += 2 * int(fields["nq"]) * int(fields["tau"])
    assert expected > 0
    assert res.ledger.queries == expected


def test_fin_ipp_sample_accounting_oracle_mode():
    rng = random.Random(10)
    X, inst = member_instance(F5, 2, 2, rng)
    D = Pmf.uniform(4, shape=(2, 2))
    res = run_fin_ipp(X, inst, D, 1, Fraction(1, 2), 1,
                      HonestFoldProver(X), 3)
    assert res.verdict.accepted
    total_nq = sum(int(dict(part.split("=") for part in note.split()[1:])["nq"])
                   for note in res.notes if note.startswith("leaf "))
    assert res.ledger.samples == total_nq


def test_fin_ipp_soundness_fixed_alternative():
    rng = random.Random(11)
    D = Pmf.uniform(4, shape=(2, 2))
    X, inst, mu = certified_far_instance(F5, 2, 2, rng, D)
    eps = mu * Fraction(99, 100)
    W = closest_member(X, inst, D)
    trials = 200
    rejects = 0
    for seed in range(trials):
        res = run_fin_ipp(X, inst, D, 1, eps, 1, HonestFoldProver(W), seed)
        if not res.verdict.accepted:
            rejects += 1
    sigma = math.sqrt(0.25 / trials)
    assert rejects / trials >= 0.5 - 3 * sigma


def test_fin_ipp_random_lie_prover_rejected():
    rng = random.Random(12)
    X, inst = member_instance(F5, 2, 2, rng)
    D = Pmf.uniform(4, shape=(2, 2))
    rejects = 0
    for seed in range(50):
        prover = RandomLieFoldProver(X, 0.5, random.Random(seed + 1000))
        res = run_fin_ipp(X, inst, D, 1, Fraction(1, 2), 1, prover, seed)
        if not res.verdict.accepted:
            rejects += 1
    assert rejects >= 40



class SecondLeafCorrupter(HonestFoldProver):
    """Honest except for one cell of the second fin/leaves section."""

    def reply(self, tag, payload):
        sections = super().reply(tag, payload)
        if tag == "fin/leaves":
            values, width = sections[1]
            sections[1] = (((values[0] + 1) % self.field.modulus,) + values[1:], width)
        return sections


def test_fin_ipp_leaf_pval_verdicts_keep_tuple_order():
    # the first tuple's spot checks run before the second tuple's bad leaf is
    # rejected; ledger and notes are those of the per-tuple leaf loop
    rng = random.Random(31)
    X, inst = member_instance(F17, 2, 4, rng)
    res = run_fin_ipp(X, inst, Pmf.uniform(16, shape=(2, 4)), 1, Fraction(1, 2), 1,
                      SecondLeafCorrupter(X), 4)
    assert res.verdict == Verdict(False, "leaf-pval")
    assert (res.ledger.queries, res.ledger.samples) == (160, 40)
    assert res.notes == [
        "kappa = 8",
        "precondition violated (reported, not enforced): |F| <= 1/eps",
        "clamp: weight class a=1 target 16 clamped to 2 (k=2)",
        "clamp: weight class a=2 target 32 clamped to 2 (k=2)",
        "leaf weights=1 tau=2 nq=40 eps_r=1/4",
    ]


# --- df_ipp_nc --------------------------------------------------------------------

def test_df_ipp_nc_perfect_completeness():
    rng = random.Random(13)
    gen = ClaimGenerator()
    for seed in range(60):
        X = InputTensor.random(F17, 2, 4, rng)
        res = run_df_ipp_nc(X, Pmf.uniform(16, shape=(2, 4)), Fraction(1, 2), gen,
                            HonestFoldProver(X), seed)
        assert res.verdict.accepted


def test_df_ipp_nc_sample_accounting():
    rng = random.Random(14)
    X = InputTensor.random(F17, 2, 4, rng)
    gen = ClaimGenerator()
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
        res = run_df_ipp_nc(X, Pmf.uniform(16, shape=(2, 4)), eps, gen,
                            HonestFoldProver(X), 0)
        assert res.verdict.accepted
        # the uniform-PVAL stage draws no samples, so the total is exactly T
        assert res.ledger.samples == math.ceil(3 / eps)


def test_df_ipp_nc_adversarial_claims_rejected():
    rng = random.Random(15)
    D = Pmf.uniform(4, shape=(2, 2))
    X, inst, mu = certified_far_instance(F5, 2, 2, rng, D)
    eps = mu * Fraction(99, 100)
    gen = ClaimGenerator(points=inst.points)
    W = closest_member(X, inst, D)
    trials = 200
    rejects = 0
    for seed in range(trials):
        res = run_df_ipp_nc(X, D, eps, gen,
                            ScriptedClaimsProver(HonestFoldProver(W), inst.values, F5.bits), seed)
        if not res.verdict.accepted:
            rejects += 1
    sigma = math.sqrt(Fraction(1, 5) * Fraction(4, 5) / trials)
    assert rejects / trials >= Fraction(1, 5) - 3 * sigma


# --- dispersed_ipp_nc ----------------------------------------------------------------

def nonuniform_dispersed_pmf():
    masses = [Fraction(5, 16), Fraction(3, 16), Fraction(5, 16), Fraction(3, 16)]
    return Pmf(masses, shape=(2, 2))


def test_dispersed_ipp_nc_completeness_and_no_early_queries():
    rng = random.Random(16)
    D = nonuniform_dispersed_pmf()
    rho = dispersion_rho(D).rho
    gen = ClaimGenerator()
    for seed in range(60):
        X = InputTensor.random(F5, 2, 2, rng)
        res = run_dispersed_ipp_nc(X, D, rho, Fraction(1, 2), gen, HonestFoldProver(X), seed,
                                   r=1)
        assert res.verdict.accepted
        assert "queries before fin leaf phase: 0" in res.notes


def test_dispersed_ipp_nc_adversarial_rejected():
    rng = random.Random(17)
    D = nonuniform_dispersed_pmf()
    rho = dispersion_rho(D).rho
    X, inst, mu = certified_far_instance(F5, 2, 2, rng, D)
    eps = mu * Fraction(99, 100)
    gen = ClaimGenerator(points=inst.points)
    W = closest_member(X, inst, D)
    trials = 200
    rejects = 0
    for seed in range(trials):
        res = run_dispersed_ipp_nc(X, D, rho, eps, gen,
                                   ScriptedClaimsProver(HonestFoldProver(W), inst.values, F5.bits),
                                   seed, r=1)
        if not res.verdict.accepted:
            rejects += 1
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert rejects / trials >= 0.25 - 3 * sigma


# --- RLCC ------------------------------------------------------------------------------

def test_rlcc_codeword_accepts():
    bits = 4
    x = hadamard_codeword(0b1011, bits)
    D = Pmf.uniform(16)
    eps = Fraction(1, 8)
    for seed in range(100):
        res = run_rlcc_transform(x, D, blr_linearity_ipp(eps, bits),
                                 hadamard_corrector(bits), eps, NullProver(), seed)
        assert res.verdict.accepted


def test_rlcc_query_accounting():
    bits = 4
    x = hadamard_codeword(0b0110, bits)
    eps = Fraction(1, 8)
    res = run_rlcc_transform(x, Pmf.uniform(16), blr_linearity_ipp(eps, bits),
                             hadamard_corrector(bits), eps, NullProver(), 0)
    assert res.verdict.accepted
    blr_queries = 3 * math.ceil(2 / eps)
    corrector_queries = 4 * math.ceil(1 / eps) * 2
    assert res.ledger.queries == blr_queries + corrector_queries
    assert res.ledger.samples == 4 * math.ceil(1 / eps)


def test_rlcc_far_along_concentrated_distribution_rejected():
    # corrupt one point of a linearly dependent triple: no codeword agrees
    # with X on all of {s1, s2, s3 = s1 xor s2}, so X is 1/3-far along the
    # distribution concentrated there while staying 1/16-close uniformly
    bits = 4
    s1, s2 = 0b0011, 0b0101
    s3 = s1 ^ s2
    x = list(hadamard_codeword(0b1001, bits))
    x[s1] ^= 1
    masses = [Fraction(0)] * 16
    for s in (s1, s2, s3):
        masses[s] = Fraction(1, 3)
    D = Pmf(masses)
    eps = Fraction(1, 8)
    rejects = 0
    trials = 200
    for seed in range(trials):
        res = run_rlcc_transform(tuple(x), D, blr_linearity_ipp(eps, bits),
                                 hadamard_corrector(bits), eps, NullProver(), seed)
        if not res.verdict.accepted:
            rejects += 1
    assert rejects / trials >= 2 / 3 - 3 * math.sqrt(0.25 / trials)


def test_rlcc_abort_is_no_evidence():
    bits = 3
    x = hadamard_codeword(0b101, bits)
    x = x[:1] + (1 - x[1],) + x[2:]  # corrupt a coordinate
    aborting = CorrectorHandle(radius=Fraction(1, 8),
                               fn=lambda q, i, rng: None)
    res = run_rlcc_transform(x, Pmf.point_mass(1, 8),
                             lambda session: Verdict(True),
                             aborting, Fraction(1, 8), NullProver(), 0)
    assert res.verdict.accepted  # aborts alone never reject


def test_rlcc_eps_beyond_radius_refused():
    bits = 3
    x = hadamard_codeword(0b1, bits)
    with pytest.raises(ValueError):
        run_rlcc_transform(x, Pmf.uniform(8), lambda s: Verdict(True),
                           hadamard_corrector(bits), Fraction(1, 2), NullProver(), 0)


# --- lemma checks -----------------------------------------------------------------------

def test_distance_preservation_member_vacuous():
    rng = random.Random(18)
    X, inst = member_instance(F5, 2, 2, rng)
    j2 = list(dict.fromkeys(pt[1:] for pt in inst.points))
    Y = [[lde_eval(InputTensor(F5, 2, 1, X.row(i)), pt) for pt in j2] for i in range(2)]
    D = nonuniform_dispersed_pmf()
    report = check_distance_preservation(X, D, Y, inst)
    assert report.vacuous and report.holds


def test_distance_preservation_refuses_a_Y_failing_step_1():
    rng = random.Random(18)
    X, inst = member_instance(F5, 2, 2, rng)
    j2 = list(dict.fromkeys(pt[1:] for pt in inst.points))
    Y = [[lde_eval(InputTensor(F5, 2, 1, X.row(i)), pt) for pt in j2] for i in range(2)]
    # the Lagrange basis at any point sums to 1, so adding 1 down a column moves
    # every claim on it by 1
    Y = [[(y + (c == 0)) % 5 for c, y in enumerate(row)] for row in Y]
    report = check_distance_preservation(X, nonuniform_dispersed_pmf(), Y, inst)
    assert (report.holds, report.lhs, report.rhs, report.detail) == \
        (False, None, None, "step-1 check fails")


def test_subspace_lemma_vacuous_when_T_equals_S():
    basis = [[1, 0, 0, 0], [0, 1, 0, 0]]
    report = check_subspace_lemma(F5, basis, basis, Pmf.uniform(4))
    assert report["vacuous"]


def test_subspace_lemma_full_space_vs_zero():
    # S = F^n, T = {0}: d(r, T) is the normalized weight of r
    S_basis = [[1, 0], [0, 1]]
    T_basis = [[0, 0]]
    report = check_subspace_lemma(F5, S_basis, T_basis, Pmf.uniform(2))
    assert not report["vacuous"]
    assert report["holds"]


def test_subspace_lemma_hybrid_metric_instance():
    rng = random.Random(19)
    D = Pmf([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
    metric = ("hybrid", D, Pmf.uniform(4))
    S_basis = [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
    T_basis = [[rng.randrange(5) for _ in range(4)]]
    report = check_subspace_lemma(F5, S_basis, T_basis, metric)
    if not report["vacuous"]:
        assert report["holds"]


def test_appendix_claims_on_certified_far_instance():
    rng = random.Random(20)
    D = nonuniform_dispersed_pmf()
    X, inst, mu = certified_far_instance(F5, 2, 2, rng, D)
    from dfipp.experiments import _consistent_matrix
    got = None
    while got is None:
        got = _consistent_matrix(F5, 2, inst, rng)
    Y, _ = got
    report = check_appendix_claims(X, D, Y, inst, kappa=fold_kappa(2, 2),
                                   trials=300, seed=1)
    assert report["sum_eps"]["holds"]
    t = report["support_hit"]["trials"]
    assert report["support_hit"]["miss_rate"] <= report["support_hit"]["bound"] \
        + 3 * math.sqrt(max(report["support_hit"]["bound"], 0.02) / t)
    assert report["folded_far"]["fail_rate"] <= report["folded_far"]["bound"] \
        + 3 * math.sqrt(max(report["folded_far"]["bound"], 0.02) / t)


# --- PVAL-as-a-code event at tiny scale ------------------------------------------

def test_two_close_members_event_is_rare():
    # with honest uniform J of the mandated size, the event "two distinct
    # members of PVAL both eps-close to X uniformly" stays below 0.1 + 3 sigma
    rng = random.Random(21)
    eps = Fraction(1, 4)
    n = 4
    t = math.ceil(2 * eps * n * (math.log2(n) + math.log2(5)) + 4)
    draws = 300
    events = 0
    from dfipp.tensors import dist as plain_dist
    U = Pmf.uniform(n)
    for _ in range(draws):
        X = InputTensor.random(F5, 2, 2, rng)
        points = tuple(F5.rand_point(2, rng) for _ in range(t))
        values = tuple(lde_eval(X, pt) for pt in points)
        inst = PvalInstance(F5, 2, 2, points, values)
        close = 0
        for w in enumerate_pval(inst):
            if plain_dist(X.data, w, U) < eps:
                close += 1
                if close >= 2:
                    break
        if close >= 2:
            events += 1
    bound = 0.1 + 3 * math.sqrt(0.1 * 0.9 / draws)
    assert events / draws <= bound


def test_poly_fold_handles_duplicate_and_shared_column_points():
    rng = random.Random(22)
    X = InputTensor.random(F17, 2, 3, rng)
    base = F17.rand_point(3, rng)
    shared_tail = base[1:]
    other = (rng.randrange(17),) + shared_tail  # same column, different row coord
    points = (base, base, other)            # J is a multiset
    values = tuple(lde_eval(X, pt) for pt in points)
    inst = PvalInstance(F17, 2, 3, points, values)
    result, outputs = run_poly_fold(X, inst, kappa=1, prover=HonestFoldProver(X), seed=0)
    assert result.verdict.accepted
    assert len(outputs[0].points) == 1  # both rows collapse into one column


def test_distance_preservation_uniform_special_case():
    # D = U has dispersion exactly 1, so the bound specializes to
    # sum_i mu_i >= k * mu; zero violations over a batch of instances
    rng = random.Random(23)
    from dfipp.experiments import _consistent_matrix
    U = Pmf.uniform(4, shape=(2, 2))
    checked = 0
    while checked < 25:
        X = InputTensor.random(F5, 2, 2, rng)
        points = tuple(F5.rand_point(2, rng) for _ in range(2))
        values = tuple(rng.randrange(5) for _ in range(2))
        inst = PvalInstance(F5, 2, 2, points, values)
        got = _consistent_matrix(F5, 2, inst, rng)
        if got is None:
            continue
        Y, _ = got
        report = check_distance_preservation(X, U, Y, inst)
        if report.vacuous:
            continue
        checked += 1
        assert report.holds
        assert report.rhs == 2 * dist_to_pval_bruteforce(
            X, inst, ("hybrid", U, U))  # k/rho = 2/1


def test_fin_ipp_empty_claim_set_runs():
    # an empty J makes every check vacuous except the leaf spot checks
    rng = random.Random(24)
    X = InputTensor.random(F5, 2, 2, rng)
    inst = PvalInstance(F5, 2, 2, (), ())
    res = run_fin_ipp(X, inst, Pmf.uniform(4, shape=(2, 2)), 1, Fraction(1, 2),
                      1, HonestFoldProver(X), 0)
    assert res.verdict.accepted
    assert res.ledger.queries > 0


def test_distance_preservation_tight_for_row_concentrated():
    # with all mass on one row the bound is achieved with equality on some
    # instances, which is why the check is the non-strict sharp form
    rng = random.Random(25)
    from dfipp.experiments import _consistent_matrix
    D = Pmf([Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)], shape=(2, 2))
    equality = 0
    checked = 0
    while checked < 200:
        X = InputTensor.random(F5, 2, 2, rng)
        points = tuple(F5.rand_point(2, rng) for _ in range(2))
        values = tuple(rng.randrange(5) for _ in range(2))
        inst = PvalInstance(F5, 2, 2, points, values)
        got = _consistent_matrix(F5, 2, inst, rng)
        if got is None:
            continue
        Y, _ = got
        report = check_distance_preservation(X, D, Y, inst)
        if report.vacuous:
            continue
        checked += 1
        assert report.holds
        if report.lhs == report.rhs:
            equality += 1
    assert equality > 0  # the bound really is tight here


def test_distance_preservation_higher_dimension():
    # the row inequality is not special to m = 2: exercise 3-dimensional
    # tensors over F_3, where candidates number 3^8 per brute-force scan
    from dfipp.experiments import _claimed_instance, _random_shaped_pmf
    rng = random.Random(1)
    F3 = PrimeField(3)
    checked = 0
    while checked < 30:
        X, inst, Y = _claimed_instance(F3, 2, 3, 4, rng)
        if Y is None:
            continue
        report = check_distance_preservation(X, _random_shaped_pmf(2, 3, rng), Y, inst)
        if report.vacuous:
            continue
        checked += 1
        assert report.holds
