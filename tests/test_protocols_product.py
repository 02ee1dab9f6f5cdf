import hashlib
import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from _instances import member_instance, run_fold_round
from _learnable import (ExtensionEchoProver, aborting_learner, exact_learner,
                        explicit_set_uniform_ipp, extension_member, run_learnable_ipp)
from _oracles import bucket_bits_loop, circuit_eval, slb_witness_reason
from dfipp.field import InputTensor, PrimeField, lde_eval
from dfipp.tensors import INF, PvalInstance, dist_to_pval_bruteforce, pval_member
from dfipp.distributions import (Pmf, SamplingCircuit, circuit_pmf, dispersion_rho,
                                 extend_rows, extension_row_map, granularise)
from dfipp.experiments import _PROTOCOLS, run_protocol
from dfipp.session import (CostLedger, ProverStrategy, Section, Session, Verdict,
                           dump_transcript)
from dfipp.protocols import (HonestFoldProver, check_distance_preservation, fold_rows,
                             folded_eval)
from dfipp.product import (FIXTURE_PROFILES, HonestSlbProver, MarginalClaim,
                           WhiteboxFoldProver, check_product_dpl, coordinate_preimages,
                           gen_product_fixture, run_set_lower_bound, run_whitebox_product_ipp,
                           slb_preimages, wb_fold_kappa, _bucket_bits, _hash_zero)

F5 = PrimeField(5)
F17 = PrimeField(17)


# --- set lower bound ---------------------------------------------------------------

def identity_claim(ell, tau=Fraction(1, 1000), delta=Fraction(1, 20)):
    n = 1 << ell
    return MarginalClaim((Fraction(1, n),) * n, tau, delta)


@pytest.mark.parametrize("ell", [2, 4, 6, 8])
def test_slb_identity_completeness(ell):
    circuit = SamplingCircuit.identity(ell)
    claim = identity_claim(ell)
    prover = HonestSlbProver(slb_preimages(circuit, lambda y: y))
    accepted = 0
    trials = 100
    for seed in range(trials):
        res = run_set_lower_bound(circuit, claim, prover, seed)
        accepted += res.verdict.accepted
    delta = float(claim.delta)
    assert accepted / trials >= 1 - delta - 3 * math.sqrt(delta / trials + 1e-9)


@pytest.mark.parametrize("ell", [2, 4, 8])
def test_slb_inflated_claim_soundness(ell):
    # one claim doubled: true mass = (1 - 1/2) * claim, well past tau
    n = 1 << ell
    probs = [Fraction(1, n)] * n
    probs[0] = Fraction(2, n)
    probs[1] = Fraction(0)
    claim = MarginalClaim(tuple(probs), Fraction(1, 1000), Fraction(1, 20))
    circuit = SamplingCircuit.identity(ell)
    prover = HonestSlbProver(slb_preimages(circuit, lambda y: y))
    accepted = 0
    trials = 100
    for seed in range(trials):
        res = run_set_lower_bound(circuit, claim, prover, seed)
        accepted += res.verdict.accepted
    delta = float(claim.delta)
    assert accepted / trials <= delta + 3 * math.sqrt(delta * (1 - delta) / trials)


def test_slb_all_zero_claims_trivially_accept():
    circuit = SamplingCircuit.identity(2)
    claim = MarginalClaim((Fraction(0),) * 4, Fraction(1, 1000), Fraction(1, 20))
    res = run_set_lower_bound(circuit, claim,
                              HonestSlbProver(slb_preimages(circuit, lambda y: y)), 0)
    assert res.verdict.accepted
    assert res.ledger.messages == 0  # nothing to verify


def test_slb_bad_witness_rejected():
    circuit = SamplingCircuit.identity(2)
    claim = identity_claim(2)

    class LyingProver(HonestSlbProver):
        def reply(self, tag, payload):
            out = super().reply(tag, payload)
            values, width = out[0]
            return [(((values[0] + 1) % 4,) + values[1:], width)] + out[1:]

    res = run_set_lower_bound(circuit, claim, LyingProver(slb_preimages(circuit, lambda y: y)), 1)
    assert not res.verdict.accepted
    assert res.verdict.reject_reason in ("witness", "lower-bound")


def test_slb_probabilistic_hash_path():
    # force bucket_bits > 0: estimates become statistical but stay sound on
    # honest claims with generous slack
    ell = 8
    circuit = SamplingCircuit.identity(ell)
    claim = MarginalClaim((Fraction(1, 2), Fraction(1, 4)) + (Fraction(0),) * 254,
                          Fraction(1, 2), Fraction(1, 10))
    prover = HonestSlbProver(slb_preimages(circuit, lambda y: y % 2 if y < 2 else y))

    class FirstTwoSymbols(HonestSlbProver):
        pass

    accepted = 0
    trials = 60
    for seed in range(trials):
        res = run_set_lower_bound(circuit,
                                  MarginalClaim((Fraction(1, 4),) + (Fraction(0),) * 255,
                                                Fraction(1, 2), Fraction(1, 10)),
                                  HonestSlbProver(slb_preimages(circuit, lambda y: y)), seed,
                                  bucket_bits=3)
        accepted += res.verdict.accepted
    # claim 1/4 but true mass 1/256: must essentially always reject
    assert accepted / trials <= 0.2


def test_affine_hash_family_pairwise_independent():
    # exhaust all (A, c) for ell=2, b=1: P[h(x)=u and h(y)=v] = 1/4 for x != y
    ell, b = 2, 1
    for x, y in itertools.combinations(range(4), 2):
        table = {(u, v): 0 for u in (0, 1) for v in (0, 1)}
        for A in range(4):
            for c in (0, 1):
                hx = (bin(A & x).count("1") & 1) ^ c
                hy = (bin(A & y).count("1") & 1) ^ c
                table[(hx, hy)] += 1
        assert set(table.values()) == {2}  # 8 pairs / 4 outcomes


class ScriptedSlbProver(ProverStrategy):
    """Answers slb/witness with fixed sections, whatever the hash, and keeps the request."""

    def __init__(self, sections):
        self.sections, self.payload = sections, None

    def reply(self, tag, payload):
        self.payload = payload
        return self.sections


def _identity8(edits):
    """The honest sections of identity_claim(8) (one witness per symbol, no hash rows),
    with section j replaced by edits[j]."""
    sections = [((i,), 8) for i in range(256)]
    for j, section in edits.items():
        sections[j] = section
    return sections


@pytest.mark.parametrize("ell,sections,reason", [
    # a wrong symbol in section 0 is found before section 1's bad width
    (2, [((1,), 2), ((1,), 3), ((2,), 2), ((3,), 2)], "witness"),
    # with ell = 0 a 1-bit section can hold 1, past the one input 0
    (0, [((1,), 1)], "witness"),
    (2, [((0, 0), 2), ((1,), 2), ((2,), 2), ((3,), 2)], "witness"),
    # section 0 fails its lower bound before section 1's witnesses are read
    (2, [((), 2), ((0,), 2), ((2,), 2), ((3,), 2)], "lower-bound"),
    # a duplicate across sections: input 0 is no preimage of symbol 1
    (2, [((0,), 2), ((1, 0), 2), ((2,), 2), ((3,), 2)], "witness"),
    # with ell = 0 two values are more than the one input: a duplicate is malformed
    (0, [((0, 0), 1)], "malformed"),
    # section 1's lower bound fails before section 2's wrong symbol is read
    (2, [((0,), 2), ((), 2), ((3,), 2), ((3,), 2)], "lower-bound"),
    # empty sections evaluate nothing and fail their lower bounds
    (2, [((), 2)] * 4, "lower-bound"),
    (0, [((), 1)], "lower-bound"),
    # a bad witness in section 1 is found before section 2's bad width ...
    (2, [((0,), 2), ((1, 1), 2), ((2,), 3), ((3,), 2)], "witness"),
    # ... but a bad width comes first when its section does
    (2, [((0,), 2), ((1,), 3), ((0, 0), 2), ((3,), 2)], "malformed"),
    # the witnesses cover every input, yet section 0 holds a wrong symbol
    (2, [((0, 1), 2), ((1,), 2), ((2,), 2), ((3,), 2)], "witness"),
    # one section per claimed symbol, no fewer and no more, even if each is honest
    (2, [((0,), 2), ((1,), 2), ((2,), 2)], "malformed"),
    (2, [((0,), 2), ((1,), 2), ((2,), 2), ((3,), 2), ((), 2)], "malformed"),
    # ell = 8, 256 symbols, no hash rows: a short section before a later mis-symboled,
    # duplicated or too wide one fails its lower bound first, and the other way round
    # the later fault is found first
    (8, _identity8({3: ((), 8)}), "lower-bound"),
    (8, _identity8({3: ((), 8), 200: ((201,), 8)}), "lower-bound"),
    (8, _identity8({3: ((), 8), 200: ((200, 200), 8)}), "lower-bound"),
    (8, _identity8({3: ((), 8), 200: ((200,), 9)}), "lower-bound"),
    (8, _identity8({3: ((4,), 8), 200: ((), 8)}), "witness"),
    (8, _identity8({3: ((3, 3), 8), 200: ((), 8)}), "witness"),
    (8, _identity8({3: ((3,), 9), 200: ((), 8)}), "malformed"),
    # clean witnesses, but one section holds the next symbol's witness as well
    (8, _identity8({3: ((3, 4), 8)}), "witness"),
    (8, _identity8({255: ((), 8)}), "lower-bound"),
])
def test_slb_verdict_order_on_hostile_witnesses(ell, sections, reason):
    circuit, claim = SamplingCircuit.identity(ell), identity_claim(ell)
    prover = ScriptedSlbProver(sections)
    res = run_set_lower_bound(circuit, claim, prover, 0)
    assert res.verdict == Verdict(False, reason)
    if len(sections) == len(prover.payload):  # else the section count is what is malformed
        assert slb_witness_reason(circuit, lambda y: y, claim.probs, claim.tau, prover.payload,
                                  sections) == reason


@pytest.mark.parametrize("sections", [[((1,), 1), ((1,), 1)], [((1,), 1), ((0,), 1)],
                                      [((0,), 1), ((0,), 1)]])
def test_slb_out_of_range_witness_and_duplicates_across_sections(sections):
    # ell = 0 with two symbols of mass 1/2 over its one input: a 1-bit slot can name
    # input 1, past it, and section 1 can repeat section 0's witness
    claim = MarginalClaim((Fraction(1, 2),) * 2, Fraction(1, 1000), Fraction(1, 20))
    res = run_set_lower_bound(SamplingCircuit.identity(0), claim, ScriptedSlbProver(sections),
                              0, symbol_of=lambda y: 0)
    assert res.verdict == Verdict(False, "witness")


class MutatingSlbProver(ProverStrategy):
    """Answers with the honest sections after random edits, and keeps the request."""

    def __init__(self, preimages, rng):
        self.preimages, self.rng, self.payload, self.sent = preimages, rng, None, None

    def reply(self, tag, payload):
        rng, ell = self.rng, self.preimages.ell
        sections = [list(values) for values, _ in self.preimages.witness_sections(payload)]
        for _ in range(rng.randrange(3)):
            j = rng.randrange(len(sections))
            edit = rng.randrange(5)
            if edit == 0 and sections[j]:  # drop a witness
                sections[j].pop(rng.randrange(len(sections[j])))
            elif edit == 1 and sections[j]:  # repeat one
                sections[j].insert(rng.randrange(len(sections[j]) + 1), rng.choice(sections[j]))
            elif edit == 2:  # any value the slot can hold, in range or not
                sections[j].append(rng.randrange(1 << max(ell, 1)))
            elif edit == 3:  # move a witness to another section
                k = rng.randrange(len(sections))
                if sections[k]:
                    sections[j].append(sections[k].pop())
            else:
                sections[j] = []
        widths = [max(ell, 1) + (rng.random() < 0.03) for _ in sections]
        self.payload, self.sent = payload, [(tuple(v), w) for v, w in zip(sections, widths)]
        return self.sent


def test_slb_verdicts_match_a_witness_by_witness_oracle():
    rng = random.Random(2402)
    reasons = {}
    for trial in range(300):
        ell = rng.randrange(0, 7)
        circuit = SamplingCircuit.from_tables(
            [(ell, [rng.getrandbits(3) for _ in range(1 << ell)])], 3) if ell else \
            SamplingCircuit.identity(0)
        n_sym = rng.choice((1, 2, 4))
        symbol_of = lambda y, n_sym=n_sym: y % n_sym
        masses = circuit_pmf(circuit).weights
        probs = [Fraction(sum(masses[y] for y in range(len(masses)) if symbol_of(y) == i),
                          1 << ell) for i in range(n_sym)]
        probs = [p * Fraction(rng.choice((1, 1, 3)), rng.choice((1, 2, 4))) for p in probs]
        if sum(probs) > 1:
            probs = [p / sum(probs) for p in probs]
        claim = MarginalClaim(tuple(probs), Fraction(1, rng.choice((2, 1000))), Fraction(1, 20))
        prover = MutatingSlbProver(slb_preimages(circuit, symbol_of), rng)
        res = run_set_lower_bound(circuit, claim, prover, trial, symbol_of=symbol_of,
                                  bucket_bits=rng.choice((None, *range(min(ell, 2) + 1))))
        if prover.payload is None:  # no active symbol: nothing was asked
            assert res.verdict.accepted
            continue
        want = slb_witness_reason(circuit, symbol_of, probs, claim.tau, prover.payload,
                                  prover.sent)
        assert res.verdict == (Verdict(True) if want is None else Verdict(False, want)), trial
        reasons[want] = reasons.get(want, 0) + 1
    assert set(reasons) == {None, "malformed", "witness", "lower-bound"}, reasons


@pytest.mark.parametrize("witnesses,reason", [
    (tuple(range(256)), "witness"),  # every input has the symbol, but not every one hashes to 0
    ((), "lower-bound"),
])
def test_slb_hash_test_still_runs_on_well_formed_witnesses(witnesses, reason):
    claim = MarginalClaim((Fraction(1),), Fraction(1, 1000), Fraction(1, 20))
    res = run_set_lower_bound(SamplingCircuit.identity(8), claim,
                              ScriptedSlbProver([(witnesses, 8)]), 0, symbol_of=lambda y: 0,
                              bucket_bits=2)
    assert res.verdict == Verdict(False, reason)


def test_slb_scripted_honest_sections_accept():
    sections = [((i,), 2) for i in range(4)]
    res = run_set_lower_bound(SamplingCircuit.identity(2), identity_claim(2),
                              ScriptedSlbProver(sections), 0)
    assert res.verdict.accepted


class CountingSymbols:
    """A symbol map that counts its calls per output."""

    def __init__(self, symbol_of):
        self.symbol_of, self.calls = symbol_of, {}

    def __call__(self, y):
        self.calls[y] = self.calls.get(y, 0) + 1
        return self.symbol_of(y)


@pytest.mark.parametrize("bucket_bits", [None, 2])
def test_slb_maps_each_distinct_output_to_its_symbol_once(bucket_bits):
    # 2^10 inputs, 16 outputs (the top four bits), 4 symbols: the verifier checks every
    # witness against the symbol of its output, but names each output's symbol once
    circuit = SamplingCircuit(10, (), tuple(range(6, 10)))
    claim = MarginalClaim((Fraction(1, 4),) * 4, Fraction(1, 2), Fraction(1, 20))
    prover_map, verifier_map = CountingSymbols(lambda y: y >> 2), CountingSymbols(lambda y: y >> 2)
    prover = HonestSlbProver(slb_preimages(circuit, prover_map))
    assert prover_map.calls == dict.fromkeys(range(16), 1)
    for seed in range(3):
        verifier_map.calls.clear()
        res = run_set_lower_bound(circuit, claim, prover, seed, symbol_of=verifier_map,
                                  bucket_bits=bucket_bits)
        assert res.verdict.accepted
        assert set(verifier_map.calls.values()) == {1}
        if bucket_bits is None:  # b = 0: the witnesses are all inputs, of all 16 outputs
            assert len(verifier_map.calls) == 16


def _table_case(case):
    """(circuit, k, m) of a table case: an identity circuit read as [2]^ell, or a k = 2,
    m = 4 product fixture of a profile (dyadic-random drawn from random.Random(seed))."""
    kind, arg = case
    if kind == "identity":
        return SamplingCircuit.identity(arg), 2, arg
    return gen_product_fixture(2, 4, kind, rng=random.Random(arg))[1], 2, 4


@pytest.mark.parametrize("case", [
    ("identity", 1), ("identity", 6), ("identity", 10),
    *((profile, None) for profile in FIXTURE_PROFILES if profile != "dyadic-random"),
    ("dyadic-random", 6), ("dyadic-random", 9), ("dyadic-random", 57),
], ids=lambda case: "-".join(str(v) for v in case if v is not None))
def test_whitebox_tables_map_each_output_once_per_dimension(case, monkeypatch):
    from dfipp import product
    circuit, k, m = _table_case(case)
    calls = []
    real = product.cell_coord
    monkeypatch.setattr(product, "cell_coord", lambda y, k, m, d: calls.append((y, d)) or
                        real(y, k, m, d))
    tables = coordinate_preimages(circuit, k, m)
    assert calls == []  # nothing is built before a round asks
    size = 1 << circuit.n_inputs
    outs = [circuit_eval(circuit, x) for x in range(size)]
    for d in range(m):
        table = tables(d)
        assert tables(d) is table  # one build per round, however often it is asked
        assert sorted(calls) == sorted((y, t) for y in set(outs) for t in range(d + 1))
        for xs in table.inputs.values():  # ascending, and no symbol without an input
            assert xs and list(xs) == sorted(xs)
        want = {}  # every input under its coordinate d, by the gate-loop oracle
        for x, y in enumerate(outs):
            want.setdefault(real(y, k, m, d), []).append(x)
        assert {c: list(xs) for c, xs in table.inputs.items()} == want


def test_bucket_bits_matches_fraction_search():
    grid = []
    for ell in range(0, 11):
        for tau in (Fraction(1, 1000), Fraction(1, 2), Fraction(1)):
            for delta in (Fraction(1, 20), Fraction(1, 60), Fraction(1)):
                for N in (Fraction(1), Fraction(3, 2), Fraction(1 << ell),
                          Fraction(3 << ell, 4), Fraction(1 << (ell + 4))):
                    grid.append((N, ell, tau, delta))
    # with tau = 1 and N = 2^ell, cap = delta * 2^(ell - 2): exactly 2^j, and just either side
    for j in range(12):
        for delta in (Fraction(1), Fraction(1000, 1001), Fraction(1001, 1000)):
            grid.append((Fraction(1 << (j + 2)), j + 2, Fraction(1), delta))
    # the SLB claims of acceptance criterion 7: uniform and inflated, ell = 2..8
    for ell in range(2, 9):
        n = 1 << ell
        for p, active in ((Fraction(1, n), n), (Fraction(2, n), n - 1)):
            grid.append((p * n, ell, Fraction(1, 1000), Fraction(1, 20) / active))
    caps = set()
    for N, ell, tau, delta in grid:
        cap = delta * tau * tau * N * N / (4 * (1 << ell))
        caps.add("<1" if cap < 1 else "[1,2)" if cap < 2 else
                 "2^j" if cap.denominator == 1 and cap.numerator & (cap.numerator - 1) == 0
                 else ">=2")
        assert _bucket_bits(N, ell, tau, delta) == bucket_bits_loop(N, ell, tau, delta), \
            (N, ell, tau, delta)
    assert caps == {"<1", "[1,2)", "2^j", ">=2"}


def _parity_hash_zero(rows, c, x):
    """Every affine GF(2) hash bit of x is 0, by counting the '1' digits of row & x."""
    return all(bin(row & x).count("1") % 2 == (c >> j) & 1 for j, row in enumerate(rows))


def test_hash_zero_matches_bin_count_parity():
    rng = random.Random(18)
    for ell in range(0, 17):
        for b in (0, 1, 2, ell):
            for _ in range(40):
                rows = tuple(rng.getrandbits(ell) for _ in range(b))
                c, x = rng.getrandbits(b), rng.getrandbits(ell)
                assert _hash_zero(rows, c, x) == _parity_hash_zero(rows, c, x), (rows, c, x)
    assert _hash_zero((), 0, 12345)  # b = 0: no hash bit, every input hashes to zero


class CountingSlbProver(ProverStrategy):
    """Answers one hash request with the first `count` inputs it maps to zero."""

    def __init__(self, ell, count):
        self.ell, self.count, self.sent = ell, count, None

    def reply(self, tag, payload):
        ((_, _, rows, c),) = payload
        zeros = [x for x in range(1 << self.ell) if _parity_hash_zero(rows, c, x)]
        self.sent = len(zeros[:self.count])
        return [(tuple(zeros[:self.count]), max(self.ell, 1))]


def _lower_bound_verdict(ell, p, tau, b, count):
    """(verdict, witnesses sent) of a one-symbol set lower bound whose every input maps
    to that symbol, so every zero-hash input is a valid witness."""
    prover = CountingSlbProver(ell, count)
    res = run_set_lower_bound(SamplingCircuit.identity(ell),
                              MarginalClaim((p,), tau, Fraction(1, 20)), prover, 0,
                              symbol_of=lambda y: 0, bucket_bits=b)
    return res.verdict, prover.sent


def test_slb_lower_bound_matches_fraction_oracle():
    rng = random.Random(1806)
    taus = [Fraction(1, 1000), Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(5, 7),
            Fraction(999, 1000)]  # odd and even denominators
    ell, cases, rejects = 8, 0, 0
    for _ in range(120):
        p = Fraction(1 + rng.randrange(1 << 12), 1 + rng.randrange(1 << 12, 1 << 13))
        tau, b = rng.choice(taus), rng.randrange(4)
        edge = (1 - tau / 2) * p * (1 << ell) / (1 << b)  # fewest witnesses that pass
        for count in {max(0, math.ceil(edge) + d) for d in (-2, -1, 0, 1)}:
            verdict, sent = _lower_bound_verdict(ell, p, tau, b, count)
            below = Fraction(sent << b) < (1 - tau / 2) * p * (1 << ell)
            assert verdict == (Verdict(False, "lower-bound") if below else Verdict(True)), \
                (p, tau, b, count, sent)
            cases, rejects = cases + 1, rejects + below
    assert cases > 300 and 0 < rejects < cases


@pytest.mark.parametrize("p,tau,b", [(Fraction(1, 2), Fraction(1, 2), 0),
                                     (Fraction(1, 2), Fraction(1, 2), 2),
                                     (Fraction(3, 8), Fraction(2, 3), 0),
                                     (Fraction(7, 16), Fraction(6, 7), 1)])
def test_slb_lower_bound_exact_equality_accepts(p, tau, b):
    # ell = 8: the threshold (1 - tau/2) * p * 2^8 / 2^b is a whole number of witnesses
    ell = 8
    edge = (1 - tau / 2) * p * (1 << ell) / (1 << b)
    assert edge.denominator == 1
    assert _lower_bound_verdict(ell, p, tau, b, int(edge)) == (Verdict(True), int(edge))
    assert _lower_bound_verdict(ell, p, tau, b, int(edge) - 1) == \
        (Verdict(False, "lower-bound"), int(edge) - 1)


def _five_symbols(y):
    """Five symbols over 2^8 inputs, of true masses 1/2, 1/4, 1/8, 1/16 and 1/16."""
    return 0 if y < 128 else 1 if y < 192 else 2 if y < 224 else 3 if y < 240 else 4


class TruncatingSlbProver(ProverStrategy):
    """The honest witnesses of every request, with symbol `target`'s cut to `count`."""

    def __init__(self, preimages, target, count):
        self.preimages, self.target, self.count = preimages, target, count
        self.payload, self.available, self.sent = None, None, None

    def reply(self, tag, payload):
        sections = self.preimages.witness_sections(payload)
        self.payload = payload
        self.available = [len(values) for values, _ in sections]
        self.sent = [(values[:self.count] if i == self.target else values, width)
                     for (i, _, _, _), (values, width) in zip(payload, sections)]
        return self.sent


def _fraction_lower_bound(payload, sent, probs, tau, ell):
    """"lower-bound" at the first section with |w| * 2^b < (1 - tau/2) * p_i * 2^ell, else
    None: the inequality in Fractions, section by section."""
    for (i, b, _, _), (values, _) in zip(payload, sent):
        if Fraction(len(values) * (1 << b)) < (1 - tau / 2) * probs[i] * (1 << ell):
            return "lower-bound"
    return None


def test_slb_need_is_the_exact_boundary():
    # four distinct claimed masses: 3/7 and 1/20 below the true masses 1/2 and 1/16, 1/4
    # equal to it, 1/6 inflated over 1/8 (within the slack of tau = 1/2), and a zero claim
    ell, tau = 8, Fraction(1, 2)
    probs = (Fraction(3, 7), Fraction(1, 4), Fraction(1, 6), Fraction(0), Fraction(1, 20))
    claim = MarginalClaim(probs, tau, Fraction(1, 20))
    circuit = SamplingCircuit.identity(ell)
    preimages = slb_preimages(circuit, _five_symbols)
    hit = set()
    for b, target in itertools.product(range(3), (0, 1, 2, 4)):
        # the fewest witnesses with |w| * 2^b >= (1 - tau/2) * p_target * 2^ell
        need = math.ceil((1 - tau / 2) * probs[target] * (1 << ell) / (1 << b))
        for seed in range(60):
            verdicts = []
            for count in (need - 1, need):
                prover = TruncatingSlbProver(preimages, target, count)
                res = run_set_lower_bound(circuit, claim, prover, seed,
                                          symbol_of=_five_symbols, bucket_bits=b)
                want = _fraction_lower_bound(prover.payload, prover.sent, probs, tau, ell)
                assert res.verdict == (Verdict(True) if want is None
                                       else Verdict(False, want)), (b, target, seed, count)
                verdicts.append(res.verdict)
            # the boundary itself: enough honest witnesses for the target, and every
            # other section passes with all of its own
            others = [(p, s) for p, s in zip(prover.payload, prover.sent) if p[0] != target]
            if prover.available[[p[0] for p in prover.payload].index(target)] >= need and \
                    _fraction_lower_bound(*zip(*others), probs, tau, ell) is None:
                assert verdicts == [Verdict(False, "lower-bound"), Verdict(True)]
                hit.add((b, target))
                break
    assert hit == set(itertools.product(range(3), (0, 1, 2, 4)))


def test_marginal_claim_weights_are_its_probs_exactly():
    rng = random.Random(34)
    for _ in range(300):
        probs = [Fraction(rng.randrange(0, 50), rng.randrange(1, 1 << rng.randrange(1, 40)))
                 for _ in range(rng.randrange(0, 9))]
        probs = tuple(p / max(1, sum(probs)) for p in probs)
        claim = MarginalClaim(probs, Fraction(1, 1000), Fraction(1, 20))
        assert type(claim.denom) is int and claim.denom >= 1
        assert all(type(w) is int for w in claim.weights)
        assert tuple(Fraction(w, claim.denom) for w in claim.weights) == probs


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2", complex(0.5, 0)], ids=repr)
@pytest.mark.parametrize("where", ["probs", "tau", "delta"])
def test_marginal_claim_refuses_a_non_rational_value(where, bad):
    # a float is refused by name, never read as its binary value
    values = {"probs": (Fraction(1, 4), Fraction(1, 2)), "tau": Fraction(1, 1000),
              "delta": Fraction(1, 20)}
    values[where] = (Fraction(1, 4), bad) if where == "probs" else bad
    with pytest.raises(ValueError, match=re.escape(f"claim value {bad!r} is not a rational")):
        MarginalClaim(**values)


@pytest.mark.parametrize("ell", [0, 1, 6])
def test_slb_hash_sections_without_hash_rows_are_all_one_section(ell):
    circuit = SamplingCircuit.identity(ell)
    res = run_set_lower_bound(circuit, identity_claim(ell),
                              HonestSlbProver(slb_preimages(circuit, lambda y: y)), 3)
    assert res.verdict.accepted
    (hash_msg,) = [msg for msg in res.transcript if msg.tag == "slb/hash"]
    assert len(hash_msg.sections) == 1 << ell
    for section in hash_msg.sections:
        assert type(section) is Section and section == Section((0,), max(ell, 1))


def _top_symbol(y):
    """Four symbols over 2^10 inputs, of true masses 1/2, 3/8, 1/16 and 1/16."""
    return 0 if y < 512 else 1 if y < 896 else 2 if y < 960 else 3


# Pinned at the commit before the integer lower bound, whose verifier compared
# Fractions and recomputed the bucket bits for every symbol: the claimed masses
# 1/2, 3/8 and 1/16 take 2, 1 and 0 bucket bits, and 1/16 is claimed twice.
@pytest.mark.parametrize("probs,verdict,comm_bits,sha", [
    ((Fraction(1, 2), Fraction(3, 8), Fraction(1, 16), Fraction(1, 16), Fraction(0)),
     Verdict(True), 4550, "e3c1aa5888fafc9cebd3a4792960a4361d4d25697abbcbe3ce3c3c6bd8ccc02d"),
    ((Fraction(1, 2), Fraction(3, 8), Fraction(1, 8), Fraction(0), Fraction(0)),
     Verdict(False, "lower-bound"), 2320,
     "4d90926892ba3d985c32627116343927e1bcdbdacb2852ba2b06760d7694550a"),
], ids=["honest", "symbol-2-overclaimed"])
def test_slb_mixed_mass_claims_pinned(probs, verdict, comm_bits, sha, tmp_path):
    circuit = SamplingCircuit.identity(10)
    claim = MarginalClaim(probs, Fraction(3, 4), Fraction(3, 4))
    assert [_bucket_bits(p * 1024, 10, claim.tau, claim.delta / 4) for p in probs[:3]] == \
        [2, 1, 0]
    res = run_set_lower_bound(circuit, claim,
                              HonestSlbProver(slb_preimages(circuit, _top_symbol)), 0,
                              symbol_of=_top_symbol)
    assert res.verdict == verdict
    assert res.ledger == CostLedger(queries=0, samples=0, comm_bits=comm_bits, messages=2)
    path = tmp_path / "slb.jsonl"
    dump_transcript(str(path), {}, res.transcript, res.verdict, res.ledger)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def _slb_config(**keys):
    return lambda: run_protocol({"protocol": "set_lower_bound", "trials": 1, "seed": 5,
                                 **keys}, 11)[0]


def _slb_grouped():
    """Four symbols of 64 inputs each over 2^8 inputs, two hash rows per symbol."""
    circuit, symbol_of = SamplingCircuit.identity(8), (lambda y: y >> 6)
    claim = MarginalClaim((Fraction(1, 4),) * 4, Fraction(1, 2), Fraction(1, 20))
    return run_set_lower_bound(circuit, claim,
                               HonestSlbProver(slb_preimages(circuit, symbol_of)), 0,
                               symbol_of=symbol_of, bucket_bits=2)


# Pinned at the commit before the prover and verifier skipped the hash test of a
# request with no hash rows (b = 0), which every witness passes.
@pytest.mark.parametrize("run,verdict,comm_bits,sha", [
    (_slb_config(ell=6, bucket_bits=0), Verdict(True), 768,
     "82e0205a1e82f6d49e2ebc876dba75a335c427e1e59d9d2ac748e521f4b7e82a"),
    (_slb_config(ell=2, bucket_bits=0, claims=["1/2", "1/4", "1/8", "1/8"]),
     Verdict(False, "lower-bound"), 16,
     "26d8410bb96da2ed7f37a79c1947e1617c749e12c49adb00259511ad4da592d7"),
    (_slb_grouped, Verdict(True), 608,
     "e2e13a6a68f3cde24b85bdbb475ffe94fbce08131df98da0c9cc61d5b041f216"),
    (_slb_config(ell=8, bucket_bits=3), Verdict(False, "lower-bound"), 8432,
     "7666bd88abd9dace0d01d17faec971f5dcd3bfff3d20004ec48f82ff59bc0ef4"),
], ids=["b0-honest", "b0-overclaimed", "b2-grouped-honest", "b3-identity"])
def test_slb_sessions_with_and_without_hash_rows_pinned(run, verdict, comm_bits, sha,
                                                        tmp_path):
    res = run()
    assert res.verdict == verdict
    assert res.ledger == CostLedger(queries=0, samples=0, comm_bits=comm_bits, messages=2)
    path = tmp_path / "slb.jsonl"
    dump_transcript(str(path), {}, res.transcript, res.verdict, res.ledger)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


_EXACTLY_ONE = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 7), Fraction(5, 14))
_OVER_ONE = (Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 4) + Fraction(1, 1 << 64))


def test_claim_sum_is_exact():
    assert sum(_EXACTLY_ONE) == 1 and sum(_OVER_ONE) == 1 + Fraction(1, 1 << 64)
    MarginalClaim(_EXACTLY_ONE, Fraction(1, 1000), Fraction(1, 20))
    with pytest.raises(ValueError, match="claimed probabilities exceed 1"):
        MarginalClaim(_OVER_ONE, Fraction(1, 1000), Fraction(1, 20))
    config = {"protocol": "set_lower_bound", "trials": 1, "seed": 1, "ell": 2}
    res, _ = run_protocol({**config, "claims": [str(p) for p in _EXACTLY_ONE]}, 3)
    assert res.verdict == Verdict(False, "lower-bound")  # 1/3 > the true mass 1/4
    with pytest.raises(ValueError, match="config key 'claims' must sum to at most 1"):
        run_protocol({**config, "claims": [str(p) for p in _OVER_ONE]}, 3)


@pytest.mark.parametrize("tau,delta", [(0, Fraction(1, 20)), (1, Fraction(1, 20)),
                                       (Fraction(5, 2), Fraction(1, 20)),
                                       (Fraction(1, 1000), 0), (Fraction(1, 1000), 1),
                                       (Fraction(-1, 2), Fraction(1, 20))])
def test_marginal_claim_refuses_slack_or_budget_outside_unit_interval(tau, delta):
    with pytest.raises(ValueError, match=r"tau and delta must lie in \(0, 1\)"):
        MarginalClaim((Fraction(1, 2), Fraction(1, 2)), tau, delta)


# --- extended folding -----------------------------------------------------------------

def test_extended_fold_honest_outputs_are_members():
    rng = random.Random(1)
    X, inst = member_instance(F5, 2, 2, rng)
    B = granularise(Pmf([Fraction(1, 2), Fraction(1, 2)]))
    prover = WhiteboxFoldProver(X, [Pmf.uniform(2), Pmf.uniform(2)],
                                coordinate_preimages(SamplingCircuit.identity(2), 2, 2))
    rowmap = extension_row_map(B.counts)
    result, outputs = run_fold_round(X, inst, wb_fold_kappa(1, 2), rowmap, prover, seed=0)
    assert result.verdict.accepted
    for st in outputs:
        z = st.zs[0]
        folded = [0, 0]
        for i, src in enumerate(rowmap):
            if src == 2:
                continue
            for u in range(2):
                folded[u] = (folded[u] + z[i] * X.row(src)[u]) % 5
        child = InputTensor(F5, 2, 1, tuple(folded))
        assert pval_member(child, PvalInstance(F5, 2, 1, st.points, st.values))


def test_extended_fold_degenerate_B_reduces_to_plain_fold():
    # raw counts (1, 1, 0) keep exactly the original rows, so the extended
    # fold and the plain fold produce identical outputs on the same coins
    rng = random.Random(2)
    X, inst = member_instance(F5, 2, 2, rng)
    assert extension_row_map((1, 1, 0)) == (0, 1)
    from dfipp.protocols import run_poly_fold
    kappa = 4
    _res_plain, plain = run_poly_fold(X, inst, kappa, HonestFoldProver(X), seed=9)
    prover = WhiteboxFoldProver(X, [Pmf.uniform(2), Pmf.uniform(2)],
                                coordinate_preimages(SamplingCircuit.identity(2), 2, 2))
    _res_ext, ext = run_fold_round(X, inst, kappa, extension_row_map((1, 1, 0)), prover, seed=9)
    assert [(st.points, st.values, st.zs) for st in plain] == \
        [(st.points, st.values, st.zs) for st in ext]


def test_extended_fold_locality_bounded_and_zero_rows_free():
    rng = random.Random(3)
    X, inst = member_instance(F5, 2, 2, rng)
    # claims with mass missing: the remainder row gets weight, so some
    # extension rows map to the appended zero row
    pmf = Pmf([Fraction(7, 8), Fraction(1, 8)])
    B = granularise(pmf)
    assert B.counts[-1] > 0
    prover = WhiteboxFoldProver(X, [pmf, Pmf.uniform(2)],
                                coordinate_preimages(SamplingCircuit.identity(2), 2, 2))
    rowmap = extension_row_map(B.counts)
    result, outputs = run_fold_round(X, inst, wb_fold_kappa(1, 2), rowmap, prover, seed=5)
    assert result.verdict.accepted
    for st in outputs:
        session = Session(ProverStrategy(), 0, X.data)
        folded_eval(session, X, st, 0)
        zero_hits = sum(1 for i in st.supports[0] if rowmap[i] == 2)
        assert session.ledger.queries == len(st.supports[0]) - zero_hits
        assert session.ledger.queries <= st.tau


@pytest.mark.parametrize("white_box", [False, True], ids=["honest", "whitebox"])
def test_fold_prover_folds_through_the_requested_row_map(white_box):
    # the fold request carries the row map, so neither prover needs a marginal
    # exchange to fold as the verifier does
    rng = random.Random(3)
    X, inst = member_instance(F5, 2, 2, rng)
    pmf = Pmf([Fraction(7, 8), Fraction(1, 8)])
    B = granularise(pmf)
    prover = WhiteboxFoldProver(X, [pmf, Pmf.uniform(2)],
                                coordinate_preimages(SamplingCircuit.identity(2), 2, 2)) \
        if white_box else HonestFoldProver(X)
    rowmap = extension_row_map(B.counts)
    result, outputs = run_fold_round(X, inst, wb_fold_kappa(1, 2), rowmap, prover, seed=5)
    assert result.verdict.accepted
    rows = extend_rows([X.row(i) for i in range(2)], rowmap, (0, 0))
    assert prover.live == [fold_rows(st.zs[0], rows, 5) for st in outputs]


# --- white-box product IPP --------------------------------------------------------------

def test_whitebox_honest_completeness_both_configs():
    rng = random.Random(4)
    for field, k, m in [(F17, 2, 4), (F5, 2, 2)]:
        D, circuit = gen_product_fixture(k, m, "uniform")
        for seed in range(40):
            X, inst = member_instance(field, k, m, rng)
            prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, X.k, X.m))
            res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 1,
                                           prover, seed)
            assert res.verdict.accepted


def test_whitebox_round_count_is_checked_first():
    # r = 0 is the same ValueError as fin_ipp's, not a ZeroDivisionError from delta
    D, circuit = gen_product_fixture(2, 3, "uniform")
    X, inst = member_instance(F17, 2, 3, random.Random(5))
    prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, X.k, X.m))
    with pytest.raises(ValueError, match="1 <= r <= m-1"):
        run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 0, prover, 0)


def test_whitebox_zero_sample_calls_and_message_count():
    rng = random.Random(5)
    D, circuit = gen_product_fixture(2, 4, "uniform")
    X, inst = member_instance(F17, 2, 4, rng)
    prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, X.k, X.m))
    res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 1, prover, 0)
    assert res.verdict.accepted
    assert res.ledger.samples == 0
    # per round: marginal, hashes, witnesses, matrices, vectors = 5 messages,
    # plus the final leaf message
    assert res.ledger.messages == 5 * 1 + 1


def test_whitebox_soundness_row_concentrated():
    rng = random.Random(6)
    D, circuit = gen_product_fixture(2, 2, "row-concentrated")
    joint = D.joint_pmf()
    U = Pmf.uniform(4, shape=(2, 2))
    # certified-far instance under the hybrid metric
    X = inst = mu = None
    for _ in range(300):
        cand = InputTensor.random(F5, 2, 2, rng)
        points = tuple(F5.rand_point(2, rng) for _ in range(2))
        values = tuple(rng.randrange(5) for _ in range(2))
        ci = PvalInstance(F5, 2, 2, points, values)
        d = dist_to_pval_bruteforce(cand, ci, ("hybrid", joint, U))
        if d != INF and d >= Fraction(2, 5):
            X, inst, mu = cand, ci, d
            break
    assert X is not None
    from dfipp.tensors import hybrid_dist
    from dfipp.tensors import enumerate_pval
    best, best_d = None, None
    for w in enumerate_pval(inst):
        dd = hybrid_dist(X.data, w, joint, U)
        if best_d is None or dd < best_d:
            best, best_d = w, dd
    W = InputTensor(F5, 2, 2, best)
    eps = mu * Fraction(99, 100)
    trials = 150
    rejects = 0
    for seed in range(trials):
        prover = WhiteboxFoldProver(W, D.factors, coordinate_preimages(circuit, W.k, W.m))
        res = run_whitebox_product_ipp(X, inst, eps, circuit, 1, prover, seed)
        if not res.verdict.accepted:
            rejects += 1
    assert rejects / trials >= 2 / 3 - 3 * math.sqrt(0.25 / trials)


def test_whitebox_rejects_non_pmf_marginal():
    rng = random.Random(7)
    D, circuit = gen_product_fixture(2, 2, "uniform")
    X, inst = member_instance(F5, 2, 2, rng)

    class ShortClaimProver(WhiteboxFoldProver):
        def marginal(self, rnd):
            return (Fraction(1, 4), Fraction(1, 4))

    res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 1,
                                   ShortClaimProver(X, D.factors,
                                                    coordinate_preimages(circuit, 2, 2)), 0)
    assert res.verdict == Verdict(False, "marginal")


@pytest.mark.parametrize("profile, pairs", [
    ("row-concentrated", (1, 0, 0, 1)),  # a zero denominator, once read as (1, 0)
    ("uniform", (2, 4, 1, 2)),           # (1/2, 1/2), but not in lowest terms
])
def test_whitebox_rejects_non_canonical_marginal(profile, pairs):
    rng = random.Random(7)
    D, circuit = gen_product_fixture(2, 2, profile)
    X, inst = member_instance(F5, 2, 2, rng)

    class RawPairsProver(WhiteboxFoldProver):
        def reply(self, tag, payload):
            if tag == "wb/marginal":
                super().reply(tag, payload)
                return [(pairs, 64)]
            return super().reply(tag, payload)

    res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 1,
                                   RawPairsProver(X, D.factors,
                                                  coordinate_preimages(circuit, 2, 2)), 0)
    assert res.verdict == Verdict(False, "marginal")


def test_whitebox_learner_catches_distribution_lie():
    # prover overstates a factor mass: the set lower bound must fire
    rng = random.Random(8)
    D, circuit = gen_product_fixture(2, 2, "row-concentrated")
    X, inst = member_instance(F5, 2, 2, rng)

    class LyingMarginalProver(WhiteboxFoldProver):
        def marginal(self, rnd):
            if rnd == 0:
                return (Fraction(1, 2), Fraction(1, 2))  # truth is (1, 0)
            return tuple(self.factors[rnd].masses)

    preimages = coordinate_preimages(circuit, 2, 2)
    rejects = 0
    for seed in range(50):
        res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 1,
                                       LyingMarginalProver(X, D.factors, preimages), seed)
        if not res.verdict.accepted:
            rejects += 1
            assert res.verdict.reject_reason == "learner"
    assert rejects == 50


# --- product distance preservation -----------------------------------------------------

def test_product_dpl_member_vacuous():
    rng = random.Random(9)
    X, inst = member_instance(F5, 2, 2, rng)
    j2 = list(dict.fromkeys(pt[1:] for pt in inst.points))
    Y = [[lde_eval(InputTensor(F5, 2, 1, X.row(i)), pt) for pt in j2] for i in range(2)]
    D, _ = gen_product_fixture(2, 2, "uniform")
    B = granularise(D.factors[0])
    report = check_product_dpl(X, list(D.factors), Y, B, inst, Fraction(1, 1000))
    assert report.vacuous


def test_product_dpl_uniform_first_factor_cross_check():
    # with D_1 = U the plain preservation bound (rho = 1) must hold too
    rng = random.Random(10)
    from dfipp.experiments import _consistent_matrix
    D, _ = gen_product_fixture(2, 2, "uniform")
    checked = 0
    while checked < 10:
        X = InputTensor.random(F5, 2, 2, rng)
        points = tuple(F5.rand_point(2, rng) for _ in range(2))
        values = tuple(rng.randrange(5) for _ in range(2))
        inst = PvalInstance(F5, 2, 2, points, values)
        got = _consistent_matrix(F5, 2, inst, rng)
        if got is None:
            continue
        Y, _ = got
        B = granularise(D.factors[0])
        rep = check_product_dpl(X, list(D.factors), Y, B, inst, Fraction(1, 1000))
        plain = check_distance_preservation(X, D.joint_pmf(), Y, inst)
        if rep.vacuous or plain.vacuous:
            continue
        checked += 1
        assert rep.holds
        assert plain.holds


# --- learnable-distribution pipeline ----------------------------------------------------

ALL_ONES = lambda s: all(b == 1 for b in s)


def test_learnable_completeness_with_exact_learner():
    n = 4
    x = (1, 1, 1, 1)
    D = Pmf.uniform(n)
    factory = explicit_set_uniform_ipp(ALL_ONES, n)
    for seed in range(50):
        res = run_learnable_ipp(x, D, Fraction(1, 2), exact_learner(D), factory,
                                ExtensionEchoProver(x), seed)
        assert res.verdict.accepted


def test_learnable_abort_rejects():
    n = 4
    x = (1, 1, 1, 1)
    res = run_learnable_ipp(x, Pmf.uniform(n), Fraction(1, 2), aborting_learner,
                            explicit_set_uniform_ipp(ALL_ONES, n),
                            ExtensionEchoProver(x), 0)
    assert res.verdict == Verdict(False, "learner-abort")


def test_learnable_non_member_echo_is_rejected_before_any_query():
    n = 4
    D = Pmf.uniform(n)
    res = run_learnable_ipp((1,) * n, D, Fraction(1, 2), exact_learner(D),
                            explicit_set_uniform_ipp(ALL_ONES, n),
                            ExtensionEchoProver((0, 1, 1, 1)), 0)
    assert res.verdict == Verdict(False, "not-member")
    assert res.ledger.queries == 0


def test_learnable_far_input_rejected_and_distance_certified():
    n = 4
    x = (0, 0, 0, 0)
    D = Pmf.uniform(n)
    # certify d_U(X', L'_Q) on the virtual strings by direct computation
    Q = extension_row_map(granularise(D).counts)
    member_virt = tuple(1 if src != n else 0 for src in Q)
    assert tuple(extend_rows((1,) * n, Q, 0)) == member_virt  # what the all-ones echo sends
    assert extension_member(ALL_ONES, Q, n, member_virt)
    assert not extension_member(ALL_ONES, Q, n, member_virt + (1,))  # no extra trailing slot
    x_virt = tuple(0 for _ in Q)
    d_virtual = Fraction(sum(1 for a, b in zip(member_virt, x_virt) if a != b), len(Q))
    eps = Fraction(1, 2)
    assert d_virtual > eps / 4
    factory = explicit_set_uniform_ipp(ALL_ONES, n)
    for seed in range(50):
        res = run_learnable_ipp(x, D, eps, exact_learner(D), factory,
                                ExtensionEchoProver((1,) * n), seed)
        assert not res.verdict.accepted


def test_learnable_virtual_query_cost():
    n = 4
    x = (1, 1, 1, 1)
    D = Pmf.uniform(n)
    factory = explicit_set_uniform_ipp(ALL_ONES, n)
    res = run_learnable_ipp(x, D, Fraction(1, 2), exact_learner(D), factory,
                            ExtensionEchoProver(x), 3)
    assert res.verdict.accepted
    # every spot check maps to exactly one source query (all slots real here)
    trials = math.ceil(Fraction(10) / (Fraction(1, 2) / 4))
    assert res.ledger.queries == trials


# --- fixtures ----------------------------------------------------------------------------

def test_fixture_uniform_profile():
    D, circuit = gen_product_fixture(2, 3, "uniform")
    assert dispersion_rho(D.joint_pmf()).rho == 1
    assert circuit_pmf(circuit).masses == D.joint_pmf().masses


def test_fixture_row_concentrated_dispersion_k():
    for k in (2, 4):
        D, circuit = gen_product_fixture(k, 2, "row-concentrated")
        assert dispersion_rho(D.joint_pmf()).rho == k
        assert circuit_pmf(circuit).masses == D.joint_pmf().masses


def test_fixture_dyadic_random_round_trip():
    rng = random.Random(11)
    for _ in range(5):
        D, circuit = gen_product_fixture(2, 2, "dyadic-random", rng=rng)
        assert circuit_pmf(circuit).masses == D.joint_pmf().masses


# sha256 of (factor weights and denominators, circuit inputs, gates, outputs, the next
# 32 bits of the rng) per (profile, k, m, rng seed), pinned before the profile table
FIXTURE_DIGESTS = {
    ("uniform", 1, 2, None): "6bb90598bd585dcd",
    ("uniform", 2, 3, None): "e7d947ccb41e1fac",
    ("uniform", 4, 2, None): "c86bccc52a837a0c",
    ("row-concentrated", 2, 2, None): "47c9a0330270a664",
    ("row-concentrated", 4, 3, None): "aa9612e6d7580bf4",
    ("row-concentrated", 8, 1, None): "d4a5a65634f1e9c4",
    ("dyadic-random", 2, 3, 1): "fb00ed9babf57160",
    ("dyadic-random", 4, 2, 2): "cfa2197b2b229264",
    ("dyadic-random", 8, 2, 3): "46ca1f0ea3a660c8",
}


@pytest.mark.parametrize("profile,k,m,seed", sorted(FIXTURE_DIGESTS, key=str))
def test_fixture_profiles_are_pinned(profile, k, m, seed):
    rng = None if seed is None else random.Random(seed)
    D, C = gen_product_fixture(k, m, profile, rng=rng)
    record = ([(f.weights, f.denom) for f in D.factors], C.n_inputs, C.gates, C.outputs,
              None if rng is None else rng.getrandbits(32))
    assert hashlib.sha256(repr(record).encode()).hexdigest()[:16] == \
        FIXTURE_DIGESTS[(profile, k, m, seed)]


def test_fixture_profiles_are_the_table_and_the_config_schema():
    assert {key[0] for key in FIXTURE_DIGESTS} == set(FIXTURE_PROFILES)
    assert _PROTOCOLS["whitebox_product"][1]["profile"] == frozenset(FIXTURE_PROFILES)
    for profile, rng, message in (("point", None, "unknown profile 'point'"),
                                  ("dyadic-random", None, "dyadic-random needs an rng")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_product_fixture(2, 2, profile, rng=rng)


def test_fixture_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        gen_product_fixture(3, 2, "uniform")


def test_learner_chain_inequality_on_accepted_claims():
    # whenever the set lower bound accepts claims from the certified band,
    # the granular mass dominates (1 - tau) * true mass / 2, via the two
    # separate links: p~_i >= (1-tau) * true_i and a_i/8k >= p~_i/2
    rng = random.Random(12)
    tau = Fraction(1, 1000)
    for _ in range(50):
        D, circuit = gen_product_fixture(2, 2, "dyadic-random", rng=rng)
        true = list(D.factors[0].masses)
        claims = list(true)
        if rng.getrandbits(1) and all(t > 0 for t in true):
            i, j = rng.sample(range(2), 2)
            shift = min(true[i], true[j]) * tau / 2
            claims[i] += shift
            claims[j] -= shift
        claim = MarginalClaim(tuple(claims), tau, Fraction(1, 20))
        prover = HonestSlbProver(slb_preimages(circuit, lambda y: y >> 1))  # first factor bit
        res = run_set_lower_bound(circuit, claim, prover, rng.getrandbits(32),
                                  symbol_of=lambda y: y >> 1)
        assert res.verdict.accepted
        for p_claim, p_true in zip(claims, true):
            assert p_claim >= (1 - tau) * p_true
        grains = granularise(Pmf(claims))
        for a_i, p_claim, p_true in zip(grains.counts[:-1], claims, true):
            assert Fraction(a_i, 16) >= p_claim / 2
            assert Fraction(a_i, 16) >= (1 - tau) * p_true / 2


def test_whitebox_two_rounds_message_count():
    rng = random.Random(13)
    D, circuit = gen_product_fixture(2, 4, "uniform")
    X, inst = member_instance(F17, 2, 4, rng)
    prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, X.k, X.m))
    res = run_whitebox_product_ipp(X, inst, Fraction(9, 10), circuit, 2, prover, 0)
    assert res.verdict.accepted
    assert res.ledger.messages == 5 * 2 + 1
    assert res.ledger.samples == 0


def test_slb_probabilistic_hash_completeness_with_slack():
    # bucket_bits = 3 on a claim with 2x headroom: the hash estimator has
    # mean 16 against an acceptance threshold of 8, so accepts dominate
    ell = 8
    circuit = SamplingCircuit.identity(ell)
    claim = MarginalClaim((Fraction(1, 4), Fraction(0)), Fraction(1, 2),
                          Fraction(1, 10))
    top_bit = lambda y: y >> 7  # true mass of symbol 0 is 1/2
    prover = HonestSlbProver(slb_preimages(circuit, top_bit))
    accepted = 0
    trials = 100
    for seed in range(trials):
        res = run_set_lower_bound(circuit, claim, prover, seed, symbol_of=top_bit,
                                  bucket_bits=3)
        accepted += res.verdict.accepted
    assert accepted / trials >= 0.9


def test_whitebox_completeness_with_nonuniform_factors():
    # dyadic-random factors make granularities uneven, so extensions carry
    # live zero rows; the honest path must still accept every seed
    rng = random.Random(14)
    found_zero_row = False
    for trial in range(10):
        D, circuit = gen_product_fixture(2, 3, "dyadic-random", rng=rng)
        X, inst = member_instance(F5, 2, 3, rng)
        B = granularise(D.factors[0])
        found_zero_row = found_zero_row or B.counts[-1] > 0
        for seed in range(10):
            prover = WhiteboxFoldProver(X, D.factors, coordinate_preimages(circuit, X.k, X.m))
            res = run_whitebox_product_ipp(X, inst, Fraction(1, 2), circuit, 1,
                                           prover, seed)
            assert res.verdict.accepted, (trial, seed, res.verdict)
    assert found_zero_row
