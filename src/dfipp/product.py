"""Product-distribution machinery: the parallel set-lower-bound interactive
proof, extended polynomial folding over granular extensions, the white-box
product-distribution PVAL IPP, the product distance-preservation check, and
the dyadic product fixtures.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from numbers import Rational
from operator import ge
from typing import Callable, NamedTuple, Optional, Sequence

from .field import InputTensor, PrimeField, cell_coord
from .tensors import DEFAULT_ENUM_BUDGET, PvalInstance
from .distributions import (CIRCUIT_INPUT_BUDGET, GranularitySet, Pmf, ProductDistribution,
                            SamplingCircuit, extension_row_map, granularise)
from .session import (ACCEPT, ProtocolViolation, ProverStrategy, RunResult, Section, Session,
                      Verdict, run_session)
from .protocols import (FoldState, HonestFoldProver, InequalityReport, _fold_phase, _leaf_phase,
                        _preservation_report, _round_kappa)

_RATIONAL_BITS = 64
DEFAULT_TAU = Fraction(1, 1000)  # lower-bound slack of a marginal claim unless one is set


def _encode_fraction(f: Fraction) -> tuple[int, int]:
    if f.numerator < 0 or f.numerator >= (1 << _RATIONAL_BITS) or \
            f.denominator >= (1 << _RATIONAL_BITS):
        raise ProtocolViolation(f"rational {f} does not fit the wire format")
    return f.numerator, f.denominator


class ClaimSumError(ValueError):
    """A MarginalClaim whose probabilities sum to more than 1."""


@dataclass(frozen=True)
class MarginalClaim:
    """Claimed factor probabilities probs[i] = weights[i] / denom, slack tau, budget delta."""

    probs: tuple[Fraction, ...]
    tau: Fraction
    delta: Fraction

    def __post_init__(self):
        for v in {type(v): v for v in (*self.probs, self.tau, self.delta)}.values():
            if not isinstance(v, Rational):  # one check per type
                raise ValueError(f"claim value {v!r} is not a rational number")
        if not (0 < self.tau < 1 and 0 < self.delta < 1):
            raise ValueError("tau and delta must lie in (0, 1)")
        denom = math.lcm(*(p.denominator for p in self.probs))
        weights = tuple(p.numerator * (denom // p.denominator) for p in self.probs)
        if any(w < 0 for w in weights):
            raise ValueError("negative claimed probability")
        if sum(weights) > denom:
            raise ClaimSumError("claimed probabilities exceed 1")
        object.__setattr__(self, "weights", weights)  # derived from probs: not fields
        object.__setattr__(self, "denom", denom)


# --- parallel Goldwasser-Sipser set lower bound --------------------------------

def _bucket_bits(N: Fraction, ell: int, tau: Fraction, delta_sym: Fraction) -> int:
    """Largest b with 2^b <= delta*tau^2*N^2 / (4*2^ell); one Chebyshev round
    then meets both error bounds.  0 means exact counting."""
    cap_floor = (delta_sym.numerator * tau.numerator ** 2 * N.numerator ** 2) // (
        delta_sym.denominator * tau.denominator ** 2 * N.denominator ** 2 * 4 << ell)
    return max(0, cap_floor.bit_length() - 1)


def _hash_zero(rows: Sequence[int], c: int, x: int) -> bool:
    for j, row in enumerate(rows):
        if ((row & x).bit_count() ^ (c >> j)) & 1:
            return False
    return True


def slb_verify(session: Session, circuit: SamplingCircuit, claim: MarginalClaim,
               symbol_of: Callable[[int], int], bucket_bits: Optional[int] = None) -> Verdict:
    """One parallel set-lower-bound interactive proof.

    For each symbol i < len(claim.probs) with claimed probability p_i > 0,
    the verifier draws a random affine GF(2) hash, the prover returns every
    preimage of i hashed to zero, and the verifier re-evaluates each witness.
    Accepts iff every estimated preimage count clears (1 - tau/2) * p_i * 2^ell.
    Thresholds come once per distinct mass; symbols with b = 0 share one hash section.

    Completeness >= 1-delta when the true masses dominate the claims;
    soundness <= delta when some claim overstates by 1/(1-tau).
    """
    ell, tau, weights, denom = circuit.n_inputs, claim.tau, claim.weights, claim.denom
    size, width, getrandbits = 1 << ell, max(ell, 1), session.rng.getrandbits
    active = [i for i, w in enumerate(weights) if w]
    if not active:
        return ACCEPT
    delta_sym = claim.delta / len(active)
    # 1 - tau/2 = slack_n / slack_d, so |w| * 2^b >= (1 - tau/2) * (w_i / denom) * 2^ell
    # iff |w| >= need = ceil((slack_n * w_i << ell) / (slack_d * denom << b))
    slack_n, slack_d = 2 * tau.denominator - tau.numerator, 2 * tau.denominator
    by_mass = {}  # claimed weight -> (b, need)
    for w in {weights[i] for i in active}:
        b = _bucket_bits(Fraction(w << ell, denom), ell, tau, delta_sym) \
            if bucket_bits is None else bucket_bits
        by_mass[w] = b, -(-(slack_n * w << ell) // (slack_d * denom << b))

    hashes, hash_sections, needs = [], [], []
    no_hash = Section((0,), width)
    for i in active:
        b, need = by_mass[weights[i]]
        rows = tuple(getrandbits(ell) for _ in range(b)) if b else ()
        c = getrandbits(b) if b else 0
        hashes.append((i, b, rows, c))
        hash_sections.append((rows + (c,), width) if b else no_hash)
        needs.append(need)
    session.tell("slb/hash", hash_sections)

    msg = session.ask("slb/witness", list(hashes))
    if len(msg.sections) != len(active):
        raise ProtocolViolation("one witness list per active symbol required")
    # every in-range witness of every section, evaluated in one pass; a union that
    # covers all 2^ell inputs within budget is the truth table, indexed by input
    values = [sec.values for sec in msg.sections]
    union = set().union(*values)
    full = len(union) == size and max(union) < size and ell <= CIRCUIT_INPUT_BUDGET
    inputs = [] if full else sorted(x for x in union if x < size)
    outs = circuit.table if full else circuit.eval_many(inputs)
    symbols = {y: symbol_of(y) for y in set(outs)}  # once per distinct output
    symbol = list(map(symbols.__getitem__, outs))
    if not full:
        symbol = dict(zip(inputs, symbol))
    # one pass over all witnesses: if every width is right, no witness repeats or lies out
    # of range and each has its section's symbol, only hashes and counts are left, and with
    # no hash rows the counts settle it; else each section is checked in full, in order,
    # so the first bad section still decides the verdict
    chain = itertools.chain.from_iterable
    flat = list(chain(values))
    clean = (len(flat) == len(union) and (full or max(flat, default=0) < size)
             and {s.width for s in msg.sections} == {width} and list(map(symbol.__getitem__, flat))
             == list(chain(map(itertools.repeat, active, map(len, values)))))
    if clean and not any(b for b, _ in by_mass.values()) and all(map(ge, map(len, values), needs)):
        return ACCEPT
    for (i, b, rows, c), need, sec in zip(hashes, needs, msg.sections):
        witnesses = sec.values
        if sec.width != width or len(witnesses) > size:
            raise ProtocolViolation("witness section malformed")
        if witnesses and ((b and not all(_hash_zero(rows, c, x) for x in witnesses)) or (
                not clean and (len(set(witnesses)) < len(witnesses) or max(witnesses) >= size
                               or set(map(symbol.__getitem__, witnesses)) != {i}))):
            return Verdict(False, "witness")
        if len(witnesses) < need:
            return Verdict(False, "lower-bound")
    return ACCEPT


class Preimages(NamedTuple):
    """An honest prover's set-lower-bound answers over a circuit of ell inputs:
    symbol -> every input with that symbol, ascending.  It depends only on the
    circuit and the symbol map, so the provers of a set-up share one."""

    ell: int
    inputs: dict[int, tuple[int, ...]]

    def witness_sections(self, payload) -> list:
        """Per hash request (i, b, rows, c): the preimages of i that hash to zero
        (all of them when b = 0, where there is no hash row)."""
        width = max(self.ell, 1)
        return [(tuple(x for x in self.inputs.get(i, ()) if _hash_zero(rows, c, x)) if b
                 else self.inputs.get(i, ()), width) for i, b, rows, c in payload]


def slb_preimages(circuit: SamplingCircuit, symbol_of: Callable[[int], int]) -> Preimages:
    """The Preimages of one symbol map, an HonestSlbProver's answers: one walk of the
    circuit's truth table, so each symbol's inputs come out ascending, with symbol_of
    called once per distinct output.  Refused over CIRCUIT_INPUT_BUDGET inputs."""
    inputs: dict[int, list[int]] = {}
    add = {y: inputs.setdefault(symbol_of(y), []).append for y in dict.fromkeys(circuit.table)}
    for x, y in enumerate(circuit.table):
        add[y](x)
    return Preimages(circuit.n_inputs, {i: tuple(xs) for i, xs in inputs.items()})


def coordinate_preimages(circuit: SamplingCircuit, k: int, m: int) -> Callable[[int], Preimages]:
    """Round d -> the Preimages of the symbol map output -> its coordinate d of [k]^m:
    the white-box prover's answers in round d, built on the first ask for d only."""
    return cache(lambda d: slb_preimages(circuit, partial(cell_coord, k=k, m=m, d=d)))


class HonestSlbProver(ProverStrategy):
    """Answers hash rounds exactly from the preimage table of its set-up."""

    def __init__(self, preimages: Preimages):
        self.preimages = preimages

    def reply(self, tag, payload):
        if tag != "slb/witness":
            raise ProtocolViolation(f"unexpected tag {tag}")
        return self.preimages.witness_sections(payload)


def run_set_lower_bound(circuit: SamplingCircuit, claim: MarginalClaim,
                        prover: ProverStrategy, seed: int,
                        symbol_of: Optional[Callable[[int], int]] = None,
                        bucket_bits: Optional[int] = None) -> RunResult:
    symbol_of = symbol_of or (lambda y: y)
    return run_session(lambda s: slb_verify(s, circuit, claim, symbol_of, bucket_bits),
                       prover, seed)


# --- extended polynomial folding -------------------------------------------------

def wb_fold_kappa(r: int, k: int) -> int:
    """kappa = 32 * log2(8k) * log2(max(r,2)), floored to at least 1."""
    return max(1, math.ceil(32 * math.log2(8 * k) * math.log2(max(r, 2))))


def extended_fold_phase(session: Session, live: list[FoldState], k: int,
                        field: PrimeField, kappa: int, B: GranularitySet):
    """Fold every live tuple through the B-extension of g_cat of its view.

    The prover sends the plain k-row matrices; the verifier folds them through
    the row map extension_row_map(B) (source k is the appended zero row) and
    draws folding vectors in F^(8k).
    """
    return _fold_phase(session, live, k, field, kappa, extension_row_map(B.counts))


# --- the white-box product IPP ----------------------------------------------------

def whitebox_verifier(session: Session, X: InputTensor, inst: PvalInstance,
                      eps: Fraction, circuit: SamplingCircuit, r: int,
                      tau: Fraction, kappa_override: Optional[int],
                      bucket_bits: Optional[int]) -> Verdict:
    field, k, m = inst.field, inst.k, inst.m
    kappa = _round_kappa(session, r, k, m, kappa_override, wb_fold_kappa)
    delta = Fraction(1, 20 * r)

    live = [FoldState.root(inst)]
    for rnd in range(r):
        msg = session.ask("wb/marginal", rnd, expect=[(2 * k, _RATIONAL_BITS)])
        pairs = msg.values()
        nums, dens = pairs[0::2], pairs[1::2]
        # only canonical encodings: a positive denominator in lowest terms
        if any(d == 0 or math.gcd(n, d) != 1 for n, d in zip(nums, dens)):
            return Verdict(False, "marginal")
        probs = tuple(map(Fraction, nums, dens))
        if sum(probs) != 1:
            return Verdict(False, "marginal")
        claim = MarginalClaim(probs, tau, delta)
        verdict = slb_verify(session, circuit, claim,
                             symbol_of=lambda y, d=rnd: cell_coord(y, k, m, d),
                             bucket_bits=bucket_bits)
        if not verdict.accepted:
            return Verdict(False, "learner")
        live, verdict = extended_fold_phase(session, live, k, field, kappa,
                                            granularise(Pmf(probs)))
        if verdict is not None:
            return verdict

    # truncated-product draws via the sampling device: a full index from C, whose
    # first r coordinates _leaf_phase drops -- the suffix of a product is the
    # product of the remaining factors
    def draw(nq):
        return circuit.eval_many([session.rng.getrandbits(circuit.n_inputs) for _ in range(nq)])

    return _leaf_phase(session, X, live, r, eps, Fraction(16), draw)


def run_whitebox_product_ipp(X: InputTensor, inst: PvalInstance, eps: Fraction,
                             circuit: SamplingCircuit, r: int,
                             prover: ProverStrategy, seed: int,
                             tau: Fraction = DEFAULT_TAU,
                             kappa_override: Optional[int] = None,
                             bucket_bits: Optional[int] = None) -> RunResult:
    """White-box PVAL IPP over m-product distributions.

    No sample oracle is bound: every distribution access goes through the
    sampling circuit, so the ledger's sample count stays 0.  Each set lower
    bound runs at error budget delta = 1/(20r).
    """
    return run_session(lambda s: whitebox_verifier(s, X, inst, eps, circuit, r, tau,
                                                   kappa_override, bucket_bits),
                       prover, seed, X.data)


class WhiteboxFoldProver(HonestFoldProver):
    """Prover side of the white-box IPP: the honest fold prover plus marginals
    and set-lower-bound witnesses.

    Sends the true factor marginals (an honest learner never trips the set
    lower bound) and answers folding and leaf requests on its committed
    tensor through the row map each fold request carries.  Its witnesses in
    round d come from preimages(d) (coordinate_preimages of the circuit), which
    the provers of a set-up share, so a run of r rounds builds r tables.  Commit
    to a tensor other than X to get the fixed-alternative adversary; override
    marginal() for distribution-lying strategies.
    """

    def __init__(self, tensor: InputTensor, factors: Sequence[Pmf],
                 preimages: Callable[[int], Preimages]):
        super().__init__(tensor)
        self.factors = tuple(factors)
        self.preimages = preimages  # round -> its table: see coordinate_preimages
        self.round = -1

    def marginal(self, rnd: int) -> tuple[Fraction, ...]:
        return tuple(self.factors[rnd].masses)

    def reply(self, tag, payload):
        if tag == "wb/marginal":
            self.round = payload
            return [(tuple(v for p in self.marginal(payload) for v in _encode_fraction(p)),
                     _RATIONAL_BITS)]
        if tag == "slb/witness":
            return self.preimages(self.round).witness_sections(payload)
        return super().reply(tag, payload)


# --- product distance preservation -------------------------------------------------

def check_product_dpl(X: InputTensor, tail_factors: Sequence[Pmf],
                      Y: Sequence[Sequence[int]], B: GranularitySet,
                      inst: PvalInstance, tau: Fraction,
                      budget: int = DEFAULT_ENUM_BUDGET) -> InequalityReport:
    """Distance preservation for one extended folding round.

    With gamma = mu_{D-hat, U-hat}(X, PVAL(J, v)), the lemma's consequent is
    sum_{i=1}^{8k} mu(X'_i, PVAL(J_2, U_i)) > 2k(1-tau)*gamma over the rows
    of the B-extension of g_cat(X), checked in its sharp non-strict form at
    the exact gamma.
    """
    Dhat = ProductDistribution(tail_factors).joint_pmf()
    Dhat2 = ProductDistribution(tail_factors[1:]).joint_pmf()
    return _preservation_report(X, Dhat, Dhat2, Y, inst, 2 * inst.k * (1 - tau),
                               extension_row_map(B.counts), budget)


# --- fixtures -----------------------------------------------------------------------

# profile -> the m factors over [k] of a product fixture; a random profile draws
# them from rng in factor order
FIXTURE_PROFILES = {
    "uniform": lambda k, m, rng: [Pmf.uniform(k)] * m,
    "row-concentrated": lambda k, m, rng: [Pmf.point_mass(0, k)] + [Pmf.uniform(k)] * (m - 1),
    # 16 grains of mass 1/16: dyadic masses
    "dyadic-random": lambda k, m, rng: [Pmf.random_grains(k, 16, rng) for _ in range(m)],
}


def _factor_table(factor: Pmf) -> tuple[int, list[int]]:
    """(d, table): input u of d bits samples symbol table[u] with factor's law."""
    denom = factor.denom  # the lcm of the reduced masses' denominators
    if denom & (denom - 1):
        raise ValueError("factor masses must be dyadic")
    d = max(1, denom.bit_length() - 1)
    # denom divides 2^d, so each bound cum * 2^d / denom is an integer;
    # input u samples the first symbol whose bound exceeds u
    bounds = [(cum << d) // denom for cum in itertools.accumulate(factor.weights)]
    return d, [bisect_right(bounds, u) for u in range(1 << d)]


def gen_product_fixture(k: int, m: int, profile: str, rng=None):
    """(ProductDistribution, SamplingCircuit) pairs with exactly matching laws.

    profile: a key of FIXTURE_PROFILES.  Masses are dyadic and k must be a
    power of two so a circuit realizes the distribution exactly (circuit_pmf
    round-trips).
    """
    if k & (k - 1):
        raise ValueError("k must be a power of two for exact circuit samplers")
    if profile not in FIXTURE_PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if profile == "dyadic-random" and rng is None:
        raise ValueError("dyadic-random needs an rng")
    factors = FIXTURE_PROFILES[profile](k, m, rng)
    # flat cell index = sum_t i_t * k^(m-t): factor 1's output lands in the top bits
    circuit = SamplingCircuit.from_tables([_factor_table(f) for f in factors],
                                          k.bit_length() - 1)
    return ProductDistribution(factors), circuit
