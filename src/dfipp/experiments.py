"""Batch experiment runner: protocol execution, Monte-Carlo estimation,
lemma-check suites, lower-bound fixture generation, and CSV/JSON reporting.

Everything is reproducible from (config, seed): trial seeds derive from the
config seed, setup randomness from a fixed offset of it, and report files
are byte-identical across reruns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from dataclasses import asdict, fields, replace
from functools import cache, partial
from typing import NamedTuple, Optional

from .field import InputTensor, PrimeField, lagrange_basis, lde_eval, uniform_draws
from .tensors import (DEFAULT_ENUM_BUDGET, INF, BudgetExceeded, PvalInstance, coset, dist,
                      pval_min_distance, solve_affine)
from .distributions import (CIRCUIT_INPUT_BUDGET, Pmf, ProductDistribution, SamplingCircuit,
                            dispersion_rho, granularise, marginal_first, tv_distance)
from .session import (ACCEPT, TRAILER_FIELDS, CostLedger, ProverStrategy, ReplayProver,
                      RunResult, Verdict, amplify, dump_transcript, has_fields, load_transcript,
                      run_session)
from .protocols import (DEFAULT_HAM_C, DEFAULT_NC_R, BadSumHamProver, ClaimGenerator,
                        HonestFoldProver, HonestHamProver, NullProver, RandomLieFoldProver,
                        RowTamperFoldProver, ScriptedClaimsProver, blr_linearity_ipp,
                        check_appendix_claims, check_distance_preservation,
                        check_subspace_lemma, fold_kappa, hadamard_codeword,
                        hadamard_corrector, project_points, run_df_ipp_nc,
                        run_dispersed_ipp_nc, run_fin_ipp, run_ham_ipp, run_poly_fold,
                        run_rlcc_transform, run_symmetric_ipp)
from .product import (DEFAULT_TAU, FIXTURE_PROFILES, ClaimSumError, HonestSlbProver,
                      MarginalClaim, WhiteboxFoldProver, check_product_dpl, coordinate_preimages,
                      gen_product_fixture, run_set_lower_bound, run_whitebox_product_ipp,
                      slb_preimages)

_LEDGER = [f.name for f in fields(CostLedger)]
_META = ["protocol", "n", "k", "m", "r", "eps", "rho", "field"]  # a set-up's row fields
CSV_COLUMNS = [*_META, *_LEDGER, "accepted", "reject_reason", "seed"]

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_EXACT_FAIL = 2
EXIT_REFUSED = 3


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(str(v))


def _setup_rng(seed: int) -> random.Random:
    return random.Random((seed * 2654435761 + 0x5E7F) % (1 << 63))


# --- protocol configs ---------------------------------------------------------

# Every config is checked against its protocol's specs before any builder runs,
# so builders read trusted values.  A spec is a type (float: any JSON number; an
# int is never a bool), a range of ints, a frozenset of strings, a predicate,
# [spec] for a list, (required, optional) key -> spec dicts for an object, or Modes.

class Modes(NamedTuple):
    """A tagged object: value[tag] (or default, unless that is None) names a variant,
    (required specs, optional specs, build(object, *builder args))."""
    tag: str
    default: Optional[str]
    variants: dict

    def build(self, spec: dict, *args):
        """The variant that the checked object `spec` names, built from args."""
        return self.variants[spec.get(self.tag, self.default)][2](spec, *args)


POSITIVE = range(1, 1 << 63)


def _rational(value) -> Fraction:
    """value as a Fraction when it is an int, a float or a "p/q" string, else -1."""
    try:
        return _frac(value) if type(value) in (int, float, str) else Fraction(-1)
    except (ValueError, ZeroDivisionError):
        return Fraction(-1)


def _positive(value) -> bool:
    return _rational(value) > 0


def _unit(value) -> bool:
    return 0 < _rational(value) < 1


def _mass(value) -> bool:
    return _rational(value) >= 0


def _probability(value) -> bool:
    return type(value) in (int, float) and 0 <= value <= 1  # NaN compares False


def _sized(values: list, n: int, key: str) -> tuple:
    """values as a tuple; a ValueError names the config key unless there are n of them."""
    if len(values) != n:
        raise ValueError(f"config key {key!r} must have {n} entries, not {len(values)}")
    return tuple(values)


def _within(value: int, lo: int, hi: int, key: str) -> int:
    """value; a ValueError names the config key unless lo <= value < hi."""
    if not lo <= value < hi:
        raise ValueError(f"config key {key!r} must lie in [{lo}, {hi}), not {value}")
    return value


def _rounds(config: dict) -> int:
    """config's folding rounds r (DEFAULT_NC_R unless set); a ValueError names the key
    unless 1 <= r <= m - 1, so no trial reaches the verifier's own check of r."""
    return _within(config.get("r", DEFAULT_NC_R), 1, config["m"], "r")


def _cells(values: list, field: PrimeField, n: int, key: str) -> tuple:
    """values as a tuple; a ValueError names the config key unless they are n field elements."""
    if not all(0 <= v < field.modulus for v in values):
        raise ValueError(f"config key {key!r} must hold field elements in [0, {field.modulus})")
    return _sized(values, n, key)


def _error(key: Optional[str], problem: str) -> ValueError:
    return ValueError(("config " if key is None else f"config key {key!r} ") + problem)


def _check(value, spec, key: Optional[str]) -> None:
    """Raise ValueError naming the dotted config path `key` unless value meets spec."""
    if isinstance(spec, Modes) and type(value) is dict:
        variant = value.get(spec.tag, spec.default)
        if type(variant) is not str or variant not in spec.variants:
            raise _error(key, f"is missing {spec.tag!r}" if variant is None else
                         f"has an unknown {spec.tag} {variant!r}")
        required, optional, _ = spec.variants[variant]
        return _check(value, (required, {spec.tag: str, **optional}), key)
    if isinstance(spec, tuple) and type(value) is dict:
        required, optional = spec
        for name in required:
            if name not in value:
                raise _error(key, f"is missing {name!r}")
        for name in sorted(value):
            item = required.get(name) or optional.get(name)
            if item is None:
                unknown = sorted(value.keys() - required.keys() - optional.keys())
                raise _error(key, f"has unknown keys: {unknown}")
            _check(value[name], item, name if key is None else f"{key}.{name}")
        return
    if isinstance(spec, list) and type(value) is list and spec[0] is not int:
        for item in value:
            _check(item, spec[0], key)
        return
    if isinstance(spec, list):  # a flat int list, in one pass
        ok = type(value) is list and set(map(type, value)) <= {int}
    elif isinstance(spec, type):
        ok = type(value) is spec or spec is float and type(value) is int
    elif isinstance(spec, (range, frozenset)):  # "x" in a range would scan it
        ok = type(value) is (int if isinstance(spec, range) else str) and value in spec
    else:
        ok = not isinstance(spec, tuple) and spec(value)
    if not ok:
        raise _error(key, f"has a bad type or value: {value!r}")


def validate_config(config: dict) -> None:
    """Raise ValueError naming the first bad config key by its dotted path."""
    _check(config, _CONFIG, None)
    if ("points" in config) != ("values" in config):
        raise ValueError("config keys 'points' and 'values' must be given together")


_ALT = {"alt": [int]}
_BITS = [range(2)]


def _alternative(spec: dict, X: InputTensor) -> InputTensor:
    """X with the cells of spec's "alt", which must be X.n field elements."""
    return replace(X, data=_cells(spec["alt"], X.field, X.n, "prover.alt"))


# a prover object builds a factory of fresh provers; random-lie seeds each one's coins
# with one setup-rng draw, the last of its set-up
_FOLD_PROVERS = Modes("mode", "honest", {
    "honest": ({}, {}, lambda s, X, rng: partial(HonestFoldProver, X)),
    "fixed-alternative": (_ALT, {}, lambda s, X, rng: partial(
        HonestFoldProver, _alternative(s, X))),
    # a col past the columns the verifier asks for in a round ends the session malformed
    "row-tamper": ({}, {"row": int, "col": range(1 << 63), "delta": int}, lambda s, X, rng:
                   partial(RowTamperFoldProver, X, _within(s.get("row", 0), 0, X.k, "prover.row"),
                           s.get("col", 0),
                           _within(s.get("delta", 1), 1, X.field.modulus, "prover.delta"))),
    "random-lie": ({}, {"prob": _probability}, lambda s, X, rng: partial(
        lambda seed: RandomLieFoldProver(X, float(s.get("prob", 0.1)), random.Random(seed)),
        rng.getrandbits(63))),
})
_HAM_PROVERS = Modes("mode", "honest", {
    "honest": ({}, {}, lambda s, x: partial(HonestHamProver, x)),
    "committed": ({"alt": _BITS}, {}, lambda s, x: partial(
        HonestHamProver, _sized(s["alt"], len(x), "prover.alt"))),
    "bad-sum": ({}, {}, lambda s, x: partial(BadSumHamProver, x)),
})
# a white-box prover object builds the tensor that the prover commits to
_WHITEBOX_PROVERS = Modes("mode", "honest", {
    "honest": ({}, {}, lambda s, X: X),
    "fixed-alternative": (_ALT, {}, _alternative),
})


def _claimed(spec: dict, field: PrimeField, m: int, key: str = "") -> tuple:
    """(J, v) of spec's "points" and "values" as tuples; a ValueError names the key
    unless J lies in F^m, v in F and |J| = |v|."""
    J = tuple(_cells(pt, field, m, key + "points") for pt in spec["points"])
    return J, _cells(spec["values"], field, len(J), key + "values")


# a claims object builds the J it fixes and the v a scripted prover answers, or two Nones
_NC_CLAIMS = Modes("mode", "honest", {
    "honest": ({}, {"t": POSITIVE}, lambda s, X: (None, None)),
    "adversarial": ({"points": [[int]], "values": [int]}, {},
                    lambda s, X: _claimed(s, X.field, X.m, "claims.")),
})
_DISTRIBUTION = Modes("kind", None, {
    # masses read through _frac, as every rational key: 0.1 is 1/10, not its binary value
    "explicit": ({"masses": [_mass]}, {"shape": [POSITIVE]}, lambda s: Pmf(
        list(map(_frac, s["masses"])), shape=tuple(s["shape"]) if "shape" in s else None)),
    "product": ({"factors": [[_mass]]}, {}, lambda s: ProductDistribution(
        [Pmf(list(map(_frac, f))) for f in s["factors"]])),
    # at most the inputs that circuit_pmf and HonestSlbProver enumerate
    "circuit": ({"inputs": range(0, CIRCUIT_INPUT_BUDGET + 1), "gates": [list],
                 "outputs": [int]}, {}, lambda s: SamplingCircuit(
        s["inputs"], tuple(map(tuple, s["gates"])), tuple(s["outputs"]))),
})


def _tensor(config: dict, rng: random.Random) -> InputTensor:
    """The config's tensor x, else a random one from the setup rng."""
    field = PrimeField(config["field_modulus"])
    k, m = config["k"], config["m"]
    if "x" in config:
        return InputTensor(field, k, m, _cells(config["x"], field, k ** m, "x"))
    return InputTensor.random(field, k, m, rng)


def _tensor_and_instance(config: dict, rng: random.Random):
    """Shared setup for the PVAL-based protocols: tensor + (J, v)."""
    X = _tensor(config, rng)
    if "points" in config:
        points, values = _claimed(config, X.field, X.m)
    else:
        points = X.field.rand_points(config.get("t", 2), X.m, rng)
        values = tuple(lde_eval(X, pt) for pt in points)
    return X, PvalInstance(X.field, X.k, X.m, points, values)


def _distribution(config: dict, n: int, shape=None):
    """The config's distribution, else the uniform one; a ValueError names the key
    unless it has n cells, and the protocol's shape where both give one."""
    if "distribution" not in config:
        return Pmf.uniform(n, shape=shape)
    D = _DISTRIBUTION.build(config["distribution"])
    if D.n != n or None not in (shape, getattr(D, "shape", None)) and D.shape != shape:
        raise ValueError(f"config key 'distribution' must have {n} cells"
                         + (f" in shape {list(shape)}" if shape else ""))
    return D


def _bucket_bits(config: dict, ell: int) -> Optional[int]:
    """config's bucket_bits; a ValueError names the key unless the hash it sets fits
    the max(ell, 1)-bit slots the set lower bound sends it in."""
    b = config.get("bucket_bits")
    if b is not None and not 0 <= b <= max(ell, 1):
        raise ValueError(f"config key 'bucket_bits' must be in [0, {max(ell, 1)}]")
    return b


def _fold_meta(X: InputTensor, **fields) -> dict:
    """Report fields of a fold protocol on X."""
    return {"n": X.n, "k": X.k, "m": X.m, "field": X.field.modulus, **fields}


def _run_echo(config: dict, rng: random.Random):
    bits = config.get("bits", 16)

    def verifier(session):
        x = tuple(session.rng.getrandbits(1) for _ in range(bits))
        session.tell("echo/x", [(x, 1)])
        msg = session.ask("echo/reply", None, expect=[(bits, 1)])
        return ACCEPT if msg.values() == x else Verdict(False, "echo-mismatch")

    return (lambda prover, seed: run_session(verifier, prover, seed)), \
        EchoProver, {"n": bits}


def _ham_setup(config: dict, rng: random.Random):
    """Input bits, distribution, eps, prover factory and row fields of ham and symmetric."""
    n = config["n"]
    eps = _frac(config["eps"])
    x = _sized(config["x"], n, "x") if "x" in config else \
        tuple(rng.getrandbits(1) for _ in range(n))
    D = _distribution(config, n)
    make = _HAM_PROVERS.build(config.get("prover", {}), x)
    return x, D, eps, make, {"n": n, "eps": str(eps)}


def _run_ham(config: dict, rng: random.Random):
    x, D, eps, make, meta = _ham_setup(config, rng)
    w, c = config.get("w", sum(x)), config.get("c", DEFAULT_HAM_C)
    return partial(run_ham_ipp, x, D, w, eps, c=c), make, meta


def _run_symmetric(config: dict, rng: random.Random):
    x, D, eps, make, meta = _ham_setup(config, rng)
    pred_mod, c = config.get("predicate", 2), config.get("c", DEFAULT_HAM_C)
    return partial(run_symmetric_ipp, x, D, lambda v: v % pred_mod == 0, eps, c=c), make, meta


def _run_poly_fold(config: dict, rng: random.Random):
    X, inst = _tensor_and_instance(config, rng)
    kappa = config.get("kappa", fold_kappa(1, inst.k))
    make = _FOLD_PROVERS.build(config.get("prover", {}), X, rng)
    return (lambda prover, seed: run_poly_fold(X, inst, kappa, prover, seed)[0]), make, \
        _fold_meta(X)


def _run_fin_ipp(config: dict, rng: random.Random):
    r = _rounds(config)
    X, inst = _tensor_and_instance(config, rng)
    eps = _frac(config["eps"])
    D = _distribution(config, X.n, shape=(inst.k, inst.m))
    rho = dispersion_rho(D, (X.k, X.m)).rho
    make = _FOLD_PROVERS.build(config.get("prover", {}), X, rng)
    return partial(run_fin_ipp, X, inst, D, rho, eps, r,
                   dist_mode=config.get("dist_mode", "oracle"),
                   kappa_override=config.get("kappa_override")), make, \
        _fold_meta(X, r=r, eps=str(eps), rho=str(rho))


def _nc(config: dict, rng: random.Random, runner):
    """The set-up of an NC df-IPP; runner(X, D, rho) is its runner with those bound,
    to be called as (eps, gen, prover, seed, r=, kappa_override=)."""
    r = _rounds(config)
    X = _tensor(config, rng)
    eps = _frac(config["eps"])
    D = _distribution(config, X.n, shape=(X.k, X.m))
    rho = dispersion_rho(D, (X.k, X.m)).rho
    claims = config.get("claims", {})
    points, values = _NC_CLAIMS.build(claims, X)
    gen = ClaimGenerator(t=claims.get("t"), points=points)
    fold = _FOLD_PROVERS.build(config.get("prover", {}), X, rng)
    # a prover_override (a replay) answers claims/values itself
    make = fold if values is None else lambda: ScriptedClaimsProver(fold(), values, X.field.bits)
    return partial(runner(X, D, rho), eps, gen, r=r, kappa_override=config.get("kappa_override")), \
        make, _fold_meta(X, r=r, eps=str(eps), rho=str(rho))


def _run_whitebox_product(config: dict, rng: random.Random):
    r = _rounds(config)
    D, circuit = gen_product_fixture(config["k"], config["m"],
                                     config.get("profile", "uniform"), rng=rng)
    X, inst = _tensor_and_instance(config, rng)
    eps = _frac(config["eps"])
    run = partial(run_whitebox_product_ipp, X, inst, eps, circuit, r,
                  tau=_frac(config.get("tau", DEFAULT_TAU)),
                  kappa_override=config.get("kappa_override"),
                  bucket_bits=_bucket_bits(config, circuit.n_inputs))
    meta = _fold_meta(X, r=r, eps=str(eps),
                      rho=str(dispersion_rho(D, (X.k, X.m)).rho))
    if circuit.n_inputs > CIRCUIT_INPUT_BUDGET:  # refused before the first trial
        raise BudgetExceeded("honest prover enumeration over budget")
    # one preimage table per round a prover is asked, shared by every prover (a replay
    # makes no prover, so builds none)
    tables = coordinate_preimages(circuit, config["k"], config["m"])
    W = _WHITEBOX_PROVERS.build(config.get("prover", {}), X)
    return run, lambda: WhiteboxFoldProver(W, D.factors, tables), meta


def _run_rlcc(config: dict, rng: random.Random):
    bits = config["bits"]
    if bits > CIRCUIT_INPUT_BUDGET:  # before the 2^bits-bit codeword is built
        raise BudgetExceeded("Hadamard codeword over budget")
    n = 1 << bits
    eps = _frac(config["eps"])
    message = config.get("message", 5 % n)
    if not 0 <= message < n:
        raise ValueError(f"config key 'message' must be in [0, {n})")
    x = list(hadamard_codeword(message, bits))
    for i in config.get("corruptions", []):
        if not 0 <= i < n:
            raise ValueError(f"config key 'corruptions' must index the {n} codeword bits")
        x[i] ^= 1
    D = _distribution(config, n)
    return partial(run_rlcc_transform, tuple(x), D, blr_linearity_ipp(eps, bits),
                   hadamard_corrector(bits), eps), NullProver, {"n": n, "eps": str(eps)}


def _run_set_lower_bound(config: dict, rng: random.Random):
    ell = config["ell"]
    if ell > CIRCUIT_INPUT_BUDGET:  # before any of the 2^ell default claims is built
        raise BudgetExceeded("honest prover enumeration over budget")
    circuit = SamplingCircuit.identity(ell)
    n_sym = 1 << ell
    claims = _sized(config.get("claims", (Fraction(1, n_sym),) * n_sym), n_sym, "claims")
    try:  # validate_config has checked tau, delta and the signs; only the sum is left
        claim = MarginalClaim(tuple(map(_frac, claims)), _frac(config.get("tau", DEFAULT_TAU)),
                              _frac(config.get("delta", "1/20")))
    except ClaimSumError:
        raise ValueError("config key 'claims' must sum to at most 1") from None
    tables = cache(partial(slb_preimages, circuit, lambda y: y))  # on the first make()
    return partial(run_set_lower_bound, circuit, claim, bucket_bits=_bucket_bits(config, ell)), \
        lambda: HonestSlbProver(tables()), {"n": n_sym}


# protocol name -> (required key specs, optional key specs, builder); a builder sets a config
# up from the setup rng and returns (run, make, report row fields): run(prover, seed) is the
# runner, read from this module at set-up, with its arguments bound; make() builds a prover
_TENSOR = {"field_modulus": int, "k": POSITIVE, "m": POSITIVE}
_CLAIMED = {"x": [int], "points": [[int]], "values": [int]}
_HAM = {"x": _BITS, "distribution": _DISTRIBUTION, "c": POSITIVE, "prover": _HAM_PROVERS}
_NC = {"r": POSITIVE, "kappa_override": POSITIVE, "x": [int], "distribution": _DISTRIBUTION,
       "claims": _NC_CLAIMS, "prover": _FOLD_PROVERS}
_PROTOCOLS = {
    "echo": ({}, {"bits": POSITIVE}, _run_echo),
    "ham": ({"n": POSITIVE, "eps": _positive}, {**_HAM, "w": int}, _run_ham),
    "symmetric": ({"n": POSITIVE, "eps": _positive}, {**_HAM, "predicate": POSITIVE},
                  _run_symmetric),
    "poly_fold": (_TENSOR, {**_CLAIMED, "kappa": POSITIVE, "t": POSITIVE,
                            "prover": _FOLD_PROVERS}, _run_poly_fold),
    "fin_ipp": ({**_TENSOR, "r": POSITIVE, "eps": _positive},
                {**_CLAIMED, "kappa_override": POSITIVE, "t": POSITIVE,
                 "distribution": _DISTRIBUTION, "dist_mode": frozenset({"oracle", "uniform"}),
                 "prover": _FOLD_PROVERS},
                _run_fin_ipp),
    "df_ipp_nc": ({**_TENSOR, "eps": _positive}, _NC, lambda config, rng: _nc(
        config, rng, lambda X, D, rho: partial(run_df_ipp_nc, X, D))),
    "dispersed_ipp_nc": ({**_TENSOR, "eps": _positive}, _NC, lambda config, rng: _nc(
        config, rng, lambda X, D, rho: partial(run_dispersed_ipp_nc, X, D, rho))),
    "whitebox_product": ({**_TENSOR, "r": POSITIVE, "eps": _positive},
                         {**_CLAIMED, "kappa_override": POSITIVE, "tau": _unit,
                          "profile": frozenset(FIXTURE_PROFILES),
                          "bucket_bits": int, "prover": _WHITEBOX_PROVERS},
                         _run_whitebox_product),
    "rlcc": ({"bits": POSITIVE, "eps": _positive},
             {"message": int, "corruptions": [int], "distribution": _DISTRIBUTION}, _run_rlcc),
    "set_lower_bound": ({"ell": POSITIVE},
                        {"claims": [_mass], "tau": _unit, "delta": _unit,
                         "bucket_bits": int}, _run_set_lower_bound),
}
# a config: the keys of every run, then those of its protocol
_CONFIG = Modes("protocol", None, {name: (
    {"trials": POSITIVE, "seed": int, **required},
    {"out": str, "repetitions": POSITIVE, "rule": frozenset({"all-accept", "majority"}),
     **optional}, build) for name, (required, optional, build) in _PROTOCOLS.items()})


def _setup(config: dict):
    """Validate config and set it up once: (trial(seed, prover_override) -> RunResult,
    meta row fields).  Its "repetitions" (with "rule": all-accept | majority) amplify
    each trial (session.amplify) over the one set-up; one prover_override answers all."""
    validate_config(config)
    protocol = config["protocol"]
    run, make, fields = _PROTOCOLS[protocol][2](config, _setup_rng(config["seed"]))
    meta = {**dict.fromkeys(_META, ""), "protocol": protocol, **fields}

    def once(seed: int, prover) -> RunResult:
        return run(prover or make(), seed)

    reps, rule = config.get("repetitions", 1), config.get("rule", "all-accept")
    if reps > 1:
        return (lambda seed, prover: amplify(lambda s: once(s, prover), reps, rule, seed)), meta
    return once, meta


def run_protocol(config: dict, seed: int, prover_override=None):
    """Set config up and execute one trial; returns (RunResult, meta row fields)."""
    trial, meta = _setup(config)
    return trial(seed, prover_override), meta


class EchoProver(ProverStrategy):
    def __init__(self):
        self._x = None

    def observe(self, tag, sections):
        if tag == "echo/x":
            self._x = tuple(sections[0])

    def reply(self, tag, payload):
        if tag == "echo/reply":
            return [(self._x, 1)]
        raise ValueError(tag)


# --- cmd_run -------------------------------------------------------------------

def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def cmd_run(config: dict, out_prefix: Optional[str] = None) -> dict:
    """Run config["trials"] sessions; emit one CSV row per trial + aggregate JSON."""
    trial, meta = _setup(config)
    seeder = random.Random(config["seed"])
    rows, notes = [], {}
    for _ in range(config["trials"]):
        trial_seed = seeder.getrandbits(63)
        result = trial(trial_seed, None)
        rows.append({**meta, **asdict(result.ledger), "accepted": int(result.verdict.accepted),
                     "reject_reason": result.verdict.reject_reason or "", "seed": trial_seed})
        notes.update(dict.fromkeys(result.notes))  # first-seen order

    trials, accepted = len(rows), sum(row["accepted"] for row in rows)
    reasons = Counter(row["reject_reason"] for row in rows if not row["accepted"])
    record = {
        "config_hash": config_hash(config),
        "protocol": config["protocol"],
        "trials": trials,
        "accepted": accepted,
        "rejected": trials - accepted,
        "reject_reasons": dict(sorted(reasons.items())),
        "ledger": {key: {"min": min(vals), "mean": str(Fraction(sum(vals), trials)),
                         "max": max(vals)}
                   for key in _LEDGER for vals in [[row[key] for row in rows]]},
        "parameter_notes": list(notes),
    }
    out_prefix = out_prefix or config.get("out")
    if out_prefix:
        with open(out_prefix + ".csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        with open(out_prefix + ".json", "w") as fh:
            fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return record


def record_transcript(config: dict, seed: int, path: str) -> RunResult:
    """Run one trial and dump its transcript for later replay."""
    result, _meta = run_protocol(config, seed)
    dump_transcript(path, {"config": config, "seed": seed}, result.transcript,
                    result.verdict, result.ledger)
    return result


def cmd_replay(path: str) -> dict:
    """Re-run the verifier against recorded prover messages; compare everything."""
    header, messages, trailer = load_transcript(path)
    if not has_fields(header, {"config": (dict,), "seed": (int,)}):
        raise ValueError(f"transcript {path!r} header line needs a config object and an "
                         "int seed")
    if not has_fields(trailer, TRAILER_FIELDS):
        raise ValueError(f"transcript {path!r} trailer line needs {', '.join(TRAILER_FIELDS)}")
    config, seed = header["config"], header["seed"]
    result, _meta = run_protocol(config, seed, prover_override=ReplayProver(messages))
    got = result.transcript
    divergence = next((idx for idx, (a, b) in enumerate(zip(got, messages)) if a != b),
                      None if len(got) == len(messages) else min(len(got), len(messages)))
    ledger_match = all(trailer[key] == v for key, v in asdict(result.ledger).items())
    verdict_match = (trailer["accepted"] == result.verdict.accepted
                     and trailer["reject_reason"] == result.verdict.reject_reason)
    return {
        "match": divergence is None and ledger_match and verdict_match,
        "first_divergence": divergence,
        "ledger_match": ledger_match,
        "verdict_match": verdict_match,
        "comm_bits_recomputed": sum(m.bits for m in got),
        "comm_bits_recorded": trailer["comm_bits"],
    }


# --- HAM lower-bound fixture ------------------------------------------------------

def _floor_pow(n: int, expo: Fraction) -> int:
    """floor(n^expo), exact for rational expo = p/q and n >= 1: a^q <= n^p is read off
    q ln a - p ln n, and the two powers are built only when those nearly tie."""
    p, q = expo.numerator, expo.denominator

    def at_most(a: int) -> bool:  # a^q <= n^p
        lhs, rhs = q * math.log(a), p * math.log(n)
        return lhs < rhs if abs(lhs - rhs) > 1e-9 * (abs(lhs) + abs(rhs)) else a ** q <= n ** p

    a = int(round(n ** (p / q)))
    while at_most(a + 1):
        a += 1
    while a > 0 and not at_most(a):
        a -= 1
    return a


def gen_ham_lb_fixture(n: int, eps: Fraction,
                       e2: Fraction = Fraction(2, 3),
                       e3: Fraction = Fraction(2, 3) - Fraction(1, 1000)) -> dict:
    """The three-interval NO/YES fixture pair for weight testing.

    Interval sizes are floored and rounded down to multiples of 6 so the
    one-third / one-half weight patterns are integral and the labeled-sample
    identity P[X_i = 1] = 1 - 12 eps holds exactly.  The report carries the
    exact distance of the NO instance from the weight language, computed by
    a greedy exchange argument over per-interval flip costs.
    """
    if eps <= 0 or 20 * eps >= 1:
        raise ValueError("need 0 < eps < 1/20 for valid masses")
    # |I2| = n^e2 >= n leaves I1 empty, and |I3| past n is capped below |I2| anyway;
    # refused before _floor_pow, whose float guess overflows at a large exponent
    if e2 >= 1 or e3 > 1:
        raise ValueError(f"need exponents e2 < 1 and e3 <= 1, got e2 = {e2}, e3 = {e3}")
    size2 = 6 * (_floor_pow(n, e2) // 6)
    size3 = 6 * (_floor_pow(n, e3) // 6)
    if size3 >= size2:
        size3 = size2 - 6
    if size2 < 6 or size3 < 6:
        raise ValueError("degenerate intervals: n too small for these exponents")
    size1 = n - size2 - size3
    if size1 < 1:
        raise ValueError("degenerate intervals: I1 empty")

    m1 = (1 - 20 * eps) / size1
    masses1 = [m1] * size1 + [12 * eps / Fraction(size2)] * size2 \
        + [8 * eps / Fraction(size3)] * size3
    masses2 = [m1] * size1 + [8 * eps / Fraction(size2)] * size2 \
        + [12 * eps / Fraction(size3)] * size3
    D1, D2 = Pmf(masses1), Pmf(masses2)

    def pattern(frac2: Fraction, frac3: Fraction) -> tuple[int, ...]:
        w2 = int(size2 * frac2)
        w3 = int(size3 * frac3)
        return tuple([1] * size1 + [1] * w2 + [0] * (size2 - w2)
                     + [1] * w3 + [0] * (size3 - w3))

    X = pattern(Fraction(1, 3), Fraction(1, 2))
    Y = pattern(Fraction(1, 2), Fraction(1, 3))
    w = sum(Y)

    report = {
        "intervals": {"I1": size1, "I2": size2, "I3": size3},
        "exponents": {"e2": str(e2), "e3": str(e3)},
        "w": w,
        "hwt_x": sum(X),
        "p1_x": sum(m for m, b in zip(masses1, X) if b),
        "p2_y": sum(m for m, b in zip(masses2, Y) if b),
        "identity_target": 1 - 12 * eps,
        "distance_d1": ham_distance_exact(X, D1, w),
        "eps": eps,
    }
    report["identity_holds"] = (report["p1_x"] == report["identity_target"]
                                and report["p2_y"] == report["identity_target"])
    report["far"] = report["distance_d1"] > eps
    return {"d1": D1, "x": X, "d2": D2, "y": Y, "w": w, "report": report}


def ham_distance_exact(x: tuple[int, ...], D: Pmf, w: int) -> Fraction:
    """Exact d_D(x, HAM(w)) via the greedy flip exchange.

    Reaching weight w from x needs |w - Hwt(x)| net flips; the D-cheapest
    modification flips that many coordinates of the needed polarity in
    ascending order of mass (mixing polarities only adds mass).
    """
    need = w - sum(x)
    if need == 0:
        return Fraction(0)
    polarity = 0 if need > 0 else 1
    costs = sorted(wt for wt, b in zip(D.weights, x) if b == polarity)
    need = abs(need)
    if len(costs) < need:
        return INF  # weight w unreachable (never happens for valid fixtures)
    return Fraction(sum(costs[:need]), D.denom)


# --- lemma checks ------------------------------------------------------------------

# A suite is suite(trials, rng, budget) -> report, registered in LEMMA_CHECKS;
# cmd_check_lemma makes its one seeded rng.  Each suite checks its lemma at one
# desk-scale size, named in its docstring; the tensor suites work over F_5.
_F5 = PrimeField(5)


def _random_shaped_pmf(k: int, m: int, rng: random.Random) -> Pmf:
    return Pmf.random_grains(k ** m, 4 * k ** m, rng, shape=(k, m))


def _consistent_matrix(field: PrimeField, k: int, inst: PvalInstance,
                       rng: random.Random):
    """A k x |J2| matrix passing the step-1 column checks, or None.

    Every column of J2 carries the constraints of the points projecting to
    it and is drawn uniformly from the solution set of their Lagrange-basis
    rows, listed in lexicographic order over F^k.
    """
    j2, cols = project_points(inst.points)
    p = field.modulus
    constraints: dict[int, list] = {}
    for (pt, v), c in zip(zip(inst.points, inst.values), cols):
        constraints.setdefault(c, []).append((lagrange_basis(p, k, pt[0]), v))
    matrix_cols = []
    for c in range(len(j2)):
        solved = solve_affine(p, k, *zip(*constraints[c]))
        if solved is None:
            return None
        options = list(coset(p, *solved))
        matrix_cols.append(options[rng.randrange(len(options))])
    return [[matrix_cols[c][i] for c in range(len(j2))] for i in range(k)], j2


def _claimed_instance(field: PrimeField, k: int, m: int, max_t: int, rng: random.Random):
    """(X, (J, v), Y): t in [1, max_t) random points whose values are P_X(J) one
    time in four and uniform otherwise, and a matrix Y passing the step-1
    column checks, or None in place of Y when no such matrix exists."""
    X = InputTensor.random(field, k, m, rng)
    t = rng.randrange(1, max_t)
    points = field.rand_points(t, m, rng)
    if rng.randrange(4) == 0:
        values = tuple(lde_eval(X, pt) for pt in points)
    else:
        values = tuple(uniform_draws(rng, field.modulus, t))
    inst = PvalInstance(field, k, m, points, values)
    got = _consistent_matrix(field, k, inst, rng)
    return X, inst, None if got is None else got[0]


def _certified(draw):
    """The suite that tallies draw(rng, budget) until `trials` substantive
    instances are checked.

    draw returns (vacuous, holds), or None for a draw that yields no
    instance.  Member draws and empty-PVAL draws are vacuous: they do not
    count toward the quota, and 100 * trials of them end the search.
    """
    def suite(trials: int, rng: random.Random, budget: int) -> dict:
        violations = checked = vacuous = 0
        while checked < trials and vacuous < 100 * trials:
            outcome = draw(rng, budget)
            if outcome is None:
                continue
            if outcome[0]:
                vacuous += 1
                continue
            checked += 1
            if not outcome[1]:
                violations += 1
        status = "pass" if violations == 0 else "exact-fail"
        return {"status": status, "checked": checked, "vacuous": vacuous,
                "violations": violations}
    return suite


def _fixed(violated):
    """The suite that runs violated(rng) `trials` times; each True is one exact violation."""
    def suite(trials: int, rng: random.Random, budget: int) -> dict:
        violations = sum(1 for _ in range(trials) if violated(rng))
        return {"status": "pass" if violations == 0 else "exact-fail",
                "checked": trials, "violations": violations}
    return suite


@_certified
def _epsilons(rng: random.Random, budget: int):
    """Randomized instances of the row distance-preservation inequality, k = m = 2."""
    X, inst, Y = _claimed_instance(_F5, 2, 2, 4, rng)
    if Y is None:
        return None
    D = _random_shaped_pmf(2, 2, rng)
    report = check_distance_preservation(X, D, Y, inst, budget=budget)
    return report.vacuous, report.holds


@_certified
def _dpl_product(rng: random.Random, budget: int):
    """Randomized instances of the product distance-preservation inequality, k = m = 2.

    Claims are drawn from the certified band p~ >= (1-tau) * true, the set
    of claims the accepted-learner guarantee covers, at the white-box
    protocol's default tau.
    """
    D = ProductDistribution(FIXTURE_PROFILES["dyadic-random"](2, 2, rng))
    X, inst, Y = _claimed_instance(_F5, 2, 2, 3, rng)
    if Y is None:
        return None
    true = list(D.factors[0].masses)
    claims = list(true)
    if rng.getrandbits(1):
        i, j = rng.sample(range(2), 2)
        if true[i] > 0 and true[j] > 0:
            shift = min(true[i], true[j]) * DEFAULT_TAU / 2
            claims[i] += shift
            claims[j] -= shift
    B = granularise(Pmf(claims))
    report = check_product_dpl(X, list(D.factors), Y, B, inst, DEFAULT_TAU, budget=budget)
    return report.vacuous, report.holds


@_certified
def _linsub(rng: random.Random, budget: int):
    """Certified instances of the two-subspace lemma over F_5^4, exact fractions."""
    S_basis = [uniform_draws(rng, 5, 4) for _ in range(2)]
    t_rows = rng.randrange(1, 3)
    T_basis = [uniform_draws(rng, 5, 4) for _ in range(t_rows)]
    D = Pmf.random_grains(4, 64, rng)
    report = check_subspace_lemma(_F5, S_basis, T_basis, ("hybrid", D, Pmf.uniform(4)))
    return report["vacuous"], report.get("holds")


@_fixed
def _grainer(rng: random.Random) -> bool:
    """Granularisation invariants for n <= 16: sum a_i = 8n and a_i/8n >= p_i/2, exactly.

    With p_i = w_i/denom, a_i/8n < p_i/2 is a_i * denom < 4n * w_i.
    """
    n = rng.randrange(1, 17)
    pmf = Pmf.random_grains(n, 64, rng)
    grains = granularise(pmf)
    return sum(grains.counts) != 8 * n or any(
        a * pmf.denom < 4 * n * w for a, w in zip(grains.counts[:-1], pmf.weights))


@_fixed
def _grainer_distance(rng: random.Random) -> bool:
    """Distance preservation of granularisation for n <= 12:
    d_D'(gcat x, gcat y) >= d_p(x,y)/2."""
    n = rng.randrange(2, 13)
    pmf = Pmf.random_grains(n, 64, rng)
    x = [rng.getrandbits(1) for _ in range(n)]
    y = [rng.getrandbits(1) for _ in range(n)]
    return dist(x + [0], y + [0], granularise(pmf).pmf()) < dist(x, y, pmf) / 2


@_fixed
def _fold_dispersed(rng: random.Random) -> bool:
    """Marginalising the first coordinate never increases dispersion, for k, m <= 4."""
    k = rng.randrange(2, 5)
    m = rng.randrange(2, 5)
    D = _random_shaped_pmf(k, m, rng)
    return dispersion_rho(marginal_first(D)).rho > dispersion_rho(D).rho


@_fixed
def _tvineq(rng: random.Random) -> bool:
    """d_D(x,y) <= d_TV(D,D') + d_D'(x,y) with the L1 form of d_TV, for n <= 12."""
    n = rng.randrange(2, 13)
    D = Pmf.random_grains(n, 64, rng)
    D2 = Pmf.random_grains(n, 64, rng)
    x = [rng.getrandbits(1) for _ in range(n)]
    y = [rng.getrandbits(1) for _ in range(n)]
    return dist(x, y, D) > tv_distance(D, D2) + dist(x, y, D2)


def _min_distance(draws: int, rng: random.Random, budget: int) -> dict:
    """Random-J minimum-distance events over F_5 with k = m = 2 and eps = 1/4.

    With t >= 2 eps n (log2 n + log2 |F|) + 4 uniform points, the frequency
    of a PVAL minimum distance below 2 eps n is at most 1/10 (+3 sigma).
    """
    eps, n = Fraction(1, 4), 4
    t = math.ceil(2 * eps * n * (math.log2(n) + math.log2(5)) + 4)
    events = 0
    for _ in range(draws):
        X = InputTensor.random(_F5, 2, 2, rng)
        points = _F5.rand_points(t, 2, rng)
        values = tuple(lde_eval(X, pt) for pt in points)
        inst = PvalInstance(_F5, 2, 2, points, values)
        dmin = pval_min_distance(inst, budget=budget)
        if dmin != INF and dmin < 2 * eps:
            events += 1
    freq = events / draws
    bound = 0.1 + 3 * math.sqrt(0.1 * 0.9 / draws)
    return {"status": "pass" if freq <= bound else "stat-fail", "t": t,
            "draws": draws, "frequency": freq, "bound": bound}


def _appendix_a(trials: int, rng: random.Random, budget: int) -> dict:
    """Appendix folding claims on three certified-far instances, k = m = 2."""
    kappa = fold_kappa(2, 2)
    failures = instances = 0
    for _ in range(200):
        if instances == 3:
            break
        X = InputTensor.random(_F5, 2, 2, rng)
        points = _F5.rand_points(2, 2, rng)
        values = tuple(uniform_draws(rng, 5, 2))
        inst = PvalInstance(_F5, 2, 2, points, values)
        got = _consistent_matrix(_F5, 2, inst, rng)
        if got is None:
            continue
        D = _random_shaped_pmf(2, 2, rng)
        rep = check_appendix_claims(X, D, got[0], inst, kappa, trials, rng.getrandbits(63),
                                    budget=budget)
        if rep["sum_eps"].get("vacuous"):
            continue
        instances += 1
        if not rep["sum_eps"]["holds"]:
            failures += 1
        for key, rate in (("support_hit", "miss_rate"), ("folded_far", "fail_rate")):
            bound = rep[key]["bound"]
            if rep[key][rate] > bound + 3 * math.sqrt(max(bound, 0.01) / trials):
                failures += 1
    return {"status": "pass" if failures == 0 else "stat-fail",
            "instances": instances, "failures": failures}


LEMMA_CHECKS = {
    "epsilons": _epsilons,
    "dpl_product": _dpl_product,
    "linSub": _linsub,
    "grainer-claim": _grainer,
    "grainer-distance": _grainer_distance,
    "fold_dispersed": _fold_dispersed,
    "tvineq": _tvineq,
    "rr20_min_dist": _min_distance,
    "appendix-a": _appendix_a,
}


def cmd_check_lemma(lemma: str, trials: int, seed: int,
                    budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    if lemma not in LEMMA_CHECKS:
        raise ValueError(f"unknown lemma id {lemma!r}; known: {sorted(LEMMA_CHECKS)}")
    report = LEMMA_CHECKS[lemma](trials, random.Random(seed), budget)
    report["lemma"] = lemma
    return report


def exit_code_for(report: dict) -> int:
    return {"pass": EXIT_PASS, "stat-fail": EXIT_STAT_FAIL,
            "exact-fail": EXIT_EXACT_FAIL, "refused": EXIT_REFUSED}[report["status"]]
