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
from fractions import Fraction
from typing import Optional

from .field import InputTensor, PrimeField, lde_eval
from .tensors import INF, PvalInstance, dist, pval_min_distance
from .distributions import (Pmf, SamplingCircuit, distribution_from_json, dispersion_rho,
                            granularise, marginal_first, tv_distance)
from .session import (ACCEPT, OracleHandles, ProverStrategy, ReplayProver, Verdict,
                      amplify, dump_transcript, load_transcript)
from .protocols import (BadSumHamProver, ClaimGenerator, HonestFoldProver, HonestHamProver,
                        NullProver, RandomLieFoldProver, RowTamperFoldProver, RunResult, _run,
                        blr_linearity_ipp, check_appendix_claims, check_distance_preservation,
                        check_subspace_lemma, fold_kappa, hadamard_codeword,
                        hadamard_corrector, project_points, run_df_ipp_nc,
                        run_dispersed_ipp_nc, run_fin_ipp, run_ham_ipp, run_poly_fold,
                        run_rlcc_transform, run_symmetric_ipp)
from .product import (HonestSlbProver, MarginalClaim, WhiteboxFoldProver, check_product_dpl,
                      gen_product_fixture, run_set_lower_bound, run_whitebox_product_ipp)

CSV_COLUMNS = ["protocol", "n", "k", "m", "r", "eps", "rho", "field", "queries",
               "samples", "comm_bits", "messages", "accepted", "reject_reason", "seed"]

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_EXACT_FAIL = 2
EXIT_REFUSED = 3


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(str(v))


def _setup_rng(seed: int) -> random.Random:
    return random.Random((seed * 2654435761 + 0x5E7F) % (1 << 63))


# --- protocol configs ---------------------------------------------------------

_COMMON_KEYS = {"repetitions", "rule"}

# JSON type of every config key that is not an integer; Fraction marks a
# positive rational given as an int, a float or a "p/q" string; claims is an
# NC claim-generator object or a set_lower_bound mass list
_KEY_TYPES = {"protocol": str, "out": str, "rule": str, "dist_mode": str, "profile": str,
              "prover": dict, "distribution": dict, "claims": (dict, list), "x": list,
              "points": list, "values": list, "corruptions": list, "inflate": bool,
              "eps": Fraction, "tau": Fraction, "delta": Fraction}


def _has_type(value, want) -> bool:
    if isinstance(value, bool):  # JSON true/false are not numbers
        return want is bool
    if want is not Fraction:
        return isinstance(value, want)
    try:
        return isinstance(value, (int, float, str)) and _frac(value) > 0
    except (ValueError, ZeroDivisionError):
        return False


def validate_config(config: dict) -> None:
    """Raise ValueError naming the first missing, unknown or ill-typed config key."""
    required = {"protocol", "trials", "seed"}
    missing = required - config.keys()
    if missing:
        raise ValueError(f"config missing keys: {sorted(missing)}")
    protocol = config["protocol"]
    if not isinstance(protocol, str) or protocol not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    needs, accepts, _build = _PROTOCOLS[protocol]
    missing = needs - config.keys()
    if missing:
        raise ValueError(f"{protocol} config missing keys: {sorted(missing)}")
    unknown = config.keys() - required - {"out"} - _COMMON_KEYS - needs - accepts
    if unknown:
        raise ValueError(f"config has unknown keys: {sorted(unknown)}")
    for key in sorted(config):
        if not _has_type(config[key], _KEY_TYPES.get(key, int)):
            raise ValueError(f"config key {key!r} has a bad type or value: {config[key]!r}")
    if config["trials"] < 1:
        raise ValueError("trials must be a positive integer")
    if config.get("repetitions", 1) < 1:
        raise ValueError("repetitions must be a positive integer")
    if config.get("rule", "all-accept") not in ("all-accept", "majority"):
        raise ValueError("rule must be all-accept or majority")
    if ("points" in config) != ("values" in config):
        raise ValueError("config keys 'points' and 'values' must be given together")


def _entry(spec: dict, key: str, owner: str):
    """spec[key] of the nested config object `owner`; a ValueError names a missing key."""
    if key not in spec:
        raise ValueError(f"config key {owner!r} is missing {key!r}")
    return spec[key]


def _ints(value, key: str) -> tuple[int, ...]:
    """value as a tuple; a ValueError names the config key unless it is a list of integers."""
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ValueError(f"config key {key!r} must be a list of integers, not {value!r}")
    return tuple(value)


def _points(value, key: str) -> tuple[tuple[int, ...], ...]:
    """value as a tuple of points; a ValueError names the config key unless it is a
    list of integer lists."""
    if not isinstance(value, list) or not all(isinstance(pt, list) for pt in value):
        raise ValueError(f"config key {key!r} must be a list of integer lists, not {value!r}")
    return tuple(_ints(pt, key) for pt in value)


def _tensor_and_instance(config: dict, rng: random.Random):
    """Shared setup for the PVAL-based protocols: tensor + (J, v)."""
    field = PrimeField(config["field_modulus"])
    k, m = config["k"], config["m"]
    if "x" in config:
        X = InputTensor(field, k, m, _ints(config["x"], "x"))
    else:
        X = InputTensor.random(field, k, m, rng)
    if "points" in config:
        points = _points(config["points"], "points")
        values = _ints(config["values"], "values")
    else:
        t = max(1, config.get("t", 2))
        points = tuple(field.rand_point(m, rng) for _ in range(t))
        values = tuple(lde_eval(X, pt) for pt in points)
    return X, PvalInstance(field, k, m, points, values)


def _distribution(config: dict, n: int, shape=None):
    if "distribution" in config:
        return distribution_from_json(config["distribution"])
    return Pmf.uniform(n, shape=shape)


def _fold_prover(config: dict, X: InputTensor, rng: random.Random):
    spec = config.get("prover", {"mode": "honest"})
    mode = spec.get("mode", "honest")
    if mode == "honest":
        return HonestFoldProver(X)
    if mode == "fixed-alternative":
        alt = InputTensor(X.field, X.k, X.m, _ints(_entry(spec, "alt", "prover"), "prover.alt"))
        return HonestFoldProver(alt)
    if mode == "row-tamper":
        return RowTamperFoldProver(X, spec.get("row", 0), spec.get("col", 0),
                                   spec.get("delta", 1))
    if mode == "random-lie":
        return RandomLieFoldProver(X, float(spec.get("prob", 0.1)),
                                   random.Random(rng.getrandbits(63)))
    raise ValueError(f"unknown prover mode {mode!r}")


def _fold_meta(X: InputTensor, inst: PvalInstance, **fields) -> dict:
    return {"n": X.n, "k": inst.k, "m": inst.m, "field": inst.field.modulus, **fields}


def _rho(D) -> Fraction:
    return dispersion_rho(D).rho if isinstance(D, Pmf) else Fraction(1)


def _run_echo(config: dict, rng: random.Random, seed: int, prover):
    bits = config.get("bits", 16)

    def verifier(session):
        x = tuple(session.rng.getrandbits(1) for _ in range(bits))
        session.tell("echo/x", [(x, 1)])
        msg = session.ask("echo/reply", None, expect=[(bits, 1)])
        return ACCEPT if msg.values() == x else Verdict(False, "echo-mismatch")

    return _run(verifier, prover or EchoProver(), OracleHandles(()), seed), {"n": bits}


def _ham_setup(config: dict, rng: random.Random, prover):
    """Input bits, distribution, eps and prover shared by ham and symmetric."""
    n = config["n"]
    eps = _frac(config["eps"])
    x = _ints(config["x"], "x") if "x" in config else \
        tuple(rng.getrandbits(1) for _ in range(n))
    D = _distribution(config, n)
    if prover is None:
        spec = config.get("prover", {"mode": "honest"})
        mode = spec.get("mode", "honest")
        if mode == "honest":
            prover = HonestHamProver(x)
        elif mode == "committed":
            prover = HonestHamProver(_ints(_entry(spec, "alt", "prover"), "prover.alt"))
        elif mode == "bad-sum":
            prover = BadSumHamProver(x)
        else:
            raise ValueError(f"unknown prover mode {mode!r}")
    return x, D, eps, prover, {"n": n, "eps": str(eps)}


def _run_ham(config: dict, rng: random.Random, seed: int, prover):
    x, D, eps, prover, meta = _ham_setup(config, rng, prover)
    w = config.get("w", sum(x))
    return run_ham_ipp(x, D, w, eps, prover, seed, c=config.get("c", 2)), meta


def _run_symmetric(config: dict, rng: random.Random, seed: int, prover):
    x, D, eps, prover, meta = _ham_setup(config, rng, prover)
    pred_mod = config.get("predicate", 2)
    return run_symmetric_ipp(x, D, lambda v: v % pred_mod == 0, eps, prover, seed,
                             c=config.get("c", 2)), meta


def _run_poly_fold(config: dict, rng: random.Random, seed: int, prover):
    X, inst = _tensor_and_instance(config, rng)
    kappa = config.get("kappa", fold_kappa(1, inst.k))
    prover = prover or _fold_prover(config, X, rng)
    result, _outputs = run_poly_fold(X, inst, kappa, prover, seed)
    return result, _fold_meta(X, inst)


def _run_fin_ipp(config: dict, rng: random.Random, seed: int, prover):
    X, inst = _tensor_and_instance(config, rng)
    eps = _frac(config["eps"])
    D = _distribution(config, X.n, shape=(inst.k, inst.m))
    rho = _rho(D)
    prover = prover or _fold_prover(config, X, rng)
    result = run_fin_ipp(X, inst, D, eps, rho, config["r"], prover, seed,
                         dist_mode=config.get("dist_mode", "oracle"),
                         kappa_override=config.get("kappa_override"))
    return result, _fold_meta(X, inst, r=config["r"], eps=str(eps), rho=str(rho))


def _nc_setup(config: dict, rng: random.Random, prover):
    """Tensor, distribution, claim generator and prover shared by the NC df-IPPs."""
    X, inst = _tensor_and_instance(config, rng)
    eps = _frac(config["eps"])
    D = _distribution(config, X.n, shape=(inst.k, inst.m))
    claims_spec = config.get("claims", {"mode": "honest"})
    if not isinstance(claims_spec, dict):
        raise ValueError(f"config key 'claims' must be an object here, not {claims_spec!r}")
    if claims_spec.get("mode", "honest") == "honest":
        gen = ClaimGenerator("honest", t=claims_spec.get("t"))
    else:
        adv = PvalInstance(inst.field, inst.k, inst.m,
                           _points(_entry(claims_spec, "points", "claims"), "claims.points"),
                           _ints(_entry(claims_spec, "values", "claims"), "claims.values"))
        gen = ClaimGenerator("adversarial", instance=adv)
    prover = prover or _fold_prover(config, X, rng)
    rho = _rho(D)
    meta = _fold_meta(X, inst, r=config.get("r", 1), eps=str(eps), rho=str(rho))
    return X, D, eps, gen, prover, rho, meta


def _run_df_ipp_nc(config: dict, rng: random.Random, seed: int, prover):
    X, D, eps, gen, prover, _, meta = _nc_setup(config, rng, prover)
    return run_df_ipp_nc(X, D, eps, gen, prover, seed, r=config.get("r", 1),
                         kappa_override=config.get("kappa_override")), meta


def _run_dispersed_ipp_nc(config: dict, rng: random.Random, seed: int, prover):
    X, D, eps, gen, prover, rho, meta = _nc_setup(config, rng, prover)
    return run_dispersed_ipp_nc(X, D, eps, gen, rho, config.get("r", 1), prover, seed,
                                kappa_override=config.get("kappa_override")), meta


def _run_whitebox_product(config: dict, rng: random.Random, seed: int, prover):
    D, circuit = gen_product_fixture(config["k"], config["m"],
                                     config.get("profile", "uniform"), rng=rng)
    X, inst = _tensor_and_instance(config, rng)
    eps = _frac(config["eps"])
    spec = config.get("prover", {"mode": "honest"})
    mode = spec.get("mode", "honest")
    if mode not in ("honest", "fixed-alternative"):
        raise ValueError(f"unknown whitebox_product prover mode {mode!r}")
    committed = X if mode == "honest" else \
        InputTensor(X.field, X.k, X.m, _ints(_entry(spec, "alt", "prover"), "prover.alt"))
    prover = prover or WhiteboxFoldProver(committed, D.factors, circuit)
    result = run_whitebox_product_ipp(
        X, inst, eps, circuit, config["r"], prover, seed,
        tau=_frac(config.get("tau", "1/1000")),
        kappa_override=config.get("kappa_override"),
        bucket_bits=config.get("bucket_bits"))
    return result, _fold_meta(X, inst, r=config["r"], eps=str(eps),
                              rho=str(_rho(D.joint_pmf())))


def _run_rlcc(config: dict, rng: random.Random, seed: int, prover):
    bits = config["bits"]
    n = 1 << bits
    eps = _frac(config["eps"])
    x = list(hadamard_codeword(config.get("message", 5 % n), bits))
    for i in config.get("corruptions", []):
        x[i] ^= 1
    D = _distribution(config, n)
    result = run_rlcc_transform(tuple(x), D, blr_linearity_ipp(eps, bits),
                                hadamard_corrector(bits), eps, prover or NullProver(), seed)
    return result, {"n": n, "eps": str(eps)}


def _run_set_lower_bound(config: dict, rng: random.Random, seed: int, prover):
    ell = config["ell"]
    circuit = SamplingCircuit.identity(ell)
    n_sym = 1 << ell
    probs = [Fraction(c) for c in config.get("claims", [str(Fraction(1, n_sym))] * n_sym)]
    if config.get("inflate"):
        probs[0] = min(Fraction(1), probs[0] * 2)
    claim = MarginalClaim(tuple(probs), _frac(config.get("tau", "1/1000")),
                          _frac(config.get("delta", "1/20")))
    prover = prover or HonestSlbProver(circuit, lambda y: y)
    result = run_set_lower_bound(circuit, claim, prover, seed,
                                 bucket_bits=config.get("bucket_bits"))
    return result, {"n": n_sym}


# protocol name -> (the config keys it requires, the ones it also accepts, its
# builder); a builder takes (config, setup rng, trial seed, prover or None) and
# returns (RunResult, report row fields)
_FIELD_TENSOR = {"field_modulus", "k", "m"}
_PROTOCOLS = {
    "echo": (set(), {"bits"}, _run_echo),
    "ham": ({"n", "eps"}, {"w", "x", "distribution", "c", "prover"}, _run_ham),
    "symmetric": ({"n", "eps"}, {"x", "distribution", "c", "predicate", "prover"},
                  _run_symmetric),
    "poly_fold": (_FIELD_TENSOR, {"kappa", "x", "points", "values", "t", "prover"},
                  _run_poly_fold),
    "fin_ipp": (_FIELD_TENSOR | {"r", "eps"}, {"kappa_override", "x", "points", "values",
                                              "t", "distribution", "dist_mode", "prover"},
                _run_fin_ipp),
    "df_ipp_nc": (_FIELD_TENSOR | {"eps"}, {"r", "kappa_override", "x", "distribution",
                                            "claims", "prover"}, _run_df_ipp_nc),
    "dispersed_ipp_nc": (_FIELD_TENSOR | {"eps"}, {"r", "kappa_override", "x",
                                                   "distribution", "claims", "prover"},
                         _run_dispersed_ipp_nc),
    "whitebox_product": (_FIELD_TENSOR | {"r", "eps"}, {"kappa_override", "profile", "x",
                                                       "points", "values", "tau",
                                                       "bucket_bits", "prover"},
                         _run_whitebox_product),
    "rlcc": ({"bits", "eps"}, {"message", "corruptions", "distribution"}, _run_rlcc),
    "set_lower_bound": ({"ell"}, {"claims", "tau", "delta", "bucket_bits", "inflate"},
                        _run_set_lower_bound),
}


def run_protocol(config: dict, seed: int, prover_override=None):
    """Execute one trial; returns (RunResult, meta row fields).

    A config-level "repetitions" (with "rule": all-accept | majority) wraps
    the trial in standard soundness amplification: independent sessions on
    derived seeds, verdicts combined, ledgers summed, transcripts concatenated
    in order (one prover_override answers every repetition in turn), and the
    notes "amplified xN" followed by every repetition's notes in order.
    """
    reps = config.get("repetitions", 1)
    if reps > 1:
        inner = {k: v for k, v in config.items() if k not in ("repetitions", "rule")}
        meta_holder = {}
        transcript = []
        notes = [f"amplified x{reps}"]

        def once(s):
            result, meta = run_protocol(inner, s, prover_override)
            meta_holder.setdefault("meta", meta)
            transcript.extend(result.transcript)
            notes.extend(result.notes)
            return result.verdict, result.ledger

        verdict, ledger = amplify(once, reps, config.get("rule", "all-accept"), seed)
        return RunResult(verdict, ledger, transcript, notes), meta_holder["meta"]

    protocol = config["protocol"]
    if protocol not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    meta = {"protocol": protocol, "n": "", "k": "", "m": "", "r": "", "eps": "",
            "rho": "", "field": ""}
    result, fields = _PROTOCOLS[protocol][2](config, _setup_rng(config["seed"]), seed,
                                             prover_override)
    meta.update(fields)
    return result, meta


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
    validate_config(config)
    out_prefix = out_prefix or config.get("out")
    seeder = random.Random(config["seed"])
    rows = []
    tallies = {"accepted": 0}
    reasons: dict[str, int] = {}
    agg = {key: [] for key in ("queries", "samples", "comm_bits", "messages")}
    clamps: list[str] = []
    for _ in range(config["trials"]):
        trial_seed = seeder.getrandbits(63)
        result, meta = run_protocol(config, trial_seed)
        led = result.ledger
        rows.append({**meta, "queries": led.queries, "samples": led.samples,
                     "comm_bits": led.comm_bits, "messages": led.messages,
                     "accepted": int(result.verdict.accepted),
                     "reject_reason": result.verdict.reject_reason or "",
                     "seed": trial_seed})
        if result.verdict.accepted:
            tallies["accepted"] += 1
        else:
            reasons[result.verdict.reject_reason] = \
                reasons.get(result.verdict.reject_reason, 0) + 1
        for key in agg:
            agg[key].append(getattr(led, key))
        for note in result.notes:
            if note not in clamps:
                clamps.append(note)

    trials = config["trials"]
    record = {
        "config_hash": config_hash(config),
        "protocol": config["protocol"],
        "trials": trials,
        "accepted": tallies["accepted"],
        "rejected": trials - tallies["accepted"],
        "reject_reasons": dict(sorted(reasons.items())),
        "ledger": {key: {"min": min(vals), "mean": str(Fraction(sum(vals), trials)),
                         "max": max(vals)} for key, vals in agg.items()},
        "parameter_notes": clamps,
    }
    if out_prefix:
        with open(out_prefix + ".csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        with open(out_prefix + ".json", "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return record


def record_transcript(config: dict, seed: int, path: str) -> RunResult:
    """Run one trial and dump its transcript for later replay."""
    validate_config(config)
    result, _meta = run_protocol(config, seed)
    dump_transcript(path, {"config": config, "seed": seed}, result.transcript,
                    result.verdict, result.ledger)
    return result


def cmd_replay(path: str) -> dict:
    """Re-run the verifier against recorded prover messages; compare everything."""
    header, messages, trailer = load_transcript(path)
    config, seed = header["config"], header["seed"]
    validate_config(config)
    result, _meta = run_protocol(config, seed, prover_override=ReplayProver(messages))
    divergence = None
    for idx, (got, want) in enumerate(zip(result.transcript, messages)):
        if (got.sender, got.tag, got.sections) != (want.sender, want.tag, want.sections):
            divergence = idx
            break
    if divergence is None and len(result.transcript) != len(messages):
        divergence = min(len(result.transcript), len(messages))
    led = result.ledger
    ledger_match = (trailer["queries"] == led.queries
                    and trailer["samples"] == led.samples
                    and trailer["comm_bits"] == led.comm_bits
                    and trailer["messages"] == led.messages)
    verdict_match = (trailer["accepted"] == result.verdict.accepted
                     and trailer["reject_reason"] == result.verdict.reject_reason)
    recomputed_bits = sum(m.bits for m in result.transcript)
    return {
        "match": divergence is None and ledger_match and verdict_match,
        "first_divergence": divergence,
        "ledger_match": ledger_match,
        "verdict_match": verdict_match,
        "comm_bits_recomputed": recomputed_bits,
        "comm_bits_recorded": trailer["comm_bits"],
    }


# --- HAM lower-bound fixture ------------------------------------------------------

def _floor_pow(n: int, expo: Fraction) -> int:
    """floor(n^expo) computed exactly for rational expo."""
    p, q = expo.numerator, expo.denominator
    target = n ** p
    a = int(round(n ** (p / q)))
    while (a + 1) ** q <= target:
        a += 1
    while a > 0 and a ** q > target:
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
    costs = sorted(D.masses[i] for i, b in enumerate(x) if b == polarity)
    need = abs(need)
    if len(costs) < need:
        return INF  # weight w unreachable (never happens for valid fixtures)
    return sum(costs[:need], Fraction(0))


def estimate_dist_monte_carlo(x, y, D, trials: int, seed: int) -> float:
    """APPROXIMATE d_D(x, y) by sampling.

    The Monte-Carlo counterpart of the exact `dfipp.tensors.dist` for inputs
    past the enumeration budget; standard error ~ sqrt(d(1-d)/trials).
    """
    rng = random.Random(seed)
    hits = sum(1 for _ in range(trials) if x[(i := D.sample(rng))] != y[i])
    return hits / trials


# --- lemma checks ------------------------------------------------------------------

def _random_shaped_pmf(k: int, m: int, rng: random.Random) -> Pmf:
    return Pmf.random_grains(k ** m, 4 * k ** m, rng, shape=(k, m))


def _consistent_matrix(field: PrimeField, k: int, inst: PvalInstance,
                       rng: random.Random):
    """A k x |J2| matrix passing the step-1 column checks, or None.

    Columns carrying constraints are drawn uniformly from the solution set
    (brute force over F^k); free columns are uniform.
    """
    import itertools as it
    from .field import lagrange_eval_univariate as ev

    j2, cols = project_points(inst.points)
    p = field.modulus
    constraints: dict[int, list] = {}
    for (pt, v), c in zip(zip(inst.points, inst.values), cols):
        constraints.setdefault(c, []).append((pt[0], v))
    matrix_cols = []
    for c in range(len(j2)):
        if c not in constraints:
            matrix_cols.append(tuple(rng.randrange(p) for _ in range(k)))
            continue
        options = [cand for cand in it.product(range(p), repeat=k)
                   if all(ev(field, list(cand), t) == v for t, v in constraints[c])]
        if not options:
            return None
        matrix_cols.append(options[rng.randrange(len(options))])
    return [[matrix_cols[c][i] for c in range(len(j2))] for i in range(k)], j2


def _certified_tally(trials: int, draw) -> dict:
    """Tally draw() outcomes until `trials` substantive instances are checked.

    draw() returns (vacuous, holds), or None for a draw that yields no
    instance.  Member draws and empty-PVAL draws are vacuous: they do not
    count toward the quota, and 100 * trials of them end the search.
    """
    violations = 0
    checked = 0
    vacuous = 0
    while checked < trials and vacuous < 100 * trials:
        outcome = draw()
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


def _fixed_tally(trials: int, violated) -> dict:
    """Run violated() `trials` times; each True is one exact violation."""
    violations = sum(1 for _ in range(trials) if violated())
    return {"status": "pass" if violations == 0 else "exact-fail",
            "checked": trials, "violations": violations}


def _claimed_instance(field: PrimeField, k: int, m: int, max_t: int, rng: random.Random):
    """(X, (J, v), Y): t in [1, max_t) random points whose values are P_X(J) one
    time in four and uniform otherwise, and a matrix Y passing the step-1
    column checks, or None in place of Y when no such matrix exists."""
    X = InputTensor.random(field, k, m, rng)
    t = rng.randrange(1, max_t)
    points = tuple(field.rand_point(m, rng) for _ in range(t))
    if rng.randrange(4) == 0:
        values = tuple(lde_eval(X, pt) for pt in points)
    else:
        values = tuple(rng.randrange(field.modulus) for _ in range(t))
    inst = PvalInstance(field, k, m, points, values)
    got = _consistent_matrix(field, k, inst, rng)
    return X, inst, None if got is None else got[0]


def check_lemma_epsilons(trials: int, seed: int, modulus: int = 5, k: int = 2,
                         m: int = 2, budget: int = 10 ** 7) -> dict:
    """Randomized instances of the row distance-preservation inequality."""
    rng = random.Random(seed)
    field = PrimeField(modulus)

    def draw():
        X, inst, Y = _claimed_instance(field, k, m, 4, rng)
        if Y is None:
            return None
        D = _random_shaped_pmf(k, m, rng)
        report = check_distance_preservation(X, D, Y, inst, budget=budget)
        return report.vacuous, report.holds

    return _certified_tally(trials, draw)


def check_lemma_dpl_product(trials: int, seed: int, modulus: int = 5, k: int = 2,
                            m: int = 2, budget: int = 10 ** 7) -> dict:
    """Randomized instances of the product distance-preservation inequality.

    Claims are drawn from the certified band p~ >= (1-tau) * true, the set
    of claims the accepted-learner guarantee covers; tau matches the
    white-box protocol default.
    """
    rng = random.Random(seed)
    field = PrimeField(modulus)
    tau = Fraction(1, 1000)

    def draw():
        D, _circ = gen_product_fixture(k, m, "dyadic-random", rng=rng)
        X, inst, Y = _claimed_instance(field, k, m, 3, rng)
        if Y is None:
            return None
        true = list(D.factors[0].masses)
        claims = list(true)
        if rng.getrandbits(1):
            i, j = rng.sample(range(k), 2)
            if true[i] > 0 and true[j] > 0:
                shift = min(true[i], true[j]) * tau / 2
                claims[i] += shift
                claims[j] -= shift
        B = granularise(Pmf(claims))
        report = check_product_dpl(X, list(D.factors), Y, B, inst, tau, budget=budget)
        return report.vacuous, report.holds

    return _certified_tally(trials, draw)


def check_lemma_linsub(trials: int, seed: int, modulus: int = 5, n: int = 4) -> dict:
    """Certified instances of the two-subspace lemma, exact fractions."""
    rng = random.Random(seed)
    field = PrimeField(modulus)
    p = modulus

    def draw():
        S_basis = [[rng.randrange(p) for _ in range(n)] for _ in range(2)]
        T_basis = [[rng.randrange(p) for _ in range(n)]
                   for _ in range(rng.randrange(1, 3))]
        D = Pmf.random_grains(n, 64, rng)
        report = check_subspace_lemma(field, S_basis, T_basis, ("hybrid", D, Pmf.uniform(n)))
        return report["vacuous"], report.get("holds")

    return _certified_tally(trials, draw)


def check_lemma_grainer(trials: int, seed: int, max_n: int = 16) -> dict:
    """Granularisation invariants: sum a_i = 8n and a_i/8n >= p_i/2, exactly."""
    rng = random.Random(seed)

    def violated():
        n = rng.randrange(1, max_n + 1)
        pmf = Pmf.random_grains(n, 64, rng)
        grains = granularise(pmf)
        return sum(grains.counts) != 8 * n or any(
            Fraction(a, 8 * n) < pi / 2 for a, pi in zip(grains.counts[:-1], pmf.masses))

    return _fixed_tally(trials, violated)


def check_lemma_grainer_distance(trials: int, seed: int, max_n: int = 12) -> dict:
    """Distance preservation of granularisation: d_D'(gcat x, gcat y) >= d_p(x,y)/2."""
    rng = random.Random(seed)

    def violated():
        n = rng.randrange(2, max_n + 1)
        pmf = Pmf.random_grains(n, 64, rng)
        x = [rng.getrandbits(1) for _ in range(n)]
        y = [rng.getrandbits(1) for _ in range(n)]
        return dist(x + [0], y + [0], granularise(pmf).pmf()) < dist(x, y, pmf) / 2

    return _fixed_tally(trials, violated)


def check_lemma_fold_dispersed(trials: int, seed: int, max_km: int = 4) -> dict:
    """Marginalising the first coordinate never increases dispersion."""
    rng = random.Random(seed)

    def violated():
        k = rng.randrange(2, max_km + 1)
        m = rng.randrange(2, max_km + 1)
        D = _random_shaped_pmf(k, m, rng)
        return dispersion_rho(marginal_first(D)).rho > dispersion_rho(D).rho

    return _fixed_tally(trials, violated)


def check_lemma_tvineq(trials: int, seed: int, max_n: int = 12) -> dict:
    """d_D(x,y) <= d_TV(D,D') + d_D'(x,y) with the L1 form of d_TV."""
    rng = random.Random(seed)

    def violated():
        n = rng.randrange(2, max_n + 1)
        D = Pmf.random_grains(n, 64, rng)
        D2 = Pmf.random_grains(n, 64, rng)
        x = [rng.getrandbits(1) for _ in range(n)]
        y = [rng.getrandbits(1) for _ in range(n)]
        return dist(x, y, D) > tv_distance(D, D2) + dist(x, y, D2)

    return _fixed_tally(trials, violated)


def check_lemma_min_distance(draws: int, seed: int, modulus: int = 5, k: int = 2,
                             m: int = 2, eps: Fraction = Fraction(1, 4),
                             budget: int = 10 ** 7) -> dict:
    """Random-J minimum-distance events at tiny scale.

    With t >= 2 eps n (log2 n + log2 |F|) + 4 uniform points, the frequency
    of a PVAL minimum distance below 2 eps n is at most 1/10 (+3 sigma).
    """
    rng = random.Random(seed)
    field = PrimeField(modulus)
    n = k ** m
    t = math.ceil(2 * eps * n * (math.log2(n) + math.log2(modulus)) + 4)
    events = 0
    for _ in range(draws):
        X = InputTensor.random(field, k, m, rng)
        points = tuple(field.rand_point(m, rng) for _ in range(t))
        values = tuple(lde_eval(X, pt) for pt in points)
        inst = PvalInstance(field, k, m, points, values)
        dmin = pval_min_distance(inst, budget=budget)
        if dmin != INF and dmin < 2 * eps:
            events += 1
    freq = events / draws
    bound = 0.1 + 3 * math.sqrt(0.1 * 0.9 / draws)
    return {"status": "pass" if freq <= bound else "stat-fail", "t": t,
            "draws": draws, "frequency": freq, "bound": bound}


def check_lemma_appendix_a(trials: int, seed: int, modulus: int = 5, k: int = 2,
                           m: int = 2, budget: int = 10 ** 7) -> dict:
    """Appendix folding claims on certified-far instances."""
    rng = random.Random(seed)
    field = PrimeField(modulus)
    kappa = fold_kappa(2, k)
    failures = 0
    reports = []
    attempts = 0
    while len(reports) < 3 and attempts < 200:
        attempts += 1
        X = InputTensor.random(field, k, m, rng)
        points = tuple(field.rand_point(m, rng) for _ in range(2))
        values = tuple(rng.randrange(modulus) for _ in range(2))
        inst = PvalInstance(field, k, m, points, values)
        got = _consistent_matrix(field, k, inst, rng)
        if got is None:
            continue
        Y, _ = got
        D = _random_shaped_pmf(k, m, rng)
        rep = check_appendix_claims(X, D, Y, inst, kappa, trials, rng.getrandbits(63),
                                    budget=budget)
        if rep["sum_eps"].get("vacuous"):
            continue
        reports.append(rep)
        if not rep["sum_eps"]["holds"]:
            failures += 1
        for key, rate in (("support_hit", "miss_rate"), ("folded_far", "fail_rate")):
            bound = rep[key]["bound"]
            if rep[key][rate] > bound + 3 * math.sqrt(max(bound, 0.01) / trials):
                failures += 1
    return {"status": "pass" if failures == 0 else "stat-fail",
            "instances": len(reports), "failures": failures}


LEMMA_CHECKS = {
    "epsilons": lambda trials, seed, budget: check_lemma_epsilons(trials, seed, budget=budget),
    "dpl_product": lambda trials, seed, budget: check_lemma_dpl_product(trials, seed, budget=budget),
    "linSub": lambda trials, seed, budget: check_lemma_linsub(trials, seed),
    "grainer-claim": lambda trials, seed, budget: check_lemma_grainer(trials, seed),
    "grainer-distance": lambda trials, seed, budget: check_lemma_grainer_distance(trials, seed),
    "fold_dispersed": lambda trials, seed, budget: check_lemma_fold_dispersed(trials, seed),
    "tvineq": lambda trials, seed, budget: check_lemma_tvineq(trials, seed),
    "rr20_min_dist": lambda trials, seed, budget: check_lemma_min_distance(trials, seed, budget=budget),
    "appendix-a": lambda trials, seed, budget: check_lemma_appendix_a(trials, seed, budget=budget),
}


def cmd_check_lemma(lemma: str, trials: int, seed: int, budget: int = 10 ** 7) -> dict:
    if lemma not in LEMMA_CHECKS:
        raise ValueError(f"unknown lemma id {lemma!r}; known: {sorted(LEMMA_CHECKS)}")
    report = LEMMA_CHECKS[lemma](trials, seed, budget)
    report["lemma"] = lemma
    return report


def exit_code_for(report: dict) -> int:
    return {"pass": EXIT_PASS, "stat-fail": EXIT_STAT_FAIL,
            "exact-fail": EXIT_EXACT_FAIL, "refused": EXIT_REFUSED}[report["status"]]
