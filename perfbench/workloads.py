"""Op lists for the three benchmark workloads, generated from the workload seed.

An op is one `dfipp.cli.main(argv)` call or one
`dfipp.experiments.record_transcript` call.  The multiset of op templates
is fixed per workload; the seed only draws the concrete inputs (tensors,
claim points, distributions, config and trial seeds) and the op order.  So
every seed asks for the same amount of work, and the same seed always
produces byte-identical config files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

F17, F97, M61 = 17, 97, (1 << 61) - 1


@dataclass
class Op:
    label: str                      # template name; stable across seeds
    kind: str                       # run | record | replay | lemma
    argv: Optional[list] = None     # cli.main arguments (run, replay, lemma)
    config: Optional[dict] = None   # record: the config handed to record_transcript
    seed: Optional[int] = None      # record: the trial seed
    path: Optional[str] = None      # record: the transcript written
    honest: bool = False            # run/record: any rejection is an op failure
    expect_reject: Optional[str] = None  # every trial must reject with this reason
    amplified: bool = False         # config carries repetitions > 1
    trials: int = 1                 # counted by trials_per_s
    sessions: int = 0               # run_session calls the op must make
    after: Optional[str] = None     # replay: label of the record op it reads


def _tensor(rng, p, n):
    return [rng.randrange(p) for _ in range(n)]


def _dispersed_pmf(rng, k, m):
    """A shaped pmf with weights in {1, 2, 3}: non-uniform, dispersion rho <= 3."""
    weights = [rng.randrange(1, 4) for _ in range(k ** m)]
    total = sum(weights)
    return {"kind": "explicit", "shape": [k, m],
            "masses": [str(Fraction(w, total)) for w in weights]}


def _claims(api, rng, p, k, m, data, t=2):
    """t random claim points J and the values P_data(J), by the public lde_eval."""
    field = api.field.PrimeField(p)
    tensor = api.field.InputTensor(field, k, m, tuple(data))
    points = [list(field.rand_point(m, rng)) for _ in range(t)]
    return points, [api.field.lde_eval(tensor, tuple(pt)) for pt in points]


def _member_alternative(api, rng, p, k, m):
    """(X, J, P_W(J), W): W is a PVAL(J, P_W(J)) member that differs from X in every cell."""
    x = _tensor(rng, p, k ** m)
    w = [(v + 1 + rng.randrange(p - 1)) % p for v in x]
    return (x, *_claims(api, rng, p, k, m, w), w)


# --- blackbox_sessions ------------------------------------------------------------

# A template is (kind, label, config, trials, honest, expected reject reason),
# kind "run" or "record"; build() turns each record into a record + replay pair.

def _blackbox(api, rng):
    ops = []

    def fold_cfg(proto, p, k, m, r, **kw):
        cfg = {"protocol": proto, "field_modulus": p, "k": k, "m": m}
        if r is not None:   # every protocol with a round count takes eps
            cfg.update(r=r, eps="1/2")
        cfg.update(kw)
        return cfg

    def run(label, cfg, trials, honest=True, expect_reject=None, copies=1):
        for c in range(copies):
            ops.append(("run", f"{label}#{c}" if copies > 1 else label, dict(cfg), trials,
                        honest, expect_reject))

    # honest provers: the prover-side LDE work dominates df_ipp_nc / dispersed_ipp_nc
    run("fin_ipp/oracle/F17/k2m4r1", fold_cfg("fin_ipp", F17, 2, 4, 1,
        distribution=_dispersed_pmf(rng, 2, 4)), 4)
    run("fin_ipp/uniform/F97/k3m4r2", fold_cfg("fin_ipp", F97, 3, 4, 2,
        dist_mode="uniform"), 2)
    run("fin_ipp/oracle/M61/k2m5r2", fold_cfg("fin_ipp", M61, 2, 5, 2), 2)
    run("df_ipp_nc/F17/k2m5r2", fold_cfg("df_ipp_nc", F17, 2, 5, 2), 1, copies=2)
    run("df_ipp_nc/M61/k2m4r1", fold_cfg("df_ipp_nc", M61, 2, 4, 1), 1)
    run("dispersed_ipp_nc/F17/k2m5r2", fold_cfg("dispersed_ipp_nc", F17, 2, 5, 2,
        distribution=_dispersed_pmf(rng, 2, 5)), 1, copies=2)
    run("dispersed_ipp_nc/M61/k2m5r1", fold_cfg("dispersed_ipp_nc", M61, 2, 5, 1), 1)
    run("poly_fold/F97/k3m5", fold_cfg("poly_fold", F97, 3, 5, None), 8)
    run("poly_fold/M61/k2m5", fold_cfg("poly_fold", M61, 2, 5, None), 8)
    run("ham/n64", {"protocol": "ham", "n": 64, "eps": "1/4"}, 4)
    run("rlcc/bits6", {"protocol": "rlcc", "bits": 6, "eps": "1/8"}, 4)

    # cheating provers
    x, pts, vals, w = _member_alternative(api, rng, F17, 2, 4)
    run("fin_ipp/fixed-alternative/F17/k2m4r1", fold_cfg(
        "fin_ipp", F17, 2, 4, 1, x=x, points=pts, values=vals,
        prover={"mode": "fixed-alternative", "alt": w}), 3, honest=False,
        expect_reject="leaf-sample")
    run("fin_ipp/row-tamper/M61/k2m5r2", fold_cfg(
        "fin_ipp", M61, 2, 5, 2, prover={"mode": "row-tamper", "row": rng.randrange(2),
                                         "col": 0, "delta": 1 + rng.randrange(16)}),
        2, honest=False)
    run("fin_ipp/random-lie/F97/k3m4r1", fold_cfg(
        "fin_ipp", F97, 3, 4, 1, prover={"mode": "random-lie", "prob": 0.2}), 2,
        honest=False)
    run("ham/bad-sum/n64", {"protocol": "ham", "n": 64, "eps": "1/4",
                            "prover": {"mode": "bad-sum"}}, 3, honest=False)

    # amplified trials, both rules
    run("ham/amplified-all-accept/n64", {"protocol": "ham", "n": 64, "eps": "1/4",
                                         "repetitions": 3, "rule": "all-accept"}, 2)
    run("fin_ipp/amplified-majority/F17/k2m4r1", fold_cfg(
        "fin_ipp", F17, 2, 4, 1, repetitions=3, rule="majority"), 2)

    # transcript writes and the replays that read them back
    x, pts, vals, w = _member_alternative(api, rng, F17, 2, 4)
    recorded = [
        ("fin_ipp/F17/k2m4r1", fold_cfg("fin_ipp", F17, 2, 4, 1), True, None),
        ("df_ipp_nc/F17/k2m5r2", fold_cfg("df_ipp_nc", F17, 2, 5, 2), True, None),
        ("fin_ipp/fixed-alternative/F17/k2m4r1", fold_cfg(
            "fin_ipp", F17, 2, 4, 1, x=x, points=pts, values=vals,
            prover={"mode": "fixed-alternative", "alt": w}), False, "leaf-sample"),
        ("ham/amplified-all-accept/n64", {"protocol": "ham", "n": 64, "eps": "1/4",
                                          "repetitions": 3, "rule": "all-accept"},
         True, None),
        ("fin_ipp/amplified-majority/F97/k2m4r1", fold_cfg(
            "fin_ipp", F97, 2, 4, 1, repetitions=3, rule="majority"), True, None),
    ]
    for label, cfg, honest, expect in recorded:
        ops.append(("record", label, dict(cfg), 1, honest, expect))
    return ops


# --- whitebox_sessions ------------------------------------------------------------

# Config seeds whose dyadic-random fixture has a 12-input sampling circuit of 84
# gates.  The honest SLB prover enumerates all 2^ell circuit inputs, and ell
# ranges over 6..16 across seeds, a 1000x spread in cost; pinning the fixture
# keeps that enumeration at one size.  X, J and the op order still come from
# the workload seed.
DYADIC_CONFIG_SEEDS = (6, 9, 57)


def _whitebox(api, rng):
    ops = []

    def wb(label, m, r, profile, trials, copies=1, alt=False):
        for c in range(copies):
            cfg = {"protocol": "whitebox_product", "field_modulus": F17, "k": 2, "m": m,
                   "r": r, "eps": "1/2", "profile": profile}
            if profile == "dyadic-random":
                cfg["seed"] = rng.choice(DYADIC_CONFIG_SEEDS)
            if alt:
                x, pts, vals, w = _member_alternative(api, rng, F17, 2, m)
                cfg["prover"] = {"mode": "fixed-alternative", "alt": w}
            else:
                x = _tensor(rng, F17, 2 ** m)
                pts, vals = _claims(api, rng, F17, 2, m, x)
            cfg.update(x=x, points=pts, values=vals)
            name = f"{label}#{c}" if copies > 1 else label
            ops.append(("run", name, cfg, trials, not alt, "leaf-sample" if alt else None))

    # r = 2: folded_eval is ~97% of a trial
    wb("whitebox/r2/uniform/m5", 5, 2, "uniform", 1)
    wb("whitebox/r2/dyadic-random/m4", 4, 2, "dyadic-random", 1)
    # dyadic-random at r = 1: SLB witness enumeration, granularisation, extension
    wb("whitebox/r1/dyadic-random/m4", 4, 1, "dyadic-random", 1, copies=3)
    wb("whitebox/r1/fixed-alternative/dyadic-random/m4", 4, 1, "dyadic-random", 1,
       copies=2, alt=True)
    # cheap sessions; a fixed alternative rejects at its first spot checks.  Trial
    # counts form a ladder, so op times around the median are spread out and the
    # median moves smoothly with machine speed instead of jumping between modes.
    for trials in range(1, 7):
        wb(f"whitebox/r1/uniform/m4/t{trials}", 4, 1, "uniform", trials)
        wb(f"whitebox/r1/uniform/m5/t{trials}", 5, 1, "uniform", trials)
    wb("whitebox/r2/fixed-alternative/uniform/m4", 4, 2, "uniform", 1, copies=4, alt=True)
    for ell, copies in ((8, 4), (9, 2), (10, 2)):
        for c in range(copies):
            ops.append(("run", f"set_lower_bound/ell{ell}#{c}",
                        {"protocol": "set_lower_bound", "ell": ell}, 1, True, None))
    return ops


# --- lemma_oracles ----------------------------------------------------------------

# suite -> --trials per call at the mean; each suite runs twice per pass, at 3/5
# and 7/5 of that, so call times form a ladder of tens to hundreds of
# milliseconds of exhaustive-oracle work
LEMMA_TRIALS = {
    "epsilons": 20,
    "dpl_product": 16,
    "linSub": 8,
    "grainer-claim": 600,
    "grainer-distance": 480,
    "fold_dispersed": 40,
    "tvineq": 400,
    "rr20_min_dist": 60,
    "appendix-a": 160,
}


def _session_count(cfg: dict, trials: int) -> int:
    return trials * cfg.get("repetitions", 1)


def build(workload: str, seed: int, api, workdir) -> list[Op]:
    """The op list of one pass, in its seeded order; writes config files under workdir."""
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Op] = []
    if workload == "lemma_oracles":
        for suite, mean in LEMMA_TRIALS.items():
            for trials in (mean * 3 // 5, mean * 7 // 5):
                ops.append(Op(label=f"{suite}/t{trials}", kind="lemma", trials=trials,
                              argv=["check-lemma", suite, "--trials", str(trials),
                                    "--seed", str(rng.getrandbits(31))]))
    else:
        templates = _blackbox(api, rng) if workload == "blackbox_sessions" \
            else _whitebox(api, rng)
        for i, (kind, label, cfg, trials, honest, expect) in enumerate(templates):
            cfg.setdefault("seed", rng.getrandbits(31))
            cfg["trials"] = trials
            amplified = cfg.get("repetitions", 1) > 1
            if kind == "run":
                path = workdir / f"op{i:03d}.json"
                path.write_text(json.dumps(cfg, sort_keys=True) + "\n")
                ops.append(Op(label=f"run:{label}", kind="run", honest=honest,
                              expect_reject=expect, amplified=amplified, trials=trials,
                              sessions=_session_count(cfg, trials),
                              argv=["run", "--config", str(path),
                                    "--out", str(workdir / f"op{i:03d}-out")]))
            else:
                transcript = str(workdir / f"op{i:03d}.jsonl")
                ops.append(Op(label=f"record:{label}", kind="record", config=cfg,
                              seed=rng.getrandbits(63), path=transcript, honest=honest,
                              expect_reject=expect, amplified=amplified, trials=1,
                              sessions=_session_count(cfg, 1)))
                ops.append(Op(label=f"replay:{label}", kind="replay",
                              argv=["replay", transcript], amplified=amplified, trials=1,
                              sessions=_session_count(cfg, 1),
                              after=f"record:{label}"))
    rng.shuffle(ops)
    # a replay reads the transcript its record op wrote earlier in the same pass
    pos = {op.label: i for i, op in enumerate(ops)}
    for i, op in enumerate(ops):
        if op.after is not None and pos[op.after] > i:
            j = pos[op.after]
            ops[i], ops[j] = ops[j], ops[i]
            pos[op.label], pos[op.after] = j, i
    return ops
