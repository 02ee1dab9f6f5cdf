import csv
import json
import time
from fractions import Fraction

import pytest

from dfipp.experiments import (CSV_COLUMNS, cmd_check_lemma, cmd_replay, cmd_run,
                               config_hash, gen_ham_lb_fixture, ham_distance_exact,
                               record_transcript, run_protocol, validate_config)
from dfipp.distributions import Pmf
from dfipp.session import ProverStrategy, Verdict
from dfipp.cli import main as cli_main
from test_config_sweep import CONFIGS as SWEEP


def test_validate_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        validate_config({"protocol": "echo", "trials": 1, "seed": 0, "bogus": 1})
    with pytest.raises(ValueError):
        validate_config({"protocol": "echo", "trials": 1})
    with pytest.raises(ValueError):
        validate_config({"protocol": "nope", "trials": 1, "seed": 0})
    validate_config({"protocol": "echo", "trials": 1, "seed": 0, "bits": 4})


def test_cmd_run_echo_single_trial():
    rec = cmd_run({"protocol": "echo", "trials": 1, "seed": 3, "bits": 8})
    assert rec["accepted"] == 1
    assert rec["ledger"]["comm_bits"]["min"] == 16


def test_cmd_run_byte_identical_outputs(tmp_path):
    config = {"protocol": "fin_ipp", "trials": 3, "seed": 2, "field_modulus": 17,
              "k": 2, "m": 4, "r": 1, "eps": "1/2"}
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cmd_run(dict(config), out_prefix=out1)
    cmd_run(dict(config), out_prefix=out2)
    assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()
    assert open(out1 + ".json", "rb").read() == open(out2 + ".json", "rb").read()


def test_cmd_run_csv_columns_fixed(tmp_path):
    out = str(tmp_path / "run")
    cmd_run({"protocol": "ham", "trials": 2, "seed": 0, "n": 4, "w": 2,
             "eps": "1/4", "x": [1, 0, 1, 0]}, out_prefix=out)
    header = open(out + ".csv").readline().strip().split(",")
    assert header == CSV_COLUMNS


def test_cmd_run_fin_honest_all_accept():
    rec = cmd_run({"protocol": "fin_ipp", "trials": 20, "seed": 9,
                   "field_modulus": 17, "k": 2, "m": 4, "r": 1, "eps": "1/2"})
    assert rec["accepted"] == 20
    assert rec["rejected"] == 0


def test_config_hash_stable():
    c = {"protocol": "echo", "trials": 1, "seed": 0, "bits": 4}
    assert config_hash(c) == config_hash(dict(reversed(list(c.items()))))


def test_replay_fresh_run_matches(tmp_path):
    path = str(tmp_path / "t.jsonl")
    config = {"protocol": "df_ipp_nc", "trials": 1, "seed": 6, "field_modulus": 17,
              "k": 2, "m": 4, "r": 1, "eps": "1/2"}
    record_transcript(config, 42, path)
    report = cmd_replay(path)
    assert report["match"]
    assert report["comm_bits_recomputed"] == report["comm_bits_recorded"]


def test_replay_detects_flipped_bit(tmp_path):
    path = str(tmp_path / "t.jsonl")
    config = {"protocol": "fin_ipp", "trials": 1, "seed": 6, "field_modulus": 17,
              "k": 2, "m": 4, "r": 1, "eps": "1/2"}
    record_transcript(config, 42, path)
    lines = open(path).read().splitlines()
    rec = json.loads(lines[1])
    blob = bytearray(bytes.fromhex(rec["sections"][0]["hex"]))
    blob[0] ^= 1
    rec["sections"][0]["hex"] = blob.hex()
    lines[1] = json.dumps(rec, sort_keys=True)
    open(path, "w").write("\n".join(lines) + "\n")
    report = cmd_replay(path)
    assert not report["match"]


# --- lower-bound fixture -----------------------------------------------------------

def test_fixture_identity_exact():
    for n in (4096, 65536):
        fx = gen_ham_lb_fixture(n, Fraction(1, 100))
        rep = fx["report"]
        assert rep["p1_x"] == 1 - 12 * Fraction(1, 100)
        assert rep["p2_y"] == 1 - 12 * Fraction(1, 100)
        assert rep["identity_holds"]
        assert fx["w"] == sum(fx["y"])
        assert sum(fx["d1"].masses) == 1 and sum(fx["d2"].masses) == 1


def test_fixture_weight_gap_positive():
    fx = gen_ham_lb_fixture(4096, Fraction(1, 100))
    assert sum(fx["y"]) > sum(fx["x"])


def test_fixture_default_exponents_not_far_at_desk_scale():
    # with the asymptotic exponent pair the cheap flips live in I3 and the
    # NO instance is NOT eps-far at reachable n; the generator reports this
    fx = gen_ham_lb_fixture(4096, Fraction(1, 100))
    assert not fx["report"]["far"]
    assert fx["report"]["distance_d1"] < Fraction(1, 100)


def test_fixture_override_exponent_restores_farness():
    for n in (4096, 65536):
        fx = gen_ham_lb_fixture(n, Fraction(1, 100),
                                e3=Fraction(2, 3) - Fraction(1, 10))
        assert fx["report"]["far"]
        assert fx["report"]["distance_d1"] > Fraction(1, 100)
        assert fx["report"]["identity_holds"]


def test_fixture_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        gen_ham_lb_fixture(4096, Fraction(1, 10))  # 20*eps >= 1: masses invalid
    with pytest.raises(ValueError):
        gen_ham_lb_fixture(64, Fraction(1, 100), e3=Fraction(1, 12))  # |I3| < 6


def test_fixture_exponent_bounds_are_inclusive_for_e3_only():
    # e3 = 1 is the largest exponent kept: |I3| is capped just below |I2|
    iv = gen_ham_lb_fixture(4096, Fraction(1, 100), e3=Fraction(1))["report"]["intervals"]
    assert iv["I3"] == iv["I2"] - 6 and iv["I1"] == 4096 - iv["I2"] - iv["I3"]
    for e2, e3 in ((Fraction(1), Fraction(1, 2)), (Fraction(2, 3), Fraction(1001, 1000))):
        with pytest.raises(ValueError, match="need exponents e2 < 1 and e3 <= 1"):
            gen_ham_lb_fixture(4096, Fraction(1, 100), e2=e2, e3=e3)


def test_floor_pow_is_the_largest_a_with_a_to_the_q_at_most_n_to_the_p():
    from dfipp.experiments import _floor_pow
    for n in [*range(1, 70), 3 ** 8, 4096, 65536]:  # perfect powers tie exactly
        for expo in {Fraction(p, q) for q in range(1, 9) for p in range(-1, 2 * q + 1)}:
            p, q = expo.numerator, expo.denominator
            lo, hi = 0, n ** 2  # bisect on a^q * n^-p <= 1, in integers
            while lo < hi:
                mid = (lo + hi + 1) // 2
                lo, hi = (mid, hi) if mid ** q * n ** max(-p, 0) <= n ** max(p, 0) else \
                    (lo, mid - 1)
            assert _floor_pow(n, expo) == lo, (n, expo)


def test_a_long_exponent_numerator_ends_within_a_second(capsys):
    # n^999999 has 16.6 M bits at n = 100000; the floor needs no such power
    from dfipp.experiments import _floor_pow
    start = time.perf_counter()
    assert _floor_pow(100000, Fraction(999999, 1000000)) == 99998
    with pytest.raises(SystemExit) as exc:  # |I2| fills [n]: a usage error, not a hang
        cli_main(["gen-fixture", "--n", "4096", "--e2", "999999/1000000"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2 and "I1 empty" in capsys.readouterr().err


def test_ham_distance_exact_greedy():
    # flipping up: cheapest zeros first
    D = Pmf([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
    x = (1, 0, 0, 0)
    assert ham_distance_exact(x, D, 1) == 0
    assert ham_distance_exact(x, D, 2) == Fraction(1, 8)
    assert ham_distance_exact(x, D, 3) == Fraction(1, 4)
    assert ham_distance_exact(x, D, 4) == Fraction(1, 2)
    # flipping down
    assert ham_distance_exact(x, D, 0) == Fraction(1, 2)


# --- lemma dispatch ------------------------------------------------------------------

def test_unknown_lemma_id():
    with pytest.raises(ValueError):
        cmd_check_lemma("nope", 10, 0)


@pytest.mark.parametrize("lemma,trials", [
    ("grainer-claim", 500), ("grainer-distance", 200), ("fold_dispersed", 300),
    ("tvineq", 300),
])
def test_exact_lemmas_pass(lemma, trials):
    report = cmd_check_lemma(lemma, trials, 0)
    assert report["status"] == "pass"
    assert report["violations"] == 0


def test_lemma_epsilons_small():
    report = cmd_check_lemma("epsilons", 30, 0)
    assert report["status"] == "pass"


def test_lemma_dpl_small():
    report = cmd_check_lemma("dpl_product", 20, 0)
    assert report["status"] == "pass"


def test_lemma_linsub_small():
    report = cmd_check_lemma("linSub", 50, 0)
    assert report["status"] == "pass"


def test_lemma_min_dist_small():
    report = cmd_check_lemma("rr20_min_dist", 50, 0)
    assert report["status"] == "pass"


# --- CLI ----------------------------------------------------------------------------

def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"protocol": "echo", "trials": 2, "seed": 0, "bits": 4}))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] == 2


@pytest.mark.parametrize("via", ["flag", "config"])
def test_cli_run_prints_the_json_report_it_writes(via, tmp_path, capsys):
    config = {"protocol": "whitebox_product", "trials": 2, "seed": 6, "field_modulus": 17,
              "k": 2, "m": 4, "r": 1, "eps": "1/2", "profile": "dyadic-random"}
    prefix = str(tmp_path / "o")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(cfg)]) == 0
    plain = capsys.readouterr().out
    argv = ["--out", prefix] if via == "flag" else []
    cfg.write_text(json.dumps(config if via == "flag" else {**config, "out": prefix}))
    assert cli_main(["run", "--config", str(cfg), *argv]) == 0
    printed = capsys.readouterr().out.encode()
    assert printed == open(prefix + ".json", "rb").read()
    if via == "flag":  # the same record, so the same bytes as a run without reports
        assert printed == plain.encode()


def test_cli_check_lemma_exit_code(capsys):
    assert cli_main(["check-lemma", "grainer-claim", "--trials", "50", "--seed", "1"]) == 0
    capsys.readouterr()


def test_cli_gen_fixture(tmp_path, capsys):
    out = tmp_path / "fx.json"
    code = cli_main(["gen-fixture", "--n", "4096", "--eps", "1/100",
                     "--e3", "17/30", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["identity_holds"]
    capsys.readouterr()


def test_cli_replay(tmp_path, capsys):
    path = str(tmp_path / "t.jsonl")
    record_transcript({"protocol": "echo", "trials": 1, "seed": 1, "bits": 8}, 5, path)
    assert cli_main(["replay", path]) == 0
    capsys.readouterr()


def test_config_level_amplification():
    # repetitions wrap the trial in all-accept amplification: ledgers sum
    base = {"protocol": "ham", "trials": 1, "seed": 4, "n": 4, "w": 2,
            "eps": "1/4", "x": [1, 0, 1, 0]}
    single = cmd_run(dict(base))
    amplified = cmd_run({**base, "repetitions": 3, "rule": "all-accept"})
    assert amplified["accepted"] == 1
    assert amplified["ledger"]["samples"]["min"] == \
        3 * single["ledger"]["samples"]["min"]
    with pytest.raises(ValueError):
        validate_config({**base, "rule": "best-of"})  # unknown keys still rejected


def test_config_prover_modes():
    # adversarial modes ride through the config schema end to end
    from dfipp.experiments import run_protocol
    base = {"protocol": "fin_ipp", "trials": 1, "seed": 17, "field_modulus": 17,
            "k": 2, "m": 4, "r": 1, "eps": "1/2"}
    honest, _ = run_protocol(base, 0)
    assert honest.verdict.accepted
    tampered, _ = run_protocol({**base, "prover": {"mode": "row-tamper", "row": 0}}, 0)
    assert tampered.verdict.reject_reason == "fold-consistency"
    ham = {"protocol": "ham", "trials": 1, "seed": 3, "n": 4, "w": 2,
           "eps": "1/4", "x": [0, 0, 0, 0],
           "prover": {"mode": "committed", "alt": [1, 1, 0, 0]}}
    res, _ = run_protocol(ham, 5)
    assert not res.verdict.accepted


def test_fixture_yes_pair_accepts():
    # the generated pair has two roles: (d1, x) is the NO instance, (d2, y)
    # the YES instance, which the honest prover must carry on every seed
    from dfipp.protocols import HonestHamProver, run_ham_ipp
    fx = gen_ham_lb_fixture(4096, Fraction(1, 100),
                            e3=Fraction(2, 3) - Fraction(1, 10))
    for seed in range(5):
        res = run_ham_ipp(fx["y"], fx["d2"], fx["w"], Fraction(1, 100),
                          HonestHamProver(fx["y"]), seed)
        assert res.verdict.accepted


@pytest.mark.parametrize("config", [
    {"protocol": "ham", "trials": 1, "seed": 5, "n": 64, "eps": "1/4",
     "repetitions": 3, "rule": "all-accept"},
    {"protocol": "fin_ipp", "trials": 1, "seed": 9, "field_modulus": 97, "k": 2, "m": 4,
     "r": 1, "eps": "1/2", "repetitions": 3, "rule": "majority"},
], ids=["all-accept", "majority"])
def test_amplified_trial_records_and_replays(config, tmp_path):
    # the transcript of an amplified trial is every repetition's, in order
    path = str(tmp_path / "t.jsonl")
    result = record_transcript(config, 1234, path)
    lines = open(path).read().splitlines()
    assert len(lines) - 2 == result.ledger.messages > 0
    assert sum(m.bits for m in result.transcript) == result.ledger.comm_bits
    report = cmd_replay(path)
    assert report["match"]
    assert report["comm_bits_recomputed"] == report["comm_bits_recorded"]


def test_repetitions_means_amplification_on_rlcc():
    # one repetition is one plain trial: rlcc keeps its four corrector rounds
    base = {"protocol": "rlcc", "trials": 2, "seed": 3, "bits": 4, "eps": "1/8"}
    assert cmd_run({**base, "repetitions": 1})["ledger"] == cmd_run(dict(base))["ledger"]


FIN = {"protocol": "fin_ipp", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 3,
       "r": 1, "eps": "1/2"}
HAM = {"protocol": "ham", "trials": 1, "seed": 1, "n": 8, "eps": "1/4"}


def _drop(config, key):
    return {k: v for k, v in config.items() if k != key}


@pytest.mark.parametrize("config,argv,message", [
    ({"protocol": "fin_ipp", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 3,
      "r": 1, "eps": "1/2", "prover": {"mode": "bogus"}}, None, "'bogus'"),
    ({"protocol": "whitebox_product", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2,
      "m": 3, "r": 1, "eps": "1/2", "prover": {"mode": "row-tamper"}}, None, "'row-tamper'"),
    (None, ["check-lemma", "nope"], "'nope'"),
    ({**FIN, "k": "2"}, None, "'k'"),
    (_drop(FIN, "eps"), None, "'eps'"),
    (_drop(HAM, "eps"), None, "'eps'"),
    ({**FIN, "prover": "honest"}, None, "'prover'"),
    ({**HAM, "eps": 0}, None, "'eps'"),
    ({**HAM, "eps": "1/0"}, None, "'eps'"),
    ({**HAM, "trials": True}, None, "'trials'"),
    ({**FIN, "dist_mode": "bogus"}, None, "dist_mode"),
    ({"protocol": "echo", "trials": 1, "seed": 1, "prover": {"mode": "bogus"}}, None,
     "'prover'"),
    ({"protocol": "rlcc", "trials": 1, "seed": 1, "bits": 4, "eps": "1/8",
      "prover": {"mode": "honest"}}, None, "'prover'"),
    ({"protocol": "set_lower_bound", "trials": 1, "seed": 1, "ell": 4,
      "prover": {"mode": "honest"}}, None, "'prover'"),
    ({"protocol": "df_ipp_nc", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 3,
      "eps": "1/2", "claims": [1]}, None, "'claims'"),
    ({"protocol": "poly_fold", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 2,
      "points": [[1, 2]]}, None, "'values'"),
    ({**FIN, "prover": {"mode": "fixed-alternative"}}, None, "'alt'"),
    ({**FIN, "prover": {"mode": "fixed-alternative", "alt": 5}}, None, "'prover.alt'"),
    ({"protocol": "poly_fold", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 2,
      "points": [1], "values": [1]}, None, "'points'"),
    ({"protocol": "df_ipp_nc", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 3,
      "eps": "1/2", "claims": {"mode": "adversarial", "points": [[1, 2, 3]], "values": 3}},
     None, "'claims.values'"),
    ({"protocol": "set_lower_bound", "trials": 1, "seed": 1, "ell": 2,
      "claims": [[1], "1/4", "1/4", "1/4"]}, None, "'claims'"),
    ({**HAM, "distribution": {}}, None, "'distribution'"),
    ({"protocol": "df_ipp_nc", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 3,
      "eps": "1/2", "claims": {"mode": "bogus"}}, None, "'bogus'"),
    ({**FIN, "prover": {"mode": "honest", "bogus": 1}}, None, "'bogus'"),
    ({**FIN, "kappa_override": 0}, None, "'kappa_override'"),
    ({**HAM, "x": [1, 0]}, None, "'x'"),
    ({**HAM, "prover": {"mode": "committed", "alt": [1]}}, None, "'prover.alt'"),
    ({**HAM, "n": 4, "distribution": {"kind": "explicit", "masses": ["1/2", "1/2"]}}, None,
     "'distribution'"),
    ({"protocol": "dispersed_ipp_nc", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2,
      "m": 2, "eps": "1/2", "distribution": {"kind": "explicit", "shape": [2, 3],
                                            "masses": ["1/8"] * 8}}, None, "'distribution'"),
    ({"protocol": "rlcc", "trials": 1, "seed": 1, "bits": 3, "eps": "1/8",
      "corruptions": [99]}, None, "'corruptions'"),
    ({"protocol": "rlcc", "trials": 1, "seed": 1, "bits": 3, "eps": "1/8",
      "corruptions": [-1]}, None, "'corruptions'"),
    ({"protocol": "set_lower_bound", "trials": 1, "seed": 1, "ell": 2, "claims": ["1/4"]},
     None, "'claims'"),
    ({"protocol": "set_lower_bound", "trials": 1, "seed": 1, "ell": 2, "bucket_bits": 3},
     None, "'bucket_bits'"),
    ({"protocol": "symmetric", "trials": 1, "seed": 1, "n": 4, "eps": "1/4", "x": [1, 0, 1, 0],
      "c": 1, "predicate": 2, "prover": {"mode": "bad-sum"},
      "distribution": {"kind": "circuit", "inputs": 2 ** 70, "gates": [["XOR", 0, 1], ["NOT", 2]],
                       "outputs": [3, 0]}}, None, "'distribution.inputs'"),
    ({"protocol": "df_ipp_nc", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 3,
      "eps": "1/2", "claims": {"mode": "adversarial", "points": [[1, 2, 3], [4, 5, 6]],
                               "values": [3]}}, None, "'claims.values'"),
    ({"protocol": "dispersed_ipp_nc", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2,
      "m": 3, "eps": "1/2", "claims": {"mode": "adversarial", "points": [[1, 2]],
                                       "values": [3]}}, None, "'claims.points'"),
    ({"protocol": "poly_fold", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 2,
      "points": [[1, 2], [3, 4]], "values": [1]}, None, "'values'"),
    ({**FIN, "points": [[1, 2]], "values": [1]}, None, "'points'"),
    ({"protocol": "set_lower_bound", "trials": 1, "seed": 1, "ell": 2,
      "claims": ["1/2", "1/4", "1/4", "1/8"]}, None, "'claims'"),
    # tau and delta lie in (0, 1): at tau >= 2 the lower bound (1 - tau/2) * p is vacuous,
    # at tau = 1 a 2x overclaim passes, and a huge tau overflows the verifier's own hash
    ({"protocol": "set_lower_bound", "trials": 3, "seed": 1, "ell": 6, "tau": "5/2",
      "claims": ["1/2"] + [0] * 63}, None, "'tau'"),
    ({"protocol": "set_lower_bound", "trials": 3, "seed": 1, "ell": 6, "tau": "1",
      "claims": ["1/32"] + [0] * 63}, None, "'tau'"),
    ({"protocol": "set_lower_bound", "trials": 3, "seed": 1, "ell": 4, "tau": "1000",
      "claims": ["1/2"] + [0] * 15}, None, "'tau'"),
    ({"protocol": "set_lower_bound", "trials": 1, "seed": 1, "ell": 4, "delta": 1}, None,
     "'delta'"),
    ({**FIN, "protocol": "whitebox_product", "tau": 1.5}, None, "'tau'"),
    ({**FIN, "prover": {"mode": "random-lie", "prob": 1.5}}, None, "'prover.prob'"),
    ({**FIN, "prover": {"mode": "random-lie", "prob": -3}}, None, "'prover.prob'"),
    ({**FIN, "prover": {"mode": "random-lie", "prob": float("nan")}}, None, "'prover.prob'"),
    # a bit string holds bits, and a tensor or a claim holds field elements: none is
    # reduced, masked or left for the honest prover's reply to break
    ({**HAM, "n": 2, "x": [2, 5]}, None, "'x'"),
    ({**HAM, "protocol": "symmetric", "n": 2, "x": [2, 5]}, None, "'x'"),
    ({**HAM, "n": 2, "x": [1, 0], "prover": {"mode": "committed", "alt": [3, 4]}}, None,
     "'prover.alt'"),
    ({**FIN, "x": [17] + [0] * 7}, None, "'x'"),
    ({**FIN, "x": [-1] + [0] * 7}, None, "'x'"),
    ({**FIN, "x": [0] * 7}, None, "'x'"),
    ({**FIN, "prover": {"mode": "fixed-alternative", "alt": [20] + [0] * 7}}, None,
     "'prover.alt'"),
    ({**FIN, "prover": {"mode": "fixed-alternative", "alt": [1]}}, None, "'prover.alt'"),
    ({**FIN, "protocol": "whitebox_product", "prover": {"mode": "fixed-alternative",
                                                        "alt": [1]}}, None, "'prover.alt'"),
    ({"protocol": "rlcc", "trials": 1, "seed": 1, "bits": 3, "eps": "1/8", "message": 99},
     None, "'message'"),
    ({"protocol": "rlcc", "trials": 1, "seed": 1, "bits": 3, "eps": "1/8", "message": -1},
     None, "'message'"),
    ({"protocol": "poly_fold", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 2,
      "points": [[99, -4]], "values": [1000]}, None, "'points'"),
    ({"protocol": "poly_fold", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 2,
      "points": [[1, 2]], "values": [1000]}, None, "'values'"),
    ({"protocol": "df_ipp_nc", "trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "m": 3,
      "eps": "1/2", "claims": {"mode": "adversarial", "points": [[1, 2, 3]], "values": [17]}},
     None, "'claims.values'"),
    # a tampered cell lies in the k rows of the fold matrix and moves by a nonzero field
    # element: nothing is read mod p or through a negative index
    ({**FIN, "prover": {"mode": "row-tamper", "row": -1}}, None, "'prover.row'"),
    ({**FIN, "prover": {"mode": "row-tamper", "row": 5}}, None, "'prover.row'"),
    ({**FIN, "prover": {"mode": "row-tamper", "delta": 17}}, None, "'prover.delta'"),
    ({**FIN, "prover": {"mode": "row-tamper", "delta": 0}}, None, "'prover.delta'"),
    ({**FIN, "prover": {"mode": "row-tamper", "col": -1}}, None, "'prover.col'"),
    # the round count lies in [1, m) at set-up, so no trial reaches the verifier's own check
    ({**FIN, "r": 3}, None, "config key 'r' must lie in [1, 3), not 3"),
    ({**FIN, "protocol": "df_ipp_nc", "r": 4}, None, "config key 'r' must lie in [1, 3), not 4"),
    ({**FIN, "protocol": "dispersed_ipp_nc", "r": 3}, None,
     "config key 'r' must lie in [1, 3), not 3"),
    ({**FIN, "protocol": "whitebox_product", "r": 3}, None,
     "config key 'r' must lie in [1, 3), not 3"),
    ({**_drop(FIN, "r"), "protocol": "df_ipp_nc", "m": 1}, None,
     "config key 'r' must lie in [1, 1), not 1"),
    # an explicit shape is (k, m), two entries, whatever masses it shapes
    ({**FIN, "distribution": {"kind": "explicit", "masses": ["1/8"] * 8, "shape": []}}, None,
     "config key 'distribution.shape' must have 2 entries, not 0"),
    ({**FIN, "distribution": {"kind": "explicit", "masses": ["1/8"] * 8, "shape": [2, 2, 1]}},
     None, "config key 'distribution.shape' must have 2 entries, not 3"),
    ({**HAM, "distribution": {"kind": "explicit", "masses": ["1/8"] * 8, "shape": [8]}}, None,
     "config key 'distribution.shape' must have 2 entries, not 1"),
    # eps past the corrector's radius is refused at set-up, not raised by every trial
    ({"protocol": "rlcc", "trials": 1, "seed": 1, "bits": 3, "eps": "1/4"}, None,
     "config key 'eps' must not exceed the correcting radius 1/8, not 1/4"),
    # a field and k the LDE cannot use are refused by key, not by the library's error
    ({**FIN, "field_modulus": 15}, None, "config key 'field_modulus' has a bad type or value"),
    ({**FIN, "field_modulus": 2, "k": 3}, None, "config key 'k' must lie in [1, 3), not 3"),
    ({**FIN, "protocol": "whitebox_product", "k": 3}, None,
     "config key 'k' has a bad type or value: 3"),
], ids=["fin_ipp-bogus-mode", "whitebox-row-tamper", "unknown-lemma", "fin_ipp-str-k",
        "fin_ipp-no-eps", "ham-no-eps", "fin_ipp-str-prover", "ham-eps-0", "ham-eps-1/0",
        "trials-true", "fin_ipp-bogus-dist_mode", "echo-prover", "rlcc-prover",
        "set_lower_bound-prover", "df_ipp_nc-claims-list", "poly_fold-points-no-values",
        "fin_ipp-alternative-no-alt", "fin_ipp-int-alt", "poly_fold-int-points",
        "df_ipp_nc-int-claim-values", "set_lower_bound-nested-claim", "empty-distribution",
        "df_ipp_nc-bogus-claims-mode", "fin_ipp-unknown-prover-key", "fin_ipp-kappa_override-0",
        "ham-short-x", "ham-short-alt", "ham-too-few-cells", "dispersed_ipp_nc-shape-mismatch",
        "rlcc-corruption-too-high", "rlcc-corruption-negative", "set_lower_bound-short-claims",
        "set_lower_bound-wide-bucket", "symmetric-huge-circuit-inputs",
        "df_ipp_nc-claims-count-mismatch", "dispersed_ipp_nc-claim-point-not-in-F^m",
        "poly_fold-count-mismatch", "fin_ipp-point-not-in-F^m", "set_lower_bound-mass-over-1",
        "set_lower_bound-tau-5/2", "set_lower_bound-tau-1", "set_lower_bound-tau-1000",
        "set_lower_bound-delta-1", "whitebox_product-tau-3/2", "random-lie-prob-1.5",
        "random-lie-prob--3", "random-lie-prob-nan", "ham-x-not-bits", "symmetric-x-not-bits",
        "ham-alt-not-bits", "fin_ipp-x-at-p", "fin_ipp-x-negative", "fin_ipp-short-x",
        "fin_ipp-alt-past-p", "fin_ipp-short-alt", "whitebox-short-alt", "rlcc-message-99",
        "rlcc-message-negative", "poly_fold-claim-point-past-p", "poly_fold-claim-value-past-p",
        "df_ipp_nc-claim-value-at-p", "row-tamper-row--1", "row-tamper-row-5",
        "row-tamper-delta-17", "row-tamper-delta-0", "row-tamper-col--1", "fin_ipp-r-at-m",
        "df_ipp_nc-r-past-m", "dispersed_ipp_nc-r-at-m", "whitebox_product-r-at-m",
        "df_ipp_nc-m-1-default-r", "explicit-shape-empty", "explicit-shape-3",
        "ham-explicit-shape-1", "rlcc-eps-past-radius", "fin_ipp-modulus-15",
        "fin_ipp-k-past-p", "whitebox_product-k-3"])
def test_cli_bad_input_is_a_usage_error(config, argv, message, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        argv = ["run", "--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("dfipp: error: ") and message in last


@pytest.mark.parametrize("ell", [21, 64])
def test_set_lower_bound_over_the_input_budget_is_refused(ell, tmp_path, capsys):
    # refused before any of the 2^ell default claims is built, so at once even at ell = 64
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"protocol": "set_lower_bound", "trials": 1, "seed": 1,
                                "ell": ell}))
    assert cli_main(["run", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('{"status": "refused", "reason": '
                            '"honest prover enumeration over budget"}\n')


@pytest.mark.parametrize("m", [21, 64])
def test_whitebox_product_over_the_input_budget_is_refused(m, tmp_path, capsys, monkeypatch):
    # refused before the k^m-cell tensor and joint law are built, so at once even at m = 64
    from dfipp import experiments

    def never(*args, **kwargs):
        raise AssertionError("set-up work done before the budget check")

    monkeypatch.setattr(experiments, "_tensor_and_instance", never)
    monkeypatch.setattr(experiments, "dispersion_rho", never)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"protocol": "whitebox_product", "field_modulus": 17, "k": 2,
                                "m": m, "r": 1, "eps": "1/2", "trials": 1, "seed": 0}))
    assert cli_main(["run", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('{"status": "refused", "reason": '
                            '"honest prover enumeration over budget"}\n')


@pytest.mark.parametrize("bits", [21, 64])
def test_rlcc_over_the_input_budget_is_refused(bits, tmp_path, capsys):
    # refused before the 2^bits-bit codeword is built, so at once even at bits = 64
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"protocol": "rlcc", "trials": 1, "seed": 1, "bits": bits,
                                "eps": "1/8"}))
    assert cli_main(["run", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"status": "refused", "reason": "Hadamard codeword over budget"}\n'


def test_whitebox_over_the_input_budget_is_refused_before_the_first_trial(tmp_path, capsys,
                                                                          monkeypatch):
    # the dyadic-random fixture of m = 6 at config seed 2 has a 22-input circuit
    from dfipp import product
    sessions = []
    monkeypatch.setattr(product, "run_session", lambda *args: sessions.append(args))
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"protocol": "whitebox_product", "trials": 3, "seed": 2,
                                "field_modulus": 17, "k": 2, "m": 6, "r": 1, "eps": "1/2",
                                "profile": "dyadic-random"}))
    assert cli_main(["run", "--config", str(path)]) == 3
    assert sessions == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('{"status": "refused", "reason": '
                            '"honest prover enumeration over budget"}\n')


def _count_preimage_builds(monkeypatch) -> list:
    """Patch slb_preimages, the one table builder, to log each build's symbol map."""
    from dfipp import experiments, product
    real, built = product.slb_preimages, []
    for module in (experiments, product):
        monkeypatch.setattr(module, "slb_preimages",
                            lambda circuit, symbol_of: built.append(symbol_of) or
                            real(circuit, symbol_of))
    return built


_WHITEBOX_R2 = {"protocol": "whitebox_product", "trials": 3, "seed": 6, "field_modulus": 17,
                "k": 2, "m": 4, "r": 2, "eps": "1/2", "profile": "dyadic-random"}
_SLB = {"protocol": "set_lower_bound", "trials": 3, "seed": 1, "ell": 6}


@pytest.mark.parametrize("config,rounds", [
    (_WHITEBOX_R2, [0, 1]),
    ({**_WHITEBOX_R2, "r": 1}, [0]),
    (_SLB, None),
], ids=["whitebox_product", "whitebox_product-r1", "set_lower_bound"])
def test_preimage_tables_are_built_once_per_run(config, rounds, monkeypatch):
    # the tables depend only on the circuit, so the three trials' provers share them:
    # one per round a whitebox run asks (r of m = 4), one for a set lower bound
    built = _count_preimage_builds(monkeypatch)
    record = cmd_run(dict(config))
    assert record["accepted"] == 3
    if rounds is None:
        assert len(built) == 1
    else:
        # a round-d map sends the cell with coordinate d = 1, all others 0, to 1
        k, m = config["k"], config["m"]
        assert [[d for d in range(m) if symbol_of(k ** (m - 1 - d)) == 1]
                for symbol_of in built] == [[d] for d in rounds]


@pytest.mark.parametrize("config", [{**_WHITEBOX_R2, "trials": 1}, {**_SLB, "trials": 1}],
                         ids=["whitebox_product", "set_lower_bound"])
def test_replay_builds_no_preimage_table(config, tmp_path, monkeypatch):
    # the replay prover answers from the transcript, so no honest prover is made
    path = str(tmp_path / "t.jsonl")
    record_transcript(config, 42, path)
    built = _count_preimage_builds(monkeypatch)
    assert cmd_replay(path)["match"]
    assert built == []


@pytest.mark.parametrize("config", [
    {"protocol": "fin_ipp", "field_modulus": 17, "k": 2, "m": 2, "r": 1, "eps": "1/2",
     "distribution": {"kind": "explicit", "masses": ["5/16", "3/16", "5/16", "3/16"]}},
    {"protocol": "df_ipp_nc", "field_modulus": 17, "k": 2, "m": 3, "r": 1, "eps": "1/2"},
    {"protocol": "dispersed_ipp_nc", "field_modulus": 17, "k": 2, "m": 2, "r": 1,
     "eps": "1/2", "distribution": {"kind": "product", "factors": [["1/4", "3/4"]] * 2}},
    {"protocol": "whitebox_product", "field_modulus": 17, "k": 2, "m": 3, "r": 1,
     "eps": "1/2", "profile": "dyadic-random"},
], ids=["fin_ipp", "df_ipp_nc", "dispersed_ipp_nc", "whitebox_product"])
def test_dispersion_rho_is_measured_once_per_run(config, monkeypatch):
    # the rho column and every trial's FinIPP read one measurement of the set-up
    from dfipp import experiments, protocols
    real, calls = experiments.dispersion_rho, []
    for module in (experiments, protocols):
        monkeypatch.setattr(module, "dispersion_rho",
                            lambda *args: calls.append(args) or real(*args))
    record = cmd_run({**config, "trials": 3, "seed": 4})
    assert record["accepted"] == 3
    assert len(calls) == 1


@pytest.mark.parametrize("eps", [2, 0.25, "1/4"])
def test_config_rationals_accept_int_float_and_fraction_strings(eps):
    validate_config({**HAM, "eps": eps})


# a JSON float is read as its decimal value, as eps, tau and delta are: 0.1 is 1/10
@pytest.mark.parametrize("config,decimal", [
    ({"protocol": "set_lower_bound", "ell": 2, "claims": ["1/10", "1/5", "3/10", "2/5"]},
     {"claims": [0.1, 0.2, 0.3, 0.4]}),
    ({"protocol": "ham", "n": 4, "eps": "1/4", "w": 2, "x": [1, 0, 1, 0],
      "distribution": {"kind": "explicit", "masses": ["1/10", "1/5", "3/10", "2/5"]}},
     {"distribution": {"kind": "explicit", "masses": [0.1, 0.2, 0.3, 0.4]}}),
    ({"protocol": "rlcc", "bits": 2, "eps": "1/8", "message": 1, "corruptions": [3],
      "distribution": {"kind": "product", "factors": [["1/10", "9/10"], ["3/10", "7/10"]]}},
     {"distribution": {"kind": "product", "factors": [[0.1, 0.9], [0.3, 0.7]]}}),
], ids=["set_lower_bound-claims", "explicit-masses", "product-factors"])
def test_decimal_float_masses_run_as_their_fraction_strings(config, decimal):
    config = {**config, "trials": 1, "seed": 2}
    validate_config({**config, **decimal})
    for seed in (1, 2, 3):
        want, _ = run_protocol(config, seed)
        got, _ = run_protocol({**config, **decimal}, seed)
        assert (got.verdict, got.ledger, got.transcript) == \
            (want.verdict, want.ledger, want.transcript)


def test_replay_validates_the_header_config(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    record_transcript(dict(HAM), 7, str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["header"]["config"]["bogus"] = 1
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["replay", str(path)])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("dfipp: error: ") and "bogus" in last


def test_amplified_trial_keeps_every_repetition_note():
    config = {**FIN, "m": 4}
    single = cmd_run(dict(config))["parameter_notes"]
    amplified = cmd_run({**config, "repetitions": 3})["parameter_notes"]
    assert len(single) == 6
    assert amplified == ["amplified x3"] + single


@pytest.mark.parametrize("protocol", ["df_ipp_nc", "dispersed_ipp_nc"])
def test_nc_setup_evaluates_no_claim_points(protocol, monkeypatch):
    # the NC df-IPPs draw their claims in the session, so setup needs no LDE value
    from dfipp import experiments
    calls = []
    real = experiments.lde_eval
    monkeypatch.setattr(experiments, "lde_eval", lambda X, pt: calls.append(pt) or real(X, pt))
    config = {"protocol": protocol, "trials": 1, "seed": 6, "field_modulus": 17,
              "k": 2, "m": 4, "r": 1, "eps": "1/2"}
    result, _meta = experiments.run_protocol(config, 42)
    assert result.verdict.accepted
    assert calls == []


@pytest.mark.parametrize("lemma", ["tvineq", "rr20_min_dist", "appendix-a"])
@pytest.mark.parametrize("trials", ["0", "-3", "x"])
def test_check_lemma_refuses_a_trial_count_that_is_not_positive(lemma, trials, capsys,
                                                                 monkeypatch):
    from dfipp import experiments
    monkeypatch.setitem(experiments.LEMMA_CHECKS, lemma, None)  # no suite may run
    with pytest.raises(SystemExit) as exc:
        cli_main(["check-lemma", lemma, "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("dfipp: error: ")]
    assert errors == [f"dfipp: error: --trials must be a positive integer, got {trials!r}"]


@pytest.mark.parametrize("lines,message", [
    ([], "no header line"),
    (['{"header": {"config": {}, "seed": 1}}'], "no trailer line"),
    (['{"header": {"config": {}, "seed": 1}}',
      '{"sender": "prover", "tag": "echo/reply", "sections": []}'], "no trailer line"),
    (['{"header": {"config": {}, "seed": 1}}',
      '{"sender": "prover", "tag": "t", "sections": [{"hex": "07", "n": 1, "w": 2}]}',
      '{"trailer": {}}'], "does not hold 1 values of 2 bits"),
    (['{"header": {"config": {}, "seed": 1}}', '{"sender": "prover"}', '{"trailer": {}}'],
     "line 2 is not a message"),
    (['{"header": {"config": {}, "seed": 1}}',
      '{"sender": "prover", "tag": "t", "sections": [{"hex": "", "n": "x", "w": 2}]}',
      '{"trailer": {}}'], "line 2 is not a message"),
    (['{"header": {"config": {}, "seed": 1}}', '{"sender": "prover", "tag": "t",',
      '{"trailer": {}}'], "line 2 is not JSON"),
    (['{"header": {"seed": 1}}', '{"trailer": {}}'], "header line needs a config"),
    (['{"header": {"config": {}, "seed": 1}}', '{"trailer": {}}'], "trailer line needs"),
], ids=["empty", "header-only", "no-trailer", "high-bits", "no-tag", "section-n-not-int",
        "not-json", "header-without-config", "empty-trailer"])
def test_cli_replay_of_a_malformed_transcript_is_a_usage_error(lines, message, tmp_path,
                                                               capsys):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(SystemExit) as exc:
        cli_main(["replay", str(path)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("dfipp: error: ")]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("argv,message", [
    (["gen-fixture", "--n", "-5"], "--n must be a positive integer, got '-5'"),
    (["gen-fixture", "--n", "64", "--eps", "1/0"], "--eps must be a fraction, got '1/0'"),
    (["gen-fixture", "--n", "64", "--e2", "1/0"], "--e2 must be a fraction, got '1/0'"),
    (["gen-fixture", "--n", "64", "--e3", "1/0"], "--e3 must be a fraction, got '1/0'"),
    (["gen-fixture", "--n", "64", "--out", "{tmp}/missing/f.json"], "No such file"),
    (["run", "--config", "{tmp}/missing.json"], "No such file"),
    (["replay", "{tmp}/missing.jsonl"], "No such file"),
    # n^e2 and n^e3 would overflow a float; an e2 of 1 always left I1 empty
    (["gen-fixture", "--n", "4096", "--e2", "1000"], "need exponents e2 < 1 and e3 <= 1"),
    (["gen-fixture", "--n", "4096", "--e2", "1"], "need exponents e2 < 1 and e3 <= 1"),
    (["gen-fixture", "--n", "4096", "--e3", "1000"], "need exponents e2 < 1 and e3 <= 1"),
], ids=["negative-n", "eps-over-zero", "e2-over-zero", "e3-over-zero", "unwritable-out",
        "missing-config", "missing-transcript", "e2-overflows", "e2-one", "e3-overflows"])
def test_cli_bad_numbers_and_paths_are_usage_errors(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("dfipp: error: ")]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("argv", [[], ["--seed", "3"], ["--trials", "2"]])
@pytest.mark.parametrize("config", [[1, 2], "ham", 7, None])
def test_cli_run_refuses_a_config_that_is_not_an_object(config, argv, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(path), *argv])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("dfipp: error: ")]
    assert errors == [f"dfipp: error: config has a bad type or value: {config!r}"]


# One law over [2]^2, mass 1/2 on cells (0, 0) and (1, 0), in every form a config can
# write it.  Its dispersion is 2: along the second axis, 1/2 sits against a line mean of
# 1/4.  Every sampled cell has the tail (0,), so the point set of df_ipp_nc, and with it
# the ledger, does not depend on how each kind of sampler spends the verifier's coins.
SAME_LAW = {
    "explicit-shaped": {"kind": "explicit", "masses": ["1/2", 0, "1/2", 0], "shape": [2, 2]},
    "explicit-unshaped": {"kind": "explicit", "masses": ["1/2", 0, "1/2", 0]},
    "product": {"kind": "product", "factors": [["1/2", "1/2"], [1, 0]]},
    # output bit 0 is the constant wire 1, output bit 1 the input bit
    "circuit": {"kind": "circuit", "inputs": 1, "gates": [["XOR", 0, 0]], "outputs": [1, 0]},
}
# per trial: (rho, queries, samples, comm_bits, messages, accepted), from the explicit
# shaped law, which the runners read at its dispersion before rho was derived from D
SAME_LAW_ROWS = {
    "fin_ipp": [("2", "480", "120", "60", "3", "1")] * 3,
    "dispersed_ipp_nc": [("2", "480", "120", "370", "5", "1"), ("2", "480", "120", "400", "5", "1"),
                         ("2", "480", "120", "360", "5", "1")],
    "df_ipp_nc": [("2", "240", "6", "412", "6", "1"), ("2", "240", "6", "442", "6", "1"),
                  ("2", "240", "6", "412", "6", "1")],
}


@pytest.mark.parametrize("protocol", sorted(SAME_LAW_ROWS))
@pytest.mark.parametrize("form", sorted(SAME_LAW))
def test_every_form_of_one_law_runs_alike(protocol, form, tmp_path):
    config = {"protocol": protocol, "trials": 3, "seed": 3, "field_modulus": 17, "k": 2,
              "m": 2, "r": 1, "eps": "1/2", "distribution": SAME_LAW[form]}
    out = str(tmp_path / "run")
    record = cmd_run(config, out_prefix=out)
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [tuple(row[key] for key in ("rho", "queries", "samples", "comm_bits", "messages",
                                       "accepted")) for row in rows] == SAME_LAW_ROWS[protocol]
    shaped = cmd_run({**config, "distribution": SAME_LAW["explicit-shaped"]})
    assert {**record, "config_hash": None} == {**shaped, "config_hash": None}


# --- one set-up per cmd_run ------------------------------------------------------

_FIN17 = {"protocol": "fin_ipp", "trials": 3, "seed": 12, "field_modulus": 17, "k": 2, "m": 4,
          "r": 1, "eps": "1/2"}
SETUP_ONCE = {
    "fin-random-lie": {**_FIN17, "prover": {"mode": "random-lie", "prob": 0.2}},
    "fin-row-tamper": {**_FIN17, "prover": {"mode": "row-tamper", "row": 1, "delta": 3}},
    "fin-fixed-alternative": {**_FIN17, "prover": {"mode": "fixed-alternative",
                                                   "alt": [(5 * i + 1) % 17 for i in range(16)]}},
    "ham-bad-sum": {"protocol": "ham", "trials": 3, "seed": 4, "n": 8, "eps": "1/4",
                    "prover": {"mode": "bad-sum"}},
    "whitebox-dyadic-random": {"protocol": "whitebox_product", "trials": 3, "seed": 8,
                               "field_modulus": 17, "k": 2, "m": 3, "r": 1, "eps": "1/2",
                               "profile": "dyadic-random"},
    "nc-adversarial-claims": {"protocol": "df_ipp_nc", "trials": 3, "seed": 5,
                              "field_modulus": 17, "k": 2, "m": 2, "eps": "1/2",
                              "claims": {"mode": "adversarial", "points": [[1, 2], [3, 4]],
                                         "values": [5, 6]}},
    "amplified-all-accept": {**_FIN17, "repetitions": 3, "rule": "all-accept",
                             "prover": {"mode": "random-lie", "prob": 0.05}},
    "amplified-majority": {"protocol": "dispersed_ipp_nc", "trials": 3, "seed": 2,
                           "field_modulus": 17, "k": 2, "m": 3, "eps": "1/2",
                           "repetitions": 3, "rule": "majority",
                           "prover": {"mode": "random-lie", "prob": 0.02}},
}


@pytest.mark.parametrize("config", SETUP_ONCE.values(), ids=SETUP_ONCE)
def test_cmd_run_sets_up_once_and_each_trial_is_a_lone_run(config, tmp_path, monkeypatch):
    # one setup rng per cmd_run, whatever the trials and repetitions; and every
    # trial (verdict, ledger, notes, transcript, CSV row) is run_protocol at its seed
    from dfipp import experiments
    seeds, trials = [], []
    real_rng, real_setup = experiments._setup_rng, experiments._setup

    def setup(cfg):
        trial, meta = real_setup(cfg)
        return (lambda seed, prover: trials.append((seed, trial(seed, prover)))
                or trials[-1][1]), meta

    monkeypatch.setattr(experiments, "_setup_rng", lambda s: seeds.append(s) or real_rng(s))
    monkeypatch.setattr(experiments, "_setup", setup)
    out = str(tmp_path / "run")
    record = cmd_run(dict(config), out_prefix=out)
    assert seeds == [config["seed"]]
    monkeypatch.undo()

    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["seed"]) for row in rows] == [seed for seed, _ in trials]
    assert len(rows) == 3
    notes = []
    for row, (seed, got) in zip(rows, trials):
        want, meta = run_protocol(config, seed)
        assert got == want
        assert row == {key: str(value) for key, value in {
            **meta, **vars(want.ledger), "accepted": int(want.verdict.accepted),
            "reject_reason": want.verdict.reject_reason or "", "seed": seed}.items()}
        notes.extend(want.notes)
    assert record["parameter_notes"] == list(dict.fromkeys(notes))
    if "repetitions" in config:
        assert all(r.notes[0] == f"amplified x{config['repetitions']}" for _, r in trials)


def test_setup_once_cases_accept_and_reject():
    # the cases above are not all of one outcome: the cheating provers are caught
    reasons = {name: cmd_run(dict(config))["reject_reasons"]
               for name, config in SETUP_ONCE.items()}
    assert reasons == {"fin-random-lie": {"fold-consistency": 3},
                       "fin-row-tamper": {"fold-consistency": 3},
                       "fin-fixed-alternative": {"fold-consistency": 3},
                       "ham-bad-sum": {"sum": 3},
                       "whitebox-dyadic-random": {},
                       "nc-adversarial-claims": {"fold-consistency": 3},
                       "amplified-all-accept": {},
                       "amplified-majority": {"fold-consistency": 3}}


# --- one trial shape: a bound runner and a prover factory per set-up ----------------

# the public runner that each protocol's set-up binds, by its name on dfipp.experiments
RUNNERS = {"echo": "run_session", "ham": "run_ham_ipp", "symmetric": "run_symmetric_ipp",
           "poly_fold": "run_poly_fold", "fin_ipp": "run_fin_ipp",
           "df_ipp_nc": "run_df_ipp_nc", "dispersed_ipp_nc": "run_dispersed_ipp_nc",
           "whitebox_product": "run_whitebox_product_ipp", "rlcc": "run_rlcc_transform",
           "set_lower_bound": "run_set_lower_bound"}


@pytest.mark.parametrize("name", sorted(SWEEP))
@pytest.mark.parametrize("reps", [1, 3])
def test_every_runner_is_seen_by_a_tracer_that_rebinds_it(name, reps, monkeypatch):
    # as perfbench/tracing.py does: rebind the module name, then every session calls
    # the wrapper, so no set-up may hold the runner it read at import
    from dfipp import experiments
    config = {**SWEEP[name], "repetitions": reps}
    runner = RUNNERS[config["protocol"]]
    real, calls = getattr(experiments, runner), []
    monkeypatch.setattr(experiments, runner,
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    run_protocol(config, 7)
    assert len(calls) == reps


@pytest.mark.parametrize("name", sorted(SWEEP))
@pytest.mark.parametrize("reps", [1, 3])
def test_setup_picks_the_prover_of_every_session(name, reps, monkeypatch):
    # cmd_run makes one distinct prover per trial and per repetition, and runs each
    # once; an override is never made and answers every repetition
    from dfipp import experiments
    from dfipp.protocols import NullProver
    config = {**SWEEP[name], "trials": 2, "repetitions": reps}
    required, optional, build = experiments._PROTOCOLS[config["protocol"]]
    made, ran = [], []

    def counted(cfg, rng):
        run, make, meta = build(cfg, rng)
        return (lambda prover, seed: ran.append(prover) or run(prover, seed)), \
            (lambda: made.append(make()) or made[-1]), meta

    monkeypatch.setitem(experiments._PROTOCOLS, config["protocol"], (required, optional, counted))
    cmd_run(dict(config))
    assert len(made) == 2 * reps and ran == made
    assert len(set(map(id, made))) == len(made)
    made.clear()
    ran.clear()
    override = NullProver()
    run_protocol(config, 5, prover_override=override)
    assert made == [] and ran == [override] * reps


def _plain(value) -> bool:
    """Is value None, an int, or a tuple or list of plain values?"""
    return value is None or type(value) is int or \
        type(value) in (tuple, list) and all(map(_plain, value))


class _PayloadLog(ProverStrategy):
    """The inner prover, logging each (tag, payload) it is asked with."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    def reply(self, tag, payload):
        self.log.append((tag, payload))
        return self.inner.reply(tag, payload)

    def observe(self, tag, sections):
        self.inner.observe(tag, sections)


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_every_ask_payload_is_plain_data(name, monkeypatch):
    # a payload is neither recorded nor charged, so no live object such as the session's
    # rng may ride in one to a prover
    from dfipp import experiments
    config = SWEEP[name]
    required, optional, build = experiments._PROTOCOLS[config["protocol"]]
    asked = []

    def logged(cfg, rng):
        run, make, meta = build(cfg, rng)
        return run, (lambda: _PayloadLog(make(), asked)), meta

    monkeypatch.setitem(experiments._PROTOCOLS, config["protocol"], (required, optional, logged))
    cmd_run(dict(config))
    assert asked or config["protocol"] == "rlcc"  # rlcc's NullProver is never asked
    assert [(tag, payload) for tag, payload in asked if not _plain(payload)] == []


# --- field elements in prover replies ----------------------------------------------

class _Aliasing(ProverStrategy):
    """The inner prover, with p added to every value of the tagged replies that
    still fits its width: at F_17, 5 bits also hold v + 17 for v < 15."""

    def __init__(self, inner, p, tags):
        self.inner, self.p, self.tags = inner, p, tags

    def reply(self, tag, payload):
        sections = self.inner.reply(tag, payload)
        if tag not in self.tags:
            return sections
        return [(tuple(v + self.p if (v + self.p) >> width == 0 else v for v in values), width)
                for values, width in sections]

    def observe(self, tag, sections):
        self.inner.observe(tag, sections)


F17_FOLD = {"trials": 1, "seed": 1, "field_modulus": 17, "k": 2, "eps": "1/2"}


@pytest.mark.parametrize("config,tags", [
    ({**F17_FOLD, "protocol": "fin_ipp", "m": 3, "r": 1}, {"fold/matrix", "fin/leaves"}),
    ({**F17_FOLD, "protocol": "fin_ipp", "m": 3, "r": 1}, {"fin/leaves"}),
    ({**F17_FOLD, "protocol": "df_ipp_nc", "m": 3, "r": 1}, {"claims/values"}),
    ({**F17_FOLD, "protocol": "df_ipp_nc", "m": 3, "r": 1}, {"fold/matrix", "fin/leaves"}),
    ({**F17_FOLD, "protocol": "whitebox_product", "m": 4, "r": 1},
     {"fold/matrix", "fin/leaves"}),
    ({**F17_FOLD, "protocol": "whitebox_product", "m": 4, "r": 1}, {"fin/leaves"}),
], ids=["fin_ipp", "fin_ipp-leaves", "df_ipp_nc-claims", "df_ipp_nc", "whitebox_product",
        "whitebox_product-leaves"])
def test_field_aliases_in_replies_are_malformed(config, tags):
    # the honest prover with its replies' values moved to their aliases v + p: a width of
    # field.bits holds them, so only the field-element check refuses them
    from dfipp import experiments
    run, make, _meta = experiments._PROTOCOLS[config["protocol"]][2](
        config, experiments._setup_rng(config["seed"]))
    for seed in range(20):
        assert run(make(), seed).verdict.accepted
        result = run(_Aliasing(make(), 17, tags), seed)
        assert result.verdict == Verdict(False, "malformed")
        assert any(note.startswith("malformed: ") and "is not an element of F_17" in note
                   for note in result.notes)
