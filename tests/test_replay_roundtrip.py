"""Every recorded trial replays to the same bytes: each golden config, and the
NC df-IPPs with adversarial claims, whose fixed values the prover answers
like any other reply, so a replay answers them from the transcript."""

import pytest

from dfipp.experiments import cmd_replay, record_transcript
from test_golden import CONFIGS, TRANSCRIPT_SEED

ADVERSARIAL = {"trials": 1, "seed": 5, "field_modulus": 17, "k": 2, "m": 3, "eps": "1/2",
               "claims": {"mode": "adversarial", "points": [[1, 2, 3], [4, 5, 6]],
                          "values": [5, 7]}}
REPLAYED = {
    **CONFIGS,
    "df_ipp_nc/adversarial/random-lie": {**ADVERSARIAL, "protocol": "df_ipp_nc",
                                         "prover": {"mode": "random-lie", "prob": 0.2}},
    "dispersed_ipp_nc/adversarial/amplified": {**ADVERSARIAL, "protocol": "dispersed_ipp_nc",
                                               "repetitions": 3, "rule": "majority"},
}


@pytest.mark.parametrize("name", sorted(REPLAYED))
def test_recorded_trial_replays_to_the_same_bytes(name, tmp_path):
    path = str(tmp_path / "t.jsonl")
    result = record_transcript(REPLAYED[name], TRANSCRIPT_SEED, path)
    report = cmd_replay(path)
    assert report["match"], report
    assert report["comm_bits_recomputed"] == report["comm_bits_recorded"] \
        == result.ledger.comm_bits
