"""Every recorded trial replays to the same bytes: each golden config, and the
NC df-IPPs with adversarial claims, whose fixed values the prover answers
like any other reply, so a replay answers them from the transcript."""

import json

import pytest

from dfipp.experiments import cmd_replay, record_transcript, run_protocol
from dfipp.session import PROVER, ReplayProver, Verdict, load_transcript
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


def _drop_last_prover_line(records):
    del records[max(i for i, rec in enumerate(records) if rec.get("sender") == PROVER)]


def _retag_first_prover_line(records):
    next(rec for rec in records if rec.get("sender") == PROVER)["tag"] = "ham/bogus"


@pytest.mark.parametrize("edit,note", [
    (_drop_last_prover_line, "transcript exhausted"),
    (_retag_first_prover_line, "transcript tag 'ham/bogus' != requested 'ham/split'"),
])
def test_edited_prover_lines_replay_malformed(edit, note, tmp_path):
    path = tmp_path / "t.jsonl"
    record_transcript(CONFIGS["ham"], TRANSCRIPT_SEED, str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    _header, messages, _trailer = load_transcript(str(path))
    result, _meta = run_protocol(CONFIGS["ham"], TRANSCRIPT_SEED,
                                 prover_override=ReplayProver(messages))
    assert result.verdict == Verdict(False, "malformed")
    assert result.notes == [f"malformed: {note}"]
    report = cmd_replay(str(path))
    assert not report["match"] and not report["verdict_match"]
