import math
import random

import pytest

from dfipp.session import (ACCEPT, PROVER, VERIFIER, CostLedger, Message, ProtocolViolation,
                           ProverStrategy, ReplayProver, Section, Session, Verdict, amplify,
                           dump_transcript, load_transcript, run_session)
from dfipp.distributions import Pmf


class EchoProver(ProverStrategy):
    def __init__(self):
        self.x = None

    def observe(self, tag, sections):
        if tag == "echo/x":
            self.x = tuple(sections[0])

    def reply(self, tag, payload):
        return [(self.x, 1)]


class WrongArityProver(EchoProver):
    def reply(self, tag, payload):
        return [(self.x[:-1], 1)]


class ExtraSectionProver(EchoProver):
    def reply(self, tag, payload):
        return [(self.x, 1), ((), 1)]


def echo_verifier(bits):
    def verifier(session):
        x = tuple(session.rng.getrandbits(1) for _ in range(bits))
        session.tell("echo/x", [(x, 1)])
        msg = session.ask("echo/reply", None, expect=[(bits, 1)])
        return ACCEPT if msg.values() == x else Verdict(False, "echo-mismatch")
    return verifier


def test_echo_accounting():
    bits = 16
    verdict, ledger, transcript, _ = run_session(echo_verifier(bits), EchoProver(), seed=1)
    assert verdict.accepted
    assert ledger.comm_bits == 2 * bits
    assert ledger.messages == 2
    assert ledger.rounds == 1
    assert ledger.queries == 0 and ledger.samples == 0


def test_wrong_arity_is_malformed():
    for prover, note in [
            (WrongArityProver(), "echo/reply: expected 8 values of width 1, got 7 of width 1"),
            (ExtraSectionProver(), "echo/reply: expected 1 sections, got 2")]:
        verdict, _, _, notes = run_session(echo_verifier(8), prover, 1)
        assert verdict == Verdict(False, "malformed")
        assert notes == [f"malformed: {note}"]


def test_raising_prover_is_malformed():
    class RaisingProver(EchoProver):
        def reply(self, tag, payload):
            return [({}[tag], 1)]

    verdict, ledger, transcript, notes = run_session(echo_verifier(8), RaisingProver(), 1)
    assert verdict == Verdict(False, "malformed")
    assert notes == ["malformed: 'echo/reply'"]
    assert ledger.messages == len(transcript) == 1


def test_raising_observer_is_malformed():
    class RaisingObserver(EchoProver):
        def observe(self, tag, sections):
            raise ValueError(f"cannot take {tag}")

    verdict, ledger, _transcript, notes = run_session(echo_verifier(8), RaisingObserver(), 1)
    assert verdict == Verdict(False, "malformed")
    assert notes == ["malformed: cannot take echo/x"]
    assert ledger.messages == 1


def test_same_seed_same_everything():
    runs = [run_session(echo_verifier(32), EchoProver(), seed=99)
            for _ in range(2)]
    (v1, l1, t1, _), (v2, l2, t2, _) = runs
    assert v1 == v2
    assert (l1.queries, l1.samples, l1.comm_bits, l1.messages) == \
        (l2.queries, l2.samples, l2.comm_bits, l2.messages)
    assert t1 == t2


def test_ledger_conservation():
    _, ledger, transcript, _ = run_session(echo_verifier(20), EchoProver(), seed=5)
    assert ledger.comm_bits == sum(m.bits for m in transcript)


def test_oracles_count_and_label():
    values = (5, 6, 7, 8)

    def verifier(session):
        i, v = session.sample()
        assert (i, v) == (2, 7)
        assert session.query(0) == 5
        return ACCEPT

    verdict, ledger, _, _ = run_session(verifier, EchoProver(), 0, values, Pmf.point_mass(2, 4))
    assert verdict.accepted
    assert ledger.samples == 1 and ledger.queries == 1


def test_sample_without_a_law_is_malformed():
    def verifier(session):
        session.sample()
        return ACCEPT

    verdict, ledger, _, notes = run_session(verifier, EchoProver(), 0, (5, 6))
    assert verdict == Verdict(False, "malformed")
    assert notes == ["malformed: no sample oracle bound (white-box session?)"]
    assert ledger.samples == 0


def test_section_width_validation():
    with pytest.raises(ProtocolViolation):
        Section((2,), 1)
    sec = Section((1, 0, 1), 1)
    assert sec.bits == 3
    assert Section.from_hex(sec.to_hex(), 3, 1) == sec


def test_section_names_the_first_value_that_does_not_fit():
    with pytest.raises(ProtocolViolation, match=r"^value 8 does not fit in 3 bits$"):
        Section((0, 7, 3, 8, 9), 3)
    with pytest.raises(ProtocolViolation, match=r"^value -1 does not fit in 2 bits$"):
        Section((0, 3, 1, -1, 4), 2)


class ObservingProver(ProverStrategy):
    def __init__(self):
        self.seen = []

    def observe(self, tag, sections):
        self.seen.append((tag, sections))


MIXED = [Section((1, 2), 3), ((5, 0, 7), 4), Section((), 2), ([1], 1), ((6, 6), 3)]
MIXED_MESSAGE = (Section((1, 2), 3), Section((5, 0, 7), 4), Section((), 2), Section((1,), 1),
                 Section((6, 6), 3))


def test_record_mixes_sections_and_raw_pairs():
    session = Session(ObservingProver(), 0)
    msg = session._record(PROVER, "mixed", MIXED)
    assert msg == Message(PROVER, "mixed", MIXED_MESSAGE)
    assert [type(s) for s in msg.sections] == [Section] * 5
    assert msg.sections[0] is MIXED[0]  # a Section is kept, not rebuilt
    assert session.transcript == [msg]
    assert session.ledger == CostLedger(comm_bits=2 * 3 + 3 * 4 + 0 + 1 + 2 * 3, messages=1)
    assert session.ledger.comm_bits == msg.bits


def test_tell_records_a_mixed_message_and_delivers_its_values():
    prover = ObservingProver()
    session = Session(prover, 0)
    msg = session.tell("mixed", MIXED)
    assert msg == Message(VERIFIER, "mixed", MIXED_MESSAGE)
    assert prover.seen == [("mixed", [(1, 2), (5, 0, 7), (), (1,), (6, 6)])]
    assert session.ledger == CostLedger(comm_bits=25, messages=1)


def test_record_names_a_bad_value_in_the_second_section_and_records_nothing():
    session = Session(ObservingProver(), 0)
    with pytest.raises(ProtocolViolation, match=r"^value 8 does not fit in 3 bits$"):
        session._record(PROVER, "bad", [Section((1,), 2), ((0, 7, 3, 8, 9), 3), ((0,), 1)])
    assert session.transcript == []
    assert session.ledger == CostLedger()


@pytest.mark.parametrize("values,width,text", [
    ((0.5, 1.0), 1, "value 0.5 is not an int"),
    ((1, True), 1, "value True is not an int"),
    ((0, "1"), 1, "value '1' is not an int"),
    ((3, 2.0, 9), 2, "value 2.0 is not an int"),
    ((0, 9, 0.5), 2, "value 9 does not fit in 2 bits"),
])
def test_section_names_the_first_value_that_is_not_a_fitting_int(values, width, text):
    with pytest.raises(ProtocolViolation) as exc:
        Section(values, width)
    assert str(exc.value) == text


@pytest.mark.parametrize("width", [0, -3, True, 1.0, None])
def test_section_width_must_be_an_int_of_at_least_one(width):
    with pytest.raises(ValueError, match=r"^width must be an int >= 1, not "):
        Section((0,), width)


class FloatProver(EchoProver):
    def reply(self, tag, payload):
        return [((0.5, 1.0), 1)]


def test_non_int_reply_is_malformed(tmp_path):
    def verifier(session):
        session.ask("echo/reply", None, expect=[(2, 1)])
        return ACCEPT

    result = run_session(verifier, FloatProver(), seed=0)
    assert result.verdict == Verdict(False, "malformed")
    assert result.notes == ["malformed: value 0.5 is not an int"]
    assert result.transcript == [] and result.ledger.comm_bits == 0
    path = str(tmp_path / "t.jsonl")
    dump_transcript(path, {}, result.transcript, result.verdict, result.ledger)
    assert load_transcript(path)[1] == []


class ForgingProver(EchoProver):
    """Replies with a Section built by tuple.__new__, past the constructor's checks."""

    def __init__(self, forged):
        super().__init__()
        self.forged = forged

    def reply(self, tag, payload):
        return [tuple.__new__(Section, self.forged)]


@pytest.mark.parametrize("forged,note", [
    (((-1, "x"), 3), "value -1 does not fit in 3 bits"),
    (((1, "x"), 3), "value 'x' is not an int"),
    (((1, 8), 3), "value 8 does not fit in 3 bits"),
    (([1, 0], 1), "section ([1, 0], 1) is not a (values tuple, width) pair"),
    (((1, 0), 0), "width must be an int >= 1, not 0"),
    (((1, 0), "1"), "width must be an int >= 1, not '1'"),
    (((1, 0), 1, 2), "section ((1, 0), 1, 2) is not a (values tuple, width) pair"),
])
def test_a_forged_section_is_malformed_and_its_transcript_dumps(tmp_path, forged, note):
    def verifier(session):
        session.tell("echo/x", [Section((1, 0), 1)])
        session.ask("echo/reply", None, expect=[(2, 1)])
        return ACCEPT

    result = run_session(verifier, ForgingProver(forged), seed=0)
    assert result.verdict == Verdict(False, "malformed")
    assert result.notes == [f"malformed: {note}"]
    assert [m.sender for m in result.transcript] == [VERIFIER]
    assert result.ledger == CostLedger(comm_bits=2, messages=1)
    path = str(tmp_path / "t.jsonl")
    dump_transcript(path, {}, result.transcript, result.verdict, result.ledger)
    assert load_transcript(path)[1] == result.transcript


def test_oracle_read_charges_one_query_per_offset():
    session = Session(EchoProver(), 0, tuple(range(100, 120)))
    ledger = session.ledger
    assert session.read(4, (0, 9, 3, 3, 15)) == [104, 113, 107, 107, 119]
    assert ledger.queries == 5
    assert session.read(19, ()) == []
    assert ledger.queries == 5


def test_oracle_charge_adds_queries_only_and_matches_read():
    session = Session(EchoProver(), 0, tuple(range(10)), Pmf.uniform(10))
    ledger = session.ledger
    session.charge(7)
    session.charge(0)
    assert (ledger.queries, ledger.samples) == (7, 0)
    for offsets in [(), (0,), (1, 1, 4), tuple(range(6))]:
        before = ledger.queries
        session.read(2, offsets)
        read_cost = ledger.queries - before
        session.charge(len(offsets))
        assert ledger.queries - before == 2 * read_cost == 2 * len(offsets)
    assert ledger.samples == 0


def test_section_hex_round_trip_wide():
    sec = Section((1023, 0, 512), 10)
    assert Section.from_hex(sec.to_hex(), 3, 10) == sec


def test_section_from_hex_round_trips_and_refuses_other_lengths_and_high_bits():
    rng = random.Random(4)
    for width in (1, 3, 8, 13, 64, 65):
        for count in range(6):
            sec = Section([rng.getrandbits(width) for _ in range(count)], width)
            text = sec.to_hex()
            assert Section.from_hex(text, count, width) == sec
            bad = [text + "00", text[:-2]] if text else ["00"]
            if count * width % 8:  # the last byte has bits above count * width
                bad.append(text[:-2] + format(int(text[-2:], 16) | 0x80, "02x"))
            for hexstr in bad:
                with pytest.raises(ValueError, match="does not hold"):
                    Section.from_hex(hexstr, count, width)


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(True, "reason")
    with pytest.raises(ValueError):
        Verdict(False)


def coin_protocol(p_reject: float):
    def run_once(seed):
        def verifier(session):
            if session.rng.random() < p_reject:
                return Verdict(False, "coin")
            return ACCEPT
        return run_session(verifier, EchoProver(), seed)
    return run_once


def test_amplify_single_repetition_identity():
    result = amplify(coin_protocol(0.0), 1, "all-accept", seed=3)
    plain = coin_protocol(0.0)(random.Random(3).getrandbits(63))
    assert result.verdict.accepted
    assert result[1:] == (plain.ledger, plain.transcript, ["amplified x1", *plain.notes])


def test_amplify_preserves_perfect_completeness():
    verdict = amplify(coin_protocol(0.0), 25, "all-accept", seed=4).verdict
    assert verdict.accepted


def test_amplify_all_accept_reject_rate():
    p, reps, trials = 0.3, 4, 1000
    rejected = 0
    for t in range(trials):
        verdict = amplify(coin_protocol(p), reps, "all-accept", seed=t).verdict
        if not verdict.accepted:
            rejected += 1
    target = 1 - (1 - p) ** reps
    sigma = math.sqrt(target * (1 - target) / trials)
    assert rejected / trials >= target - 3 * sigma


def test_amplify_majority():
    verdict = amplify(coin_protocol(1.0), 5, "majority", seed=0).verdict
    assert not verdict.accepted
    verdict = amplify(coin_protocol(0.0), 5, "majority", seed=0).verdict
    assert verdict.accepted


def test_transcript_dump_and_replay_prover(tmp_path):
    path = str(tmp_path / "run.jsonl")
    verdict, ledger, transcript, _ = run_session(echo_verifier(12), EchoProver(), seed=77)
    dump_transcript(path, {"config": {"bits": 12}, "seed": 77}, transcript, verdict, ledger)
    header, messages, trailer = load_transcript(path)
    assert header["seed"] == 77
    assert trailer["comm_bits"] == ledger.comm_bits
    assert messages == transcript

    # replaying the recorded prover against the same verifier seed matches
    verdict2, ledger2, transcript2, _ = run_session(
        echo_verifier(12), ReplayProver(messages), seed=77)
    assert verdict2 == verdict
    assert transcript2 == transcript


def test_load_transcript_names_a_missing_header_or_trailer_line(tmp_path):
    path = tmp_path / "run.jsonl"
    verdict, ledger, transcript, _ = run_session(echo_verifier(12), EchoProver(), seed=77)
    dump_transcript(str(path), {"seed": 77}, transcript, verdict, ledger)
    assert load_transcript(str(path))[1] == transcript
    lines = path.read_text().splitlines(keepends=True)
    for kept, missing in (([], "header"), (lines[:1], "trailer"), (lines[:-1], "trailer"),
                          (lines[1:], "header")):
        path.write_text("".join(kept))
        with pytest.raises(ValueError, match=f"no {missing} line"):
            load_transcript(str(path))


def test_prover_never_sees_oracles():
    # structural isolation: the strategy object holds no reference to the session
    prover = EchoProver()
    run_session(echo_verifier(4), prover, 0, (1, 2), Pmf.uniform(2))
    assert not any(isinstance(v, Session) for v in vars(prover).values())
