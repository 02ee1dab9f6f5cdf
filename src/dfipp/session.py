"""Two-party interactive session harness with exact cost accounting.

A protocol is a verifier function driving a Session; the prover is a
strategy object answering typed requests.  The prover strategy receives
only the explicit inputs, the full input X, the distribution description,
and the verifier's messages -- never the session with its oracles and
rng.  Every payload crossing between the parties is recorded as a Message
whose bit length uses a canonical fixed-width encoding (field elements are
ceil(log2 p) bits wide), so comm_bits is reproducible from the transcript.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

VERIFIER = "verifier"
PROVER = "prover"


class ProtocolViolation(Exception):
    """A malformed prover reply (wrong arity, width overflow, bad tag)."""


class Section(tuple):
    """A run of equal-width values inside a message payload: the pair (values, width).
    The constructor validates every section: each value must be an int in
    [0, 2^width), and the first one that is not is named."""

    __slots__ = ()

    def __new__(cls, values, width: int) -> "Section":
        values = tuple(values)
        if type(width) is not int or width < 1:
            raise ValueError(f"width must be an int >= 1, not {width!r}")
        for v in values:
            if type(v) is not int:
                raise ProtocolViolation(f"value {v!r} is not an int")
            if v < 0 or v >> width:
                raise ProtocolViolation(f"value {v} does not fit in {width} bits")
        return tuple.__new__(cls, (values, width))

    values = property(itemgetter(0))
    width = property(itemgetter(1))

    def to_hex(self) -> str:
        values, width = self
        acc = sum(v << (i * width) for i, v in enumerate(values))
        return acc.to_bytes((len(values) * width + 7) // 8, "little").hex()

    @staticmethod
    def from_hex(hexstr: str, count: int, width: int) -> "Section":
        """The inverse of to_hex; refuses any other byte length or a bit above count*width."""
        raw = bytes.fromhex(hexstr)
        acc, bits = int.from_bytes(raw, "little"), count * width
        if bits < 0 or len(raw) != (bits + 7) // 8 or acc >> bits:
            raise ValueError(f"section hex does not hold {count} values of {width} bits")
        mask = (1 << width) - 1
        return Section(tuple((acc >> (i * width)) & mask for i in range(count)), width)


class Message(NamedTuple):
    sender: str
    tag: str
    sections: tuple[Section, ...]

    @property
    def bits(self) -> int:
        return sum(len(values) * width for values, width in self.sections)

    def values(self, i: int = 0) -> tuple[int, ...]:
        return self.sections[i][0]


@dataclass
class CostLedger:
    """Exact counts of input queries, O_D(X) samples, payload bits, messages."""

    queries: int = 0
    samples: int = 0
    comm_bits: int = 0
    messages: int = 0

    def merge(self, other: "CostLedger") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reject_reason: Optional[str] = None

    def __post_init__(self):
        if self.accepted and self.reject_reason is not None:
            raise ValueError("accepting verdicts carry no reject reason")
        if not self.accepted and self.reject_reason is None:
            raise ValueError("rejecting verdicts must name the failed step")


ACCEPT = Verdict(True)


class ProverStrategy:
    """Base class: concrete strategies implement reply(tag, payload) -> sections.

    payload carries only values already shared (explicit inputs or prior
    verifier messages); replies are lists of (values, width) pairs.  The
    harness delivers every verifier message through observe().
    """

    def reply(self, tag: str, payload) -> list[tuple[Sequence[int], int]]:
        raise NotImplementedError

    def observe(self, tag: str, sections) -> None:
        pass


class Session:
    """One deterministic protocol execution: rng, transcript, ledger, and the
    verifier's oracles on the input `values` and the law `dist`.

    query/read/charge and sample charge the ledger; the prover never holds
    the session.  `dist` may be a Pmf, ProductDistribution, or None (the
    white-box setting, where the verifier evaluates its sampling circuit).
    """

    def __init__(self, prover: ProverStrategy, seed: int, values: Sequence[int] = (), dist=None):
        self.prover = prover
        self.values = values
        self.dist = dist
        self.rng = random.Random(seed)
        self.ledger = CostLedger()
        self.transcript: list[Message] = []
        self.notes: list[str] = []

    def query(self, i: int) -> int:
        self.ledger.queries += 1
        return self.values[i]

    def charge(self, n: int) -> None:
        """Charge n queries without reading: the repeat of a read already made."""
        self.ledger.queries += n

    def read(self, base: int, offsets: Sequence[int]) -> list[int]:
        """X_{base + o} for each offset o, in order; one query charged per offset."""
        self.ledger.queries += len(offsets)
        values = self.values
        return [values[base + o] for o in offsets]

    def sample(self) -> tuple[int, int]:
        if self.dist is None:
            raise ProtocolViolation("no sample oracle bound (white-box session?)")
        self.ledger.samples += 1
        i = self.dist.sample(self.rng)
        return i, self.values[i]

    def note(self, text: str) -> None:
        self.notes.append(text)

    def _record(self, sender: str, tag: str, sections) -> Message:
        """Append one message; each (values, width) pair that is not a Section yet
        is validated by becoming one.  A prover's Section is validated the same
        way and kept, since tuple.__new__ builds one past the constructor; the
        verifier's own Sections are trusted."""
        checked, bits = [], 0
        for s in sections:
            if type(s) is not Section:
                s = Section(*s)
            elif sender == PROVER:
                if len(s) != 2 or type(s[0]) is not tuple:
                    raise ProtocolViolation(f"section {s!r} is not a (values tuple, width) pair")
                Section(*s)
            checked.append(s)
            bits += len(s[0]) * s[1]
        msg = Message(sender, tag, tuple(checked))
        self.transcript.append(msg)
        self.ledger.messages += 1
        self.ledger.comm_bits += bits
        return msg

    def tell(self, tag: str, sections) -> Message:
        """Record a verifier -> prover message and deliver it to the prover."""
        msg = self._record(VERIFIER, tag, sections)
        try:
            self.prover.observe(tag, [s[0] for s in msg.sections])
        except Exception as exc:  # an adversarial strategy raised
            raise ProtocolViolation(str(exc))
        return msg

    def ask(self, tag: str, payload, expect: Optional[list[tuple[int, int]]] = None) -> Message:
        """Obtain and record a prover -> verifier message.

        `expect` is a list of (count, width) shapes; any mismatch, and any
        exception the strategy raises, becomes a ProtocolViolation, which
        run_session converts to reject "malformed".
        """
        try:
            msg = self._record(PROVER, tag, self.prover.reply(tag, payload))
        except Exception as exc:  # an adversarial strategy raised or replied malformed
            raise ProtocolViolation(str(exc))
        if expect is not None:
            if len(msg.sections) != len(expect):
                raise ProtocolViolation(
                    f"{tag}: expected {len(expect)} sections, got {len(msg.sections)}")
            for s, (count, width) in zip(msg.sections, expect):
                if len(s.values) != count or s.width != width:
                    raise ProtocolViolation(
                        f"{tag}: expected {count} values of width {width}, "
                        f"got {len(s.values)} of width {s.width}")
        return msg


class RunResult(NamedTuple):
    """One finished session: its verdict, ledger, transcript and notes."""

    verdict: Verdict
    ledger: CostLedger
    transcript: list[Message]
    notes: list[str]


def run_session(verifier: Callable[[Session], Verdict], prover: ProverStrategy, seed: int,
                values: Sequence[int] = (), dist=None) -> RunResult:
    """Drive the interaction to completion; deterministic given the seed."""
    session = Session(prover, seed, values, dist)
    try:
        verdict = verifier(session)
    except ProtocolViolation as exc:
        session.note(f"malformed: {exc}")
        verdict = Verdict(False, "malformed")
    return RunResult(verdict, session.ledger, session.transcript, session.notes)


def amplify(run_once: Callable[[int], RunResult], repetitions: int, rule: str,
            seed: int) -> RunResult:
    """Independent sessions with derived seeds, verdicts combined per rule (a
    rejection is the first rejecting session's verdict): the ledgers summed, the
    transcripts concatenated in order, and the notes "amplified xN" followed by
    every repetition's notes in order."""
    if repetitions < 1:
        raise ValueError("repetitions >= 1")
    if rule not in ("all-accept", "majority"):
        raise ValueError(f"unknown rule {rule!r}")
    seeder = random.Random(seed)
    results = [run_once(seeder.getrandbits(63)) for _ in range(repetitions)]
    total = CostLedger()
    for result in results:
        total.merge(result.ledger)
    rejects = [r.verdict for r in results if not r.verdict.accepted]
    accepted = not rejects if rule == "all-accept" else 2 * len(rejects) < repetitions
    return RunResult(ACCEPT if accepted else rejects[0], total,
                     [msg for r in results for msg in r.transcript],
                     [f"amplified x{repetitions}", *(note for r in results for note in r.notes)])


# --- transcript dump / replay ------------------------------------------------

# the keys of a transcript record, each with the exact types its value may have
_MESSAGE_FIELDS = {"sender": (str,), "tag": (str,), "sections": (list,)}
_SECTION_FIELDS = {"hex": (str,), "n": (int,), "w": (int,)}
TRAILER_FIELDS = {"accepted": (bool,), "reject_reason": (str, type(None)),
                  **{f.name: (int,) for f in fields(CostLedger)}}


def has_fields(rec, fields: dict) -> bool:
    """rec is a dict that holds every key of fields, with a value of one of its types."""
    return type(rec) is dict and all(key in rec and type(rec[key]) in types
                                     for key, types in fields.items())


def dump_transcript(path: str, header: dict, transcript: Sequence[Message],
                    verdict: Verdict, ledger: CostLedger) -> None:
    """JSON lines: one header line, one line per message, one trailer line."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for msg in transcript:
            fh.write(json.dumps({
                "sender": msg.sender, "tag": msg.tag,
                "sections": [{"hex": s.to_hex(), "n": len(s.values), "w": s.width}
                             for s in msg.sections],
            }, sort_keys=True) + "\n")
        fh.write(json.dumps({"trailer": {
            "accepted": verdict.accepted, "reject_reason": verdict.reject_reason,
            **asdict(ledger)}}, sort_keys=True) + "\n")


def load_transcript(path: str):
    """(header, messages, trailer); a ValueError names a missing header or trailer line,
    and the line of a record that is not JSON or not a message."""
    numbers, lines = [], []
    with open(path) as fh:
        for no, line in enumerate(fh, 1):
            if line.strip():
                try:
                    lines.append(json.loads(line))
                except ValueError:
                    raise ValueError(f"transcript {path!r} line {no} is not JSON") from None
                numbers.append(no)
    if not lines or type(lines[0]) is not dict or "header" not in lines[0]:
        raise ValueError(f"transcript {path!r} has no header line")
    if len(lines) < 2 or type(lines[-1]) is not dict or "trailer" not in lines[-1]:
        raise ValueError(f"transcript {path!r} has no trailer line")
    messages = [_load_message(f"transcript {path!r} line {no}", rec)
                for no, rec in zip(numbers[1:-1], lines[1:-1])]
    return lines[0]["header"], messages, lines[-1]["trailer"]


def _load_message(where: str, rec) -> Message:
    """A message record as a Message; a ValueError says where it is otherwise."""
    if not (has_fields(rec, _MESSAGE_FIELDS) and rec["sender"] in (VERIFIER, PROVER)
            and all(has_fields(s, _SECTION_FIELDS) and s["n"] >= 0 and s["w"] >= 1
                    for s in rec["sections"])):
        raise ValueError(f"{where} is not a message: it needs a sender, a tag and sections "
                         "of hex, n >= 0 and w >= 1")
    try:
        sections = tuple(Section.from_hex(s["hex"], s["n"], s["w"]) for s in rec["sections"])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return Message(rec["sender"], rec["tag"], sections)


class ReplayProver(ProverStrategy):
    """Replays the prover messages of a recorded transcript in order."""

    def __init__(self, messages: Sequence[Message]):
        self._queue = iter([m for m in messages if m.sender == PROVER])

    def reply(self, tag, payload):
        msg = next(self._queue, None)
        if msg is None:
            raise ProtocolViolation("transcript exhausted")
        if msg.tag != tag:
            raise ProtocolViolation(f"transcript tag {msg.tag!r} != requested {tag!r}")
        return msg.sections
