"""The learnable-distribution pipeline: learn D at eps/2, granularise it, and run
a uniform IPP at eps/4 on the granular extension of the input.

No protocol runs it yet, so it lives with its tests rather than in the package;
registering it as a protocol would start from here.  pytest does not collect
this module.
"""

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from dfipp.distributions import Pmf, extend_rows, extension_row_map, granularise
from dfipp.session import ACCEPT, ProtocolViolation, ProverStrategy, RunResult, Session, \
    Verdict, run_session


def run_learnable_ipp(x_bits: Sequence[int], D, eps: Fraction,
                      learner: Callable[[Session], Optional[Pmf]],
                      uniform_ipp_factory: Callable,
                      prover: ProverStrategy, seed: int) -> RunResult:
    """Learn the distribution at eps/2, granularise, run a uniform IPP at eps/4.

    The learner returns a Pmf (claimed within eps/2 total variation in the
    L1 convention, without the 1/2 factor) or None for reject.  uniform_ipp_factory(Q, eps4)
    builds the uniform verifier for the extended parameterised language over the
    8n slots Q = extension_row_map(granularise(learned).counts); its query function
    reads slot j as source Q[j] at one query, or as 0 for free at the zero row.
    """
    n = len(x_bits)

    def verifier(session: Session) -> Verdict:
        learned = learner(session)
        if learned is None:
            return Verdict(False, "learner-abort")
        Q = extension_row_map(granularise(learned).counts)
        session.tell("learn/q", [(Q, max(1, n.bit_length()))])
        inner = uniform_ipp_factory(Q, eps / 4)
        return inner(session, lambda j: 0 if Q[j] == learned.n else session.query(Q[j]))

    return run_session(verifier, prover, seed, x_bits, D)


def extension_member(base_language: Callable[[tuple], bool], Q: Sequence[int],
                     n: int, virt: Sequence[int]) -> bool:
    """Is virt the Q-extension of g_cat of some member of the base language?

    The only candidate base string reads each source index at its first slot;
    every slot must then read through Q (source n is the appended zero).
    """
    base = tuple(virt[Q.index(i)] for i in range(n))
    return tuple(virt) == tuple(extend_rows(base, Q, 0)) and base_language(base)


def explicit_set_uniform_ipp(base_language: Callable[[tuple], bool], n: int,
                             c: int = 10):
    """The generic uniform IPP for an explicitly decidable language: the
    prover sends a claimed member of the extended language, the verifier
    checks membership and spot-checks agreement with the virtual input on
    ceil(c/eps) uniform coordinates."""

    def factory(Q, eps4: Fraction):
        n_virtual = len(Q)

        def ipp(session: Session, vquery) -> Verdict:
            msg = session.ask("set/member", None, expect=[(n_virtual, 1)])
            cand = msg.values()
            if not extension_member(base_language, Q, n, cand):
                return Verdict(False, "not-member")
            trials = math.ceil(Fraction(c) / eps4)
            for _ in range(trials):
                j = session.rng.randrange(n_virtual)
                if cand[j] != vquery(j):
                    return Verdict(False, "spot-check")
            return ACCEPT
        return ipp

    return factory


class ExtensionEchoProver(ProverStrategy):
    """Sends the extension of g_cat of its committed string along the told Q."""

    def __init__(self, bits: Sequence[int]):
        self.bits = tuple(bits)
        self.Q: Optional[tuple[int, ...]] = None

    def observe(self, tag, sections):
        if tag == "learn/q":
            self.Q = tuple(sections[0])

    def reply(self, tag, payload):
        if tag == "set/member":
            return [(tuple(extend_rows(self.bits, self.Q, 0)), 1)]
        raise ProtocolViolation(f"unexpected tag {tag}")


def exact_learner(D: Pmf):
    """Learner fixture that returns the true distribution (zero TV error)."""
    return lambda session: D


def aborting_learner(session: Session):
    return None
