"""The mutant catalogue: small deliberate faults that tier-1 tests must catch.

Each entry names a file, an exact snippet that occurs once in it, the
replacement that makes the mutant, and the pytest node ids expected to kill it:
on a copy of the tree with the snippet replaced, at least one of them fails.
A mutant is only ever applied to a copy, never to the working tree.

pytest does not collect this module.  `tests/test_mutant_catalogue.py` keeps it
fresh (each snippet still occurs exactly once and each patched file parses)
and runs no mutant.  A mutant that its killers let pass is a missing test: add
the test, never drop the mutant.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str                 # relative to the repository root
    snippet: str              # occurs exactly once in file
    replacement: str
    killers: tuple[str, ...]  # pytest node ids; a function id covers all its cases


MUTANTS = (
    # the packed LDE slot one factor of p - 1 short: sums of k^m products overflow
    # their slot into the next one
    Mutant("lde-slot-width-short", "src/dfipp/field.py",
           "(k ** m * (p - 1) ** (m + 1)).bit_length()",
           "(k ** m * (p - 1) ** m).bit_length()",
           ("tests/test_field.py::test_lde_batch_matches_the_vandermonde_oracle",)),
    # appendix-a counts a distinct folding vector once, not once per draw; at the
    # suite's pinned size no support ever misses, so only weight below k sees it
    Mutant("appendix-misses-once", "src/dfipp/protocols.py",
           "misses += count", "misses += 1",
           ("tests/test_appendix_tally.py::test_tally_equals_the_per_trial_loop[k4-kappa1]",)),
    Mutant("appendix-not-far-once", "src/dfipp/protocols.py",
           "not_far += count", "not_far += 1",
           ("tests/test_appendix_tally.py::test_tally_equals_the_per_trial_loop",)),
    # the set lower bound takes fewer or more witness sections than active symbols
    Mutant("slb-witness-count-unchecked", "src/dfipp/product.py",
           "    if len(msg.sections) != len(active):\n"
           "        raise ProtocolViolation(\"one witness list per active symbol required\")\n",
           "",
           ("tests/test_protocols_product.py::test_slb_verdict_order_on_hostile_witnesses",)),
    # a prover's Section built with tuple.__new__ is kept without the constructor's checks
    Mutant("record-trusts-prover-section", "src/dfipp/session.py",
           "                Section(*s)\n            checked.append(s)",
           "                pass\n            checked.append(s)",
           ("tests/test_session.py::test_a_forged_section_is_malformed_and_its_transcript_dumps",)),
    # every white-box round answers from the preimages of coordinate 0
    Mutant("coordinate-preimages-ignore-round", "src/dfipp/product.py",
           "partial(cell_coord, k=k, m=m, d=d)", "partial(cell_coord, k=k, m=m, d=0)",
           ("tests/test_protocols_product.py::"
            "test_whitebox_tables_map_each_output_once_per_dimension",
            "tests/test_experiments.py::test_preimage_tables_are_built_once_per_run")),
)
