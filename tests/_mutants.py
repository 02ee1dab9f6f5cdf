"""The mutant catalogue: small deliberate faults that tier-1 tests must catch.

Each entry names a file, an exact snippet that occurs once in it, the
replacement that makes the mutant, and the pytest node ids expected to kill it:
on a copy of the tree with the snippet replaced, at least one of them fails.
A mutant is only ever applied to a copy, never to the working tree.

pytest does not collect this module.  `tests/test_mutant_catalogue.py` keeps it
fresh (each snippet still occurs exactly once and each patched file parses)
and runs no mutant; `tests/run_mutants.py` runs each one against its killers on
a copy of the tree.  A mutant that its killers let pass is a missing test: add
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

    # one per verifier check that can reject: its condition replaced by False, so the
    # check never fires
    Mutant("fold-consistency-never-fires", "src/dfipp/protocols.py",
           "    if not all(_columns_consistent(p, bases, st.values, Y, cols)\n"
           "               for st, Y in zip(live, matrices)):\n",
           "    if False:\n",
           ("tests/test_protocols_core.py::test_poly_fold_tamper_rejected",
            "tests/test_experiments.py::test_setup_once_cases_accept_and_reject")),
    Mutant("leaf-pval-never-fires", "src/dfipp/protocols.py",
           "if got != list(st.values):", "if False:",
           ("tests/test_protocols_core.py::test_fin_ipp_leaf_pval_verdicts_keep_tuple_order",)),
    Mutant("leaf-sample-never-fires", "src/dfipp/protocols.py",
           "if leaf[cell] != folded_eval(session, X, st, cell):", "if False:",
           ("tests/test_folded_eval.py::"
            "test_leaf_phase_fixed_alternative_rejects_at_its_first_check",
            "tests/test_folded_eval.py::test_leaf_phase_keeps_one_fold_memo_per_tuple")),
    Mutant("ham-sum-never-fires", "src/dfipp/protocols.py",
           "if h0 + h1 != v:", "if False:",
           ("tests/test_protocols_core.py::test_ham_bad_sum_rejected_at_root",
            "tests/test_experiments.py::test_setup_once_cases_accept_and_reject")),
    Mutant("ham-range-never-fires", "src/dfipp/protocols.py",
           "if h0 > mid - lo + 1 or h1 > hi - mid:", "if False:",
           ("tests/test_protocols_core.py::test_ham_range_check",
            "tests/test_protocols_core.py::"
            "test_ham_range_check_alone_refuses_an_overloaded_unsampled_cell")),
    Mutant("ham-leaf-never-fires", "src/dfipp/protocols.py",
           "if xi != v:", "if False:",
           ("tests/test_protocols_core.py::test_ham_committed_adversary_caught",
            "tests/test_experiments.py::test_config_prover_modes")),
    Mutant("slb-hash-test-never-fires", "src/dfipp/product.py",
           "(b and not all(_hash_zero(rows, c, x) for x in witnesses))", "False",
           ("tests/test_protocols_product.py::"
            "test_slb_hash_test_still_runs_on_well_formed_witnesses",
            "tests/test_protocols_product.py::"
            "test_slb_verdicts_match_a_witness_by_witness_oracle")),
    Mutant("slb-lower-bound-never-fires", "src/dfipp/product.py",
           "if (len(witnesses) * slack_d * masses[i][1]) << b < (slack_n * masses[i][0]) << ell:",
           "if False:",
           ("tests/test_protocols_product.py::test_slb_verdict_order_on_hostile_witnesses",
            "tests/test_protocols_product.py::test_claim_sum_is_exact")),
    Mutant("field-element-check-never-fires", "src/dfipp/protocols.py",
           "if top >= field.modulus:", "if False:",
           ("tests/test_experiments.py::test_field_aliases_in_replies_are_malformed",)),
    Mutant("whitebox-marginal-sum-never-fires", "src/dfipp/product.py",
           "if sum(probs) != 1:", "if False:",
           ("tests/test_protocols_product.py::test_whitebox_rejects_non_pmf_marginal",)),
    # a live object in an ask payload: the session's rng reaches the prover
    Mutant("ask-payload-carries-rng", "src/dfipp/protocols.py",
           'session.ask("ham/weight", None', 'session.ask("ham/weight", session.rng',
           ("tests/test_experiments.py::test_every_ask_payload_is_plain_data",)),
)
