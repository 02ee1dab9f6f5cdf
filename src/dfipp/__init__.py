"""Distribution-free interactive proofs of proximity, simulated exactly.

Protocol sessions run with exact query/sample/communication accounting;
distances and distribution masses are exact rationals; desk-scale
brute-force oracles back every soundness and distance-preservation check.
"""

from .field import InputTensor, PrimeField, lagrange_eval_univariate, lde_eval, lde_eval_batch
from .tensors import (BudgetExceeded, INF, PvalInstance, dist, dist_to_pval_bruteforce,
                      hybrid_dist, pval_member, pval_min_distance)
from .distributions import (GranularitySet, Pmf, ProductDistribution, SamplingCircuit,
                            circuit_pmf, dispersion_rho, granularise, marginal_first,
                            tv_distance)
from .session import (CostLedger, Message, ProverStrategy, Section, Session, Verdict,
                      amplify, run_session)
from .protocols import (ClaimGenerator, CorrectorHandle, FoldState, HonestFoldProver,
                        HonestHamProver, RunResult, check_appendix_claims,
                        check_distance_preservation, check_subspace_lemma, fold_kappa,
                        generate_pval_claims, run_df_ipp_nc, run_dispersed_ipp_nc,
                        run_fin_ipp, run_ham_ipp, run_poly_fold, run_rlcc_transform,
                        run_symmetric_ipp, weight_classes)
from .product import (MarginalClaim, WhiteboxFoldProver, check_product_dpl,
                      gen_product_fixture, run_learnable_ipp, run_set_lower_bound,
                      run_whitebox_product_ipp, wb_fold_kappa)
from .experiments import cmd_check_lemma, cmd_replay, cmd_run, gen_ham_lb_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
