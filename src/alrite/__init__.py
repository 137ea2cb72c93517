"""Treatment-effect estimation with asymmetrical twin pipelines.

Two embedding+two-head pipelines (one anchored on the control arm, one on
the treated arm) are trained with a counterfactualizability-regularized
loss, combined through an estimated propensity score, selected by proxy
risk metrics and optionally ensembled. Empirical verifiers check the
package's computable upper bounds on the heterogeneous-effect error.
"""

from .data import (Dataset, GroundTruth, SplitIndices, generate_acic_like,
                   generate_ihdp_like, generate_two_cluster_toy, load_csv,
                   save_csv, split)
from .learner import (AlriteModel, EnsembleModel, alrite_fit, alrite_predict,
                      ensemble_predict, eta_sensitivity_check,
                      select_ensemble_hyperparam)
from .metrics import (BoundReport, bound_m1, bound_m2, bound_m3, eps_ate,
                      lemma4_sanity, make_linear_instance, pehe, policy_risks)
from .pipeline import (Pipeline, PipelineHyperparams, compound_loss,
                       predict_mu, predict_tau, train_pipeline)
from .propensity import (PropensityModel, calibration_table, predict_eta,
                         select_propensity)
from .selection import (PROXY_KINDS, Auxiliaries, fit_auxiliaries,
                        proxy_score, proxy_terms, rank_agreement,
                        score_candidate)
from .twin import TwinMap, cross_pipeline_weights, mirror_twins

__version__ = "0.1.0"
