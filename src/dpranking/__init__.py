"""Differentially private ranking from pairwise comparisons.

Two mechanisms under two privacy regimes: a perturbed maximum likelihood
estimator for latent-score models and a Laplace-noised Copeland count for
nonparametric top-k recovery, under edge DP (one comparison protected) and
individual DP (one user's whole bundle protected). Plus generators, error
metrics, a privacy auditor, and a simulation harness.
"""

from .counts import noisy_full_ranking, noisy_topk, win_counts
from .data import (ComparisonGraph, EdgeDataset, IndividualDataset, ProbMatrix,
                   generate_theta, rho_from_theta, sample_edge_outcomes,
                   sample_er_graph, sample_individual, two_block_rho)
from .likelihood import ObjectiveSpec, aggregate, grad, hessian, nll, objective
from .links import LinkFunction, get_link, logistic_link
from .metrics import (hamming_sets, l2_rel_log_error, linf_rel_log_error,
                      mean_abs_rank_diff, separation_threshold, tau,
                      topk_overlap_loss, true_topk)
from .mle import (PrivacyCalibration, calibrate_edge, calibrate_individual,
                  estimate, estimate_full, rank_from_scores)
from .solver import ConvergenceError, SolverConfig

__version__ = "0.1.0"
