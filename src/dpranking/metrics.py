"""Ground-truth functionals, error metrics, and separation thresholds.

tau_i is item i's average winning probability against a uniformly random
opponent (diagonal term 1/2 included, so the tau values average 1/2).
Log-relative errors use the natural log and floor exact zeros at -50 to keep
CSV output numeric.
"""

from __future__ import annotations

import math

import numpy as np

from .data import ProbMatrix

LOG_ERROR_FLOOR = -50.0


def tau(rho: ProbMatrix) -> np.ndarray:
    """tau_i = (1/n) sum_j rho_ij, diagonal included: numpy's mean of dense row i.

    The dense rows come from ``rho.rows()`` a block at a time (a parametric rho
    is evaluated there), so tau is bit-equal to ``dense.mean(axis=1)`` and rows
    holding the same values (equal-theta items, the blocks of
    ``two_block_rho``) tie exactly.
    """
    return np.concatenate([block.mean(axis=1) for block in rho.rows()])


def descending_order(scores) -> np.ndarray:
    """Item indices by descending score, row by row; ties go to the lowest index."""
    return np.argsort(-np.asarray(scores, dtype=float), kind="stable")


def rank_from_scores(theta: np.ndarray, k: int) -> np.ndarray:
    """Indices (0-based, sorted) of the k largest scores; ties go to the lowest index."""
    if not 1 <= k <= len(theta):
        raise ValueError("k must lie in [1, n]")
    return np.sort(descending_order(theta)[:k])


class IllPosedTopK(ValueError):
    """The k-th and (k+1)-th tau values tie, so the top-k set is not unique."""


def true_topk(tau_scores: np.ndarray, k: int) -> np.ndarray:
    """The index set of the k largest tau values; errors on a boundary tie."""
    tau_scores = np.asarray(tau_scores, dtype=float)
    top = rank_from_scores(tau_scores, k)
    rest = np.delete(tau_scores, top)
    if len(rest) and tau_scores[top].min() == rest.max():
        raise IllPosedTopK(f"tau ties at the k={k} boundary")
    return top


def _rel_log_error(est: np.ndarray, truth: np.ndarray, ord) -> float:
    truth = np.asarray(truth, dtype=float)
    denom = np.linalg.norm(truth, ord)
    if denom == 0:
        raise ValueError("truth has zero norm")
    err = np.linalg.norm(np.asarray(est, dtype=float) - truth, ord)
    if err == 0:
        return LOG_ERROR_FLOOR
    return max(float(np.log(err / denom)), LOG_ERROR_FLOOR)


def linf_rel_log_error(est: np.ndarray, truth: np.ndarray) -> float:
    """log(||est - truth||_inf / ||truth||_inf), floored at -50."""
    return _rel_log_error(est, truth, np.inf)


def l2_rel_log_error(est: np.ndarray, truth: np.ndarray) -> float:
    """log(||est - truth||_2 / ||truth||_2), floored at -50."""
    return _rel_log_error(est, truth, 2)


def topk_overlap_loss(est_set, true_set, k: int) -> float:
    """1 - |est & true| / k."""
    est_set, true_set = set(map(int, est_set)), set(map(int, true_set))
    if len(est_set) != k or len(true_set) != k:
        raise ValueError("both sets must have size k")
    return 1.0 - len(est_set & true_set) / k


def hamming_sets(a, b) -> int:
    """Size of the symmetric difference."""
    return len(set(map(int, a)) ^ set(map(int, b)))


def mean_abs_rank_diff(ranking_a, ranking_b) -> float:
    """Average absolute positional difference between two rankings of [n]."""
    ranking_a = np.asarray(ranking_a)
    ranking_b = np.asarray(ranking_b)
    if ranking_a.shape != ranking_b.shape:
        raise ValueError("rankings must have equal length")
    # argsort inverts a permutation: item -> its position
    return float(np.mean(np.abs(np.argsort(ranking_a) - np.argsort(ranking_b))))


def separation_threshold(regime: str, n: int, epsilon: float,
                         p: float | None = None, m: int | None = None) -> float:
    """Unit-constant recovery threshold for the tau gap at the k boundary.

    Edge DP: sqrt(log n / np) + log n / (np eps).
    Individual DP: sqrt(n log n / m) + n log n / (m eps).
    The private term vanishes at eps = inf.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    logn = math.log(n)
    if regime == "edge":
        if p is None or p <= 0:
            raise ValueError("edge regime requires p > 0")
        base = math.sqrt(logn / (n * p))
        priv = logn / (n * p * epsilon)
    elif regime == "individual":
        if m is None or m <= 0:
            raise ValueError("individual regime requires m > 0")
        base = math.sqrt(n * logn / m)
        priv = n * logn / (m * epsilon)
    else:
        raise ValueError("regime must be 'edge' or 'individual'")
    return base + priv
