"""Ground-truth functionals, error metrics, and separation thresholds.

tau_i is item i's average winning probability against a uniformly random
opponent (diagonal term 1/2 included, so the tau values always average 1/2).
Log-relative errors use the natural log and floor exact zeros at -50 to keep
CSV output numeric.
"""

from __future__ import annotations

import math

import numpy as np

from .data import ProbMatrix

LOG_ERROR_FLOOR = -50.0


def tau(rho: ProbMatrix) -> np.ndarray:
    """tau_i = (1/n) sum_j rho_ij, diagonal included."""
    return rho.full().mean(axis=1)


def descending_order(scores) -> np.ndarray:
    """Item indices by descending score, row by row; ties go to the lowest index."""
    return np.argsort(-np.asarray(scores, dtype=float), kind="stable")


class IllPosedTopK(ValueError):
    """The k-th and (k+1)-th tau values tie, so the top-k set is not unique."""


def true_topk(tau_scores: np.ndarray, k: int) -> np.ndarray:
    """The index set of the k largest tau values; errors on a boundary tie."""
    tau_scores = np.asarray(tau_scores, dtype=float)
    n = len(tau_scores)
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    order = descending_order(tau_scores)
    if k < n and tau_scores[order[k - 1]] == tau_scores[order[k]]:
        raise IllPosedTopK(f"tau ties at the k={k} boundary")
    return np.sort(order[:k])


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
    n = len(ranking_a)
    pos_a = np.empty(n, dtype=np.int64)
    pos_b = np.empty(n, dtype=np.int64)
    pos_a[ranking_a] = np.arange(n)
    pos_b[ranking_b] = np.arange(n)
    return float(np.mean(np.abs(pos_a - pos_b)))


def separation_threshold(regime: str, n: int, epsilon: float,
                         p: float | None = None, m: int | None = None) -> float:
    """Unit-constant recovery threshold for the tau gap at the k boundary.

    Edge DP: sqrt(log n / np) + log n / (np eps).
    Individual DP: sqrt(n log n / m) + n log n / (m eps).
    The private term vanishes at eps = inf.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    logn = math.log(n)
    if regime == "edge":
        if p is None or p <= 0:
            raise ValueError("edge regime requires p > 0")
        base = math.sqrt(logn / (n * p))
        priv = 0.0 if math.isinf(epsilon) else logn / (n * p * epsilon)
    elif regime == "individual":
        if m is None or m <= 0:
            raise ValueError("individual regime requires m > 0")
        base = math.sqrt(n * logn / m)
        priv = 0.0 if math.isinf(epsilon) else n * logn / (m * epsilon)
    else:
        raise ValueError("regime must be 'edge' or 'individual'")
    return base + priv
