"""Ground-truth functionals, error metrics, and separation thresholds.

tau_i is item i's average winning probability against a uniformly random
opponent (diagonal term 1/2 included, so the tau values always average 1/2).
Log-relative errors use the natural log and floor exact zeros at -50 to keep
CSV output numeric.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ProbMatrix, row_starts

LOG_ERROR_FLOOR = -50.0

# dense rows tau builds at a time
_TAU_ROWS = 32


def tau(rho: ProbMatrix) -> np.ndarray:
    """tau_i = (1/n) sum_j rho_ij, diagonal included.

    Rows of the dense matrix are built a block at a time from the packed
    triangle, so each row mean sums the same values in the same order as
    ``dense.mean(axis=1)`` would, and equal rows give equal tau exactly.
    """
    n, upper = rho.n, rho.upper
    starts = row_starts(n)
    cols = np.arange(n)
    # rho[r, c] for c < r is 1 - upper[col_base[c] + r]
    col_base = starts - cols - 1
    out = np.empty(n)
    for r0 in range(0, n, _TAU_ROWS):
        rows = cols[r0:r0 + _TAU_ROWS, None]
        r1 = r0 + len(rows)
        block = np.empty((len(rows), n))
        if r0:
            # column c < r0 of the block is the packed run starting at col_base[c] + r0
            windows = sliding_window_view(upper, len(rows))
            block[:, :r0] = 1.0 - windows[col_base[:r0] + r0].T
        # the block's upper part is rows r0..r1-1 of the packed triangle, in order
        above = cols[r0:] > rows
        block[:, r0:][above] = upper[starts[r0]:starts[r0] + np.count_nonzero(above)]
        square = block[:, r0:r1]
        below = cols[r0:r1] < rows
        square[below] = 1.0 - upper[(col_base[r0:r1] + rows)[below]]
        square[cols[r0:r1] == rows] = 0.5
        out[r0:r1] = block.mean(axis=1)
    return out


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
        priv = 0.0 if math.isinf(epsilon) else logn / (n * p * epsilon)
    elif regime == "individual":
        if m is None or m <= 0:
            raise ValueError("individual regime requires m > 0")
        base = math.sqrt(n * logn / m)
        priv = 0.0 if math.isinf(epsilon) else n * logn / (m * epsilon)
    else:
        raise ValueError("regime must be 'edge' or 'individual'")
    return base + priv
