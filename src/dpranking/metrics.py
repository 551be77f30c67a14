"""Ground-truth functionals, error metrics, and separation thresholds.

tau_i is item i's average winning probability against a uniformly random
opponent (diagonal term 1/2 included, so the tau values average 1/2).
Log-relative errors use the natural log and floor exact zeros at -50 to keep
CSV output numeric.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .data import ProbMatrix

LOG_ERROR_FLOOR = -50.0
_TAU_BLOCK = 45_056  # entries in each thread's block of tau (see the README on its size)


def on_two_threads(here, there):
    """(here(), there()) with there() on a second thread, joined before its error is raised."""
    out = {}

    def run():
        try:
            out["value"] = there()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    try:
        mine = here()
    finally:
        thread.join()
    if "error" in out:
        raise out["error"]
    return mine, out["value"]


def tau(rho: ProbMatrix) -> np.ndarray:
    """tau_i = (1/n) sum_j rho_ij, diagonal included: numpy's mean of dense row i.

    A parametric rho's rows, one per distinct theta, are evaluated in place, half
    on a second thread. Bit-equal to ``dense.mean(axis=1)``; equal rows tie exactly.
    """
    if rho.upper is not None:
        return np.array([rho.row(i).mean() for i in range(rho.n)], dtype=float)
    theta_u, inverse = np.unique(rho.theta, return_inverse=True)  # -0.0 == 0.0: same row bits
    tau_u, step = np.empty(len(theta_u)), max(1, _TAU_BLOCK // max(rho.n, 1))

    def rows(a: int, b: int) -> None:
        buffer = np.empty((step, rho.n))
        for s in range(a, b, step):
            u = theta_u[s:min(s + step, b)]
            block = np.subtract(u[:, None], rho.theta, out=buffer[:len(u)])
            np.mean(rho.link.eval(block, out=block), axis=1, out=tau_u[s:s + len(u)])

    half = -(-len(theta_u) // step) // 2 * step  # a block boundary; 0 below two blocks
    if half:
        on_two_threads(lambda: rows(0, half), lambda: rows(half, len(theta_u)))
    else:
        rows(0, len(theta_u))
    return tau_u[inverse]


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
