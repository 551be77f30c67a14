"""Nonparametric ranking by Laplace-noised win counts (Copeland counting).

The win counts get Laplace(2L/eps) noise. Under individual DP adjacent
datasets differ by replacing one user's whole bundle of L comparisons, which
takes up to L wins from some items and gives up to L to others, an l1 change
of at most 2L; edge DP is the L = 1 case. Top-k selection and full ranking
post-process one shared noise draw, so nested top-k sets are consistent at no
extra privacy cost. A dataset of either type is counted from its
``winners()``.
"""

from __future__ import annotations

import numpy as np

from .data import EdgeDataset, IndividualDataset
from .metrics import descending_order, rank_from_scores

__all__ = ["win_counts", "noise_scale", "noisy_counts", "noisy_topk", "noisy_full_ranking"]


def win_counts(data: EdgeDataset | IndividualDataset) -> np.ndarray:
    """Total wins per item; the counts sum to the number of comparisons."""
    return np.bincount(data.winners(), minlength=data.n).astype(np.int64)


def noise_scale(epsilon: float, regime: str, L: int = 1) -> float:
    """Laplace scale 2L/eps, where edge DP is the L = 1 case; 0.0 at eps = inf."""
    if regime not in ("edge", "individual"):
        raise ValueError("regime must be 'edge' or 'individual'")
    if L < 1:
        raise ValueError("L must be >= 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return 2.0 * L / epsilon


def noisy_counts(counts: np.ndarray, epsilon: float, regime: str,
                 L: int = 1, seed=None) -> np.ndarray:
    """Counts plus i.i.d. Laplace noise of their shape, exactly +0.0 at eps = inf.

    An (S, n) array is S releases, the same stream as S successive 1-D calls.
    """
    counts = np.asarray(counts, dtype=float)
    rng = np.random.default_rng(seed)
    noisy = rng.laplace(scale=noise_scale(epsilon, regime, L), size=counts.shape)
    noisy += counts
    return noisy


def noisy_topk(counts: np.ndarray, k: int, epsilon: float, regime: str,
               L: int = 1, seed=None) -> np.ndarray:
    """Indices (0-based, sorted) of the k largest noisy counts."""
    return rank_from_scores(noisy_counts(counts, epsilon, regime, L, seed), k)


def noisy_full_ranking(counts: np.ndarray, epsilon: float, regime: str,
                       L: int = 1, seed=None) -> np.ndarray:
    """All items sorted by noisy count descending, one shared noise draw."""
    noisy = noisy_counts(counts, epsilon, regime, L, seed)
    return descending_order(noisy)
