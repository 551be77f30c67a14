"""Nonparametric ranking by Laplace-noised win counts (Copeland counting).

Edge DP adds Laplace(2/eps) noise to the per-item win counts, since changing
one comparison moves the count vector by at most 2 in l1. Individual DP adds
Laplace(2L/eps): adjacent datasets differ by replacing one user's whole
bundle of L comparisons, which takes up to L wins from some items and gives
up to L to others, an l1 change of at most 2L. Top-k selection and full
ranking post-process one shared noise draw, so nested top-k sets are
consistent at no extra privacy cost.
"""

from __future__ import annotations

import math

import numpy as np

from .data import EdgeDataset, IndividualDataset, rng_from
from .metrics import descending_order

__all__ = ["win_counts", "noise_scale", "noisy_counts", "noisy_topk", "noisy_full_ranking"]


def win_counts(data: EdgeDataset | IndividualDataset) -> np.ndarray:
    """Total wins per item; the counts sum to the number of comparisons."""
    if isinstance(data, EdgeDataset):
        i, j, y = data.graph.i, data.graph.j, data.y
    elif isinstance(data, IndividualDataset):
        i, j, y = data.i, data.j, data.y
    else:
        raise TypeError(f"unsupported dataset type {type(data).__name__}")
    winners = np.where(y == 1, i, j)
    return np.bincount(winners, minlength=data.n).astype(np.int64)


def noise_scale(epsilon: float, regime: str, L: int = 1) -> float:
    """Laplace scale: 2/eps for edge DP, 2L/eps for individual DP; 0 at eps=inf."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if math.isinf(epsilon):
        return 0.0
    if regime == "edge":
        return 2.0 / epsilon
    if regime == "individual":
        if L < 1:
            raise ValueError("L must be >= 1")
        return 2.0 * L / epsilon
    raise ValueError("regime must be 'edge' or 'individual'")


def noisy_counts(counts: np.ndarray, epsilon: float, regime: str,
                 L: int = 1, seed=None) -> np.ndarray:
    """Counts plus i.i.d. Laplace noise at the regime's scale."""
    counts = np.asarray(counts, dtype=float)
    scale = noise_scale(epsilon, regime, L)
    if scale == 0.0:
        return counts.copy()
    rng = rng_from(seed)
    return counts + rng.laplace(scale=scale, size=len(counts))


def noisy_topk(counts: np.ndarray, k: int, epsilon: float, regime: str,
               L: int = 1, seed=None) -> np.ndarray:
    """Indices (0-based, sorted) of the k largest noisy counts."""
    n = len(counts)
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    noisy = noisy_counts(counts, epsilon, regime, L, seed)
    return np.sort(descending_order(noisy)[:k])


def noisy_full_ranking(counts: np.ndarray, epsilon: float, regime: str,
                       L: int = 1, seed=None) -> np.ndarray:
    """All items sorted by noisy count descending, one shared noise draw."""
    noisy = noisy_counts(counts, epsilon, regime, L, seed)
    return descending_order(noisy)
