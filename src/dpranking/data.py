"""Comparison graphs, datasets, win-probability matrices, and generators.

All generators are pure functions of their parameters and a seed, so sweeps
can be reproduced trial by trial. Probability matrices store only the strict
upper triangle; the skew-symmetry rho[i,j] + rho[j,i] = 1 is structural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import LinkFunction

def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All unordered pairs (i, j) with i < j, 0-based, row-major order."""
    return np.triu_indices(n, k=1)


@dataclass(frozen=True)
class ProbMatrix:
    """Win probabilities stored as the strict upper triangle (i < j)."""

    n: int
    upper: np.ndarray  # length n*(n-1)//2, entries in [0, 1]

    def __post_init__(self):
        if self.upper.shape != (pair_count(self.n),):
            raise ValueError("upper triangle has wrong length")
        if np.any(self.upper < 0) or np.any(self.upper > 1):
            raise ValueError("probabilities must lie in [0, 1]")

    def full(self) -> np.ndarray:
        """Dense n x n matrix with 1/2 on the diagonal."""
        rho = np.full((self.n, self.n), 0.5)
        iu, ju = pair_arrays(self.n)
        rho[iu, ju] = self.upper
        rho[ju, iu] = 1.0 - self.upper
        return rho


@dataclass(frozen=True)
class ComparisonGraph:
    """Compared pairs as parallel index arrays with i < j, sorted by (i, j)."""

    n: int
    i: np.ndarray
    j: np.ndarray
    p: float

    def __post_init__(self):
        if self.i.shape != self.j.shape:
            raise ValueError("edge index arrays must have equal length")
        if self.n_edges and (np.any(self.i >= self.j) or np.any(self.i < 0)
                             or np.any(self.j >= self.n)):
            raise ValueError("edges must satisfy 0 <= i < j < n")
        # strictly increasing keys rule out duplicates in one O(E) pass
        key = self.i.astype(np.int64) * self.n + self.j
        if np.any(key[1:] <= key[:-1]):
            raise ValueError("edges must be sorted by (i, j) without duplicates")

    @property
    def n_edges(self) -> int:
        return len(self.i)


class _NamedItems:
    """Item names from the optional ``items`` field, held in index order."""

    def item_names(self) -> tuple[str, ...]:
        """The ingested names, or ``item_1..item_n`` when there are none."""
        if self.items is not None:
            return self.items
        return tuple(f"item_{t + 1}" for t in range(self.n))


@dataclass(frozen=True)
class EdgeDataset(_NamedItems):
    """One Bernoulli outcome per edge; y[e] = 1 iff the lower-index item won."""

    graph: ComparisonGraph
    y: np.ndarray
    items: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.y.shape != self.graph.i.shape:
            raise ValueError("one outcome per edge required")

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class IndividualDataset(_NamedItems):
    """m users with L comparisons each, stored flat; user k owns rows [kL, (k+1)L).

    Pairs are stored with i < j and y = 1 iff i won.
    """

    n: int
    m: int
    L: int
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray
    items: tuple[str, ...] | None = None

    def __post_init__(self):
        if not (len(self.i) == len(self.j) == len(self.y) == self.m * self.L):
            raise ValueError("record arrays must have length m*L")
        if self.m * self.L and (np.any(self.i >= self.j) or np.any(self.i < 0)
                                or np.any(self.j >= self.n)):
            raise ValueError("records must satisfy 0 <= i < j < n")

    def user_slice(self, k: int) -> slice:
        return slice(k * self.L, (k + 1) * self.L)


def sample_er_graph(n: int, p: float, seed=None) -> ComparisonGraph:
    """Erdos-Renyi comparison graph: each pair kept independently w.p. p."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    rng = rng_from(seed)
    iu, ju = pair_arrays(n)
    keep = rng.random(len(iu)) < p
    return ComparisonGraph(n=n, i=iu[keep], j=ju[keep], p=p)


def rho_from_theta(theta: np.ndarray, link: LinkFunction) -> ProbMatrix:
    """Parametric probabilities rho[i,j] = F(theta_i - theta_j)."""
    theta = np.asarray(theta, dtype=float)
    n = len(theta)
    iu, ju = pair_arrays(n)
    return ProbMatrix(n=n, upper=np.asarray(link.eval(theta[iu] - theta[ju]), dtype=float))


def sample_edge_outcomes(graph: ComparisonGraph, rho: ProbMatrix, seed=None) -> EdgeDataset:
    """Independent Bernoulli(rho_ij) outcome per edge."""
    if graph.n != rho.n:
        raise ValueError("graph and rho sizes differ")
    rng = rng_from(seed)
    i, j = graph.i.astype(np.int64, copy=False), graph.j.astype(np.int64, copy=False)
    # row-major position of (i, j) in the packed strict upper triangle
    probs = rho.upper[i * (2 * graph.n - i - 1) // 2 + (j - i - 1)]
    y = (rng.random(graph.n_edges) < probs).astype(np.int8)
    return EdgeDataset(graph=graph, y=y)


def sample_individual(n: int, m: int, L: int, rho: ProbMatrix, seed=None) -> IndividualDataset:
    """m users each draw L uniform pairs with replacement; winners follow rho."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 1 or L < 1:
        raise ValueError("m and L must be >= 1")
    if rho.n != n:
        raise ValueError("rho size differs from n")
    rng = rng_from(seed)
    iu, ju = pair_arrays(n)
    idx = rng.integers(0, len(iu), size=m * L)
    i, j = iu[idx], ju[idx]
    probs = rho.upper[idx]
    y = (rng.random(m * L) < probs).astype(np.int8)
    return IndividualDataset(n=n, m=m, L=L, i=i, j=j, y=y)


def generate_theta(n: int, k: int, seed=None, top_inclusive: bool = False) -> np.ndarray:
    """Latent scores: a constant top group and Unif(0.2, 0.7) strengths below.

    Pre-centering, e^theta = 1 for items ranked before k (before-or-at k when
    ``top_inclusive``) and e^theta ~ Unif(0.2, 0.7) for the rest; the result
    is centered to sum zero. Item indices are 1-based in the cut rule.
    """
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    rng = rng_from(seed)
    top = k if top_inclusive else k - 1
    theta = np.zeros(n)
    theta[top:] = np.log(rng.uniform(0.2, 0.7, size=n - top))
    return theta - theta.mean()


def two_block_rho(n: int, k: int, gap: float) -> ProbMatrix:
    """Two-block probability matrix with tau gap exactly min(gap, 1/2).

    Top-block items beat bottom-block items with probability 1/2 + gap; all
    within-block comparisons are fair coins. The tau separation between the
    blocks equals the cross-block advantage, so setting it to a multiple of
    the separation threshold produces calibrated recovery instances. Gaps
    above 1/2 are clipped to keep probabilities in [0, 1].
    """
    if not 1 <= k < n:
        raise ValueError("k must lie in [1, n-1]")
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    delta = min(gap, 0.5)
    iu, ju = pair_arrays(n)
    upper = np.full(len(iu), 0.5)
    cross = (iu < k) & (ju >= k)
    upper[cross] = 0.5 + delta
    return ProbMatrix(n=n, upper=upper)
