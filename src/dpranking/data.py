"""Comparison graphs, datasets, win-probability matrices, and generators.

All generators are pure functions of their parameters and a seed, so sweeps
can be reproduced trial by trial. A parametric probability matrix is theta and
the link, evaluated where it is read; only an explicit one stores the strict
upper triangle. The skew-symmetry rho[i,j] + rho[j,i] = 1 is structural for an
explicit matrix, whose lower triangle reads 1 - upper. A parametric dense row
holds F(theta_i - theta_j), which is skew-symmetric up to rounding. Both
dataset types expose the same records, which every consumer reads one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .links import LinkFunction

# most gaps drawn per call in sample_er_graph
_DRAW_CHUNK = 1 << 20
# most entries per block of ComparisonGraph.batch (unless one row is longer),
# so each temporary stays under glibc's 128 KiB mmap threshold
_ROW_BLOCK = 1 << 14


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All unordered pairs (i, j) with i < j, 0-based, row-major order."""
    return np.triu_indices(n, k=1)


def row_starts(n: int) -> np.ndarray:
    """Packed position of each row's first pair: i(2n - i - 1)/2 for i in [0, n).

    Pair (i, j) with i < j sits at ``row_starts(n)[i] + j - i - 1``.
    """
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 1) // 2


def unrank(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) at packed positions ``idx``, in closed form.

    Counted from the end, position k = N - 1 - idx lies in the t-th row from
    the bottom, t = floor((sqrt(8k + 1) - 1) / 2). While 8k + 1 < 2**53 it
    converts to float exactly, the square root is exact at row boundaries
    and rounds below the next one, so t is exact for any triangle that fits
    in memory.
    """
    i = n - 2 - ((np.sqrt(8 * (pair_count(n) - 1 - idx) + 1) - 1) * 0.5).astype(np.int64)
    # idx = row_starts[i] + j - i - 1
    return i, idx - (row_starts(n) - np.arange(n) - 1)[i]


@dataclass(frozen=True)
class ProbMatrix:
    """Win probabilities rho[i, j], read through ``at`` and, when explicit, ``row``.

    Explicit: the strict upper triangle ``upper``. Parametric: ``theta`` and
    ``link``, with rho[i, j] = link.eval(theta_i - theta_j).
    """

    n: int
    upper: np.ndarray | None = None  # length n*(n-1)//2, entries in [0, 1]
    theta: np.ndarray | None = None
    link: LinkFunction | None = None

    def __post_init__(self):
        if self.upper is None:
            # finite theta keeps every F(theta_i - theta_j) a probability
            if (self.link is None or np.shape(self.theta) != (self.n,)
                    or not np.isfinite(self.theta).all()):
                raise ValueError("probabilities need a link and n finite theta values")
            return
        if self.upper.shape != (pair_count(self.n),):
            raise ValueError("upper triangle has wrong length")
        # written so that NaN fails it
        if self.upper.size and not (self.upper.min() >= 0 and self.upper.max() <= 1):
            raise ValueError("probabilities must lie in [0, 1]")

    def at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """rho[i, j] at the pairs i < j."""
        if self.upper is None:
            return self.link.eval(self.theta[i] - self.theta[j])
        return self.upper[row_starts(self.n)[i] + j - i - 1]

    def row(self, i: int) -> np.ndarray:
        """Dense row i of an explicit rho: 1 - rho[j, i] for j < i, 1/2, then rho[i, j > i]."""
        n, j = self.n, np.arange(i)
        out = np.empty(n)
        # (j, i) sits at row_starts(n)[j] + i - j - 1, one entry of each earlier row
        np.subtract(1.0, self.upper[j * (2 * n - j - 3) // 2 + i - 1], out=out[:i])
        out[i] = 0.5
        start = i * (2 * n - i - 1) // 2
        out[i + 1:] = self.upper[start:start + n - i - 1]
        return out


def check_outcomes(y: np.ndarray) -> None:
    """Every outcome must be 0 or 1 (1 iff i won)."""
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("outcomes must be 0 or 1")


def _check_pairs(n: int, i: np.ndarray, j: np.ndarray) -> None:
    """Every pair must satisfy 0 <= i < j < n."""
    if i.size and ((i >= j).any() or i.min() < 0 or j.max() >= n):
        raise ValueError("pairs must satisfy 0 <= i < j < n")


def _check_edges(n: int, i: np.ndarray, j: np.ndarray) -> None:
    """Each row of (..., E) index arrays holds edges 0 <= i < j < n sorted by (i, j)."""
    if i.shape != j.shape:
        raise ValueError("edge index arrays must have equal length")
    _check_pairs(n, i, j)
    # strictly increasing keys rule out duplicates in one O(E) pass
    key = i.astype(np.int64, copy=False) * n + j
    if (key[..., 1:] <= key[..., :-1]).any():
        raise ValueError("edges must be sorted by (i, j) without duplicates")


@dataclass(frozen=True)
class ComparisonGraph:
    """Compared pairs as parallel index arrays with i < j, sorted by (i, j)."""

    n: int
    i: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        _check_edges(self.n, self.i, self.j)

    @classmethod
    def batch(cls, n: int, i: np.ndarray, j: np.ndarray) -> list[ComparisonGraph]:
        """One graph per row of (P, E) arrays, checked in blocks of rows, not one by one."""
        rows = max(1, _ROW_BLOCK // max(i.shape[-1], 1))
        # past the longer array, so a block that differs in length is checked too
        for start in range(0, max(len(i), len(j), 1), rows):
            _check_edges(n, i[start:start + rows], j[start:start + rows])
        graphs = [object.__new__(cls) for _ in range(len(i))]
        for graph, gi, gj in zip(graphs, i, j):
            graph.__dict__.update(n=n, i=gi, j=gj)
        return graphs

    @property
    def n_edges(self) -> int:
        return len(self.i)


class _Records:
    """The records both dataset types expose: n, L and arrays i < j, y (1 iff i won)."""

    def winners(self) -> np.ndarray:
        """The winning item of each comparison."""
        check_outcomes(self.y)
        return np.where(self.y == 1, self.i, self.j)

    def item_names(self) -> tuple[str, ...]:
        """The ingested names, or ``item_1..item_n`` when there are none."""
        if self.items is not None:
            return self.items
        return tuple(f"item_{t + 1}" for t in range(self.n))


@dataclass(frozen=True)
class EdgeDataset(_Records):
    """One Bernoulli outcome per edge of ``graph``; its records are the edges."""

    L = 1  # not a field: an adjacent change touches one comparison
    graph: ComparisonGraph
    y: np.ndarray
    items: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.y.shape != self.graph.i.shape:
            raise ValueError("one outcome per edge required")

    n = property(lambda self: self.graph.n)
    i = property(lambda self: self.graph.i)
    j = property(lambda self: self.graph.j)


@dataclass(frozen=True)
class IndividualDataset(_Records):
    """m users with L comparisons each, stored flat; user k owns rows [kL, (k+1)L)."""

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
        _check_pairs(self.n, self.i, self.j)

    def user_slice(self, k: int) -> slice:
        return slice(k * self.L, (k + 1) * self.L)


def sample_er_graph(n: int, p: float, seed=None) -> ComparisonGraph:
    """Erdos-Renyi comparison graph: each pair kept independently w.p. p.

    The gaps between kept packed positions are i.i.d. Geometric(p), so the
    draws are O(E) rather than O(n^2) (Batagelj & Brandes 2005). Each batch
    is sized to finish the triangle with high probability; draws past its end
    are discarded. At p = 1 every gap is 1 and takes one double, so the graph
    and the generator's next draw match one ``rng.random(N)`` threshold.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    total = pair_count(n)
    batches, last = [], -1  # last: the latest kept position, -1 before any
    while last < total - 1:
        rem = total - 1 - last
        size = min(rem, _DRAW_CHUNK, math.ceil(p * rem + 4 * math.sqrt(p * rem) + 16))
        # a gap past the end stops the graph; clipping keeps the cumsum from
        # wrapping when tiny p gives INT64_MAX
        kept = rng.geometric(p, size)
        np.minimum(kept, total + 1, out=kept)
        kept[0] += last
        np.cumsum(kept, out=kept)
        last = int(kept[-1])
        if last >= total:
            kept = kept[:np.searchsorted(kept, total)]
        batches.append(kept)
    idx = batches[0] if len(batches) == 1 else np.concatenate(batches)
    # idx is sorted, so each row's pairs are one run of it: count the runs
    starts = row_starts(n)
    rows = np.diff(np.searchsorted(idx, starts), append=len(idx))
    # idx = row_starts[i] + j - i - 1, so j = idx - (row_starts - arange - 1)[i]
    j = np.subtract(idx, np.repeat(starts - np.arange(n) - 1, rows), out=idx)
    return ComparisonGraph(n=n, i=np.repeat(np.arange(n, dtype=np.int64), rows), j=j)


def rho_from_theta(theta: np.ndarray, link: LinkFunction) -> ProbMatrix:
    """Parametric rho[i,j] = F(theta_i - theta_j), held in O(n) as a copy of theta."""
    theta = np.array(theta, dtype=float)
    return ProbMatrix(n=len(theta), theta=theta, link=link)


def sample_edge_outcomes(graph: ComparisonGraph, rho: ProbMatrix, seed=None) -> EdgeDataset:
    """Independent Bernoulli(rho_ij) outcome per edge."""
    if graph.n != rho.n:
        raise ValueError("graph and rho sizes differ")
    rng = np.random.default_rng(seed)
    y = (rng.random(graph.n_edges) < rho.at(graph.i, graph.j)).astype(np.int8)
    return EdgeDataset(graph=graph, y=y)


def sample_individual(n: int, m: int, L: int, rho: ProbMatrix, seed=None) -> IndividualDataset:
    """m users each draw L uniform pairs with replacement; winners follow rho."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 1 or L < 1:
        raise ValueError("m and L must be >= 1")
    if rho.n != n:
        raise ValueError("rho size differs from n")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, pair_count(n), size=m * L)
    i, j = unrank(n, idx)
    y = (rng.random(m * L) < rho.at(i, j)).astype(np.int8)
    return IndividualDataset(n=n, m=m, L=L, i=i, j=j, y=y)


def generate_theta(n: int, k: int, seed=None, top_inclusive: bool = False) -> np.ndarray:
    """Latent scores: a constant top group and Unif(0.2, 0.7) strengths below.

    Pre-centering, e^theta = 1 for items ranked before k (before-or-at k when
    ``top_inclusive``) and e^theta ~ Unif(0.2, 0.7) for the rest; the result
    is centered to sum zero. Item indices are 1-based in the cut rule.
    """
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    rng = np.random.default_rng(seed)
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
