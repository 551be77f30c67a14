"""Empirical checks of the DP ingredients: sensitivity and epsilon estimation.

Under user replacement, adjacent datasets differ in one user's whole bundle
of L comparisons, so each win count moves by at most L and the vector by at
most 2L in l1; edge adjacency is the L = 1 case. Both bounds are verified
here on explicit adjacent pairs. For the discrete noisy-count top-k
mechanism, an empirical epsilon lower bound is estimated from output
frequencies on an adjacent pair. The perturbed MLE has a continuous output
space and is excluded from frequency-based estimation; its audit is limited
to the calibration invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import noisy_counts, win_counts
from .data import (ComparisonGraph, EdgeDataset, IndividualDataset, pair_arrays,
                   pair_count, unrank)
from .metrics import descending_order

MIN_EPSILON_SAMPLES = 100_000
COUNT_FLOOR = 30


@dataclass(frozen=True)
class AdjacentPair:
    base: EdgeDataset | IndividualDataset
    variant: EdgeDataset | IndividualDataset
    adjacency_kind: str  # "edge-flip" | "edge-swap" | "user-replacement"


class SensitivityViolation(AssertionError):
    def __init__(self, message: str, pair: AdjacentPair):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class SensitivityReport:
    max_l1: float
    per_coordinate_max: float
    pairs_checked: int


@dataclass(frozen=True)
class EpsilonEstimate:
    epsilon_hat: float
    epsilon_declared: float
    samples: int
    conclusive: bool
    nonprivate_flag: bool = False


def _replace_edge(data: EdgeDataset, edge: int, a: int, b: int, y: int) -> EdgeDataset:
    """``data`` with record ``edge`` replaced by pair (a, b) won per ``y``, re-sorted."""
    g = data.graph
    i_new, j_new, y_new = g.i.copy(), g.j.copy(), data.y.copy()
    i_new[edge], j_new[edge], y_new[edge] = a, b, y
    order = np.lexsort((j_new, i_new))
    graph = ComparisonGraph(n=g.n, i=i_new[order], j=j_new[order], p=g.p)
    return EdgeDataset(graph=graph, y=y_new[order])


def enumerate_adjacent(data: EdgeDataset, budget: int, seed=None) -> list[AdjacentPair]:
    """Adjacent edge datasets: every outcome flip, plus edge-for-edge swaps.

    Flips come first, in edge order. A swap replaces one edge by an absent
    pair with either outcome; swaps run by edge, then absent pair in
    row-major order, then outcome 0 before 1. When they exceed the budget
    left after flips, that many are sampled without replacement.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    g = data.graph
    flips = list(zip(range(g.n_edges), g.i.tolist(), g.j.tolist(), (1 - data.y).tolist()))
    swaps = []
    if budget > len(flips):
        present = set(zip(g.i.tolist(), g.j.tolist()))
        absent = [ab for ab in zip(*(t.tolist() for t in pair_arrays(data.n)))
                  if ab not in present]
        swaps = [(e, a, b, out) for e in range(g.n_edges) for a, b in absent
                 for out in (0, 1)]
        remaining = budget - len(flips)
        if len(swaps) > remaining:
            idx = np.random.default_rng(seed).choice(len(swaps), size=remaining,
                                                     replace=False)
            swaps = [swaps[t] for t in sorted(idx.tolist())]
    return [AdjacentPair(data, _replace_edge(data, *edit), kind)
            for kind, edits in (("edge-flip", flips[:budget]), ("edge-swap", swaps))
            for edit in edits]


def replace_user(data: IndividualDataset, user: int, records) -> IndividualDataset:
    """Replace one user's full bundle of L records with ``records``, (i, j, y) arrays."""
    if not 0 <= user < data.m:
        raise ValueError("user out of range")
    if any(np.shape(field) != (data.L,) for field in records):
        raise ValueError(f"each of (i, j, y) must hold exactly L={data.L} records")
    i_new, j_new, y_new = (data.i.copy(), data.j.copy(), data.y.copy())
    s = data.user_slice(user)
    i_new[s], j_new[s], y_new[s] = records
    return IndividualDataset(n=data.n, m=data.m, L=data.L,
                             i=i_new, j=j_new, y=y_new, items=data.items)


def user_replacement_pairs(data: IndividualDataset, count: int, seed=None
                           ) -> list[AdjacentPair]:
    """Random user-replacement adjacent pairs for the individual regime.

    Each replaced bundle holds L uniform pairs with fair-coin outcomes.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        user = int(rng.integers(0, data.m))
        idx = rng.integers(0, pair_count(data.n), size=data.L)
        records = unrank(data.n, idx) + ((rng.random(data.L) < 0.5).astype(np.int8),)
        pairs.append(AdjacentPair(data, replace_user(data, user, records),
                                  "user-replacement"))
    return pairs


def extremal_user_pair(data: IndividualDataset, k: int) -> AdjacentPair:
    """User 0's bundle on the top-k boundary pair, won by opposite items.

    The boundary pair is the k-th and (k+1)-th items by the other users' win
    counts; both bundles hold L copies of it, so the counts move by 2L in l1.
    """
    if not 1 <= k < data.n:
        raise ValueError("k must lie in [1, n-1]")
    others = slice(data.L, None)
    wins = np.bincount(np.where(data.y[others] == 1, data.i[others], data.j[others]),
                       minlength=data.n)
    lo, hi = sorted(int(t) for t in descending_order(wins)[k - 1:k + 1])
    bundle = (np.full(data.L, lo), np.full(data.L, hi))
    return AdjacentPair(
        replace_user(data, 0, records=bundle + (np.ones(data.L, dtype=np.int8),)),
        replace_user(data, 0, records=bundle + (np.zeros(data.L, dtype=np.int8),)),
        "user-replacement")


def sensitivity_check(pairs: list[AdjacentPair]) -> SensitivityReport:
    """Max l1 and per-coordinate change of win counts over adjacent pairs.

    Raises SensitivityViolation when a pair moves a count by more than L or
    the vector by more than 2L in l1; an edge dataset's L is 1.
    """
    max_l1 = 0.0
    max_coord = 0.0
    for pair in pairs:
        delta = win_counts(pair.base) - win_counts(pair.variant)
        l1 = float(np.abs(delta).sum())
        coord = float(np.abs(delta).max()) if len(delta) else 0.0
        max_l1 = max(max_l1, l1)
        max_coord = max(max_coord, coord)
        L = pair.base.L
        if coord > L:
            raise SensitivityViolation(
                f"per-coordinate sensitivity {coord} > L={L}", pair)
        if l1 > 2 * L:
            raise SensitivityViolation(f"l1 sensitivity {l1} > 2L={2 * L}", pair)
    return SensitivityReport(max_l1=max_l1, per_coordinate_max=max_coord,
                             pairs_checked=len(pairs))


@dataclass(frozen=True)
class CountTopKMechanism:
    """The noisy-count top-k mechanism, replayed in batches through ``noisy_counts``."""

    k: int
    epsilon: float
    regime: str
    L: int = 1

    def __post_init__(self):
        # with no item to pick, the output never changes and any audit passes
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")

    def output_masks(self, data, samples: int, rng: np.random.Generator) -> np.ndarray:
        """Top-k sets (bitmasks over items) of ``samples`` ``noisy_counts`` releases."""
        counts = win_counts(data).astype(float)
        n = len(counts)
        if n > 62:
            raise ValueError("bitmask encoding limited to n <= 62")
        # picking every item is one fixed output, which no replay can tell apart
        if self.k >= n:
            raise ValueError(f"k={self.k} must be below n={n}")
        noisy = noisy_counts(np.broadcast_to(counts, (samples, n)), self.epsilon,
                             self.regime, self.L, seed=rng)
        order = descending_order(noisy)[:, :self.k]
        masks = np.zeros(samples, dtype=np.int64)
        for col in range(self.k):
            masks |= np.int64(1) << order[:, col].astype(np.int64)
        return masks


def estimate_epsilon(mechanism: CountTopKMechanism, pair: AdjacentPair,
                     samples: int, seed=None) -> EpsilonEstimate:
    """Frequency-based empirical epsilon lower bound on one adjacent pair.

    Replays the mechanism on base and variant, then takes the max absolute
    log-ratio of output-set frequencies over sets observed at least
    ``COUNT_FLOOR`` times on both sides. Inconclusive when no set reaches the
    floor on both sides.
    """
    if samples < MIN_EPSILON_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_EPSILON_SAMPLES}")
    rng = np.random.default_rng(seed)
    masks_a = mechanism.output_masks(pair.base, samples, rng)
    masks_b = mechanism.output_masks(pair.variant, samples, rng)
    sets_a, counts_a = np.unique(masks_a, return_counts=True)
    sets_b, counts_b = np.unique(masks_b, return_counts=True)

    if math.isinf(mechanism.epsilon):
        differs = not np.array_equal(sets_a, sets_b)
        return EpsilonEstimate(epsilon_hat=math.inf if differs else 0.0,
                               epsilon_declared=math.inf, samples=samples,
                               conclusive=True, nonprivate_flag=True)

    _, in_a, in_b = np.intersect1d(sets_a, sets_b, return_indices=True)
    counts_a, counts_b = counts_a[in_a], counts_b[in_b]
    ok = (counts_a >= COUNT_FLOOR) & (counts_b >= COUNT_FLOOR)
    if not np.any(ok):
        return EpsilonEstimate(epsilon_hat=math.nan,
                               epsilon_declared=mechanism.epsilon,
                               samples=samples, conclusive=False)
    ratios = np.abs(np.log(counts_a[ok] / counts_b[ok]))
    return EpsilonEstimate(epsilon_hat=float(ratios.max()),
                           epsilon_declared=mechanism.epsilon,
                           samples=samples, conclusive=True)
