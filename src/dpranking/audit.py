"""Empirical checks of the DP ingredients: sensitivity and epsilon estimation.

The win-count vector has l1-sensitivity at most 2 over edge-adjacent
datasets. Under user replacement, adjacent datasets differ in one user's
whole bundle of L comparisons, so each count moves by at most L and the
vector by at most 2L in l1. Both bounds are verified here on explicit
adjacent pairs. For the discrete noisy-count top-k mechanism, an empirical
epsilon lower bound is estimated from output frequencies on an adjacent pair.
The perturbed MLE has a continuous output space and is excluded from
frequency-based estimation; its audit is limited to the calibration
invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import noise_scale, win_counts
from .data import ComparisonGraph, EdgeDataset, IndividualDataset, pair_arrays, rng_from
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


def _with_outcome(data: EdgeDataset, edge: int, y: int) -> EdgeDataset:
    y_new = data.y.copy()
    y_new[edge] = y
    return EdgeDataset(graph=data.graph, y=y_new)


def enumerate_adjacent(data: EdgeDataset, budget: int, seed=None) -> list[AdjacentPair]:
    """Adjacent edge datasets: every outcome flip, plus edge-for-edge swaps.

    A swap removes one edge and adds a different pair (with either outcome).
    When the full swap set exceeds the budget remaining after flips, swaps
    are sampled without replacement.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = rng_from(seed)
    n = data.n
    g = data.graph
    pairs: list[AdjacentPair] = []

    for e in range(g.n_edges):
        if len(pairs) >= budget:
            return pairs
        pairs.append(AdjacentPair(data, _with_outcome(data, e, 1 - int(data.y[e])),
                                  "edge-flip"))

    iu, ju = pair_arrays(n)
    present = set(zip(g.i.tolist(), g.j.tolist()))
    absent = [(a, b) for a, b in zip(iu.tolist(), ju.tolist()) if (a, b) not in present]
    swaps = [(e, a, b, out) for e in range(g.n_edges) for (a, b) in absent for out in (0, 1)]
    remaining = budget - len(pairs)
    if len(swaps) > remaining:
        idx = rng.choice(len(swaps), size=remaining, replace=False)
        swaps = [swaps[t] for t in sorted(idx.tolist())]
    for e, a, b, out in swaps:
        keep = np.arange(g.n_edges) != e
        i_new = np.append(g.i[keep], a)
        j_new = np.append(g.j[keep], b)
        y_new = np.append(data.y[keep], out).astype(data.y.dtype)
        order = np.lexsort((j_new, i_new))
        variant = EdgeDataset(
            graph=ComparisonGraph(n=n, i=i_new[order], j=j_new[order], p=g.p),
            y=y_new[order])
        pairs.append(AdjacentPair(data, variant, "edge-swap"))
    return pairs


def replace_user(data: IndividualDataset, user: int, seed=None,
                 records=None) -> IndividualDataset:
    """Replace one user's full bundle of L records.

    By default the new records are uniform pairs with fair-coin outcomes;
    ``records`` may supply explicit (i, j, y) arrays for extremal bundles.
    """
    if not 0 <= user < data.m:
        raise ValueError("user out of range")
    if records is None:
        rng = rng_from(seed)
        iu, ju = pair_arrays(data.n)
        idx = rng.integers(0, len(iu), size=data.L)
        records = (iu[idx], ju[idx], (rng.random(data.L) < 0.5).astype(np.int8))
    i_new, j_new, y_new = (data.i.copy(), data.j.copy(), data.y.copy())
    s = data.user_slice(user)
    i_new[s], j_new[s], y_new[s] = records
    return IndividualDataset(n=data.n, m=data.m, L=data.L,
                             i=i_new, j=j_new, y=y_new, items=data.items)


def user_replacement_pairs(data: IndividualDataset, count: int, seed=None
                           ) -> list[AdjacentPair]:
    """Random user-replacement adjacent pairs for the individual regime."""
    rng = rng_from(seed)
    pairs = []
    for _ in range(count):
        user = int(rng.integers(0, data.m))
        pairs.append(AdjacentPair(data, replace_user(data, user, seed=rng),
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

    Raises SensitivityViolation when an edge pair exceeds l1 = 2 or a
    user-replacement pair exceeds per-coordinate L or l1 = 2L.
    """
    max_l1 = 0.0
    max_coord = 0.0
    for pair in pairs:
        delta = win_counts(pair.base) - win_counts(pair.variant)
        l1 = float(np.abs(delta).sum())
        coord = float(np.abs(delta).max()) if len(delta) else 0.0
        max_l1 = max(max_l1, l1)
        max_coord = max(max_coord, coord)
        if pair.adjacency_kind in ("edge-flip", "edge-swap") and l1 > 2:
            raise SensitivityViolation(f"l1 sensitivity {l1} > 2", pair)
        if pair.adjacency_kind == "user-replacement":
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
    """The noisy-count top-k mechanism, replayable in vectorized batches."""

    k: int
    epsilon: float
    regime: str
    L: int = 1

    def output_masks(self, data, samples: int, rng: np.random.Generator) -> np.ndarray:
        """Encoded top-k sets (bitmask over items) for ``samples`` replays."""
        counts = win_counts(data).astype(float)
        n = len(counts)
        if n > 62:
            raise ValueError("bitmask encoding limited to n <= 62")
        scale = noise_scale(self.epsilon, self.regime, self.L)
        if scale == 0.0:
            noisy = np.broadcast_to(counts, (samples, n))
        else:
            noisy = counts + rng.laplace(scale=scale, size=(samples, n))
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
    rng = rng_from(seed)
    masks_a = mechanism.output_masks(pair.base, samples, rng)
    masks_b = mechanism.output_masks(pair.variant, samples, rng)

    if math.isinf(mechanism.epsilon):
        differs = not np.array_equal(np.unique(masks_a), np.unique(masks_b))
        return EpsilonEstimate(epsilon_hat=math.inf if differs else 0.0,
                               epsilon_declared=math.inf, samples=samples,
                               conclusive=True, nonprivate_flag=True)

    all_masks = np.union1d(np.unique(masks_a), np.unique(masks_b))
    counts_a = np.array([(masks_a == mk).sum() for mk in all_masks], dtype=float)
    counts_b = np.array([(masks_b == mk).sum() for mk in all_masks], dtype=float)
    ok = (counts_a >= COUNT_FLOOR) & (counts_b >= COUNT_FLOOR)
    if not np.any(ok):
        return EpsilonEstimate(epsilon_hat=math.nan,
                               epsilon_declared=mechanism.epsilon,
                               samples=samples, conclusive=False)
    ratios = np.abs(np.log(counts_a[ok] / counts_b[ok]))
    return EpsilonEstimate(epsilon_hat=float(ratios.max()),
                           epsilon_declared=mechanism.epsilon,
                           samples=samples, conclusive=True)
