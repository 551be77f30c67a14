"""Empirical checks of the DP ingredients: sensitivity and epsilon estimation.

Under user replacement, adjacent datasets differ in one user's whole bundle
of L comparisons, so each win count moves by at most L and the vector by at
most 2L in l1; edge adjacency is the L = 1 case. Both bounds are verified
here on explicit adjacent pairs, all pairs in one pass of array operations
over the (i, j, y) records, read the same way for either dataset type.
Edge-adjacent datasets are enumerated by index: a swap is decoded from its
position in the (edge, absent pair, outcome) order, so sampled swaps are
never listed, and the variants' graphs are checked as one batch. For the
discrete noisy-count top-k mechanism, an empirical epsilon lower bound is
estimated from output frequencies on an adjacent pair, its two sides
replayed at once from their own child streams of the seed. A release's
top-k set is read off without sorting: an item is in it iff fewer than k
items beat it, where j beats i when its noisy count is higher, or equal
with j < i (ties go to the lower index, as in ``noisy_topk``). The
perturbed MLE has a continuous output space and is excluded from
frequency-based estimation; its audit is limited to the calibration
invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import noisy_counts, win_counts
from .data import (ComparisonGraph, EdgeDataset, IndividualDataset, check_outcomes,
                   pair_arrays, pair_count, row_starts, unrank)
from .metrics import descending_order, on_two_threads

MIN_EPSILON_SAMPLES = 100_000
COUNT_FLOOR = 30
# most variant records sorted per block of enumerate_adjacent
_VARIANT_BLOCK = 1 << 16
# most records counted per block of sensitivity_check
_RECORD_BLOCK = 1 << 18
# releases ranked per block of output_masks, so each block stays in cache
_MASK_BLOCK = 1 << 14


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


def enumerate_adjacent(data: EdgeDataset, budget: int, seed=None) -> list[AdjacentPair]:
    """Adjacent edge datasets: every outcome flip, plus edge-for-edge swaps.

    Flips come first, in edge order. A swap replaces one edge by an absent
    pair with either outcome; swaps run by edge, then absent pair in
    row-major order, then outcome 0 before 1, so swap (e, a, out) has index
    (e*A + a)*2 + out among the 2EA swaps (A absent pairs). When they exceed
    the budget left after flips, that many indices are sampled without
    replacement and decoded, so no swap list is built.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    g = data.graph
    n, edges = g.n, g.n_edges
    # variant v replaces record edge[v] by (i[v], j[v], y[v])
    edge = np.arange(min(budget, edges))
    i, j, y = g.i[edge], g.j[edge], 1 - data.y[edge]
    swaps = np.arange(0)
    if budget > edges:
        iu, ju = pair_arrays(n)
        absent = np.delete(np.arange(len(iu)), row_starts(n)[g.i] + g.j - g.i - 1)
        total = 2 * edges * len(absent)
        swaps = (np.arange(total) if total <= budget - edges else np.sort(
            np.random.default_rng(seed).choice(total, size=budget - edges, replace=False)))
        swap_edge, a = np.divmod(swaps >> 1, max(len(absent), 1))
        edge = np.concatenate([edge, swap_edge])
        i, j = np.concatenate([i, iu[absent[a]]]), np.concatenate([j, ju[absent[a]]])
        y = np.concatenate([y, swaps & 1])
    # each variant is the base with key edge[v] replaced, re-sorted; the slot
    # the sort fills from record edge[v] takes the new record instead
    keys = g.i.astype(np.int64) * n + g.j
    new_keys = i.astype(np.int64) * n + j
    out = [np.empty((len(edge), edges), dtype=f.dtype) for f in (g.i, g.j, data.y)]
    rows = max(1, _VARIANT_BLOCK // max(edges, 1))
    for start in range(0, len(edge), rows):
        block = slice(start, start + rows)
        edited = np.repeat(keys[None], len(edge[block]), axis=0)
        edited[np.arange(len(edited)), edge[block]] = new_keys[block]
        order = edited.argsort(axis=1, kind="stable")
        moved = order == edge[block, None]
        for field, new, dest in zip((g.i, g.j, data.y), (i, j, y), out):
            np.take(field, order, out=dest[block])
            dest[block][moved] = new[block]
    kinds = ["edge-flip"] * (len(edge) - len(swaps)) + ["edge-swap"] * len(swaps)
    graphs = ComparisonGraph.batch(n, out[0], out[1])
    return [AdjacentPair(data, EdgeDataset(graph=graph, y=vy), kind)
            for kind, graph, vy in zip(kinds, graphs, out[2])]


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
    wins = np.bincount(data.winners()[data.L:], minlength=data.n)
    lo, hi = sorted(int(t) for t in descending_order(wins)[k - 1:k + 1])
    bundle = (np.full(data.L, lo), np.full(data.L, hi))
    return AdjacentPair(
        replace_user(data, 0, records=bundle + (np.ones(data.L, dtype=np.int8),)),
        replace_user(data, 0, records=bundle + (np.zeros(data.L, dtype=np.int8),)),
        "user-replacement")


def sensitivity_check(pairs: list[AdjacentPair]) -> SensitivityReport:
    """Max l1 and per-coordinate change of win counts over adjacent pairs.

    Raises SensitivityViolation on the first pair that moves a count by more
    than L or the vector by more than 2L in l1; an edge dataset's L is 1.
    All pairs are checked in one pass: the win counts of every distinct
    dataset come from offset ``bincount`` calls over blocks of datasets.
    """
    if not pairs:
        return SensitivityReport(max_l1=0.0, per_coordinate_max=0.0, pairs_checked=0)
    if any(pair.base.n != pair.variant.n for pair in pairs):
        raise ValueError("adjacent datasets must have the same n")
    datasets = {id(d): d for pair in pairs for d in (pair.base, pair.variant)}
    # one np.where per block of datasets, not a winners() call per dataset
    records = [(d.i, d.j, d.y) for d in datasets.values()]
    # n + 1 count slots per dataset: the spare slot stays 0, so an itemless
    # pair still has a nonempty segment
    size = np.array([d.n + 1 for d in datasets.values()], dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(size)])
    offset = dict(zip(datasets, bounds.tolist()))
    counts = np.zeros(bounds[-1], dtype=np.int64)
    step = max(1, _RECORD_BLOCK // max(1, *(len(r[0]) for r in records)))
    for lo in range(0, len(records), step):
        hi = min(lo + step, len(records))
        i, j, y = (np.concatenate(field) for field in zip(*records[lo:hi]))
        check_outcomes(y)
        winners = np.where(y == 1, i, j).astype(np.int64, copy=False)
        winners += np.repeat(bounds[lo:hi] - bounds[lo], [len(r[0]) for r in records[lo:hi]])
        counts[bounds[lo]:bounds[hi]] = np.bincount(winners,
                                                    minlength=bounds[hi] - bounds[lo])

    width = np.array([pair.base.n + 1 for pair in pairs], dtype=np.int64)
    starts = np.cumsum(width) - width
    slot = np.arange(int(width.sum())) - np.repeat(starts, width)
    base = np.repeat([offset[id(pair.base)] for pair in pairs], width) + slot
    variant = np.repeat([offset[id(pair.variant)] for pair in pairs], width) + slot
    delta = np.abs(counts[base] - counts[variant])
    l1 = np.add.reduceat(delta, starts)
    coord = np.maximum.reduceat(delta, starts)
    L = np.array([pair.base.L for pair in pairs], dtype=np.int64)
    bad = np.flatnonzero((coord > L) | (l1 > 2 * L))
    if len(bad):
        t = bad[0]
        pair, L = pairs[t], pairs[t].base.L
        if coord[t] > L:
            raise SensitivityViolation(
                f"per-coordinate sensitivity {float(coord[t])} > L={L}", pair)
        raise SensitivityViolation(f"l1 sensitivity {float(l1[t])} > 2L={2 * L}", pair)
    return SensitivityReport(max_l1=float(l1.max()), per_coordinate_max=float(coord.max()),
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
        """Top-k sets (bitmasks over items) of ``samples`` ``noisy_counts`` releases.

        Item i is in a release's top k iff fewer than k items beat it: j beats
        i when its noisy count is higher, or equal with j < i.
        """
        counts = win_counts(data).astype(float)
        n = len(counts)
        if n > 62:
            raise ValueError("bitmask encoding limited to n <= 62")
        # picking every item is one fixed output, which no replay can tell apart
        if self.k >= n:
            raise ValueError(f"k={self.k} must be below n={n}")
        masks = np.zeros(samples, dtype=np.int64)
        for start in range(0, samples, _MASK_BLOCK):
            block = masks[start:start + _MASK_BLOCK]
            # successive draws on one generator are the stream of one (samples, n) draw
            x = noisy_counts(np.broadcast_to(counts, (len(block), n)), self.epsilon,
                             self.regime, self.L, seed=rng).T.copy()
            # beaten[i]: how many items beat item i, one comparison per pair
            beaten = np.zeros(x.shape, dtype=np.uint8)
            for a in range(n - 1):
                a_wins = x[a] >= x[a + 1:]
                beaten[a + 1:] += a_wins
                beaten[a] += n - 1 - a - a_wins.sum(axis=0, dtype=np.uint8)
            for item, top in enumerate(beaten < self.k):
                block |= top.astype(np.int64) << item
        return masks


def estimate_epsilon(mechanism: CountTopKMechanism, pair: AdjacentPair,
                     samples: int, seed=None) -> EpsilonEstimate:
    """Frequency-based empirical epsilon lower bound on one adjacent pair.

    Replays the mechanism on base and variant, then takes the max absolute
    log-ratio of output-set frequencies over sets observed at least
    ``COUNT_FLOOR`` times on both sides. Inconclusive when no set reaches the
    floor on both sides. Each side replays from its own child stream of
    ``seed``, the variant on a second thread, so the seed fixes the estimate
    whatever the thread scheduling; a generator passed as ``seed`` advances
    by the four draws that seed the children, not by 2 * samples * n.
    """
    if samples < MIN_EPSILON_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_EPSILON_SAMPLES}")
    base_rng, variant_rng = map(np.random.default_rng, np.random.SeedSequence(
        np.random.default_rng(seed).integers(2**63, size=4)).spawn(2))
    masks_a, masks_b = on_two_threads(  # laplace releases the GIL: the sides overlap
        lambda: mechanism.output_masks(pair.base, samples, base_rng),
        lambda: mechanism.output_masks(pair.variant, samples, variant_rng))
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
