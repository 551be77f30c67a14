import math

import numpy as np
import pytest

from dpranking.counts import (noise_scale, noisy_counts, noisy_full_ranking,
                              noisy_topk, win_counts)
from dpranking.data import (ComparisonGraph, EdgeDataset, IndividualDataset,
                            ProbMatrix, sample_individual)


def _edge_dataset(n, edges, outcomes):
    i = np.array([e[0] for e in edges], dtype=np.int64)
    j = np.array([e[1] for e in edges], dtype=np.int64)
    graph = ComparisonGraph(n=n, i=i, j=j, p=1.0)
    return EdgeDataset(graph=graph, y=np.array(outcomes, dtype=np.int8))


class TestWinCounts:
    def test_direct_count(self):
        # item 0 beats 1 and 2; item 1 beats 2
        data = _edge_dataset(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 1])
        assert win_counts(data).tolist() == [2, 1, 0]

    def test_empty_dataset(self):
        data = _edge_dataset(3, [], [])
        assert win_counts(data).tolist() == [0, 0, 0]

    def test_individual_conservation(self):
        pm = ProbMatrix(n=4, upper=np.full(6, 0.5))
        data = sample_individual(4, 2, 3, pm, seed=0)
        assert win_counts(data).sum() == 6

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            win_counts(np.zeros(3))


class TestNoiseScale:
    def test_edge_scale(self):
        assert noise_scale(2.0, "edge") == 1.0

    def test_individual_scale(self):
        # replacing one bundle of L comparisons moves the counts by 2L in l1
        assert noise_scale(1.0, "individual", L=5) == 10.0

    def test_infinite_epsilon(self):
        assert noise_scale(math.inf, "edge") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            noise_scale(0.0, "edge")
        with pytest.raises(ValueError):
            noise_scale(1.0, "both")
        with pytest.raises(ValueError):
            noise_scale(1.0, "individual", L=0)


class TestNoisyTopk:
    def test_noiseless_copeland(self):
        data = _edge_dataset(3, [(0, 1), (0, 2), (1, 2)], [1, 1, 1])
        top = noisy_topk(win_counts(data), 1, math.inf, "edge")
        assert top.tolist() == [0]

    def test_noiseless_tie_lowest_index(self):
        top = noisy_topk(np.array([3, 3, 1]), 1, math.inf, "edge")
        assert top.tolist() == [0]

    def test_seeded_reproducibility(self):
        counts = np.array([5, 4, 3, 2])
        a = noisy_topk(counts, 2, 1.0, "edge", seed=9)
        b = noisy_topk(counts, 2, 1.0, "edge", seed=9)
        assert np.array_equal(a, b)

    def test_noise_actually_applied(self):
        counts = np.array([10, 0, 0, 0])
        seen = {tuple(noisy_topk(counts, 1, 0.1, "edge", seed=s).tolist())
                for s in range(50)}
        assert len(seen) > 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            noisy_topk(np.array([1, 2]), 3, 1.0, "edge")


class TestNoisyFullRanking:
    def test_noiseless_order(self):
        ranking = noisy_full_ranking(np.array([0, 5, 3]), math.inf, "edge")
        assert ranking.tolist() == [1, 2, 0]

    def test_prefix_consistency_with_topk(self):
        counts = np.array([4, 7, 1, 3, 9])
        for k in range(1, 6):
            full = noisy_full_ranking(counts, 1.0, "individual", L=2, seed=31)
            top = noisy_topk(counts, k, 1.0, "individual", L=2, seed=31)
            assert np.array_equal(np.sort(full[:k]), top)

    def test_single_item(self):
        assert noisy_full_ranking(np.array([0]), math.inf, "edge").tolist() == [0]


class TestNoisyCounts:
    def test_zero_scale_copies(self):
        counts = np.array([1, 2, 3])
        out = noisy_counts(counts, math.inf, "edge")
        assert np.array_equal(out, counts)

    def test_noise_magnitude(self):
        # Laplace(scale) has sd scale*sqrt(2); check empirical spread
        rng_seed = 17
        out = noisy_counts(np.zeros(20000), 1.0, "edge", seed=rng_seed)
        assert np.std(out) == pytest.approx(2.0 * np.sqrt(2), rel=0.05)
