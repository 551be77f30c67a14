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
    graph = ComparisonGraph(n=n, i=i, j=j)
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

    def test_edge_and_individual_records_agree(self):
        # the same records as an edge dataset and as m = 3 users with L = 1
        edges, y = [(0, 1), (0, 2), (1, 3)], [1, 0, 0]
        edge = _edge_dataset(4, edges, y)
        users = IndividualDataset(n=4, m=3, L=1, i=edge.i.copy(), j=edge.j.copy(),
                                  y=np.array(y, dtype=np.int8))
        assert (edge.n, edge.L) == (users.n, users.L)
        assert edge.winners().tolist() == users.winners().tolist() == [0, 2, 3]
        assert win_counts(edge).tolist() == win_counts(users).tolist() == [1, 0, 1, 1]


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
        # regime and L are checked before the epsilon = inf return, and edge
        # DP is the L = 1 case of the same rule
        for eps in (1.0, math.inf):
            with pytest.raises(ValueError, match="regime"):
                noise_scale(eps, "both")
        for regime in ("individual", "edge"):
            with pytest.raises(ValueError, match="L must be"):
                noise_scale(1.0, regime, L=0)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            noise_scale(math.nan, "edge")


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

    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    def test_batch_is_successive_releases(self, epsilon):
        # an (S, n) call is S releases drawn from one generator in turn
        counts = np.array([3.0, 0.0, 5.0, 2.0])
        batch = noisy_counts(np.broadcast_to(counts, (6, 4)), epsilon, "individual",
                             L=3, seed=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        rows = [noisy_counts(counts, epsilon, "individual", L=3, seed=rng)
                for _ in range(6)]
        assert batch.shape == (6, 4)
        assert np.array_equal(batch, rows)
        # at eps = inf each draw is +0.0, so the counts come back exactly
        assert np.array_equal(batch == counts, np.full((6, 4), math.isinf(epsilon)))

    def test_noise_magnitude(self):
        # Laplace(scale) has sd scale*sqrt(2); check empirical spread
        rng_seed = 17
        out = noisy_counts(np.zeros(20000), 1.0, "edge", seed=rng_seed)
        assert np.std(out) == pytest.approx(2.0 * np.sqrt(2), rel=0.05)
