import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpranking.data import ProbMatrix, pair_count
from dpranking.metrics import (LOG_ERROR_FLOOR, IllPosedTopK, hamming_sets,
                               l2_rel_log_error, linf_rel_log_error,
                               mean_abs_rank_diff, separation_threshold, tau,
                               topk_overlap_loss, true_topk)


class TestTau:
    def test_two_items(self):
        scores = tau(ProbMatrix(n=2, upper=np.array([0.7])))
        assert np.allclose(scores, [0.6, 0.4])

    def test_uniform(self):
        scores = tau(ProbMatrix(n=3, upper=np.full(3, 0.5)))
        assert np.allclose(scores, 0.5)

    def test_three_items(self):
        scores = tau(ProbMatrix(n=3, upper=np.array([0.9, 0.8, 0.6])))
        assert np.allclose(scores, [2.2 / 3, 1.2 / 3, 1.1 / 3])

    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_mean_is_half(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = tau(ProbMatrix(n=n, upper=rng.random(pair_count(n))))
        assert float(scores.mean()) == pytest.approx(0.5, abs=1e-12)


class TestTrueTopk:
    def test_simple(self):
        assert true_topk(np.array([0.7333, 0.4, 0.3667]), 1).tolist() == [0]
        assert true_topk(np.array([0.6, 0.4]), 2).tolist() == [0, 1]

    def test_boundary_tie_raises(self):
        with pytest.raises(IllPosedTopK):
            true_topk(np.array([0.5, 0.5]), 1)

    def test_interior_tie_allowed(self):
        assert true_topk(np.array([0.6, 0.6, 0.1]), 2).tolist() == [0, 1]


class TestLogErrors:
    def test_exact_match_floors(self):
        t = np.array([1.0, -1.0])
        assert linf_rel_log_error(t, t) == LOG_ERROR_FLOOR
        assert l2_rel_log_error(t, t) == LOG_ERROR_FLOOR

    def test_double_truth_gives_zero(self):
        t = np.array([0.5, -0.25, 1.0])
        assert linf_rel_log_error(2 * t, t) == pytest.approx(0.0, abs=1e-12)
        assert l2_rel_log_error(2 * t, t) == pytest.approx(0.0, abs=1e-12)

    def test_known_linf_value(self):
        truth = np.array([1.0, 0.0, 0.0])
        est = truth + np.array([0.1, 0.0, 0.0])
        assert linf_rel_log_error(est, truth) == pytest.approx(math.log(0.1), abs=1e-12)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError):
            linf_rel_log_error(np.ones(2), np.zeros(2))


class TestSetMetrics:
    def test_overlap_loss(self):
        assert topk_overlap_loss({1, 2}, {1, 2}, 2) == 0.0
        assert topk_overlap_loss({1, 2}, {3, 4}, 2) == 1.0
        assert topk_overlap_loss({1, 2}, {1, 3}, 2) == 0.5

    def test_overlap_size_mismatch(self):
        with pytest.raises(ValueError):
            topk_overlap_loss({1}, {1, 2}, 2)

    def test_hamming(self):
        assert hamming_sets({1, 2}, {1, 3}) == 2
        assert hamming_sets({1, 2}, {1, 2}) == 0
        assert hamming_sets({1}, {2, 3}) == 3

    @given(st.sets(st.integers(0, 20), min_size=3, max_size=3),
           st.sets(st.integers(0, 20), min_size=3, max_size=3))
    def test_hamming_overlap_relation(self, a, b):
        assert topk_overlap_loss(a, b, 3) == pytest.approx(hamming_sets(a, b) / 6)


class TestMeanAbsRankDiff:
    def test_identical(self):
        assert mean_abs_rank_diff([0, 1, 2], [0, 1, 2]) == 0.0

    def test_swap(self):
        assert mean_abs_rank_diff([0, 1], [1, 0]) == 1.0

    def test_reversal(self):
        assert mean_abs_rank_diff([0, 1, 2], [2, 1, 0]) == pytest.approx(4 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_abs_rank_diff([0, 1], [0, 1, 2])

    def test_brute_force_maximum_n6(self):
        # maximum displacement (2/n) * floor(n^2/4) = 3.0 at n=6, attained
        # by reversal; verified over all 720 permutations
        base = list(range(6))
        vals = [mean_abs_rank_diff(base, perm)
                for perm in itertools.permutations(base)]
        assert max(vals) == pytest.approx(2.0 * (36 // 4) / 6) == 3.0
        assert mean_abs_rank_diff(base, base[::-1]) == 3.0


class TestSeparationThreshold:
    def test_edge_example(self):
        val = separation_threshold("edge", 100, 1.0, p=1.0)
        assert val == pytest.approx(
            math.sqrt(math.log(100) / 100) + math.log(100) / 100, abs=1e-12)
        assert val == pytest.approx(0.26065, abs=1e-4)

    def test_individual_example(self):
        val = separation_threshold("individual", 16, 1.0, m=1000)
        assert val == pytest.approx(0.25497, abs=1e-4)

    def test_infinite_epsilon_drops_private_term(self):
        val = separation_threshold("edge", 100, math.inf, p=1.0)
        assert val == pytest.approx(math.sqrt(math.log(100) / 100), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            separation_threshold("edge", 100, 1.0)
        with pytest.raises(ValueError):
            separation_threshold("individual", 100, 1.0)
        with pytest.raises(ValueError):
            separation_threshold("edge", 100, 0.0, p=1.0)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            separation_threshold("edge", 100, math.nan, p=1.0)
