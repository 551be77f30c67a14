import math

import numpy as np
import pytest

from dpranking.audit import (AdjacentPair, CountTopKMechanism,
                             SensitivityViolation, enumerate_adjacent,
                             estimate_epsilon, extremal_user_pair, replace_user,
                             sensitivity_check, user_replacement_pairs)
from dpranking.data import (ComparisonGraph, EdgeDataset, IndividualDataset,
                            ProbMatrix, sample_edge_outcomes, sample_er_graph,
                            sample_individual)

# allowance for sampling error in a frequency-based epsilon estimate
SLACK = 0.1


def _edge_dataset(n=3, p=1.0, seed=0):
    rng = np.random.default_rng(seed)
    g = sample_er_graph(n, p, seed=rng)
    pm = ProbMatrix(n=n, upper=rng.random(n * (n - 1) // 2))
    return sample_edge_outcomes(g, pm, seed=rng)


class TestEnumerateAdjacent:
    def test_complete_graph_flips_first(self):
        data = _edge_dataset(3)
        pairs = enumerate_adjacent(data, budget=3, seed=0)
        assert len(pairs) == 3
        assert all(p.adjacency_kind == "edge-flip" for p in pairs)

    def test_budget_one(self):
        pairs = enumerate_adjacent(_edge_dataset(3), budget=1, seed=0)
        assert len(pairs) == 1

    def test_swaps_enumerated_for_sparse_graph(self):
        g = ComparisonGraph(n=3, i=np.array([0]), j=np.array([1]), p=1.0)
        data = EdgeDataset(graph=g, y=np.array([1], dtype=np.int8))
        pairs = enumerate_adjacent(data, budget=100, seed=0)
        # 1 flip + 1 edge x 2 absent pairs x 2 outcomes = 5
        assert len(pairs) == 5
        kinds = [p.adjacency_kind for p in pairs]
        assert kinds.count("edge-flip") == 1
        assert kinds.count("edge-swap") == 4
        for p in pairs:
            if p.adjacency_kind == "edge-swap":
                assert p.variant.graph.n_edges == 1
                assert (p.variant.graph.i[0], p.variant.graph.j[0]) != (0, 1)


class TestSensitivity:
    def test_flip_moves_one_win(self):
        data = _edge_dataset(4)
        pairs = enumerate_adjacent(data, budget=6, seed=0)
        report = sensitivity_check(pairs)
        assert report.max_l1 == 2.0
        assert report.pairs_checked == 6

    def test_user_replacement_bounded_by_L(self):
        pm = ProbMatrix(n=4, upper=np.full(6, 0.5))
        data = sample_individual(4, 8, 5, pm, seed=1)
        pairs = user_replacement_pairs(data, 20, seed=2)
        report = sensitivity_check(pairs)
        assert report.per_coordinate_max <= 5

    def test_extremal_bundle_hits_L(self):
        pm = ProbMatrix(n=3, upper=np.full(3, 0.5))
        data = sample_individual(3, 4, 5, pm, seed=3)
        # base user 0: five records where item 0 beats item 1
        i = np.zeros(5, dtype=np.int64)
        j = np.ones(5, dtype=np.int64)
        base = replace_user(data, 0, records=(i, j, np.ones(5, dtype=np.int8)))
        variant = replace_user(base, 0, records=(i, j, np.zeros(5, dtype=np.int8)))
        pair = AdjacentPair(base, variant, "user-replacement")
        report = sensitivity_check([pair])
        assert report.per_coordinate_max == 5.0

    def test_user_replacement_l1_gate(self):
        # two users replaced at L=1: no count moves by more than L, but the
        # vector moves by 4 > 2L in l1
        def data(y):
            return IndividualDataset(n=4, m=2, L=1, i=np.array([0, 2]),
                                     j=np.array([1, 3]), y=np.array(y, dtype=np.int8))
        forged = AdjacentPair(data([1, 1]), data([0, 0]), "user-replacement")
        with pytest.raises(SensitivityViolation, match="2L"):
            sensitivity_check([forged])

    def test_violation_raised_for_forged_pair(self):
        a = _edge_dataset(4)
        b = _edge_dataset(4, seed=99)  # not truly adjacent
        forged = AdjacentPair(a, b, "edge-flip")
        from dpranking.counts import win_counts
        if np.abs(win_counts(a) - win_counts(b)).sum() > 2:
            with pytest.raises(SensitivityViolation):
                sensitivity_check([forged])


class TestEstimateEpsilon:
    def _pair(self):
        data = _edge_dataset(4, seed=5)
        return enumerate_adjacent(data, budget=1, seed=0)[0]

    def test_sample_floor_enforced(self):
        mech = CountTopKMechanism(k=2, epsilon=1.0, regime="edge")
        with pytest.raises(ValueError):
            estimate_epsilon(mech, self._pair(), samples=100)

    def test_identical_pair_near_zero(self):
        data = _edge_dataset(4, seed=6)
        pair = AdjacentPair(data, data, "edge-flip")
        mech = CountTopKMechanism(k=2, epsilon=1.0, regime="edge")
        est = estimate_epsilon(mech, pair, samples=1_000_000, seed=0)
        assert est.conclusive
        assert est.epsilon_hat <= 0.05

    def test_bounded_by_declared_epsilon(self):
        mech = CountTopKMechanism(k=2, epsilon=1.0, regime="edge")
        est = estimate_epsilon(mech, self._pair(), samples=200_000, seed=1)
        assert est.conclusive
        assert est.epsilon_hat <= 1.0 + 0.2

    def test_extremal_user_replacement_within_epsilon(self):
        # the worst-case replacement moves the count vector by the full 2L in l1
        n, k, L = 4, 2, 5
        data = sample_individual(n, 30, L, ProbMatrix(n=n, upper=np.full(6, 0.5)),
                                 seed=4)
        pair = extremal_user_pair(data, k)
        assert sensitivity_check([pair]).max_l1 == 2 * L
        mech = CountTopKMechanism(k=k, epsilon=1.0, regime="individual", L=L)
        est = estimate_epsilon(mech, pair, samples=1_000_000, seed=0)
        assert est.conclusive
        assert est.epsilon_hat <= 1.0 + SLACK

    def test_nonprivate_flagged(self):
        mech = CountTopKMechanism(k=1, epsilon=math.inf, regime="edge")
        est = estimate_epsilon(mech, self._pair(), samples=100_000, seed=2)
        assert est.nonprivate_flag

    def test_mask_encoding_limit(self):
        mech = CountTopKMechanism(k=1, epsilon=1.0, regime="edge")
        big = _edge_dataset(3)
        rng = np.random.default_rng(0)
        counts_ok = mech.output_masks(big, 10, rng)
        assert counts_ok.shape == (10,)

