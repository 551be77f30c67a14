import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpranking.data import (ComparisonGraph, IndividualDataset, ProbMatrix,
                            generate_theta, pair_arrays, pair_count,
                            rho_from_theta, sample_edge_outcomes,
                            sample_er_graph, sample_individual, two_block_rho)
from dpranking.links import logistic_link


@pytest.fixture(scope="module")
def link():
    return logistic_link()


class TestProbMatrix:
    def test_full_is_skew_symmetric(self):
        rng = np.random.default_rng(0)
        pm = ProbMatrix(n=5, upper=rng.random(10))
        full = pm.full()
        assert np.array_equal(full + full.T, np.ones((5, 5)))
        assert np.all(np.diag(full) == 0.5)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            ProbMatrix(n=4, upper=np.zeros(5))
        with pytest.raises(ValueError):
            ProbMatrix(n=3, upper=np.array([0.5, 1.2, 0.5]))


class TestGraphSampling:
    def test_p_one_gives_complete_graph(self):
        g = sample_er_graph(5, 1.0, seed=0)
        assert g.n_edges == pair_count(5) == 10

    def test_seed_reproducibility(self):
        g1 = sample_er_graph(30, 0.5, seed=42)
        g2 = sample_er_graph(30, 0.5, seed=42)
        assert np.array_equal(g1.i, g2.i) and np.array_equal(g1.j, g2.j)

    def test_edge_count_concentration(self):
        n, p = 1000, 0.3
        g = sample_er_graph(n, p, seed=3)
        mean = p * pair_count(n)
        sd = np.sqrt(pair_count(n) * p * (1 - p))
        assert abs(g.n_edges - mean) < 5 * sd

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_er_graph(1, 0.5)
        with pytest.raises(ValueError):
            sample_er_graph(5, 0.0)
        with pytest.raises(ValueError):
            sample_er_graph(5, 1.5)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ComparisonGraph(n=3, i=np.array([0, 0]), j=np.array([1, 1]), p=1.0)

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ComparisonGraph(n=3, i=np.array([0, 0]), j=np.array([2, 1]), p=1.0)


class TestRhoFromTheta:
    def test_equal_strengths(self, link):
        pm = rho_from_theta(np.zeros(2), link)
        assert pm.upper[0] == pytest.approx(0.5)

    def test_known_value(self, link):
        pm = rho_from_theta(np.array([1.0, -1.0]), link)
        assert pm.upper[0] == pytest.approx(1.0 / (1.0 + np.exp(-2)), abs=1e-9)
        assert pm.upper[0] == pytest.approx(0.880797, abs=1e-6)

    def test_ordering_preserved_in_tau(self, link):
        from dpranking.metrics import tau
        rng = np.random.default_rng(5)
        theta = rng.normal(size=8)
        scores = tau(rho_from_theta(theta, link))
        assert np.array_equal(np.argsort(theta), np.argsort(scores))


class TestOutcomeSampling:
    def test_degenerate_probability(self):
        g = sample_er_graph(2, 1.0, seed=0)
        pm = ProbMatrix(n=2, upper=np.array([1.0]))
        for seed in range(20):
            data = sample_edge_outcomes(g, pm, seed=seed)
            assert data.y[0] == 1

    def test_win_fraction_concentrates(self):
        g = sample_er_graph(2, 1.0, seed=0)
        pm = ProbMatrix(n=2, upper=np.array([0.7]))
        wins = sum(int(sample_edge_outcomes(g, pm, seed=s).y[0])
                   for s in range(10000))
        assert abs(wins / 10000 - 0.7) < 0.02

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), p=st.floats(0.05, 1.0),
           upper_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    def test_packed_lookup_matches_dense(self, n, p, upper_seed, seed):
        # each edge's draw is compared with rho[i, j] read from a dense matrix
        g = sample_er_graph(n, p, seed=seed)
        pm = ProbMatrix(n=n, upper=np.random.default_rng(upper_seed).random(pair_count(n)))
        dense = np.full((n, n), 0.5)
        iu, ju = pair_arrays(n)
        dense[iu, ju] = pm.upper
        dense[ju, iu] = 1.0 - pm.upper
        expected = np.random.default_rng(seed).random(g.n_edges) < dense[g.i, g.j]
        assert np.array_equal(sample_edge_outcomes(g, pm, seed=seed).y, expected)

    def test_size_mismatch(self):
        g = sample_er_graph(3, 1.0, seed=0)
        pm = ProbMatrix(n=2, upper=np.array([0.5]))
        with pytest.raises(ValueError):
            sample_edge_outcomes(g, pm)


class TestIndividualSampling:
    def test_single_pair(self):
        pm = ProbMatrix(n=2, upper=np.array([0.5]))
        data = sample_individual(2, 3, 5, pm, seed=0)
        assert np.all(data.i == 0) and np.all(data.j == 1)
        assert len(data.y) == 15

    def test_uniform_pair_frequencies(self):
        pm = ProbMatrix(n=4, upper=np.full(6, 0.5))
        data = sample_individual(4, 10000, 1, pm, seed=1)
        key = data.i * 4 + data.j
        _, counts = np.unique(key, return_counts=True)
        assert np.all(np.abs(counts / 10000 - 1 / 6) < 0.02)

    def test_user_slice(self):
        pm = ProbMatrix(n=3, upper=np.full(3, 0.5))
        data = sample_individual(3, 4, 2, pm, seed=2)
        s = data.user_slice(1)
        assert (s.start, s.stop) == (2, 4)

    def test_record_arrays_validated(self):
        with pytest.raises(ValueError):
            IndividualDataset(n=3, m=2, L=2, i=np.zeros(3, dtype=int),
                              j=np.ones(3, dtype=int), y=np.zeros(3, dtype=np.int8))


class TestGenerateTheta:
    def test_centered(self):
        theta = generate_theta(50, 12, seed=0)
        assert abs(theta.sum()) < 1e-10

    def test_top_group_structure(self):
        theta = generate_theta(400, 100, seed=1)
        # exclusive rule: items before the cut share the top value
        top = theta[:99]
        assert np.all(top == top[0])
        assert np.all(theta[99:] < top[0])
        rest = theta[99:] - top[0]
        assert np.all(rest >= np.log(0.2) - 1e-12)
        assert np.all(rest <= np.log(0.7) + 1e-12)

    def test_top_inclusive_flag(self):
        theta = generate_theta(20, 5, seed=2, top_inclusive=True)
        assert np.all(theta[:5] == theta[0])
        assert np.all(theta[5:] < theta[0])

    def test_first_item_strictly_largest(self):
        theta = generate_theta(8, 2, seed=3)
        assert np.all(theta[0] >= theta)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            generate_theta(5, 0)
        with pytest.raises(ValueError):
            generate_theta(5, 6)


class TestTwoBlockRho:
    def test_tau_gap_equals_delta(self):
        from dpranking.metrics import tau
        n, k, gap = 20, 5, 0.3
        scores = tau(two_block_rho(n, k, gap))
        assert scores[0] - scores[k] == pytest.approx(gap, abs=1e-12)
        assert np.all(scores[:k] == scores[0])
        assert np.all(scores[k:] == scores[k])

    def test_gap_clipped_at_half(self):
        pm = two_block_rho(10, 3, 1.7)
        iu, ju = pair_arrays(10)
        cross = (iu < 3) & (ju >= 3)
        assert np.all(pm.upper[cross] == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_block_rho(5, 5, 0.1)
        with pytest.raises(ValueError):
            two_block_rho(5, 2, -0.1)
