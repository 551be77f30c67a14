import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpranking import data as data_mod
from dpranking.data import (_DRAW_CHUNK, _ROW_BLOCK, ComparisonGraph, EdgeDataset,
                            IndividualDataset, ProbMatrix, unrank, generate_theta,
                            pair_arrays, pair_count, rho_from_theta, row_starts, sample_edge_outcomes, sample_er_graph,
                            sample_individual, two_block_rho)
from dpranking.links import logistic_link
from dpranking.metrics import tau


@pytest.fixture(scope="module")
def link():
    return logistic_link()


def dense(pm: ProbMatrix) -> np.ndarray:
    """The n x n matrix with 1/2 on the diagonal, built from pair_arrays."""
    rho = np.full((pm.n, pm.n), 0.5)
    iu, ju = pair_arrays(pm.n)
    rho[iu, ju] = pm.upper
    rho[ju, iu] = 1.0 - pm.upper
    return rho


def peak_bytes(fn, *args) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestProbMatrix:
    def test_rejects_bad_shapes_and_values(self, link):
        with pytest.raises(ValueError):
            ProbMatrix(n=4, upper=np.zeros(5))
        with pytest.raises(ValueError):
            ProbMatrix(n=3, upper=np.array([0.5, 1.2, 0.5]))
        for bad in (dict(), dict(theta=np.zeros(3)), dict(theta=np.zeros(2), link=link),
                    dict(theta=np.zeros((3, 1)), link=link)):
            with pytest.raises(ValueError, match="probabilities"):
                ProbMatrix(n=3, **bad)

    def test_rejects_nan(self, link):
        with pytest.raises(ValueError, match="probabilities"):
            ProbMatrix(n=2, upper=np.array([np.nan]))
        with pytest.raises(ValueError, match="probabilities"):
            rho_from_theta(np.array([0.0, np.nan, 1.0]), link)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_theta(self, link, bad):
        # one infinity meets only finite entries, so no difference is NaN
        with pytest.raises(ValueError, match="probabilities"):
            rho_from_theta(np.array([0.0, bad, 1.0]), link)

    def test_parametric_rho_copies_theta(self, link):
        theta = np.array([1.0, -1.0, 0.0])
        pm = rho_from_theta(theta, link)
        before = pm.at(*pair_arrays(3))
        theta[:] = [np.nan, 5.0, -5.0]
        assert np.array_equal(pm.at(*pair_arrays(3)), before)


class TestPackedPaths:
    """The packed-triangle paths against references built from pair_arrays."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 100), seed=st.integers(0, 2**32 - 1))
    @example(n=1200, seed=0)  # several row blocks
    def test_tau_is_dense_row_mean(self, n, seed):
        pm = ProbMatrix(n=n, upper=np.random.default_rng(seed).random(pair_count(n)))
        assert np.array_equal(tau(pm), dense(pm).mean(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 100), seed=st.integers(0, 2**32 - 1))
    @example(n=1200, seed=0)
    def test_tau_of_parametric_rho_is_dense_row_mean(self, link, n, seed):
        theta = np.random.default_rng(seed).normal(scale=3.0, size=n)
        assert np.array_equal(tau(rho_from_theta(theta, link)),
                              link.eval(theta[:, None] - theta).mean(axis=1))

    def test_tau_of_one_item_is_a_half(self, link):
        assert np.array_equal(tau(ProbMatrix(n=1, upper=np.zeros(0))), [0.5])
        assert np.array_equal(tau(rho_from_theta(np.zeros(1), link)), [0.5])

    def test_tau_takes_a_numpy_integer_n(self):
        upper = np.random.default_rng(0).random(pair_count(5))
        assert np.array_equal(tau(ProbMatrix(n=np.int64(5), upper=upper)),
                              tau(ProbMatrix(n=5, upper=upper)))

    @pytest.mark.parametrize("n", [2047, 2048, 4095, 4096])
    def test_tau_of_a_total_order_is_exact(self, n):
        i = np.arange(n)
        assert np.array_equal(tau(ProbMatrix(n=n, upper=np.ones(pair_count(n)))),
                              (n - i - 0.5) / n)
        assert np.array_equal(tau(ProbMatrix(n=n, upper=np.zeros(pair_count(n)))),
                              (i + 0.5) / n)

    def test_tau_ties_equal_theta_across_row_blocks(self, link):
        n, k = 1200, 300
        assert k > 2 * max(1, _ROW_BLOCK // n)
        theta = generate_theta(n, k, seed=4, top_inclusive=True)
        scores = tau(rho_from_theta(theta, link))
        assert np.all(scores[:k] == scores[0])
        assert np.all(scores[k:] < scores[0])

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_rho_from_theta_matches_pair_gather_across_blocks(self, link, n):
        theta = np.random.default_rng(n).normal(scale=3.0, size=n)
        rho = rho_from_theta(theta, link)
        iu, ju = pair_arrays(n)
        for a in range(0, len(iu), 10**6):
            b = a + 10**6
            assert np.array_equal(rho.at(iu[a:b], ju[a:b]),
                                  link.eval(theta[iu[a:b]] - theta[ju[a:b]]))

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_parametric_blocks_match_at(self, link, n):
        rho = rho_from_theta(np.random.default_rng(n).normal(scale=3.0, size=n), link)
        a = 0
        for rows in rho.rows():
            for t, row in enumerate(rows, a):
                assert row[t] == 0.5
                assert np.array_equal(row[t + 1:], rho.at(np.full(n - t - 1, t),
                                                          np.arange(t + 1, n)))
            a += len(rows)
        assert a == n

    @pytest.mark.parametrize("block", [3, _ROW_BLOCK])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1200])
    def test_rows_are_the_dense_matrix(self, link, monkeypatch, block, n):
        # a 3-entry block holds one row once n > 3; 1200 leaves a short last block
        monkeypatch.setattr(data_mod, "_ROW_BLOCK", block)
        rng = np.random.default_rng(n)
        theta = rng.normal(scale=3.0, size=n)
        explicit = ProbMatrix(n=n, upper=rng.random(pair_count(n)))
        for rho, want in ((rho_from_theta(theta, link), link.eval(theta[:, None] - theta)),
                          (explicit, dense(explicit))):
            blocks = list(rho.rows())
            step = max(1, block // n)
            assert [len(rows) for rows in blocks] == [min(step, n - a)
                                                      for a in range(0, n, step)]
            assert np.array_equal(np.vstack(blocks), want)
            assert np.all(np.diag(want) == 0.5)

    def test_rho_from_theta_peak_memory_is_linear_in_n(self, link):
        n = 2000
        theta = np.random.default_rng(0).normal(size=n)
        assert peak_bytes(rho_from_theta, theta, link) < 4 * n * 8

    def test_tau_of_parametric_rho_peaks_at_a_few_blocks(self, link):
        n = 2000
        pm = rho_from_theta(np.random.default_rng(0).normal(size=n), link)
        # the triangle alone would be 16 MB
        assert peak_bytes(tau, pm) < 8 * _ROW_BLOCK * 8

    def test_tau_peak_memory_is_below_a_quarter_of_dense(self):
        n = 2000
        pm = ProbMatrix(n=n, upper=np.random.default_rng(0).random(pair_count(n)))
        assert peak_bytes(tau, pm) < n * n * 8 / 4

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
    def test_rho_from_theta_matches_pair_gather(self, link, n, seed):
        theta = np.random.default_rng(seed).normal(scale=3.0, size=n)
        iu, ju = pair_arrays(n)
        expected = link.eval(theta[iu] - theta[ju])
        assert np.array_equal(rho_from_theta(theta, link).at(iu, ju), expected)

    @pytest.mark.parametrize("n, p", [(2, 1.0), (7, 0.5), (60, 0.05), (200, 0.3),
                                      (1500, 0.01), (1500, 0.9), (1500, 1.0)])
    def test_er_graph_matches_one_draw(self, n, p):
        # n=1500 at p = 1 draws its gaps in more than one batch
        assert pair_count(1500) > _DRAW_CHUNK
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        g = sample_er_graph(n, p, seed=rng)
        iu, ju = pair_arrays(n)
        if p == 1:
            keep = ref.random(len(iu)) < p
        else:
            # one geometric gap at a time from the last kept position
            keep, pos = [], -1
            while (pos := pos + ref.geometric(p)) < len(iu):
                keep.append(pos)
        assert np.array_equal(g.i, iu[keep]) and np.array_equal(g.j, ju[keep])
        assert g.i.dtype == iu.dtype and g.j.dtype == ju.dtype
        if p == 1:
            # the generator is left where one rng.random(N) call leaves it
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("n, p", [(60, 0.5), (300, 0.02), (300, 1.0)])
    def test_er_graph_does_not_depend_on_batch_size(self, monkeypatch, n, p):
        g = sample_er_graph(n, p, seed=5)
        monkeypatch.setattr(data_mod, "_DRAW_CHUNK", 7)
        small = sample_er_graph(n, p, seed=5)
        assert np.array_equal(g.i, small.i) and np.array_equal(g.j, small.j)

    @pytest.mark.parametrize("p", [1e-300, 1e-12])
    def test_er_graph_at_tiny_p_is_empty(self, p, time_limit):
        # the first gap overshoots the triangle (INT64_MAX at 1e-300): no edge, no wrap
        assert sample_er_graph(50, p, seed=0).n_edges == 0

    def test_er_graph_pair_frequencies(self):
        n, p, graphs = 6, 0.3, 20_000
        rng = np.random.default_rng(2)
        hits = np.zeros(pair_count(n))
        for _ in range(graphs):
            g = sample_er_graph(n, p, seed=rng)
            hits[row_starts(n)[g.i] + g.j - g.i - 1] += 1
        z = (hits - graphs * p) / np.sqrt(graphs * p * (1 - p))
        assert np.all(np.abs(z) < 4.5)

    def test_unrank_at_row_boundaries_of_a_large_triangle(self):
        n = 3_000_000
        rows = np.arange(1, n - 1, 997)
        first = rows * (2 * n - rows - 1) // 2
        i, j = unrank(n, np.concatenate([first, first - 1]))
        assert np.array_equal(i, np.concatenate([rows, rows - 1]))
        assert np.array_equal(j, np.concatenate([rows + 1, np.full(len(rows), n - 1)]))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 60), m=st.integers(1, 20), L=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_individual_pairs_match_pair_gather(self, n, m, L, seed):
        pm = ProbMatrix(n=n, upper=np.full(pair_count(n), 0.5))
        data = sample_individual(n, m, L, pm, seed=seed)
        iu, ju = pair_arrays(n)
        idx = np.random.default_rng(seed).integers(0, len(iu), size=m * L)
        assert np.array_equal(data.i, iu[idx]) and np.array_equal(data.j, ju[idx])


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
            ComparisonGraph(n=3, i=np.array([0, 0]), j=np.array([1, 1]))

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ComparisonGraph(n=3, i=np.array([0, 0]), j=np.array([2, 1]))


def _graph_rows(rows, n, edges, dtype, seed=0):
    """(rows, edges) index arrays, each row a sorted set of distinct pairs."""
    rng = np.random.default_rng(seed)
    keys = np.sort([rng.choice(pair_count(n), edges, replace=False)
                    for _ in range(rows)], axis=1)
    return tuple(a.astype(dtype) for a in unrank(n, keys))


def _break_row(kind, i, j, row, n):
    """Copies of i and j with one row made invalid in the named way."""
    i, j = i.copy(), j.copy()
    if kind == "unsorted":
        i[row, :2], j[row, :2] = i[row, 1::-1], j[row, 1::-1]
    elif kind == "duplicate":
        i[row, 1], j[row, 1] = i[row, 0], j[row, 0]
    elif kind == "i >= j":
        j[row, 0] = i[row, 0]
    elif kind == "j >= n":
        j[row, -1] = n
    elif kind == "i < 0":
        i[row, 0] = -1
    return i, j


class TestGraphBatch:
    # 7 rows of 5 edges, 2 rows per block of 10 entries: blocks [0, 2), [2, 4),
    # [4, 6) and the partial [6, 7)
    N, ROWS, EDGES = 6, 7, 5

    @pytest.mark.parametrize("block", [1, 10, _ROW_BLOCK])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_matches_constructor(self, monkeypatch, block, dtype):
        monkeypatch.setattr(data_mod, "_ROW_BLOCK", block)
        i, j = _graph_rows(self.ROWS, self.N, self.EDGES, dtype)
        graphs = ComparisonGraph.batch(self.N, i, j)
        assert len(graphs) == self.ROWS
        for graph, gi, gj in zip(graphs, i, j):
            ref = ComparisonGraph(n=self.N, i=gi, j=gj)
            assert type(graph) is ComparisonGraph and graph.n == ref.n
            for got, want in ((graph.i, ref.i), (graph.j, ref.j)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            graphs[0].n = 3

    def test_empty_batch_and_edgeless_rows(self):
        none = np.zeros((0, 4), dtype=np.int64)
        assert ComparisonGraph.batch(3, none, none) == []
        graphs = ComparisonGraph.batch(3, np.zeros((2, 0), dtype=np.int64),
                                       np.zeros((2, 0), dtype=np.int64))
        assert [g.n_edges for g in graphs] == [0, 0]

    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("kind", ["unsorted", "duplicate", "i >= j", "j >= n", "i < 0"])
    def test_bad_row_raises_the_constructor_message(self, monkeypatch, kind, row):
        monkeypatch.setattr(data_mod, "_ROW_BLOCK", 10)
        i, j = _break_row(kind, *_graph_rows(self.ROWS, self.N, self.EDGES, np.int64),
                          row, self.N)
        with pytest.raises(ValueError) as ref:
            ComparisonGraph(n=self.N, i=i[row], j=j[row])
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            ComparisonGraph.batch(self.N, i, j)

    @pytest.mark.parametrize("cut", ["short row", "missing last row", "extra last row"])
    def test_unequal_shapes_raise_the_constructor_message(self, monkeypatch, cut):
        monkeypatch.setattr(data_mod, "_ROW_BLOCK", 10)
        i, j = _graph_rows(self.ROWS, self.N, self.EDGES, np.int64)
        with pytest.raises(ValueError) as ref:
            ComparisonGraph(n=self.N, i=i[0], j=j[0, :-1])
        # the last two differ only past the shorter array's last block
        i, j = {"short row": (i, j[:, :-1]), "missing last row": (i, j[:-1]),
                "extra last row": (i[:-1], j)}[cut]
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            ComparisonGraph.batch(self.N, i, j)


@pytest.mark.parametrize("y", [[1, 2], [-1, 0], [0.5, 1.0], [np.nan, 1.0]])
def test_winners_refuse_outcomes_other_than_zero_or_one(y):
    graph = ComparisonGraph(n=3, i=np.array([0, 1]), j=np.array([1, 2]))
    with pytest.raises(ValueError, match="^outcomes must be 0 or 1$"):
        EdgeDataset(graph=graph, y=np.array(y)).winners()


class TestRhoFromTheta:
    def test_equal_strengths(self, link):
        pm = rho_from_theta(np.zeros(2), link)
        assert pm.at(*pair_arrays(2))[0] == pytest.approx(0.5)

    def test_known_value(self, link):
        pm = rho_from_theta(np.array([1.0, -1.0]), link)
        value = pm.at(*pair_arrays(2))[0]
        assert value == pytest.approx(1.0 / (1.0 + np.exp(-2)), abs=1e-9)
        assert value == pytest.approx(0.880797, abs=1e-6)

    def test_ordering_preserved_in_tau(self, link):
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
        expected = np.random.default_rng(seed).random(g.n_edges) < dense(pm)[g.i, g.j]
        assert np.array_equal(sample_edge_outcomes(g, pm, seed=seed).y, expected)

    def test_size_mismatch(self):
        g = sample_er_graph(3, 1.0, seed=0)
        pm = ProbMatrix(n=2, upper=np.array([0.5]))
        with pytest.raises(ValueError):
            sample_edge_outcomes(g, pm)

    def test_edge_dataset_is_the_L_1_case(self):
        # L is a class constant, so no caller can build an edge dataset with another
        data = sample_edge_outcomes(sample_er_graph(3, 1.0, seed=0),
                                    ProbMatrix(n=3, upper=np.full(3, 0.5)), seed=0)
        assert data.L == 1
        assert "L" not in {f.name for f in dataclasses.fields(data)}


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
        gap = 0.3
        # at n=100, k=37 the block boundary falls inside one of tau's row blocks
        for n, k in [(20, 5), (100, 37)]:
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
