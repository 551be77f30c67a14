import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpranking.audit import (_MASK_BLOCK, MIN_EPSILON_SAMPLES,
                             AdjacentPair, CountTopKMechanism,
                             SensitivityReport, SensitivityViolation,
                             enumerate_adjacent, estimate_epsilon,
                             extremal_user_pair, replace_user, sensitivity_check,
                             user_replacement_pairs)
from dpranking.counts import noisy_counts, noisy_topk, win_counts
from dpranking.data import (ComparisonGraph, EdgeDataset, IndividualDataset,
                            ProbMatrix, pair_arrays, pair_count, rho_from_theta,
                            sample_edge_outcomes, sample_er_graph, sample_individual)
from dpranking.links import logistic_link

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
        g = ComparisonGraph(n=3, i=np.array([0]), j=np.array([1]))
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


def _reference_adjacent(data):
    """(kind, sorted (i, j, y) records) of every edge-neighbour, built from sets."""
    g = data.graph
    records = list(zip(g.i.tolist(), g.j.tolist(), data.y.tolist()))
    present = {(a, b) for a, b, _ in records}
    absent = [(a, b) for a in range(data.n) for b in range(a + 1, data.n)
              if (a, b) not in present]
    flips = [("edge-flip", sorted(set(records) - {(a, b, y)} | {(a, b, 1 - y)}))
             for a, b, y in records]
    swaps = [("edge-swap", sorted(set(records) - {rec} | {(a, b, out)}))
             for rec in records for a, b in absent for out in (0, 1)]
    return flips + swaps


def _listed(pairs):
    return [(p.adjacency_kind, list(zip(p.variant.graph.i.tolist(),
                                        p.variant.graph.j.tolist(),
                                        p.variant.y.tolist()))) for p in pairs]


class TestEnumerationOrder:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_full_budget_matches_set_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        g = sample_er_graph(n, float(rng.uniform(0.2, 1.0)), seed=rng)
        pm = ProbMatrix(n=n, upper=rng.random(pair_count(n)))
        data = sample_edge_outcomes(g, pm, seed=rng)
        edges = data.graph.n_edges
        full = edges + 2 * edges * (pair_count(n) - edges)
        pairs = enumerate_adjacent(data, budget=max(1, full), seed=rng)
        assert _listed(pairs) == _reference_adjacent(data)
        for p in pairs:
            assert p.base is data
            assert p.variant.graph.n == n
            assert p.variant.graph.i.dtype == p.variant.graph.j.dtype == np.int64
            assert p.variant.y.dtype == np.int8

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_generator_draws_only_to_sample_swaps(self, extra):
        # edges (0, 1), (0, 2), (1, 3) leave three pairs absent: 18 swaps
        g = ComparisonGraph(n=4, i=np.array([0, 0, 1]), j=np.array([1, 2, 3]))
        data = EdgeDataset(graph=g, y=np.array([1, 0, 1], dtype=np.int8))
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        pairs = enumerate_adjacent(data, budget=3 + extra, seed=rng)
        reference = _reference_adjacent(data)
        if extra == 1:
            (t,) = twin.choice(18, size=1, replace=False)
            assert _listed(pairs) == reference[:3] + [reference[3 + t]]
        else:
            assert _listed(pairs) == reference[:3 + extra]
        assert rng.random() == twin.random()


class TestUserReplacement:
    def test_replays_against_twin_generator(self):
        pm = ProbMatrix(n=5, upper=np.full(10, 0.5))
        data = sample_individual(5, 6, 3, pm, seed=8)
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        pairs = user_replacement_pairs(data, 7, seed=rng)
        iu, ju = pair_arrays(5)
        for p in pairs:
            user = int(twin.integers(0, data.m))
            idx = twin.integers(0, len(iu), size=data.L)
            y = (twin.random(data.L) < 0.5).astype(np.int8)
            s = data.user_slice(user)
            for field, new in (("i", iu[idx]), ("j", ju[idx]), ("y", y)):
                want = getattr(data, field).copy()
                want[s] = new
                assert np.array_equal(getattr(p.variant, field), want)
            assert p.base is data and p.adjacency_kind == "user-replacement"
        assert rng.random() == twin.random()

    def test_large_n_draws_without_the_pair_list(self):
        # pair_arrays(5000) alone would take about 200 MB
        pm = rho_from_theta(np.zeros(5000), logistic_link())
        data = sample_individual(5000, 4, 3, pm, seed=0)
        tracemalloc.start()
        try:
            pairs = user_replacement_pairs(data, 2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.all(pairs[0].variant.i < pairs[0].variant.j)

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_bundle_must_hold_L_records(self, field):
        data = sample_individual(4, 3, 2, ProbMatrix(n=4, upper=np.full(6, 0.5)), seed=0)
        records = [np.array([0, 0]), np.array([1, 2]), np.array([1, 0], dtype=np.int8)]
        records[field] = records[field][:1]
        with pytest.raises(ValueError, match="L=2"):
            replace_user(data, 1, tuple(records))


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
        # the bound comes from the dataset's L, so a misspelled kind is checked too
        for kind in ("user-replacement", "user_replacement"):
            forged = AdjacentPair(data([1, 1]), data([0, 0]), kind)
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

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match=f"k={k}"):
            CountTopKMechanism(k=k, epsilon=1.0, regime="edge")

    @pytest.mark.parametrize("k", [4, 5])
    def test_rejects_k_at_least_n(self, k):
        # with all n items picked every replay gives one output, so eps_hat would read 0
        mech = CountTopKMechanism(k=k, epsilon=1.0, regime="edge")
        with pytest.raises(ValueError, match=f"k={k}"):
            estimate_epsilon(mech, self._pair(), samples=100_000, seed=0)

    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    @pytest.mark.parametrize("regime", ["edge", "individual"])
    def test_replays_the_release(self, regime, epsilon):
        # the audit measures noisy_topk itself: one batch is S releases in turn
        data = (_edge_dataset(4, seed=5) if regime == "edge" else sample_individual(
            4, 30, 5, ProbMatrix(n=4, upper=np.full(6, 0.5)), seed=4))
        mech = CountTopKMechanism(k=2, epsilon=epsilon, regime=regime, L=data.L)
        masks = mech.output_masks(data, 50, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        releases = [noisy_topk(win_counts(data), 2, epsilon, regime, L=data.L, seed=rng)
                    for _ in range(50)]
        assert masks.tolist() == [sum(1 << int(t) for t in top) for top in releases]

    def test_variant_error_is_raised_and_the_thread_joined(self):
        # the variant's replay fails (k = 2 is not below its n = 2) while the base's runs
        pair = self._pair()
        small = _edge_dataset(2, seed=1)
        mech = CountTopKMechanism(k=2, epsilon=1.0, regime="edge")
        threads = threading.active_count()
        with pytest.raises(ValueError, match="k=2 must be below n=2"):
            estimate_epsilon(mech, AdjacentPair(pair.base, small, "edge-flip"),
                             MIN_EPSILON_SAMPLES, seed=0)
        assert threading.active_count() == threads

    def test_mask_encoding_limit(self):
        mech = CountTopKMechanism(k=1, epsilon=1.0, regime="edge")
        big = _edge_dataset(3)
        rng = np.random.default_rng(0)
        counts_ok = mech.output_masks(big, 10, rng)
        assert counts_ok.shape == (10,)



def _counted(counts):
    """An L = 1 dataset in which item t wins exactly ``counts[t]`` comparisons."""
    n = len(counts)
    winner = np.repeat(np.arange(n), counts)
    other = (winner + 1) % n
    i, j = np.minimum(winner, other), np.maximum(winner, other)
    return IndividualDataset(n=n, m=len(winner), L=1, i=i, j=j,
                             y=(winner == i).astype(np.int8))


def _argsort_masks(counts, k, epsilon, samples, rng):
    """Top-k bitmasks of each release by a stable argsort: ties to the lower index."""
    noisy = noisy_counts(np.broadcast_to(np.asarray(counts, dtype=float),
                                         (samples, len(counts))),
                         epsilon, "individual", 1, seed=rng)
    top = np.argsort(-noisy, axis=1, kind="stable")[:, :k].astype(np.int64)
    return np.bitwise_or.reduce(np.int64(1) << top, axis=1)


class TestOutputMasksMatchArgsort:
    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(0, 3), min_size=2, max_size=62),
           epsilon=st.sampled_from([math.inf, 0.5]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_tied_counts(self, counts, epsilon, seed, data):
        k = data.draw(st.integers(1, len(counts) - 1))
        ds = _counted(counts)
        assert win_counts(ds).tolist() == counts
        mech = CountTopKMechanism(k=k, epsilon=epsilon, regime="individual")
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        masks = mech.output_masks(ds, 40, rng)
        assert masks.dtype == np.int64
        assert masks.tolist() == _argsort_masks(counts, k, epsilon, 40, twin).tolist()
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("epsilon", [math.inf, 1.0])
    def test_across_replay_blocks(self, epsilon):
        # more releases than one block holds, with every count tied, then
        # untied; each block draws its own noise, and together they are one
        # (samples, n) draw that leaves the generator where it ends
        samples = 2 * _MASK_BLOCK + 3
        mech = CountTopKMechanism(k=3, epsilon=epsilon, regime="individual")
        for counts, noiseless in (([2] * 7, 0b111), ([0, 3, 1, 3, 2], 0b11010)):
            rng, twin = np.random.default_rng(5), np.random.default_rng(5)
            masks = mech.output_masks(_counted(counts), samples, rng)
            want = _argsort_masks(counts, 3, epsilon, samples, twin)
            assert np.array_equal(masks, want)
            assert rng.bit_generator.state == twin.bit_generator.state
            if math.isinf(epsilon):
                assert set(masks.tolist()) == {noiseless}

    def test_highest_bit_item(self):
        # n = 62 puts item 61 at bit 61, the last the encoding allows
        counts = [0] * 61 + [5]
        mech = CountTopKMechanism(k=1, epsilon=math.inf, regime="individual")
        masks = mech.output_masks(_counted(counts), 3, np.random.default_rng(0))
        assert masks.tolist() == [1 << 61] * 3


class TestReplayStreams:
    """Each side replays once, from its own child stream of the seed."""

    @staticmethod
    def _audits(regime, epsilon):
        if regime == "edge":
            data = _edge_dataset(4, seed=5)
            pairs = enumerate_adjacent(data, budget=2, seed=0)
            return CountTopKMechanism(k=2, epsilon=epsilon, regime="edge"), pairs
        data = sample_individual(4, 30, 5, ProbMatrix(n=4, upper=np.full(6, 0.5)), seed=4)
        pairs = [extremal_user_pair(data, 2), extremal_user_pair(data, 1)]
        return CountTopKMechanism(k=2, epsilon=epsilon, regime="individual", L=5), pairs

    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    @pytest.mark.parametrize("regime", ["edge", "individual"])
    def test_same_seed_same_estimate(self, regime, epsilon):
        mech, pairs = self._audits(regime, epsilon)
        rng, twin, seeded = (np.random.default_rng(11) for _ in range(3))
        for pair in pairs:
            assert (estimate_epsilon(mech, pair, MIN_EPSILON_SAMPLES, seed=rng)
                    == estimate_epsilon(mech, pair, MIN_EPSILON_SAMPLES, seed=twin))
            # the caller's generator only seeds the two children
            seeded.integers(2**63, size=4)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.bit_generator.state == seeded.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.SFC64, np.random.Philox])
    def test_each_side_replays_once_on_its_own_generator(self, monkeypatch, bit_generator):
        mech, (pair, _) = self._audits("edge", 1.0)
        rng = np.random.Generator(bit_generator(13))
        replays, output_masks = [], CountTopKMechanism.output_masks

        def recorded(self, data, samples, generator):
            replays.append((data, generator, threading.current_thread()))
            return output_masks(self, data, samples, generator)

        monkeypatch.setattr(CountTopKMechanism, "output_masks", recorded)
        estimate_epsilon(mech, pair, MIN_EPSILON_SAMPLES, seed=rng)
        sides = {id(data): (generator, thread) for data, generator, thread in replays}
        assert len(replays) == 2 and sides.keys() == {id(pair.base), id(pair.variant)}
        (base_rng, base_thread), (variant_rng, variant_thread) = (
            sides[id(pair.base)], sides[id(pair.variant)])
        assert base_rng is not variant_rng and rng not in (base_rng, variant_rng)
        # the variant replays on the worker thread, so an audit uses two cores
        assert base_thread is threading.current_thread() is not variant_thread


def _per_edit_adjacent(data, budget, rng):
    """The swap list, sampled, then applied one edit at a time: copy, set, lexsort."""
    g = data.graph
    flips = [(e, a, b, 1 - y) for e, (a, b, y) in
             enumerate(zip(g.i.tolist(), g.j.tolist(), data.y.tolist()))]
    swaps = []
    if budget > len(flips):
        present = set(zip(g.i.tolist(), g.j.tolist()))
        absent = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
                  if (a, b) not in present]
        swaps = [(e, a, b, out) for e in range(g.n_edges) for a, b in absent
                 for out in (0, 1)]
        if len(swaps) > budget - len(flips):
            idx = rng.choice(len(swaps), size=budget - len(flips), replace=False)
            swaps = [swaps[t] for t in sorted(idx.tolist())]
    out = []
    for kind, edits in (("edge-flip", flips[:budget]), ("edge-swap", swaps)):
        for e, a, b, y in edits:
            i, j, y_new = g.i.copy(), g.j.copy(), data.y.copy()
            i[e], j[e], y_new[e] = a, b, y
            order = np.lexsort((j, i))
            out.append((kind, i[order], j[order], y_new[order]))
    return out


class TestEnumerateMatchesPerEdit:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
           index_dtype=st.sampled_from([np.int64, np.int32]))
    def test_budgets(self, n, seed, index_dtype):
        rng = np.random.default_rng(seed)
        g = sample_er_graph(n, float(rng.uniform(0.2, 1.0)), seed=rng)
        g = ComparisonGraph(n=n, i=g.i.astype(index_dtype), j=g.j.astype(index_dtype))
        data = sample_edge_outcomes(g, ProbMatrix(n=n, upper=rng.random(pair_count(n))),
                                    seed=rng)
        edges = g.n_edges
        for budget in sorted({1, max(edges, 1), edges + 1, edges + 37, max(3 * edges, 1)}):
            ours, twin = np.random.default_rng(budget), np.random.default_rng(budget)
            pairs = enumerate_adjacent(data, budget, seed=ours)
            want = _per_edit_adjacent(data, budget, twin)
            assert [p.adjacency_kind for p in pairs] == [w[0] for w in want]
            for p, (_, i, j, y) in zip(pairs, want):
                for got, ref in zip((p.variant.graph.i, p.variant.graph.j, p.variant.y),
                                    (i, j, y)):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                assert p.base is data
            assert ours.random() == twin.random()

    def test_sampled_swaps_need_no_swap_list(self):
        # at n = 80 and p = 1/2 there are about 4.8M swaps; listing them as
        # tuples took about 456 MB, while the 1,566 datasets returned hold 41 MB
        rng = np.random.default_rng(0)
        data = sample_edge_outcomes(sample_er_graph(80, 0.5, seed=rng),
                                    ProbMatrix(n=80, upper=rng.random(pair_count(80))),
                                    seed=rng)
        budget = data.graph.n_edges + 10
        tracemalloc.start()
        try:
            pairs = enumerate_adjacent(data, budget, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == budget
        assert [p.adjacency_kind for p in pairs].count("edge-swap") == 10
        assert peak < 50_000_000


def _per_pair_sensitivity(pairs):
    """Each pair's counts compared in turn, raising at the first violation."""
    max_l1 = max_coord = 0.0
    for pair in pairs:
        delta = np.abs(win_counts(pair.base) - win_counts(pair.variant))
        l1, coord = float(delta.sum()), float(delta.max()) if len(delta) else 0.0
        max_l1, max_coord = max(max_l1, l1), max(max_coord, coord)
        L = pair.base.L
        if coord > L:
            raise SensitivityViolation(f"per-coordinate sensitivity {coord} > L={L}", pair)
        if l1 > 2 * L:
            raise SensitivityViolation(f"l1 sensitivity {l1} > 2L={2 * L}", pair)
    return SensitivityReport(max_l1=max_l1, per_coordinate_max=max_coord,
                             pairs_checked=len(pairs))


def _outcome(check, pairs):
    try:
        return check(pairs)
    except SensitivityViolation as exc:
        return str(exc), exc.pair


def _pair_pool(seed):
    """Edge and user-replacement pairs of several n and L, adjacent or forged."""
    rng = np.random.default_rng(seed)
    pool = []
    for n in (2, 3, 5):
        data = _edge_dataset(n, p=0.7, seed=int(rng.integers(1000)))
        pool += enumerate_adjacent(data, budget=4, seed=rng)
        # every outcome flipped: the counts move by up to n - 1 and 2E in l1
        flipped = EdgeDataset(graph=data.graph, y=(1 - data.y).astype(np.int8))
        pool.append(AdjacentPair(data, flipped, "edge-flip"))
    for n, L in ((3, 1), (4, 3), (6, 2)):
        data = sample_individual(n, 5, L, ProbMatrix(n=n, upper=rng.random(pair_count(n))),
                                 seed=rng)
        pool += user_replacement_pairs(data, 3, seed=rng)
        pool.append(extremal_user_pair(data, 1))
        # two users replaced: within L per item, up to 4L in l1
        twice = user_replacement_pairs(user_replacement_pairs(data, 1, seed=rng)[0].variant,
                                       1, seed=rng)[0].variant
        pool.append(AdjacentPair(data, twice, "user-replacement"))
    itemless = EdgeDataset(graph=ComparisonGraph(n=0, i=np.zeros(0, dtype=np.int64),
                                                 j=np.zeros(0, dtype=np.int64)),
                           y=np.zeros(0, dtype=np.int8))
    pool.append(AdjacentPair(itemless, itemless, "edge-flip"))
    return pool


class TestSensitivityMatchesPerPair:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_mixed_pairs(self, seed, data):
        pool = _pair_pool(seed)
        pairs = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        assert _outcome(sensitivity_check, pairs) == _outcome(_per_pair_sensitivity, pairs)

    def test_empty_list(self):
        assert sensitivity_check([]) == SensitivityReport(0.0, 0.0, 0)

    @pytest.mark.parametrize("n", [0, 3])
    def test_datasets_without_records(self, n):
        none = np.zeros(0, dtype=np.int64)
        data = EdgeDataset(graph=ComparisonGraph(n=n, i=none, j=none),
                           y=np.zeros(0, dtype=np.int8))
        pairs = [AdjacentPair(data, data, "edge-flip")] * 2
        assert sensitivity_check(pairs) == SensitivityReport(0.0, 0.0, 2)

    def test_first_violation_is_reported(self):
        ok = enumerate_adjacent(_edge_dataset(4), budget=1, seed=0)[0]
        # l1 = 4 > 2 while each count moves by 1: edges (0, 1) and (2, 3) flipped
        g = ComparisonGraph(n=4, i=np.array([0, 2]), j=np.array([1, 3]))
        wide = AdjacentPair(EdgeDataset(g, np.array([1, 1], dtype=np.int8)),
                            EdgeDataset(g, np.array([0, 0], dtype=np.int8)), "edge-flip")
        # item 0 loses both its wins, more than L = 1
        g3 = ComparisonGraph(n=3, i=np.array([0, 0]), j=np.array([1, 2]))
        tall = AdjacentPair(EdgeDataset(g3, np.array([1, 1], dtype=np.int8)),
                            EdgeDataset(g3, np.array([0, 0], dtype=np.int8)), "edge-flip")
        for pairs, message, culprit in (
                ([ok, wide, tall], "l1 sensitivity 4.0 > 2L=2", wide),
                ([ok, tall, wide], "per-coordinate sensitivity 2.0 > L=1", tall)):
            with pytest.raises(SensitivityViolation) as info:
                sensitivity_check(pairs)
            assert str(info.value) == message and info.value.pair is culprit

    @pytest.mark.parametrize("y", [[1, 2, 0], [1, -1, 0], [0.5, 1.0, 0.0]])
    def test_outcomes_other_than_zero_or_one_refused(self, y):
        # a win for i is y = 1 only: y = 2 would silently read as a loss
        data = _edge_dataset(3)
        bad = EdgeDataset(graph=data.graph, y=np.array(y))
        for pair in (AdjacentPair(data, bad, "edge-flip"), AdjacentPair(bad, data, "edge-flip")):
            with pytest.raises(ValueError, match="^outcomes must be 0 or 1$"):
                sensitivity_check([pair])

    def test_datasets_must_share_n(self):
        pair = AdjacentPair(_edge_dataset(3), _edge_dataset(4), "edge-flip")
        with pytest.raises(ValueError, match="same n"):
            sensitivity_check([pair])
