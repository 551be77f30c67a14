from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpranking.data import (IndividualDataset, ProbMatrix, sample_edge_outcomes,
                            sample_er_graph, sample_individual)
from dpranking.likelihood import (ObjectiveSpec, aggregate, grad, hessian, nll,
                                  objective, smoothness)
from dpranking.links import logistic_link

LINK = logistic_link()


def _random_edge_spec(rng, n=6, gamma=0.0, with_w=False):
    g = sample_er_graph(n, 1.0, seed=rng)
    pm = ProbMatrix(n=n, upper=rng.random(len(g.i)))
    data = sample_edge_outcomes(g, pm, seed=rng)
    w = rng.normal(size=n) if with_w else None
    return ObjectiveSpec.from_edge(data, LINK, gamma=gamma, w=w)


def fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for t in range(len(x)):
        e = np.zeros_like(x)
        e[t] = h
        g[t] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


class TestAggregate:
    def test_direct_count(self):
        data = IndividualDataset(n=3, m=1, L=2,
                                 i=np.array([0, 0]), j=np.array([1, 1]),
                                 y=np.array([1, 0], dtype=np.int8))
        i, j, M, ybar = aggregate(data)
        assert (i.tolist(), j.tolist()) == ([0], [1])
        assert M.tolist() == [2.0]
        assert ybar.tolist() == [0.5]

    def test_conservation(self):
        pm = ProbMatrix(n=4, upper=np.full(6, 0.5))
        data = sample_individual(4, 2, 3, pm, seed=0)
        _, _, M, ybar = aggregate(data)
        assert M.sum() == 6.0
        assert np.sum(M * ybar) == data.y.sum()

    def test_unobserved_pairs_skipped(self):
        data = IndividualDataset(n=4, m=1, L=1, i=np.array([0]),
                                 j=np.array([1]), y=np.array([1], dtype=np.int8))
        _, _, M, _ = aggregate(data)
        assert len(M) == 1


def _aggregate_by_unique(data):
    """The reference aggregation: np.unique over pair keys, then bincounts."""
    key = data.i.astype(np.int64) * data.n + data.j
    uniq, inv = np.unique(key, return_inverse=True)
    M = np.bincount(inv, minlength=len(uniq)).astype(float)
    wins = np.bincount(inv, weights=data.y.astype(float), minlength=len(uniq))
    i, j = np.divmod(uniq, data.n)
    return i, j, M, wins / M


@st.composite
def _records(draw):
    """Records over few distinct pairs, so pairs repeat with both outcomes."""
    # 2 n^2 passes the int32 range from n = 32768 on
    n = draw(st.sampled_from([2, 3, 7, 40, 3000, 40000]))
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 400))
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n - 1, size=draw(st.integers(1, 12)))
    j = i + 1 + rng.integers(0, n - 1 - i)
    pick = rng.integers(0, len(i), size=count)
    y = rng.integers(0, 2, size=count).astype(draw(st.sampled_from([np.int8, np.int64])))
    return IndividualDataset(n=n, m=count, L=1, i=i[pick], j=j[pick], y=y)


class TestAggregateMatchesUnique:
    @settings(max_examples=80, deadline=None)
    @given(data=_records())
    def test_bit_identical(self, data):
        for ours, reference in zip(aggregate(data), _aggregate_by_unique(data)):
            assert ours.dtype == reference.dtype
            assert ours.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n, pair, y", [(2, (0, 1), 1), (2, (0, 1), 0),
                                            (3000, (2998, 2999), 1), (3000, (0, 2999), 0)])
    def test_single_record(self, n, pair, y):
        data = IndividualDataset(n=n, m=1, L=1, i=np.array([pair[0]]),
                                 j=np.array([pair[1]]), y=np.array([y], dtype=np.int8))
        i, j, M, ybar = aggregate(data)
        assert (i.tolist(), j.tolist(), M.tolist(), ybar.tolist()) == (
            [pair[0]], [pair[1]], [1.0], [float(y)])

    def test_outcome_two_is_rejected(self):
        data = IndividualDataset(n=3, m=2, L=1, i=np.array([0, 1]), j=np.array([1, 2]),
                                 y=np.array([1, 2], dtype=np.int8))
        with pytest.raises(ValueError, match="^outcomes must be 0 or 1$"):
            aggregate(data)


class TestNll:
    def test_single_edge_at_zero(self):
        data = sample_edge_outcomes(sample_er_graph(2, 1.0, seed=0),
                                    ProbMatrix(n=2, upper=np.array([1.0])), seed=0)
        spec = ObjectiveSpec.from_edge(data, LINK)
        assert nll(np.zeros(2), spec) == pytest.approx(np.log(2), abs=1e-12)

    def test_aggregated_at_zero(self):
        spec = ObjectiveSpec(n=2, i=np.array([0]), j=np.array([1]),
                             M=np.array([4.0]), ybar=np.array([0.75]), link=LINK)
        assert nll(np.zeros(2), spec) == pytest.approx(4 * np.log(2), abs=1e-12)

    def test_aggregated_equals_raw_records(self):
        rng = np.random.default_rng(7)
        pm = ProbMatrix(n=5, upper=rng.random(10))
        data = sample_individual(5, 6, 4, pm, seed=rng)
        agg_spec = ObjectiveSpec.from_individual(data, LINK)
        # a spec holds its pairs sorted by i; the stable sort keeps each
        # item's records in draw order
        order = np.argsort(data.i, kind="stable")
        raw_spec = ObjectiveSpec(n=5, i=data.i[order], j=data.j[order],
                                 M=np.ones(len(data.i)),
                                 ybar=data.y[order].astype(float), link=LINK)
        theta = rng.normal(size=5)
        assert nll(theta, agg_spec) == pytest.approx(nll(theta, raw_spec), abs=1e-10)

    def test_stable_at_extreme_scores(self):
        data = sample_edge_outcomes(sample_er_graph(2, 1.0, seed=0),
                                    ProbMatrix(n=2, upper=np.array([1.0])), seed=0)
        spec = ObjectiveSpec.from_edge(data, LINK)
        assert np.isfinite(nll(np.array([40.0, -40.0]), spec))
        assert np.isfinite(nll(np.array([-200.0, 200.0]), spec))


class TestGrad:
    def test_single_edge_closed_form(self):
        data = sample_edge_outcomes(sample_er_graph(2, 1.0, seed=0),
                                    ProbMatrix(n=2, upper=np.array([1.0])), seed=0)
        spec = ObjectiveSpec.from_edge(data, LINK)
        g = grad(np.zeros(2), spec)
        assert np.allclose(g, [-0.5, 0.5], atol=1e-12)

    def test_entries_sum_to_zero_without_ridge(self):
        rng = np.random.default_rng(3)
        spec = _random_edge_spec(rng)
        g = grad(rng.normal(size=spec.n), spec)
        assert abs(g.sum()) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 5.0])
    def test_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec = _random_edge_spec(rng, n=10, gamma=gamma, with_w=True)
            theta = rng.uniform(-1, 1, size=10)
            g = grad(theta, spec)
            fd = fd_grad(lambda t: objective(t, spec), theta)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("theta", [(400.0, -400.0), (-400.0, 400.0)])
    def test_finite_at_extreme_scores(self, theta):
        # one edge won by item 0: the gradient is (F(t) - 1) * (1, -1) with
        # t = theta_0 - theta_1, which is 0 at t = 800 and -1 at t = -800
        data = sample_edge_outcomes(sample_er_graph(2, 1.0, seed=0),
                                    ProbMatrix(n=2, upper=np.array([1.0])), seed=0)
        spec = ObjectiveSpec.from_edge(data, LINK)
        theta = np.array(theta)
        expected = (float(LINK.eval(theta[0] - theta[1])) - 1.0) * np.array([1.0, -1.0])
        assert np.array_equal(grad(theta, spec), expected)


def _bincount_grad(theta, spec):
    # the scatter-on-both-sides gradient the segment sum replaced
    t = theta[spec.i] - theta[spec.j]
    coef = spec.M * (spec.link.eval(t) - spec.ybar)
    return (np.bincount(spec.i, weights=coef, minlength=spec.n)
            - np.bincount(spec.j, weights=coef, minlength=spec.n)
            + spec.gamma * theta + (0.0 if spec.w is None else spec.w))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 30), form=st.sampled_from(["edge", "individual", "raw", "edgeless"]),
       gamma=st.sampled_from([0.0, 0.5, 12.0]), with_w=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_grad_matches_bincount_formula(n, form, gamma, with_w, seed):
    rng = np.random.default_rng(seed)
    pm = ProbMatrix(n=n, upper=rng.random(n * (n - 1) // 2))
    w = rng.laplace(scale=3.0, size=n) if with_w else None
    if form == "edge":
        data = sample_edge_outcomes(sample_er_graph(n, rng.uniform(0.05, 1.0), seed=rng),
                                    pm, seed=rng)
        spec = ObjectiveSpec.from_edge(data, LINK, gamma=gamma, w=w)
    elif form == "edgeless":
        empty = np.array([], dtype=np.int64)
        spec = ObjectiveSpec(n=n, i=empty, j=empty, M=np.array([]), ybar=np.array([]),
                             link=LINK, gamma=gamma, w=w)
    else:
        data = sample_individual(n, int(rng.integers(1, 40)), int(rng.integers(1, 4)),
                                 pm, seed=rng)
        if form == "individual":
            spec = ObjectiveSpec.from_individual(data, LINK, gamma=gamma, w=w)
        else:
            # one pair per record, repeats included
            order = np.argsort(data.i, kind="stable")
            spec = ObjectiveSpec(n=n, i=data.i[order], j=data.j[order],
                                 M=np.ones(len(order)), ybar=data.y[order].astype(float),
                                 link=LINK, gamma=gamma, w=w)
    theta = rng.uniform(-6, 6, size=n)
    g, ref = grad(theta, spec), _bincount_grad(theta, spec)
    assert np.max(np.abs(g - ref)) <= 1e-12 * max(1.0, np.max(np.abs(g)))


def test_rejects_pairs_not_sorted_by_i():
    with pytest.raises(ValueError, match="sorted by i"):
        ObjectiveSpec(n=3, i=np.array([0, 1, 0]), j=np.array([1, 2, 2]),
                      M=np.ones(3), ybar=np.full(3, 0.5), link=LINK)


@pytest.mark.parametrize("ybar", [-1.0, 1.5, np.nan])
def test_rejects_ybar_outside_unit_interval(ybar):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        ObjectiveSpec(n=3, i=np.array([0, 1]), j=np.array([1, 2]), M=np.ones(2),
                      ybar=np.array([0.5, ybar]), link=LINK)


def test_one_link_pass_per_evaluation():
    calls = []

    def counted(fn):
        def wrapper(x):
            calls.append(np.size(x))
            return fn(x)
        return wrapper

    link = replace(LINK, eval=counted(LINK.eval), deriv=counted(LINK.deriv),
                   neg_log_second=counted(LINK.neg_log_second),
                   log_eval=counted(LINK.log_eval))
    rng = np.random.default_rng(23)
    base = _random_edge_spec(rng, gamma=1.0, with_w=True)
    spec = replace(base, link=link)
    theta = rng.normal(size=spec.n)
    for fn in (nll, objective, grad, hessian):
        calls.clear()
        fn(theta, spec)
        assert calls == [len(spec.i)], fn.__name__


def test_rejects_non_logistic_link():
    with pytest.raises(ValueError, match="logistic"):
        ObjectiveSpec(n=2, i=np.array([0]), j=np.array([1]), M=np.array([1.0]),
                      ybar=np.array([1.0]), link=replace(LINK, name="probit"))


class TestHessian:
    def test_single_edge_at_zero(self):
        data = sample_edge_outcomes(sample_er_graph(2, 1.0, seed=0),
                                    ProbMatrix(n=2, upper=np.array([1.0])), seed=0)
        spec = ObjectiveSpec.from_edge(data, LINK)
        H = hessian(np.zeros(2), spec)
        assert np.allclose(H, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_positive_definite_with_ridge(self):
        rng = np.random.default_rng(13)
        spec = _random_edge_spec(rng, gamma=0.5)
        H = hessian(rng.normal(size=spec.n), spec)
        assert np.allclose(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) > 0.4

    def test_matches_finite_differences_of_grad(self):
        rng = np.random.default_rng(17)
        spec = _random_edge_spec(rng, n=8, gamma=2.0, with_w=True)
        theta = rng.uniform(-1, 1, size=8)
        H = hessian(theta, spec)
        fd = np.column_stack([fd_grad(lambda t: grad(t, spec)[r], theta)
                              for r in range(8)])
        assert np.allclose(H, fd, rtol=1e-4, atol=1e-6)

    def test_size_limit(self):
        spec = ObjectiveSpec(n=3000, i=np.array([0]), j=np.array([1]),
                             M=np.array([1.0]), ybar=np.array([1.0]), link=LINK)
        with pytest.raises(ValueError, match="dense Hessian"):
            hessian(np.zeros(3000), spec)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 25), individual=st.booleans(),
       gamma=st.sampled_from([0.0, 0.5, 5.0]), at_zero=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_smoothness_bounds_hessian(n, individual, gamma, at_zero, seed):
    # the solver's fixed step 1/L is safe only if L bounds the curvature everywhere
    rng = np.random.default_rng(seed)
    pm = ProbMatrix(n=n, upper=rng.random(n * (n - 1) // 2))
    if individual:
        data = sample_individual(n, int(rng.integers(1, 26)), int(rng.integers(1, 3)),
                                 pm, seed=rng)
        spec = ObjectiveSpec.from_individual(data, LINK, gamma=gamma)
    else:
        data = sample_edge_outcomes(sample_er_graph(n, rng.uniform(0.1, 1.0), seed=rng),
                                    pm, seed=rng)
        spec = ObjectiveSpec.from_edge(data, LINK, gamma=gamma)
    theta = np.zeros(n) if at_zero else rng.uniform(-5, 5, size=n)
    L = smoothness(spec)
    assert L >= np.linalg.eigvalsh(hessian(theta, spec))[-1] - 1e-9 * L


@pytest.mark.parametrize("n", [2, 3, 10, 57])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 12.0])
@pytest.mark.parametrize("c", [None, 1.0, 7.0])
def test_smoothness_tight_on_complete_graph(n, gamma, c):
    # on K_n with uniform M the Laplacian bound is exact at theta = 0, where every
    # pair's curvature is 1/4; c=None is the edge form (M = 1 from the dataset)
    rng = np.random.default_rng(n)
    g = sample_er_graph(n, 1.0, seed=rng)
    if c is None:
        data = sample_edge_outcomes(g, ProbMatrix(n=n, upper=rng.random(len(g.i))),
                                    seed=rng)
        spec = ObjectiveSpec.from_edge(data, LINK, gamma=gamma)
    else:
        spec = ObjectiveSpec(n=n, i=g.i, j=g.j, M=np.full(len(g.i), c),
                             ybar=rng.random(len(g.i)), link=LINK, gamma=gamma)
    lam_max = np.linalg.eigvalsh(hessian(np.zeros(n), spec))[-1]
    assert smoothness(spec) == pytest.approx(lam_max, rel=1e-12)


def test_smoothness_of_edgeless_spec_is_gamma():
    spec = ObjectiveSpec(n=4, i=np.array([], dtype=int), j=np.array([], dtype=int),
                         M=np.array([]), ybar=np.array([]), link=LINK, gamma=3.0)
    assert smoothness(spec) == 3.0


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5), st.integers(0, 2**32 - 1))
def test_translation_invariance(shift, seed):
    rng = np.random.default_rng(seed)
    spec = _random_edge_spec(rng, n=5)
    theta = rng.normal(size=5)
    assert nll(theta + shift, spec) == pytest.approx(nll(theta, spec), rel=1e-9, abs=1e-9)


def test_strong_convexity_gap():
    rng = np.random.default_rng(19)
    gamma = 3.0
    spec = _random_edge_spec(rng, gamma=gamma, with_w=True)
    for _ in range(20):
        t1, t2 = rng.normal(size=(2, spec.n))
        gap = (objective(t2, spec) - objective(t1, spec)
               - grad(t1, spec) @ (t2 - t1))
        assert gap >= 0.5 * gamma * np.sum((t2 - t1) ** 2) - 1e-9
