import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpranking.counts import win_counts
from dpranking.data import (ComparisonGraph, EdgeDataset, IndividualDataset, ProbMatrix,
                            generate_theta, rho_from_theta, sample_edge_outcomes,
                            sample_er_graph, sample_individual)
from dpranking.likelihood import ObjectiveSpec, grad, smoothness
from dpranking.links import expit, logistic_link
from dpranking.mle import (PrivacyCalibration, calibrate_edge,
                           calibrate_individual, default_solver_config,
                           estimate, estimate_batch, estimate_full, rank_from_scores)
from dpranking import solver
from dpranking.solver import ConvergenceError, SolverConfig, minimize

LINK = logistic_link()


class TestCalibrateEdge:
    def test_paper_scale_example(self):
        calib = calibrate_edge(1.0, 300, 1.0, LINK)
        assert not calib.utility_guarantee_applies
        assert calib.lam == 8.0
        assert calib.gamma == pytest.approx(228.0)
        assert calib.floor_binding

    def test_nonprivate_sentinel(self):
        from dpranking.mle import DEFAULT_C0
        calib = calibrate_edge(math.inf, 100, 0.5, LINK)
        assert calib.lam == 0.0
        assert calib.gamma == pytest.approx(
            DEFAULT_C0 * math.sqrt(100 * 0.5 * math.log(100)))
        assert not calib.floor_binding

    def test_default_c0_scales_utility_term(self):
        from dpranking.mle import DEFAULT_C0
        calib = calibrate_edge(math.inf, 300, 1.0, LINK)
        assert calib.gamma == pytest.approx(
            DEFAULT_C0 * math.sqrt(300 * math.log(300)))

    def test_half_epsilon_lambda(self):
        calib = calibrate_edge(0.5, 50, 1.0, LINK)
        assert not calib.utility_guarantee_applies
        assert calib.lam == 16.0

    def test_hypothesis_floors_always_hold(self):
        for eps in (0.5, 1.0, 2.5, 100.0):
            calib = calibrate_edge(eps, 300, 0.5, LINK)
            assert calib.lam >= 8 * LINK.kappa1 / eps
            assert calib.gamma >= 4 * LINK.kappa2 / eps

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            calibrate_edge(0.0, 10, 1.0, LINK)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            calibrate_edge(math.nan, 10, 1.0, LINK)


class TestCalibrateIndividual:
    def test_lambda_formula(self):
        calib = calibrate_individual(1.0, 16, 1000, 5, LINK)
        assert calib.lam == 40.0

    def test_gamma_branches(self):
        calib = calibrate_individual(1.0, 16, 1000, 5, LINK)
        assert calib.gamma == pytest.approx(2280.0)
        assert calib.floor_binding
        utility = math.sqrt((2 * 1000 * 5 / 16) * math.log(16))
        assert utility == pytest.approx(41.63, abs=0.01)

    def test_nonprivate_sentinel(self):
        calib = calibrate_individual(math.inf, 16, 1000, 5, LINK)
        assert calib.lam == 0.0
        assert not calib.floor_binding

    def test_L_one_matches_edge_lambda(self):
        assert calibrate_individual(2.0, 10, 5, 1, LINK).lam == \
            calibrate_edge(2.0, 10, 1.0, LINK).lam

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            calibrate_individual(-1.0, 10, 5, 1, LINK)
        with pytest.raises(ValueError):
            calibrate_individual(1.0, 10, 5, 0, LINK)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            calibrate_individual(math.nan, 10, 5, 1, LINK)


class TestCalibrationInvariants:
    def test_constructor_rejects_violations(self):
        with pytest.raises(ValueError):
            PrivacyCalibration(epsilon=1.0, lam=-1.0, gamma=1.0, regime="edge")
        with pytest.raises(ValueError):
            PrivacyCalibration(epsilon=1.0, lam=0.0, gamma=0.0, regime="edge")
        with pytest.raises(ValueError):
            PrivacyCalibration(epsilon=1.0, lam=0.0, gamma=1.0, regime="both")

    @pytest.mark.parametrize("field", ["epsilon", "gamma"])
    def test_constructor_rejects_nan(self, field):
        with pytest.raises(ValueError):
            PrivacyCalibration(**{"epsilon": 1.0, "lam": 0.0, "gamma": 1.0,
                                  "regime": "edge", field: math.nan})


class TestUtilityGuarantee:
    # the grid crosses lambda = sqrt(log n) at epsilon = 4: 2 <= sqrt(log 300) = 2.39
    # while 2 > sqrt(log 50) = 1.98
    EPSILONS = (0.5, 1.0, 2.5, 4.0, math.inf)
    SIZES = (2, 10, 50, 300)

    def test_edge_field_follows_noise_scale(self):
        seen = set()
        for eps in self.EPSILONS:
            for n in self.SIZES:
                calib = calibrate_edge(eps, n, 1.0, LINK)
                expected = n < 2 or calib.lam <= math.sqrt(math.log(n))
                assert calib.utility_guarantee_applies == expected, (eps, n)
                seen.add(expected)
        assert seen == {True, False}

    def test_individual_field_is_always_true(self):
        for eps in self.EPSILONS:
            for n in self.SIZES:
                assert calibrate_individual(eps, n, 40, 5, LINK).utility_guarantee_applies

    def test_calibration_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eps in self.EPSILONS:
                calibrate_edge(eps, 300, 1.0, LINK)
                calibrate_individual(eps, 16, 1000, 5, LINK)


def _single_edge_dataset():
    g = sample_er_graph(2, 1.0, seed=0)
    pm = ProbMatrix(n=2, upper=np.array([1.0]))
    return sample_edge_outcomes(g, pm, seed=0)


def _bisect(fun, lo, hi, tol=1e-12):
    flo = fun(lo)
    assert flo * fun(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * fun(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = fun(lo)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def dense_800():
    """A criterion-08-sized edge dataset: n = 800, p = 1."""
    rng = np.random.default_rng(800)
    theta_star = generate_theta(800, 200, seed=rng, top_inclusive=True)
    return sample_edge_outcomes(sample_er_graph(800, 1.0, seed=rng),
                                rho_from_theta(theta_star, LINK), seed=rng)


class TestEstimate:
    def test_single_edge_closed_form(self):
        # stationarity of the ridge objective at theta = (t, -t):
        # F(2t) - 1 + gamma * t = 0 with gamma = 1
        data = _single_edge_dataset()
        calib = PrivacyCalibration(epsilon=math.inf, lam=0.0, gamma=1.0,
                                   regime="edge")
        theta = estimate(data, calib, LINK, seed=0)
        root = _bisect(lambda t: t + float(LINK.eval(2 * t)) - 1.0, 0.0, 1.0)
        assert theta[0] == pytest.approx(root, abs=1e-6)
        assert theta[1] == pytest.approx(-root, abs=1e-6)

    def test_noiseless_is_seed_independent(self):
        rng = np.random.default_rng(5)
        pm = ProbMatrix(n=8, upper=rng.random(28))
        data = sample_edge_outcomes(sample_er_graph(8, 1.0, seed=1), pm, seed=2)
        calib = calibrate_edge(math.inf, 8, 1.0, LINK)
        t1 = estimate(data, calib, LINK, seed=123)
        t2 = estimate(data, calib, LINK, seed=456)
        assert np.max(np.abs(t1 - t2)) <= 1e-8

    def test_symmetric_data_gives_zero(self):
        spec = ObjectiveSpec(n=3, i=np.array([0, 0, 1]), j=np.array([1, 2, 2]),
                             M=np.array([2.0, 2.0, 2.0]),
                             ybar=np.array([0.5, 0.5, 0.5]), link=LINK,
                             gamma=1.0, w=np.zeros(3))
        cfg = default_solver_config(1.0)
        theta, info = minimize(lambda t: grad(t[0], spec)[None], np.zeros((1, 3)),
                               1.0 / smoothness(spec), spec.gamma, cfg)
        assert np.max(np.abs(theta)) <= cfg.tol

    def test_solve_uses_gradient_only(self, monkeypatch):
        import dpranking.mle as mle_module
        log_evals, grads = [], []

        def counted_log_eval(t):
            log_evals.append(np.size(t))
            return LINK.log_eval(t)

        def counted_grad(theta, spec):
            grads.append(1)
            return grad(theta, spec)

        monkeypatch.setattr(mle_module, "grad", counted_grad)
        link = replace(LINK, log_eval=counted_log_eval)
        rng = np.random.default_rng(21)
        pm = ProbMatrix(n=10, upper=rng.random(45))
        data = sample_edge_outcomes(sample_er_graph(10, 1.0, seed=3), pm, seed=4)
        calib = calibrate_edge(math.inf, 10, 1.0, LINK)
        _, info = estimate_full(data, calib, link, seed=0)
        assert info.converged and info.iterations > 0
        assert log_evals == []
        assert len(grads) == info.iterations + 1

    def test_dense_nonprivate_solve_iteration_count(self):
        # criterion-08-sized trial: the step 1/L with L from the complete graph's
        # spectrum converges in 16 iterations here; Gershgorin's L takes 46
        rng = np.random.default_rng(808)
        theta_star = generate_theta(800, 200, seed=rng, top_inclusive=True)
        data = sample_edge_outcomes(sample_er_graph(800, 1.0, seed=rng),
                                    rho_from_theta(theta_star, LINK), seed=rng)
        calib = calibrate_edge(math.inf, 800, 1.0, LINK)
        _, info = estimate_full(data, calib, LINK, seed=0)
        assert info.converged and info.iterations <= 20

    def test_dense_nonprivate_gradient_budget(self, dense_800):
        # a fixed 1/L step takes 16-17 gradients on this shape
        calib = calibrate_edge(math.inf, 800, 1.0, LINK)
        _, info = estimate_full(dense_800, calib, LINK, seed=0)
        assert info.converged and info.iterations + 1 <= 12

    def test_spend_epsilon_calibration_gradient_budget(self, dense_800):
        # lambda = 4.4 L/eps and a gamma floor of 5 L/eps at eps = 1 leave gamma
        # = 7.31 far below L ~ 207; a fixed 1/L step takes ~440 gradients here
        calib = PrivacyCalibration(epsilon=1.0, lam=4.4, gamma=7.31, regime="edge")
        _, info = estimate_full(dense_800, calib, LINK, seed=1)
        assert info.converged and info.iterations + 1 <= 20

    def test_sparse_nonprivate_gradient_budget(self):
        # p = 2 ln n/n at n = 5000; a fixed 1/L step takes 129-178 gradients
        n = 5000
        p = 2.0 * math.log(n) / n
        rng = np.random.default_rng(5000)
        theta_star = generate_theta(n, n // 4, seed=rng, top_inclusive=True)
        data = sample_edge_outcomes(sample_er_graph(n, p, seed=rng),
                                    rho_from_theta(theta_star, LINK), seed=rng)
        _, info = estimate_full(data, calibrate_edge(math.inf, n, p, LINK), LINK, seed=0)
        assert info.converged and info.iterations + 1 <= 40

    def test_edgeless_graph_gives_minus_w_over_gamma(self):
        # a sparse draw can keep no pair; the objective is then the ridge plus w.theta
        data = EdgeDataset(graph=ComparisonGraph(n=3, i=np.array([], dtype=np.int64),
                                                 j=np.array([], dtype=np.int64)),
                           y=np.array([], dtype=np.int8))
        calib = PrivacyCalibration(epsilon=1.0, lam=2.0, gamma=4.0, regime="edge")
        theta, info = estimate_full(data, calib, LINK, seed=3)
        w = np.random.default_rng(3).laplace(scale=2.0, size=3)
        assert info.converged
        assert np.allclose(theta, -w / 4.0, atol=1e-7)

    def test_itemless_dataset_gives_empty_estimate(self):
        empty = np.array([], dtype=np.int64)
        data = EdgeDataset(graph=ComparisonGraph(n=0, i=empty, j=empty),
                           y=np.array([], dtype=np.int8))
        calib = PrivacyCalibration(epsilon=1.0, lam=2.0, gamma=4.0, regime="edge")
        theta, info = estimate_full(data, calib, LINK, seed=0)
        assert theta.shape == (0,) and info.converged and info.iterations == 0

    def test_stationarity_posthoc(self):
        rng = np.random.default_rng(9)
        pm = ProbMatrix(n=10, upper=rng.random(45))
        data = sample_edge_outcomes(sample_er_graph(10, 1.0, seed=3), pm, seed=4)
        calib = calibrate_edge(1.0, 10, 1.0, LINK)
        assert not calib.utility_guarantee_applies
        theta, info = estimate_full(data, calib, LINK, seed=7)
        assert info.converged
        assert info.grad_sup_norm <= default_solver_config(calib.gamma).tol

    def test_individual_regime(self):
        rng = np.random.default_rng(11)
        pm = ProbMatrix(n=5, upper=rng.random(10))
        data = sample_individual(5, 40, 3, pm, seed=5)
        calib = calibrate_individual(1.0, 5, 40, 3, LINK)
        theta = estimate(data, calib, LINK, seed=0)
        assert theta.shape == (5,)

    def test_regime_mismatch(self):
        data = _single_edge_dataset()
        calib = calibrate_individual(1.0, 2, 5, 1, LINK)
        with pytest.raises(ValueError, match="calibration"):
            estimate(data, calib, LINK)

    def test_individual_L_mismatch(self):
        data = sample_individual(4, 6, 3, ProbMatrix(n=4, upper=np.full(6, 0.5)), seed=0)
        calib = calibrate_individual(1.0, 4, 6, 2, LINK)
        with pytest.raises(ValueError, match="L=2 does not fit IndividualDataset with L=3"):
            estimate_full(data, calib, LINK, seed=0)

    def test_rejects_outcomes_outside_zero_one(self):
        # a +-1 encoding would count as many wins as 0/1, but its ybar of -1
        # would move the MLE and break the |F(t) - ybar| <= 1 that lambda assumes
        i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
        plus_minus = IndividualDataset(n=3, m=3, L=1, i=i, j=j, y=np.array([1, -1, -1]))
        for read in (win_counts, lambda data: estimate_full(
                data, calibrate_individual(math.inf, 3, 3, 1, LINK), LINK, seed=0)):
            with pytest.raises(ValueError, match="^outcomes must be 0 or 1$"):
                read(plus_minus)
        # an edge dataset skips the aggregation but not the record check: a
        # fractional y = 0.5 keeps ybar inside [0, 1], and y = 2 does not
        for y in ([1, 0.5, 0], [1, 2, 0]):
            edge = EdgeDataset(graph=ComparisonGraph(n=3, i=i, j=j), y=np.array(y))
            with pytest.raises(ValueError, match="^outcomes must be 0 or 1$"):
                estimate_full(edge, calibrate_edge(math.inf, 3, 1.0, LINK), LINK, seed=0)

    def test_rejects_mixed_plus_minus_outcomes(self):
        # y = (1, 1, -1) keeps ybar = 1/3 inside [0, 1], so only a record check
        # stops the estimate from being flipped: (-0.313, 0.313) for (0.313, -0.313)
        pm = IndividualDataset(n=2, m=3, L=1, i=np.zeros(3, dtype=np.int64),
                               j=np.ones(3, dtype=np.int64), y=np.array([1, 1, -1]))
        calib = calibrate_individual(math.inf, 2, 3, 1, LINK)
        theta = estimate_full(replace(pm, y=np.array([1, 1, 0])), calib, LINK, seed=0)[0]
        assert theta.tolist() == pytest.approx([0.313, -0.313], abs=1e-3)
        for read in (win_counts, lambda data: estimate_full(data, calib, LINK, seed=0)):
            with pytest.raises(ValueError, match="^outcomes must be 0 or 1$"):
                read(pm)

    def test_perturbation_reproducible(self):
        data = _single_edge_dataset()
        calib = calibrate_edge(1.0, 2, 1.0, LINK)
        assert not calib.utility_guarantee_applies
        t1 = estimate(data, calib, LINK, seed=77)
        t2 = estimate(data, calib, LINK, seed=77)
        assert np.array_equal(t1, t2)


class TestSolver:
    def test_quadratic_converges(self):
        A = np.diag([1.0, 10.0, 100.0])
        b = np.array([1.0, -2.0, 3.0])
        cfg = SolverConfig(tol=1e-10)
        x, info = minimize(lambda x: x @ A - b, np.zeros((1, 3)), 1.0 / 100, 1.0, cfg)
        assert info.converged
        assert np.allclose(x[0], np.linalg.solve(A, b), atol=1e-8)

    def test_iteration_cap_raises(self, monkeypatch):
        A = np.diag([1.0, 100.0])
        b = np.ones(2)
        monkeypatch.setattr(solver, "MAX_ITERS", 1)
        with pytest.raises(ConvergenceError) as exc:
            minimize(lambda x: x @ A - b, np.zeros((1, 2)), 1.0 / 100, 1.0,
                     SolverConfig(tol=1e-12))
        assert exc.value.theta.shape == (1, 2) and exc.value.row == 0
        assert exc.value.info.grad_sup_norm > 0

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([0, 1, 2, 7, 64, 129, 1000, 5000]), rows=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_row_dots_are_the_1d_dots(self, n, rows, seed):
        # a batch row steps as its 1-D solve only if its dot products and
        # 2-norm carry the same bits as the 1-D s @ d and np.linalg.norm
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, rows, n)) * 10.0 ** rng.integers(-8, 8, size=(2, rows, 1))
        # the stacked (1, n) @ (n, 1) products that minimize takes its dots from
        dots = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
        norms = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
        for r in range(rows):
            assert dots[r] == a[r] @ b[r]
            assert norms[r] == np.linalg.norm(a[r])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    def test_discarded_trial_steps_still_converge(self):
        # a steep separable softplus with a small ridge: the two-point step
        # spans the flat side, overshoots into the steep one and is discarded
        c, mu = 5.0, 0.1
        b = np.array([1.0, -2.0, 0.5, 3.0])
        points, grads = [], []

        def counted_grad(x):
            g = expit(c * (x - b)) + mu * x
            points.append(x.copy())
            grads.append(g)
            return g

        step = 1.0 / (c / 4 + mu)
        x, info = minimize(counted_grad, np.zeros((1, 4)), step, mu, SolverConfig(tol=1e-10))
        # after a discarded trial the solve takes the plain step from the point
        # before it, so the next point is that plain step and not the trial
        discarded = sum(
            np.allclose(after, before - step * g, rtol=1e-12, atol=0.0)
            and not np.allclose(trial, after, rtol=1e-12, atol=0.0)
            for before, g, trial, after in zip(points, grads, points[1:], points[2:]))
        assert discarded >= 1
        assert info.converged and info.grad_sup_norm <= 1e-10
        assert len(grads) == info.iterations + 1
        assert np.max(np.abs(counted_grad(x))) <= 1e-10


def _scalar_minimize(grad, x0, step, mu, tol):
    """The solver as a loop over Python scalars, one problem at a time: the
    reference that every row of a batch must match bit for bit."""
    x = g = None
    trial, length = np.array(x0, dtype=float), step
    kept = []
    for it in range(solver.MAX_ITERS + 1):
        g_trial = grad(trial)
        gnorm = float(np.max(np.abs(g_trial), initial=0.0))
        if gnorm <= tol:
            return trial, it
        norm = float(np.linalg.norm(g_trial))
        if length > step and norm > (1.0 - mu * step) * max(kept):
            length = step
        else:
            if g is not None:
                s, d = trial - x, g_trial - g
                sd = float(s @ d)
                length = max(step, float(s @ s) / sd) if sd > 0 else step
            x, g = trial, g_trial
            kept.append(norm)
            del kept[:-solver.MEMORY]
        trial = x - length * g
    raise AssertionError("no convergence")


@pytest.mark.parametrize("cs", [(5.0, 3.0, 8.0, 5.0), (12.0, 20.0, 8.0, 3.0)])
def test_batch_rows_with_discarded_trials_match_the_scalar_loop(cs):
    # the steep softplus of test_discarded_trial_steps_still_converge, one
    # steepness and shift per row: rows 0-2 discard trials at their own
    # iterations, row 3 none
    c, mu = np.array(cs), 0.1
    b = np.array([[1.0, -2.0, 0.5, 3.0], [1.0, -2.0, 0.5, 3.0],
                  [2.0, 2.0, -3.0, 0.5], [0.0, 1.0, -1.0, 2.0]])
    step = 1.0 / (c / 4 + mu)
    x, info = minimize(lambda x: expit(c[:, None] * (x - b)) + mu * x, np.zeros((4, 4)),
                       step, mu, SolverConfig(tol=1e-10))
    for r in range(4):
        points = []

        def row_grad(x):
            points.append(x.copy())
            return expit(c[r] * (x - b[r])) + mu * x

        single, its = _scalar_minimize(row_grad, np.zeros(4), step[r], mu, 1e-10)
        assert single.tobytes() == x[r].tobytes()
        assert its == info.row_iterations[r]
        # after a discarded trial comes the plain step from the point before it
        plain = [before - step[r] * (expit(c[r] * (before - b[r])) + mu * before)
                 for before in points]
        discarded = sum(np.array_equal(after, p) for p, after in zip(plain, points[2:]))
        assert (discarded > 0) == (r < 3)


def test_batch_windows_after_discards_match_the_scalar_loop():
    # softplus rows whose later steps depend on which kept norms a discard
    # leaves in the window: a window that loses its oldest norm, or keeps it
    # too long, changes their iterates
    c, mu = np.array([20.0, 12.0, 8.0]), 0.3
    b = np.array([[1.4, -1.3, -0.0, 0.9, 0.9, 1.8], [1.2, 0.6, -0.7, 2.0, -1.2, 0.6],
                  [-3.2, 1.1, 1.9, 0.8, 2.4, -2.0]])
    step = 1.0 / (c / 4 + mu)
    x, info = minimize(lambda x: expit(c[:, None] * (x - b)) + mu * x, np.zeros((3, 6)),
                       step, mu, SolverConfig(tol=1e-10))
    for r in range(3):
        single, its = _scalar_minimize(lambda x: expit(c[r] * (x - b[r])) + mu * x,
                                       np.zeros(6), step[r], mu, 1e-10)
        assert single.tobytes() == x[r].tobytes() and its == info.row_iterations[r]


def _fixed_step_solve(spec, tol):
    """The plain 1/L gradient step from zero, as a reference minimizer."""
    step = 1.0 / smoothness(spec)
    x = np.zeros(spec.n)
    while True:
        g = grad(x, spec)
        if np.max(np.abs(g), initial=0.0) <= tol:
            return x
        x -= step * g


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), form=st.sampled_from(["edge", "individual", "edgeless"]),
       gamma=st.sampled_from([0.5, 12.0, 228.0]), lam=st.sampled_from([0.0, 1.0, 8.0]),
       seed=st.integers(0, 2**32 - 1))
def test_solve_agrees_with_fixed_step_and_keeps_the_mean(n, form, gamma, lam, seed):
    rng = np.random.default_rng(seed)
    pm = ProbMatrix(n=n, upper=rng.random(n * (n - 1) // 2))
    if form == "individual":
        L = int(rng.integers(1, 4))
        data = sample_individual(n, int(rng.integers(1, 40)), L, pm, seed=rng)
        calib = PrivacyCalibration(epsilon=1.0, lam=lam, gamma=gamma,
                                   regime="individual", L=L)
    else:
        if form == "edge":
            graph = sample_er_graph(n, rng.uniform(0.05, 1.0), seed=rng)
        else:
            empty = np.array([], dtype=np.int64)
            graph = ComparisonGraph(n=n, i=empty, j=empty)
        data = sample_edge_outcomes(graph, pm, seed=rng)
        calib = PrivacyCalibration(epsilon=1.0, lam=lam, gamma=gamma, regime="edge")
    theta, info = estimate_full(data, calib, LINK, seed=seed)
    tol = default_solver_config(gamma).tol
    w = np.random.default_rng(seed).laplace(scale=lam, size=n)
    build = (ObjectiveSpec.from_individual if form == "individual"
             else ObjectiveSpec.from_edge)
    reference = _fixed_step_solve(build(data, LINK, gamma=gamma, w=w), tol)
    assert info.converged
    # strong convexity: ||a - b||_2 <= (||g_a||_2 + ||g_b||_2)/gamma <= 2 sqrt(n) tol/gamma
    assert np.max(np.abs(theta - reference)) <= 2.0 * math.sqrt(n) * tol / gamma
    # the gradient's mean is gamma mean(theta) + mean(w), at most tol at the solution
    assert abs(gamma * theta.mean() + w.mean()) <= tol


def _row_spec(rng, n, form, gamma):
    """One row of a batch: a random edge or individual objective, an edgeless
    one, or a balanced one whose gradient vanishes at theta = 0."""
    if form == "edgeless":
        empty = np.array([], dtype=np.int64)
        return ObjectiveSpec(n=n, i=empty, j=empty, M=np.array([]), ybar=np.array([]),
                             link=LINK, gamma=gamma)
    if form == "balanced":
        i, j = np.triu_indices(n, k=1)
        return ObjectiveSpec(n=n, i=i, j=j, M=np.full(len(i), 2.0),
                             ybar=np.full(len(i), 0.5), link=LINK, gamma=gamma)
    pm = ProbMatrix(n=n, upper=rng.random(n * (n - 1) // 2))
    if form == "individual":
        data = sample_individual(n, int(rng.integers(1, 60)), int(rng.integers(1, 4)), pm,
                                 seed=rng)
        return ObjectiveSpec.from_individual(data, LINK, gamma=gamma)
    graph = sample_er_graph(n, rng.uniform(0.05, 1.0), seed=rng)
    return ObjectiveSpec.from_edge(sample_edge_outcomes(graph, pm, seed=rng), LINK, gamma=gamma)


def _single_solve(spec, lam, seed):
    """The one-row solve, with w inside the spec, as a one-row minimize and as
    the scalar reference loop; both must agree."""
    w = np.random.default_rng(seed).laplace(scale=lam, size=spec.n)
    one = replace(spec, w=w)
    x0 = np.full(spec.n, (0.0 - w.sum() / spec.n) / spec.gamma)
    step, tol = 1.0 / smoothness(one), default_solver_config(spec.gamma).tol
    theta, info = minimize(lambda t: grad(t[0], one)[None], x0[None], step, spec.gamma,
                           default_solver_config(spec.gamma))
    reference, its = _scalar_minimize(lambda t: grad(t, one), x0, step, spec.gamma, tol)
    assert reference.tobytes() == theta[0].tobytes() and its == info.iterations
    return theta[0], info


def _assert_rows_match_single_solves(specs, lam, seeds):
    calib = PrivacyCalibration(epsilon=1.0, lam=lam, gamma=specs[0].gamma, regime="edge")
    thetas, info = estimate_batch(specs, calib, seeds)
    assert thetas.shape == (len(specs), specs[0].n) and info.converged
    assert len(info.row_iterations) == len(specs)
    assert info.iterations == max(info.row_iterations)
    for spec, seed, theta, its in zip(specs, seeds, thetas, info.row_iterations):
        single, one = _single_solve(spec, lam, seed)
        assert single.tobytes() == theta.tobytes()
        assert one.iterations == its
    return info


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12),
       forms=st.lists(st.sampled_from(["edge", "individual", "edgeless", "balanced"]),
                      min_size=1, max_size=6),
       gamma=st.sampled_from([0.5, 12.0, 228.0]), lam=st.sampled_from([0.0, 1.0, 8.0]),
       seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_single_solves(n, forms, gamma, lam, seed):
    rng = np.random.default_rng(seed)
    specs = [_row_spec(rng, n, form, gamma) for form in forms]
    _assert_rows_match_single_solves(specs, lam, rng.integers(2**32, size=len(specs)))


def test_batch_rows_stop_at_their_own_iterations():
    # at lambda = 0 the balanced and edgeless rows meet the tolerance at x0,
    # while the data rows take their own steps for their own counts
    rng = np.random.default_rng(5)
    forms = ["edge", "balanced", "individual", "edgeless", "edge"]
    specs = [_row_spec(rng, 10, form, 0.5) for form in forms]
    assert len({smoothness(spec) for spec in specs}) == len(specs)
    info = _assert_rows_match_single_solves(specs, 0.0, range(len(specs)))
    its = info.row_iterations
    assert its[1] == its[3] == 0
    assert len({its[0], its[2], its[4]}) == 3 and min(its[0], its[2], its[4]) > 1


def test_batch_at_the_iteration_cap_names_the_row(monkeypatch):
    # row 0 meets the tolerance at x0; row 1 needs more than one step
    rng = np.random.default_rng(6)
    specs = [_row_spec(rng, 6, "balanced", 0.5), _row_spec(rng, 6, "edge", 0.5)]
    calib = PrivacyCalibration(epsilon=1.0, lam=0.0, gamma=0.5, regime="edge")
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    with pytest.raises(ConvergenceError, match="^row 1: no convergence after 1 ") as exc:
        estimate_batch(specs, calib, [0, 1])
    assert exc.value.row == 1 and exc.value.theta.shape == (2, 6)
    assert not exc.value.info.converged and exc.value.info.grad_sup_norm > 0


def test_batch_rejects_specs_that_do_not_share_n_and_gamma():
    rng = np.random.default_rng(7)
    calib = PrivacyCalibration(epsilon=1.0, lam=1.0, gamma=0.5, regime="edge")
    for specs in ([_row_spec(rng, 4, "edge", 0.5), _row_spec(rng, 5, "edge", 0.5)],
                  [_row_spec(rng, 4, "edge", 0.5), _row_spec(rng, 4, "edge", 2.0)]):
        with pytest.raises(ValueError, match="same n and the calibration's gamma"):
            estimate_batch(specs, calib, [0, 1])


class TestRankFromScores:
    def test_direct_sort(self):
        assert rank_from_scores(np.array([0.3, -0.1, 0.5]), 2).tolist() == [0, 2]

    def test_tie_broken_by_lowest_index(self):
        assert rank_from_scores(np.array([0.5, 0.5, 0.0]), 1).tolist() == [0]

    def test_k_equals_n(self):
        assert rank_from_scores(np.array([1.0, 2.0]), 2).tolist() == [0, 1]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            rank_from_scores(np.array([1.0]), 2)
