import math

import numpy as np
import pytest

from dpranking.data import (ProbMatrix, sample_edge_outcomes, sample_er_graph,
                            sample_individual)
from dpranking.likelihood import ObjectiveSpec, grad, objective
from dpranking.links import logistic_link
from dpranking.mle import (PrivacyCalibration, calibrate_edge,
                           calibrate_individual, default_solver_config,
                           estimate, estimate_full, rank_from_scores)
from dpranking.solver import ConvergenceError, SolverConfig, minimize

LINK = logistic_link()


class TestCalibrateEdge:
    def test_paper_scale_example(self):
        with pytest.warns(UserWarning, match="noise scale"):
            calib = calibrate_edge(1.0, 300, 1.0, LINK)
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
        with pytest.warns(UserWarning, match="noise scale"):
            calib = calibrate_edge(0.5, 50, 1.0, LINK)
        assert calib.lam == 16.0

    def test_hypothesis_floors_always_hold(self):
        import warnings
        for eps in (0.5, 1.0, 2.5, 100.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                calib = calibrate_edge(eps, 300, 0.5, LINK)
            assert calib.lam >= 8 * LINK.kappa1 / eps
            assert calib.gamma >= 4 * LINK.kappa2 / eps

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            calibrate_edge(0.0, 10, 1.0, LINK)


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
        with pytest.warns(UserWarning, match="noise scale"):
            assert calibrate_individual(2.0, 10, 5, 1, LINK).lam == \
                calibrate_edge(2.0, 10, 1.0, LINK).lam

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            calibrate_individual(-1.0, 10, 5, 1, LINK)
        with pytest.raises(ValueError):
            calibrate_individual(1.0, 10, 5, 0, LINK)


class TestCalibrationInvariants:
    def test_constructor_rejects_violations(self):
        with pytest.raises(ValueError):
            PrivacyCalibration(epsilon=1.0, lam=-1.0, gamma=1.0, regime="edge")
        with pytest.raises(ValueError):
            PrivacyCalibration(epsilon=1.0, lam=0.0, gamma=0.0, regime="edge")
        with pytest.raises(ValueError):
            PrivacyCalibration(epsilon=1.0, lam=0.0, gamma=1.0, regime="both")


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
        theta, info = minimize(lambda t: objective(t, spec),
                               lambda t: grad(t, spec), np.zeros(3), cfg)
        assert np.max(np.abs(theta)) <= cfg.tol

    def test_stationarity_posthoc(self):
        rng = np.random.default_rng(9)
        pm = ProbMatrix(n=10, upper=rng.random(45))
        data = sample_edge_outcomes(sample_er_graph(10, 1.0, seed=3), pm, seed=4)
        with pytest.warns(UserWarning, match="noise scale"):
            calib = calibrate_edge(1.0, 10, 1.0, LINK)
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

    def test_perturbation_reproducible(self):
        data = _single_edge_dataset()
        with pytest.warns(UserWarning, match="noise scale"):
            calib = calibrate_edge(1.0, 2, 1.0, LINK)
        t1 = estimate(data, calib, LINK, seed=77)
        t2 = estimate(data, calib, LINK, seed=77)
        assert np.array_equal(t1, t2)


class TestSolver:
    def test_quadratic_converges(self):
        A = np.diag([1.0, 10.0, 100.0])
        b = np.array([1.0, -2.0, 3.0])
        cfg = SolverConfig(tol=1e-10)
        x, info = minimize(lambda x: 0.5 * x @ A @ x - b @ x,
                           lambda x: A @ x - b, np.zeros(3), cfg)
        assert info.converged
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_iteration_cap_raises(self):
        A = np.diag([1.0, 100.0])
        b = np.ones(2)
        cfg = SolverConfig(tol=1e-12, max_iters=1)
        with pytest.raises(ConvergenceError) as exc:
            minimize(lambda x: 0.5 * x @ A @ x - b @ x,
                     lambda x: A @ x - b, np.zeros(2), cfg)
        assert exc.value.theta.shape == (2,)
        assert exc.value.info.grad_sup_norm > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=1e-8, max_iters=0)


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
