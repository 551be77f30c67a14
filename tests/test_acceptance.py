"""End-to-end acceptance checks, one per contract criterion.

Each test prints a single `[criterion NN] PASS/FAIL` line (bypassing pytest
capture) and then asserts, so the printed ledger is complete even when a
criterion fails.
"""

import json
import math
import pathlib
import subprocess
import sys
import time

import numpy as np

from dpranking.audit import (CountTopKMechanism, enumerate_adjacent,
                             estimate_epsilon, extremal_user_pair,
                             sensitivity_check, user_replacement_pairs)
from dpranking.counts import noisy_topk, win_counts
from dpranking.data import (ProbMatrix, generate_theta, rho_from_theta,
                            sample_edge_outcomes, sample_er_graph,
                            sample_individual, two_block_rho)
from dpranking.harness import ingest, real_data_eval
from dpranking.likelihood import ObjectiveSpec, grad, hessian, objective
from dpranking.links import logistic_link
from dpranking.metrics import (descending_order, linf_rel_log_error,
                               separation_threshold, tau, topk_overlap_loss,
                               true_topk)
from dpranking.mle import (PrivacyCalibration, calibrate_edge,
                           calibrate_individual, default_solver_config,
                           estimate)

LINK = logistic_link()
CEMS_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / "cems_synthetic.csv"


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)
    assert ok, f"criterion {num}: {detail}"


def _fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for t in range(len(x)):
        e = np.zeros_like(x)
        e[t] = h
        g[t] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def test_criterion_01_gradient_hessian(capsys):
    rng = np.random.default_rng(101)
    start = time.time()
    worst_g, worst_h = 0.0, 0.0
    for _ in range(100):
        n = 10
        g = sample_er_graph(n, 1.0, seed=rng)
        pm = ProbMatrix(n=n, upper=rng.random(len(g.i)))
        data = sample_edge_outcomes(g, pm, seed=rng)
        gamma = float(rng.choice([0.0, 5.0]))
        w = rng.normal(size=n)
        spec = ObjectiveSpec.from_edge(data, LINK, gamma=gamma, w=w)
        theta = rng.uniform(-1, 1, size=n)

        ga = grad(theta, spec)
        gf = _fd_grad(lambda t: objective(t, spec), theta)
        worst_g = max(worst_g, np.max(np.abs(ga - gf)) / max(1.0, np.max(np.abs(gf))))

        Ha = hessian(theta, spec)
        Hf = np.column_stack([_fd_grad(lambda t: grad(t, spec)[r], theta)
                              for r in range(n)])
        worst_h = max(worst_h, np.max(np.abs(Ha - Hf)) / max(1.0, np.max(np.abs(Hf))))
    elapsed = time.time() - start
    ok = worst_g <= 1e-5 and worst_h <= 1e-4 and elapsed < 10
    _report(capsys, 1, ok,
            f"grad rel err {worst_g:.2e} <= 1e-5, hessian {worst_h:.2e} <= 1e-4, "
            f"{elapsed:.1f}s < 10s over 100 instances")


def test_criterion_02_noiseless_limit(capsys):
    rng = np.random.default_rng(22)
    pm = ProbMatrix(n=8, upper=rng.random(28))
    data = sample_edge_outcomes(sample_er_graph(8, 1.0, seed=1), pm, seed=2)
    calib = calibrate_edge(math.inf, 8, 1.0, LINK)
    delta = np.max(np.abs(estimate(data, calib, LINK, seed=1)
                          - estimate(data, calib, LINK, seed=2)))

    # n=2 single-edge ridge MLE vs a bisection oracle on the stationarity
    # condition at theta = (t, -t): t + F(2t) - 1 = 0 with gamma = 1
    g2 = sample_er_graph(2, 1.0, seed=0)
    d2 = sample_edge_outcomes(g2, ProbMatrix(n=2, upper=np.array([1.0])), seed=0)
    c2 = PrivacyCalibration(epsilon=math.inf, lam=0.0, gamma=1.0, regime="edge")
    theta2 = estimate(d2, c2, LINK, seed=0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + float(LINK.eval(2 * mid)) - 1.0 > 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    gap = abs(theta2[0] - root)
    ok = delta <= 1e-8 and gap <= 1e-6
    _report(capsys, 2, ok,
            f"seed-independence {delta:.2e} <= 1e-8, closed-form gap "
            f"{gap:.2e} <= 1e-6 (root {root:.7f})")


def test_criterion_03_stationarity(capsys):
    rng = np.random.default_rng(33)
    worst = 0.0
    for case, eps in enumerate((0.5, 1.0, math.inf)):
        theta_star = generate_theta(30, 8, seed=rng, top_inclusive=True)
        rho = rho_from_theta(theta_star, LINK)
        data = sample_edge_outcomes(sample_er_graph(30, 1.0, seed=rng), rho, seed=rng)
        calib = calibrate_edge(eps, 30, 1.0, LINK)
        theta = estimate(data, calib, LINK, seed=case)
        # replay the perturbation draw and re-evaluate the gradient directly
        w = (np.random.default_rng(case).laplace(scale=calib.lam, size=30)
             if calib.lam > 0 else np.zeros(30))
        spec = ObjectiveSpec.from_edge(data, LINK, gamma=calib.gamma, w=w)
        gnorm = float(np.max(np.abs(grad(theta, spec))))
        tol = default_solver_config(calib.gamma).tol
        worst = max(worst, gnorm / tol)
    # individual regime case
    theta_star = generate_theta(10, 3, seed=rng, top_inclusive=True)
    data = sample_individual(10, 200, 4, rho_from_theta(theta_star, LINK), seed=rng)
    calib = calibrate_individual(1.0, 10, 200, 4, LINK)
    theta = estimate(data, calib, LINK, seed=5)
    w = np.random.default_rng(5).laplace(scale=calib.lam, size=10)
    spec = ObjectiveSpec.from_individual(data, LINK, gamma=calib.gamma, w=w)
    tol = default_solver_config(calib.gamma).tol
    worst = max(worst, float(np.max(np.abs(grad(theta, spec)))) / tol)
    ok = worst <= 1.0
    _report(capsys, 3, ok, f"max grad-sup-norm / tol ratio {worst:.3f} <= 1 "
            "across edge (eps 0.5, 1, inf) and individual solves")


def test_criterion_04_sensitivity_bounds(capsys):
    rng = np.random.default_rng(44)
    start = time.time()
    max_l1 = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        p = float(rng.uniform(0.4, 1.0))
        g = sample_er_graph(n, p, seed=rng)
        if g.n_edges == 0:
            continue
        pm = ProbMatrix(n=n, upper=rng.random(n * (n - 1) // 2))
        data = sample_edge_outcomes(g, pm, seed=rng)
        pairs = enumerate_adjacent(data, budget=10_000, seed=rng)
        report = sensitivity_check(pairs)
        max_l1 = max(max_l1, report.max_l1)
    max_coord_ratio = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 11))
        L = int(rng.integers(1, 6))
        pm = ProbMatrix(n=n, upper=rng.random(n * (n - 1) // 2))
        data = sample_individual(n, m, L, pm, seed=rng)
        pairs = user_replacement_pairs(data, 5, seed=rng)
        report = sensitivity_check(pairs)
        max_coord_ratio = max(max_coord_ratio, report.per_coordinate_max / L)
    elapsed = time.time() - start
    ok = max_l1 <= 2.0 and max_coord_ratio <= 1.0 and elapsed < 30
    _report(capsys, 4, ok,
            f"edge l1 max {max_l1} <= 2, user-replacement coord/L max "
            f"{max_coord_ratio:.2f} <= 1, {elapsed:.1f}s < 30s")


def test_criterion_05_empirical_epsilon(capsys):
    rng = np.random.default_rng(55)
    start = time.time()
    theta = generate_theta(4, 2, seed=rng, top_inclusive=True)
    rho = rho_from_theta(theta, LINK)
    edge_data = sample_edge_outcomes(sample_er_graph(4, 1.0, seed=rng), rho, seed=rng)
    edge_pair = enumerate_adjacent(edge_data, budget=1, seed=rng)[0]
    ind_data = sample_individual(4, 30, 5, rho, seed=rng)
    ind_pair = user_replacement_pairs(ind_data, 1, seed=rng)[0]

    # worst cases beside the random pairs: the flip of the edge between the
    # k-th and (k+1)-th items by win count, and user 0's bundle on that
    # boundary pair of the other users' counts, won by opposite items
    g = edge_data.graph
    boundary = sorted(descending_order(win_counts(edge_data))[1:3].tolist())
    (edge,) = np.flatnonzero((g.i == boundary[0]) & (g.j == boundary[1]))
    boundary_flip = enumerate_adjacent(edge_data, budget=g.n_edges, seed=rng)[edge]
    extremal = extremal_user_pair(ind_data, 2)
    assert sensitivity_check([boundary_flip, extremal]).max_l1 == 10

    worst_excess = -math.inf
    results = []
    for cases in ((("edge", edge_pair, 1), ("individual", ind_pair, 5)),
                  (("edge", boundary_flip, 1), ("individual", extremal, 5))):
        for eps in (0.5, 1.0, 2.5):
            for regime, pair, L in cases:
                mech = CountTopKMechanism(k=2, epsilon=eps, regime=regime, L=L)
                est = estimate_epsilon(mech, pair, samples=1_000_000, seed=rng)
                assert est.conclusive
                results.append((regime, eps, est.epsilon_hat))
                worst_excess = max(worst_excess, est.epsilon_hat - eps)
    elapsed = time.time() - start
    ok = worst_excess <= 0.1 and elapsed < 300
    _report(capsys, 5, ok,
            f"max (epsilon_hat - epsilon) {worst_excess:+.3f} <= 0.1 over "
            f"eps x regime grid on random and worst-case pairs, 1e6 replays "
            f"each, {elapsed:.0f}s < 300s")


def _recovery_rate(regime, n, k, gap, eps, trials, seed, p=None, m=None, L=None):
    rho = two_block_rho(n, k, gap)
    true_set = true_topk(tau(rho), k)
    hits = 0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        if regime == "edge":
            data = sample_edge_outcomes(sample_er_graph(n, p, seed=rng), rho, seed=rng)
            est = noisy_topk(win_counts(data), k, eps, "edge", seed=rng)
        else:
            data = sample_individual(n, m, L, rho, seed=rng)
            est = noisy_topk(win_counts(data), k, eps, "individual", L=L, seed=rng)
        hits += int(np.array_equal(est, true_set))
    return hits


def test_criterion_06_recovery_above_threshold(capsys):
    gap_e = 8 * separation_threshold("edge", 200, 1.0, p=1.0)
    hits_e = _recovery_rate("edge", 200, 50, gap_e, 1.0, 100, seed=66, p=1.0)
    gap_i = 8 * separation_threshold("individual", 16, 1.0, m=20000)
    hits_i = _recovery_rate("individual", 16, 4, gap_i, 1.0, 100, seed=67,
                            m=20000, L=5)
    ok = hits_e >= 95 and hits_i >= 95
    _report(capsys, 6, ok,
            f"exact recovery: edge {hits_e}/100 >= 95 (gap {gap_e:.3f}), "
            f"individual {hits_i}/100 >= 95 (gap {gap_i:.3f})")


def test_criterion_07_below_threshold_degradation(capsys):
    gap_e = 0.05 * separation_threshold("edge", 200, 1.0, p=1.0)
    hits_e = _recovery_rate("edge", 200, 50, gap_e, 1.0, 100, seed=77, p=1.0)
    gap_i = 0.05 * separation_threshold("individual", 16, 1.0, m=20000)
    hits_i = _recovery_rate("individual", 16, 4, gap_i, 1.0, 100, seed=78,
                            m=20000, L=5)
    ok = hits_e <= 50 and hits_i <= 50
    _report(capsys, 7, ok,
            f"degraded recovery: edge {hits_e}/100 <= 50, "
            f"individual {hits_i}/100 <= 50")


def _parametric_errors(regime, n, eps, trials, seed, p=None, m=None, L=None):
    errs = []
    rng = np.random.default_rng(seed)
    k = max(1, n // 4)
    for _ in range(trials):
        theta_star = generate_theta(n, k, seed=rng, top_inclusive=True)
        rho = rho_from_theta(theta_star, LINK)
        if regime == "edge":
            data = sample_edge_outcomes(sample_er_graph(n, p, seed=rng), rho, seed=rng)
            calib = calibrate_edge(eps, n, p, LINK)
        else:
            data = sample_individual(n, m, L, rho, seed=rng)
            calib = calibrate_individual(eps, n, m, L, LINK)
        theta_hat = estimate(data, calib, LINK, seed=rng)
        errs.append(linf_rel_log_error(theta_hat, theta_star))
    return np.asarray(errs)


def test_criterion_08_nonprivate_rate_slope(capsys):
    start = time.time()
    ns = (100, 200, 400, 800)
    medians = [np.median(_parametric_errors("edge", n, math.inf, 50,
                                            seed=800 + n, p=1.0))
               for n in ns]
    slope = float(np.polyfit(np.log(ns), medians, 1)[0])
    elapsed = time.time() - start
    ok = abs(slope + 0.5) <= 0.15 and elapsed < 600
    _report(capsys, 8, ok,
            f"median log linf error vs log n slope {slope:+.3f} within "
            f"-0.5 +/- 0.15, {elapsed:.0f}s < 600s")


def test_criterion_09_opposing_n_trends(capsys):
    start = time.time()
    edge_meds = [float(np.median(_parametric_errors("edge", n, 1.0, 50,
                                                    seed=900 + n, p=1.0)))
                 for n in (50, 100, 200)]
    ind_meds = [float(np.median(_parametric_errors("individual", n, 1.0, 50,
                                                   seed=950 + n, m=1000, L=5)))
                for n in (8, 16, 32)]
    elapsed = time.time() - start
    decreasing = edge_meds[0] > edge_meds[1] > edge_meds[2]
    increasing = ind_meds[0] < ind_meds[1] < ind_meds[2]
    ok = decreasing and increasing and elapsed < 600
    _report(capsys, 9, ok,
            f"edge medians decreasing {[f'{v:.3f}' for v in edge_meds]}, "
            f"individual increasing {[f'{v:.3f}' for v in ind_meds]}, "
            f"{elapsed:.0f}s < 600s")


def test_criterion_10_epsilon_monotonicity(capsys):
    start = time.time()
    eps_grid = (0.5, 1.0, 2.5, math.inf)
    edge_meds = [float(np.median(_parametric_errors("edge", 100, eps, 50,
                                                    seed=1000, p=1.0)))
                 for eps in eps_grid]
    ind_meds = [float(np.median(_parametric_errors("individual", 16, eps, 50,
                                                   seed=1001, m=1000, L=5)))
                for eps in eps_grid]

    def np_medians(regime, n, seed, **kw):
        out = []
        for eps in eps_grid:
            rng = np.random.default_rng(seed)
            k = max(1, n // 4)
            losses = []
            for _ in range(50):
                theta_star = generate_theta(n, k, seed=rng, top_inclusive=True)
                rho = rho_from_theta(theta_star, LINK)
                true_set = true_topk(tau(rho), k)
                if regime == "edge":
                    data = sample_edge_outcomes(
                        sample_er_graph(n, kw["p"], seed=rng), rho, seed=rng)
                    est = noisy_topk(win_counts(data), k, eps, "edge", seed=rng)
                else:
                    data = sample_individual(n, kw["m"], kw["L"], rho, seed=rng)
                    est = noisy_topk(win_counts(data), k, eps, "individual",
                                     L=kw["L"], seed=rng)
                losses.append(topk_overlap_loss(est, true_set, k))
            out.append(float(np.median(losses)))
        return out

    edge_np = np_medians("edge", 100, 1002, p=1.0)
    ind_np = np_medians("individual", 16, 1003, m=1000, L=5)
    elapsed = time.time() - start

    def mono(vals):
        return all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    ok = (mono(edge_meds) and mono(ind_meds) and mono(edge_np) and mono(ind_np)
          and elapsed < 600)
    _report(capsys, 10, ok,
            f"medians non-increasing in eps: parametric edge "
            f"{[f'{v:.3f}' for v in edge_meds]}, individual "
            f"{[f'{v:.3f}' for v in ind_meds]}; nonparametric edge "
            f"{edge_np}, individual {ind_np}; {elapsed:.0f}s < 600s")


def test_criterion_11_real_data_pipeline(capsys):
    data = ingest(CEMS_PATH, mode="individual")
    shape_ok = (data.n, data.m, data.L) == (6, 303, 15)

    records = real_data_eval(data, [0.5, 1.0, 2.5, math.inf], trials=200, seed=11)
    inf_np = [r.value for r in records
              if r.algorithm == "nonparametric" and math.isinf(r.epsilon)]
    zero_ok = all(v == 0.0 for v in inf_np)

    meds = {}
    for algo in ("parametric", "nonparametric"):
        meds[algo] = [float(np.median([r.value for r in records
                                       if r.algorithm == algo
                                       and r.epsilon == eps]))
                      for eps in (0.5, 1.0, 2.5, math.inf)]
    trend_ok = all(all(a >= b - 1e-12 for a, b in zip(v, v[1:]))
                   for v in meds.values())
    ok = shape_ok and zero_ok and trend_ok
    _report(capsys, 11, ok,
            f"shape {shape_ok}, eps=inf count "
            f"rank-diff all zero {zero_ok}, eps-trend medians non-increasing "
            f"{trend_ok} ({meds})")


def test_criterion_12_simulate_determinism(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "regime": "edge", "n_values": [15], "p_values": [1.0],
        "epsilon_values": ["1", "inf"], "trials": 3, "master_seed": 13}))
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dpranking.cli", "simulate",
             "--config", str(cfg), "--out", str(out), "--workers", str(workers)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _report(capsys, 12, ok,
            "byte-identical CSV across reruns and worker counts 1/1/3")
