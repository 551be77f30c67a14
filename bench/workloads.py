"""The benchmark's workloads: inputs built from a seed, one operation, its checks.

Each workload builds its inputs in ``__init__``, runs one closed-loop
operation in ``run(index)`` and checks that operation's outputs in
``check(result)``, which the runner keeps outside the timed region. ``run``
calls the package through module attributes (``dp_data.sample_er_graph``,
not an imported name) so that the traced run can swap in timing wrappers.
Operation ``index`` draws its randomness from ``(seed, index)``, so the same
seed gives the same inputs.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from dpranking import audit as dp_audit
from dpranking import counts as dp_counts
from dpranking import data as dp_data
from dpranking import harness as dp_harness
from dpranking import links as dp_links
from dpranking import metrics as dp_metrics
from dpranking import mle as dp_mle
from dpranking.likelihood import ObjectiveSpec, grad
from dpranking.mle import default_solver_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CEMS_CSV = os.path.join(ROOT, "data", "cems_synthetic.csv")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
EPS_LEVELS = (0.5, 1.0, 2.5, math.inf)


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def get_link() -> dp_links.LinkFunction:
    return dp_links.get_link("logistic")


class Workload:
    """Per-run statistics shared by every workload; subclasses define the rest."""

    def __init__(self):
        # one list of observations per statistic; the runner clears it
        # between the untraced and traced halves of a traced run
        self.stats: defaultdict[str, list] = defaultdict(list)

    def run(self, index: int):
        raise NotImplementedError

    def check(self, result) -> list[bool]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# edge trials: criterion-08 shape (dense) and the O(n^2) data path (sparse)


@dataclass
class EdgeTrial:
    """What the stationarity check needs from one trial."""

    data: dp_data.EdgeDataset
    calib: dp_mle.PrivacyCalibration
    est_seed: int
    theta_hat: np.ndarray


class EdgeTrials(Workload):
    """Full simulation trials: generate, sample, estimate, rank, count, score."""

    def __init__(self, seed: int, n: int, p: float, epsilon: float):
        super().__init__()
        self.seed, self.n, self.p, self.epsilon = seed, n, p, epsilon
        self.link = get_link()

    def run(self, index: int) -> EdgeTrial:
        n, p, eps = self.n, self.p, self.epsilon
        rng = op_rng(self.seed, index)
        link = get_link()
        k = max(1, n // 4)
        theta_star = dp_data.generate_theta(n, k, seed=rng, top_inclusive=True)
        rho = dp_data.rho_from_theta(theta_star, link)
        true_set = dp_metrics.true_topk(dp_metrics.tau(rho), k)
        graph = dp_data.sample_er_graph(n, p, seed=rng)
        data = dp_data.sample_edge_outcomes(graph, rho, seed=rng)
        calib = dp_mle.calibrate_edge(eps, n, p, link)
        est_seed = int(rng.integers(2**63))
        theta_hat, _ = dp_mle.estimate_full(data, calib, link, seed=est_seed)
        est_set = dp_mle.rank_from_scores(theta_hat, k)
        wins = dp_counts.win_counts(data)
        np_set = dp_counts.noisy_topk(wins, k, eps, "edge", seed=rng)
        linf = dp_metrics.linf_rel_log_error(theta_hat, theta_star)
        dp_metrics.l2_rel_log_error(theta_hat, theta_star)
        for found in (est_set, np_set):
            dp_metrics.topk_overlap_loss(found, true_set, k)
            dp_metrics.hamming_sets(found, true_set)
        self.stats["linf_rel_log"].append(linf)
        return EdgeTrial(data, calib, est_seed, theta_hat)

    def check(self, trial: EdgeTrial) -> list[bool]:
        return [check_stationary(trial.data, trial.calib, self.link,
                                 trial.est_seed, trial.theta_hat, self.stats)]


def check_stationary(data, calib, link, est_seed: int, theta_hat: np.ndarray,
                     stats) -> bool:
    """Replay the Laplace draw, rebuild the objective and test its gradient.

    The estimate passes when it is finite and the recomputed gradient's
    sup-norm is within the solver tolerance for the calibrated gamma.
    """
    rng = np.random.default_rng(est_seed)
    w = (rng.laplace(scale=calib.lam, size=data.n) if calib.lam > 0
         else np.zeros(data.n))
    spec = ObjectiveSpec.from_edge(data, link, gamma=calib.gamma, w=w)
    ratio = float(np.max(np.abs(grad(theta_hat, spec)))) / default_solver_config(
        calib.gamma).tol
    stats["grad_ratio"].append(ratio)
    return bool(np.all(np.isfinite(theta_hat))) and ratio <= 1.0


def dense_edge(seed: int, tiny: bool = False) -> EdgeTrials:
    return EdgeTrials(seed, n=40 if tiny else 800, p=1.0, epsilon=math.inf)


def sparse_edge(seed: int, tiny: bool = False) -> EdgeTrials:
    n = 200 if tiny else 5000
    return EdgeTrials(seed, n=n, p=2.0 * math.log(n) / n, epsilon=1.0)


# ---------------------------------------------------------------------------
# individual-DP sweep: harness CSV write path, ingest and real-data evaluation


class IndividualSweep(Workload):
    """The exp5 and exp6 grids at reduced trials, then ingest + real-data eval."""

    def __init__(self, seed: int, trials: int, real_trials: int):
        super().__init__()
        self.seed, self.real_trials = seed, real_trials
        self.dir = os.path.join(SCRATCH, f"sweep-{os.getpid()}-{id(self)}")
        os.makedirs(self.dir, exist_ok=True)
        self.configs = [
            replace(dp_harness.preset_config(name), trials=trials, master_seed=seed,
                    output_path=os.path.join(self.dir, f"{name}.csv"))
            for name in ("exp5", "exp6")]
        self.trials = sum(len(c.n_values) * len(c.m_values) * len(c.epsilon_values)
                          * c.trials for c in self.configs)
        self.trials += len(EPS_LEVELS) * real_trials
        self.reference: list[bytes] | None = None

    def run(self, index: int) -> list:
        rows = 0
        for cfg in self.configs:
            rows += len(dp_harness.run_experiment(cfg, workers=1))
        data = dp_harness.ingest(CEMS_CSV, mode="individual")
        real = dp_harness.real_data_eval(data, EPS_LEVELS, trials=self.real_trials,
                                         seed=self.seed)
        self.stats["rows"].append(rows + len(real))
        self.stats["trials"].append(self.trials)
        return real

    def check(self, real: list) -> list[bool]:
        csv = []
        for cfg in self.configs:
            with open(cfg.output_path, "rb") as fh:
                csv.append(fh.read())
        self.stats["csv_bytes"].append(sum(map(len, csv)))
        if self.reference is None:
            self.reference = csv
        inf_diffs = [r.value for r in real
                     if r.algorithm == "nonparametric" and math.isinf(r.epsilon)]
        return [a == b for a, b in zip(csv, self.reference)] + [
            len(inf_diffs) == self.real_trials and all(v == 0.0 for v in inf_diffs)]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:  # another sweep's directory is still there
            pass


def individual_sweep(seed: int, tiny: bool = False) -> IndividualSweep:
    return IndividualSweep(seed, trials=1 if tiny else 12,
                           real_trials=1 if tiny else 30)


# ---------------------------------------------------------------------------
# audit: frequency replays and adjacent-pair enumeration


def extremal_user_pair(data: dp_data.IndividualDataset, k: int) -> dp_audit.AdjacentPair:
    """User 0's bundle put on the top-k boundary pair, with opposite winners.

    The boundary pair is the k-th and (k+1)-th items by the other users' win
    counts. Both bundles hold L copies of that pair; in one the upper item
    wins all L, in the other the lower item does, so the count vector moves
    by 2L in l1 between the two datasets.
    """
    others = slice(data.L, None)
    winners = np.where(data.y[others] == 1, data.i[others], data.j[others])
    wins = np.bincount(winners, minlength=data.n)
    order = np.lexsort((np.arange(data.n), -wins))
    a, b = int(order[k - 1]), int(order[k])
    lo, hi = min(a, b), max(a, b)
    bundle = (np.full(data.L, lo), np.full(data.L, hi))

    def with_winner(item):
        y = np.full(data.L, 1 if item == lo else 0, dtype=np.int8)
        return dp_audit.replace_user(data, 0, records=bundle + (y,))

    return dp_audit.AdjacentPair(with_winner(a), with_winner(b), "user-replacement")


@dataclass
class AuditRound:
    edge: dp_audit.EpsilonEstimate
    individual: dp_audit.EpsilonEstimate
    pairs: int
    max_l1: float | None  # None when sensitivity_check raised


class Audit(Workload):
    """Empirical epsilon on an edge-flip and an extremal user-replacement pair,
    then enumeration of every edge-adjacent dataset and its sensitivity check.
    """

    K = 2
    L = 5
    EPSILON = 1.0

    def __init__(self, seed: int, samples: int, enum_n: int):
        super().__init__()
        self.seed, self.samples = seed, samples
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2**32 - 1]))
        link = get_link()
        rho4 = dp_data.rho_from_theta(
            dp_data.generate_theta(4, self.K, seed=rng, top_inclusive=True), link)
        edge_data = dp_data.sample_edge_outcomes(
            dp_data.sample_er_graph(4, 1.0, seed=rng), rho4, seed=rng)
        self.edge_pair = dp_audit.enumerate_adjacent(edge_data, budget=1, seed=rng)[0]
        self.user_pair = extremal_user_pair(
            dp_data.sample_individual(4, 30, self.L, rho4, seed=rng), self.K)
        rho = dp_data.rho_from_theta(
            dp_data.generate_theta(enum_n, max(1, enum_n // 4), seed=rng), link)
        self.enum_data = dp_data.sample_edge_outcomes(
            dp_data.sample_er_graph(enum_n, 0.5, seed=rng), rho, seed=rng)
        # every flip and every swap: E + E * (C(n,2) - E) * 2 pairs
        edges = self.enum_data.graph.n_edges
        self.budget = edges + 2 * edges * (dp_data.pair_count(enum_n) - edges)
        self.edge_mech = dp_audit.CountTopKMechanism(self.K, self.EPSILON, "edge")
        self.user_mech = dp_audit.CountTopKMechanism(self.K, self.EPSILON,
                                                     "individual", L=self.L)

    def run(self, index: int) -> AuditRound:
        rng = op_rng(self.seed, index)
        t0 = time.perf_counter()
        edge = dp_audit.estimate_epsilon(self.edge_mech, self.edge_pair,
                                         self.samples, seed=rng)
        individual = dp_audit.estimate_epsilon(self.user_mech, self.user_pair,
                                               self.samples, seed=rng)
        t1 = time.perf_counter()
        pairs = dp_audit.enumerate_adjacent(self.enum_data, self.budget, seed=rng)
        try:
            max_l1 = dp_audit.sensitivity_check(pairs + [self.edge_pair]).max_l1
        except dp_audit.SensitivityViolation:
            max_l1 = None
        t2 = time.perf_counter()
        self.stats["replays_per_s"].append(4 * self.samples / (t1 - t0))
        self.stats["adjacent_pairs_per_s"].append(len(pairs) / (t2 - t1))
        self.stats["pairs"].append(len(pairs))
        self.stats["eps_hat_edge"].append(edge.epsilon_hat)
        self.stats["eps_hat_individual_extremal"].append(individual.epsilon_hat)
        return AuditRound(edge, individual, len(pairs), max_l1)

    def check(self, result: AuditRound) -> list[bool]:
        conclusive = [result.edge.conclusive, result.individual.conclusive]
        self.stats["conclusive"] += conclusive
        return conclusive + [result.pairs == self.budget,
                             result.max_l1 is not None and result.max_l1 <= 2]


def audit(seed: int, tiny: bool = False) -> Audit:
    # about 1.2 s a round, so a run holds about 20 rounds and its tail is a
    # percentile of many rounds rather than its fastest round
    return Audit(seed, samples=dp_audit.MIN_EPSILON_SAMPLES if tiny else 500_000,
                 enum_n=6 if tiny else 16)


WORKLOADS = {
    "dense-edge": dense_edge,
    "sparse-edge": sparse_edge,
    "individual-sweep": individual_sweep,
    "audit": audit,
}
