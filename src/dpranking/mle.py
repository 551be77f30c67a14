"""Perturbed maximum likelihood estimation under edge and individual DP.

The estimator minimizes nll + (gamma/2)||theta||^2 + w.theta with i.i.d.
Laplace(lambda) coordinates in w. The (lambda, gamma) calibration ties the
mechanism to its (epsilon, 0)-DP guarantee at every epsilon. gamma is the max
of the privacy floor and the utility-rate value (``floor_binding`` records which
won), and ``utility_guarantee_applies`` whether the utility bound holds too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import EdgeDataset
# objective is unused here; the benchmark's tracer wraps mle.objective by name
from .likelihood import ObjectiveSpec, grad, objective, smoothness  # noqa: F401
from .links import LinkFunction
from .metrics import rank_from_scores
from .solver import SolveInfo, SolverConfig, minimize

__all__ = [
    "DEFAULT_C0", "PrivacyCalibration", "calibrate_edge",
    "calibrate_individual", "estimate", "estimate_batch", "estimate_full",
    "objective_spec", "rank_from_scores", "default_solver_config",
]

# Constant in the utility ridge value gamma = c0 * sqrt(effective-degree * log n).
# At experiment scale (n in the hundreds) larger c0 leaves the ridge comparable
# to the likelihood Hessian and shrinkage bias flattens the error-vs-n rate;
# 0.1 keeps the regularizer a small perturbation while preserving the rate.
DEFAULT_C0 = 0.1


@dataclass(frozen=True)
class PrivacyCalibration:
    """(epsilon, lambda, gamma) bundle binding the estimator to its DP guarantee."""

    epsilon: float
    lam: float
    gamma: float
    regime: str  # "edge" | "individual"
    L: int = 1
    floor_binding: bool = False
    utility_guarantee_applies: bool = True

    def __post_init__(self):
        if self.regime not in ("edge", "individual"):
            raise ValueError("regime must be 'edge' or 'individual'")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not (self.lam >= 0 and self.gamma > 0):
            raise ValueError("invalid calibration")
        if self.L < 1:
            raise ValueError("L must be >= 1")


def _calibrate(regime: str, epsilon: float, n: int, S: float, L: int,
               floor_scale: float, link: LinkFunction) -> PrivacyCalibration:
    """lambda = 8 L kappa1/eps and gamma = max(floor_scale/eps, c0 sqrt(S log n)).

    S is the effective per-item comparison count. epsilon = inf is the
    non-private sentinel: no noise, utility gamma only.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if L < 1:
        raise ValueError("L must be >= 1")
    utility = DEFAULT_C0 * math.sqrt(S * math.log(n)) if n > 1 else DEFAULT_C0
    floor = floor_scale / epsilon
    return PrivacyCalibration(epsilon=epsilon, lam=8.0 * L * link.kappa1 / epsilon,
                              gamma=max(floor, utility), regime=regime, L=L,
                              floor_binding=floor >= utility)


def calibrate_edge(epsilon: float, n: int, p: float,
                   link: LinkFunction) -> PrivacyCalibration:
    """Edge DP: L = 1, S = np and gamma floor 4 kappa2/eps (half the individual one).

    The utility guarantee applies only while lambda <= sqrt(log n).
    """
    calib = _calibrate("edge", epsilon, n, n * p, 1, 4.0 * link.kappa2, link)
    return replace(calib, utility_guarantee_applies=not (
        n > 1 and calib.lam > math.sqrt(math.log(n))))


def calibrate_individual(epsilon: float, n: int, m: int, L: int,
                         link: LinkFunction) -> PrivacyCalibration:
    """Individual DP: bundles of L, S = 2mL/n, gamma floor 8 L kappa2/eps; no utility
    condition is checked, so ``utility_guarantee_applies`` stays True (ROADMAP item 7)."""
    return _calibrate("individual", epsilon, n, 2.0 * m * L / n, L,
                      8.0 * L * link.kappa2, link)


def default_solver_config(gamma: float) -> SolverConfig:
    return SolverConfig(tol=1e-8 * max(1.0, gamma))


def objective_spec(data, calib: PrivacyCalibration, link: LinkFunction) -> ObjectiveSpec:
    """The unperturbed objective of ``data`` at calib.gamma, once (regime, L) fits it."""
    edge = isinstance(data, EdgeDataset)
    if (calib.regime, calib.L) != ("edge" if edge else "individual", data.L):
        raise ValueError(f"a {calib.regime} calibration with L={calib.L} does not fit "
                         f"{type(data).__name__} with L={data.L}")
    build = ObjectiveSpec.from_edge if edge else ObjectiveSpec.from_individual
    return build(data, link, gamma=calib.gamma)


def _stacked(specs: list[ObjectiveSpec]) -> ObjectiveSpec:
    """One spec over S blocks of n items: block t's pairs offset by t n, in order,
    so the pairs stay sorted by i and each block's gradient is its own."""
    n = specs[0].n
    return ObjectiveSpec(
        n=len(specs) * n, link=specs[0].link, gamma=specs[0].gamma,
        i=np.concatenate([spec.i + t * n for t, spec in enumerate(specs)]),
        j=np.concatenate([spec.j + t * n for t, spec in enumerate(specs)]),
        M=np.concatenate([spec.M for spec in specs]),
        ybar=np.concatenate([spec.ybar for spec in specs]))


def estimate_batch(specs: list[ObjectiveSpec], calib: PrivacyCalibration,
                   seeds) -> tuple[np.ndarray, SolveInfo]:
    """The perturbed MLE of each spec, solved as one (S, n) iteration.

    Row t draws its w from ``seeds[t]`` (the rows in order) and starts from
    its own minimizer's mean -mean(w)/gamma with its own fallback step
    1/smoothness; every spec must have the same n and carry calib.gamma, as
    ``objective_spec`` builds them. Row t is bit for bit estimate_full's
    estimate for specs[t] and seeds[t]. Returns the (S, n) estimates with
    the batch's diagnostics (see solver.minimize); raises ConvergenceError,
    naming the row, at the iteration cap.
    """
    n = specs[0].n
    if any(spec.n != n or spec.gamma != calib.gamma for spec in specs):
        raise ValueError("every spec of a batch needs the same n and the calibration's gamma")
    ws = [np.random.default_rng(seed).laplace(scale=calib.lam, size=n) for seed in seeds]
    # 0.0 - starts at +0.0, not -0.0, when w is all +0.0; max(n, 1) spares an
    # itemless dataset the empty mean's 0/0
    x0 = np.array([np.full(n, (0.0 - w.sum() / max(n, 1)) / calib.gamma) for w in ws])
    w = np.concatenate(ws)
    spec = specs[0] if len(specs) == 1 else _stacked(specs)

    def batch_grad(theta: np.ndarray) -> np.ndarray:
        # grad adds a spec's w last, so adding each row's w here is the same sum
        g = grad(theta.reshape(-1), spec)
        g += w
        return g.reshape(theta.shape)

    steps = np.array([1.0 / smoothness(block) for block in specs])
    return minimize(batch_grad, x0, steps, calib.gamma, default_solver_config(calib.gamma))


def estimate_full(data, calib: PrivacyCalibration, link: LinkFunction,
                  seed=None) -> tuple[np.ndarray, SolveInfo]:
    """Draw the perturbation w (all +0.0 at lambda = 0) and solve from the minimizer's mean.

    Each pair adds its term to item i's gradient and subtracts it from item
    j's, so 1.grad(theta) = gamma 1.theta + 1.w and the minimizer's mean is
    exactly -mean(w)/gamma. The solve starts at that constant vector, which is
    zero at lambda = 0. Its fallback step 1/smoothness(spec) certifies the
    Barzilai-Borwein steps with mu = gamma (see solver.minimize). Returns the
    estimate with solver diagnostics; raises ConvergenceError at the
    iteration cap. This is the one-row case of estimate_batch.
    """
    theta, info = estimate_batch([objective_spec(data, calib, link)], calib, [seed])
    return theta[0], info


def estimate(data, calib: PrivacyCalibration, link: LinkFunction,
             seed=None) -> np.ndarray:
    """The perturbed MLE; see estimate_full for diagnostics."""
    return estimate_full(data, calib, link, seed=seed)[0]
