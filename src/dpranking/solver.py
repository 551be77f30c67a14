"""Gradient descent with safeguarded Barzilai-Borwein steps and a certified fallback 1/L.

Each iteration evaluates one gradient and never the objective, with no line
search (Barzilai & Borwein 1988, two-point step sizes; the nonmonotone
safeguard after Raydan 1997, applied to the gradient norm). ``minimize``
states the step rule and its convergence certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITERS = 200_000
# how many kept gradient norms the safeguard compares a long trial step against
MEMORY = 5


@dataclass(frozen=True)
class SolverConfig:
    tol: float

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    grad_sup_norm: float
    converged: bool


class ConvergenceError(RuntimeError):
    """Raised when the iteration cap is hit; carries the last kept iterate."""

    def __init__(self, theta: np.ndarray, info: SolveInfo):
        super().__init__(
            f"no convergence after {info.iterations} iterations "
            f"(grad sup-norm {info.grad_sup_norm:.3e})"
        )
        self.theta = theta
        self.info = info


def minimize(grad, x0: np.ndarray, step: float, mu: float,
             config: SolverConfig) -> tuple[np.ndarray, SolveInfo]:
    """Minimize an L-smooth, mu-strongly convex function from its gradient alone.

    ``step`` is 1/L. The first step is ``step``; after it the trial length is
    s.s/s.d, with s the last change in x and d the change in gradient, floored
    at ``step`` and replaced by it when s.d <= 0. A trial longer than ``step``
    is kept only if its gradient's 2-norm is at most (1 - mu*step) times the
    largest of the last MEMORY kept norms; otherwise it is discarded and the
    next trial is the plain step from the kept point. The solve returns the
    first evaluated point whose gradient sup-norm is at most config.tol;
    ``iterations`` counts the gradients after the one at x0, discarded trials
    included.

    Certificate: a plain step gives g+ = (I - H/L) g, where H is the Hessian
    averaged over the step, with eigenvalues in [mu, L], so
    ||g+||_2 <= (1 - mu/L) ||g||_2. A longer step is kept only under the same
    bound against the window's maximum, so the largest of the last MEMORY
    kept norms falls by (1 - mu/L) at least once every MEMORY kept steps, and
    a discarded trial costs one gradient before a plain step that is always
    kept: R-linear convergence with no objective evaluation.
    """
    x = g = None
    trial, length = np.array(x0, dtype=float), step
    kept: list[float] = []  # 2-norms of the last MEMORY kept gradients
    for it in range(MAX_ITERS + 1):
        g_trial = grad(trial)
        gnorm = float(np.max(np.abs(g_trial), initial=0.0))
        if gnorm <= config.tol:
            return trial, SolveInfo(iterations=it, grad_sup_norm=gnorm, converged=True)
        norm = float(np.linalg.norm(g_trial))
        if length > step and norm > (1.0 - mu * step) * max(kept):
            length = step
        else:
            if g is not None:
                s, d = trial - x, g_trial - g
                sd = float(s @ d)
                length = max(step, float(s @ s) / sd) if sd > 0 else step
            x, g, kept_sup = trial, g_trial, gnorm
            kept.append(norm)
            del kept[:-MEMORY]
        if it == MAX_ITERS:
            raise ConvergenceError(x, SolveInfo(iterations=it, grad_sup_norm=kept_sup,
                                                converged=False))
        trial = x - length * g
