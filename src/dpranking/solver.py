"""Gradient descent with a fixed step 1/L, where L bounds the curvature everywhere.

On an L-smooth, mu-strongly convex objective each step shrinks the distance to
the minimizer by a factor (1 - mu/L), so the solve needs no line search and
never evaluates the objective itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ITERS = 200_000


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
    """Raised when the iteration cap is hit; carries the last iterate."""

    def __init__(self, theta: np.ndarray, info: SolveInfo):
        super().__init__(
            f"no convergence after {info.iterations} iterations "
            f"(grad sup-norm {info.grad_sup_norm:.3e})"
        )
        self.theta = theta
        self.info = info


def minimize(grad, x0: np.ndarray, step: float,
             config: SolverConfig) -> tuple[np.ndarray, SolveInfo]:
    """Step x -= step * grad(x) until the gradient sup-norm is at most config.tol."""
    x = np.array(x0, dtype=float)
    for it in range(MAX_ITERS + 1):
        g = grad(x)
        gnorm = float(np.max(np.abs(g), initial=0.0))
        if gnorm <= config.tol:
            return x, SolveInfo(iterations=it, grad_sup_norm=gnorm, converged=True)
        if it == MAX_ITERS:
            raise ConvergenceError(x, SolveInfo(iterations=it, grad_sup_norm=gnorm,
                                                converged=False))
        x -= step * g
