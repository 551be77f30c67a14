"""Gradient descent with backtracking line search for strongly convex objectives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolverConfig:
    tol: float
    max_iters: int = 200_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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


def minimize(fun, grad, x0: np.ndarray, config: SolverConfig) -> tuple[np.ndarray, SolveInfo]:
    """Descend until the gradient sup-norm falls below config.tol.

    Backtracking halves the step until the Armijo condition holds and doubles
    it again on the next iteration, so no smoothness constant is needed.
    """
    x = np.array(x0, dtype=float)
    g = grad(x)
    f = fun(x)
    step = 1.0
    for it in range(config.max_iters):
        gnorm = float(np.max(np.abs(g))) if len(g) else 0.0
        if gnorm <= config.tol:
            return x, SolveInfo(iterations=it, grad_sup_norm=gnorm, converged=True)
        gsq = float(g @ g)
        # near the optimum the Armijo decrease falls below the float
        # resolution of f; in that regime reuse the last trusted step
        # untested instead of letting the line search collapse
        noise = 1e-12 * (abs(f) + 1.0)
        trial = min(step * 2.0, 1e8)
        accepted = False
        while 0.5 * trial * gsq > noise:
            x_new = x - trial * g
            f_new = fun(x_new)
            if f_new <= f - 0.5 * trial * gsq:
                x, f, step = x_new, f_new, trial
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            x = x - step * g
            f = fun(x)
        g = grad(x)
    gnorm = float(np.max(np.abs(g))) if len(g) else 0.0
    info = SolveInfo(iterations=config.max_iters, grad_sup_norm=gnorm,
                     converged=gnorm <= config.tol)
    if not info.converged:
        raise ConvergenceError(x, info)
    return x, info
