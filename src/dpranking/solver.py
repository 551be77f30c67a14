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
# slot order that shifts a window one place along
_SHIFT = np.roll(np.arange(MEMORY), 1)


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
    row_iterations: tuple[int, ...] = ()  # each row's own count


class ConvergenceError(RuntimeError):
    """Raised when the iteration cap is hit; carries the last kept iterate."""

    def __init__(self, theta: np.ndarray, info: SolveInfo, row: int):
        super().__init__(
            f"row {row}: no convergence after {info.iterations} iterations "
            f"(grad sup-norm {info.grad_sup_norm:.3e})"
        )
        self.theta = theta
        self.info = info
        self.row = row


def minimize(grad, x0: np.ndarray, step, mu: float,
             config: SolverConfig) -> tuple[np.ndarray, SolveInfo]:
    """Minimize S L-smooth, mu-strongly convex functions from their gradients alone.

    ``x0`` is (S, n), one problem per row; ``grad`` maps an (S, n) array to
    the S gradients, and ``step`` holds each row's 1/L (or one for all). Each
    row's first step is its ``step``; after it the trial length is s.s/s.d,
    with s the row's last change in x and d its change in gradient, floored
    at ``step`` and replaced by it when s.d <= 0. A trial longer than ``step``
    is kept only if its gradient's 2-norm is at most (1 - mu*step) times the
    largest of the row's last MEMORY kept norms; otherwise it is discarded
    and the row's next trial is the plain step from its kept point. A row
    stops moving at the first evaluated point whose gradient sup-norm is at
    most config.tol, and the solve returns once every row has. Rows share
    nothing but the calls, so each takes the steps it would take alone.
    ``iterations`` counts the gradients after the one at x0, discarded trials
    included, of the row that took the most, ``row_iterations`` each row's,
    and ``grad_sup_norm`` is the largest row's; at the cap the error names
    the first unconverged row.

    Certificate: a plain step gives g+ = (I - H/L) g, where H is the Hessian
    averaged over the step, with eigenvalues in [mu, L], so
    ||g+||_2 <= (1 - mu/L) ||g||_2. A longer step is kept only under the same
    bound against the window's maximum, so the largest of the last MEMORY
    kept norms falls by (1 - mu/L) at least once every MEMORY kept steps, and
    a discarded trial costs one gradient before a plain step that is always
    kept: R-linear convergence with no objective evaluation.
    """
    x = np.array(x0, dtype=float)
    rows, n = x.shape
    step = np.full(rows, step, dtype=float)
    shrink = 1.0 - mu * step
    tol = config.tol
    # each row's g.g, s.d and s.s come from one stacked matmul of (1, n) @ (n, 1)
    # blocks, which numpy evaluates with the dot routine of the 1-D s @ d;
    # pair[0] holds the left factors (g, s, s) and pair[1] the right (g, d, s)
    pair = np.empty((2, 3, rows, n))
    lhs, rhs = pair[0].reshape(3 * rows, 1, n), pair[1].reshape(3 * rows, n, 1)
    both_g, s, both_s, d = pair[:, 0], pair[0, 1], pair[:, 2], pair[1, 1]
    dots = np.empty((3 * rows, 1, 1))
    gg, sd, ss = dots.reshape(3, rows)
    # with x = x0 the first s is zero, so the first length is the plain step;
    # a row that has met the tolerance holds g = 0, so its trial stays at x
    trial, g, length = x, np.zeros_like(x), step
    # 2-norms of each row's last MEMORY kept gradients, one row of this array
    # per slot (zeros before any are kept, which leaves the max unchanged);
    # slot it % MEMORY holds the oldest
    kept = np.zeros((MEMORY, rows))
    its = np.full(rows, -1)  # the iteration at which each row met the tolerance
    for it in range(MAX_ITERS + 1):
        g_trial = grad(trial)
        gnorm = np.maximum.reduce(np.abs(g_trial), axis=1, initial=0.0)
        met = gnorm <= tol
        n_met = np.count_nonzero(met)
        if n_met == rows:
            its[its < 0] = it
            return trial, SolveInfo(iterations=it, grad_sup_norm=float(np.maximum.reduce(gnorm)),
                                    converged=True, row_iterations=tuple(its.tolist()))
        np.copyto(both_g, g_trial)
        np.subtract(trial, x, out=s)
        np.copyto(both_s, s)
        np.subtract(g_trial, g, out=d)
        np.matmul(lhs, rhs, out=dots)
        norm = np.sqrt(gg)
        reject = (length > step) & (norm > shrink * np.maximum.reduce(kept))
        length = np.fmax(step, np.divide(ss, sd, out=np.zeros(rows), where=sd > 0))
        if np.count_nonzero(reject):
            keep = ~reject
            length = np.where(keep, length, step)
            x = np.where(keep[:, None], trial, x)
            g = np.where(keep[:, None], g_trial, g)
            kept[it % MEMORY, keep] = norm[keep]
            # a row that keeps nothing shifts its window one slot, so the
            # next slot still holds its oldest norm
            kept[:, reject] = kept[_SHIFT][:, reject]
        else:
            x, g = trial, g_trial
            kept[it % MEMORY] = norm
        if n_met:
            its[met & (its < 0)] = it
            x = np.where(met[:, None], trial, x)
            g = np.where(met[:, None], 0.0, g)
        if it == MAX_ITERS:
            row = int(np.argmin(met))
            info = SolveInfo(iterations=it, grad_sup_norm=float(np.max(np.abs(g[row]))),
                             converged=False)
            raise ConvergenceError(x, info, row=row)
        trial = x - length[:, None] * g
