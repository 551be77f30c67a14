"""Link functions for the parametric comparison model.

A link maps a score difference to a win probability. The shipped instance is
the standard logistic CDF, which recovers the Bradley-Terry-Luce model. The
regularity constants ``kappa1`` and ``kappa2`` bound the score ratio
F'/(F(1-F)) and the second derivative of -log F; they calibrate the noise and
ridge scales of the private estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@np.errstate(over="ignore")  # e^-x is inf below x ~ -709.78, and 1/inf is exactly 0
def expit(x):
    """The logistic CDF F(x) = 1/(1 + e^-x), in one array written in place."""
    z = np.negative(x, dtype=float, out=np.empty(np.shape(x)))
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    return z if z.ndim else z[()]  # a scalar input gives a scalar


def log_expit(x):
    """log F(x) = -log(1 + e^-x), finite at every finite x."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=float))


@dataclass(frozen=True)
class LinkFunction:
    """A symmetric, strictly increasing CDF-like function with derivatives.

    ``eval`` and ``log_eval`` (a stable log F, usable at |x| up to a few
    hundred) feed the likelihood; ``neg_log_second`` (d^2/dx^2 of -log F)
    feeds its Hessian. ``deriv`` and ``neg_log_second`` are also the
    certificate for ``kappa1`` and ``kappa2`` that the link tests check.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    neg_log_second: Callable[[np.ndarray], np.ndarray]
    kappa1: float
    kappa2: float
    log_eval: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.kappa1 <= 0 or self.kappa2 <= 0:
            raise ValueError("kappa constants must be positive")


def logistic_link() -> LinkFunction:
    """The standard logistic CDF with certified constants (kappa1=1, kappa2=57).

    For the logistic, F' = F(1-F) identically, so the score ratio equals 1
    everywhere and kappa1 = 1 is the smallest valid constant. The second
    derivative of -log F is F(1-F), whose supremum is 1/4 < 57 and whose
    minimum over |x| <= 4 is F(4)(1-F(4)) ~ 0.017663 > 1/57; 57 is the
    smallest integer satisfying both bounds.
    """

    def fprime(x):
        x = np.asarray(x, dtype=float)
        return expit(x) * expit(-x)

    return LinkFunction(
        name="logistic",
        eval=expit,
        deriv=fprime,
        neg_log_second=fprime,
        kappa1=1.0,
        kappa2=57.0,
        log_eval=log_expit,
    )


def get_link(name: str) -> LinkFunction:
    """Look up a shipped link by name; the logistic is the only one."""
    if name != "logistic":
        raise ValueError(f"unknown link {name!r}; available: ['logistic']")
    return logistic_link()
