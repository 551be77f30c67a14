"""Negative log-likelihood, gradient, and Hessian for the comparison model.

Both the edge form (one Bernoulli outcome per observed pair) and the
aggregated individual form (per-pair counts and win fractions) reduce to the
same weighted-pair representation, so a single set of routines serves both.
``grad`` and ``hessian`` differentiate the full perturbed objective
nll + (gamma/2)||theta||^2 + w.theta; ``nll`` is the likelihood term alone.

Under the logistic (Bradley-Terry-Luce) link, log F(-t) = log F(t) - t, so a
pair's term has derivative F(t) - ybar and curvature F(t)F(-t) in
t = theta_i - theta_j: each evaluation makes one link pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EdgeDataset, IndividualDataset
from .links import LinkFunction

HESSIAN_DENSE_LIMIT = 2000


def aggregate(data: IndividualDataset
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse raw records to per-pair arrays (i, j, M, ybar).

    Only observed pairs appear, so every comparison count M is positive;
    ybar is the fraction of those comparisons that item i won.
    """
    key = data.i.astype(np.int64) * data.n + data.j
    uniq, inv = np.unique(key, return_inverse=True)
    M = np.bincount(inv, minlength=len(uniq)).astype(float)
    wins = np.bincount(inv, weights=data.y.astype(float), minlength=len(uniq))
    i, j = np.divmod(uniq, data.n)
    return i, j, M, wins / M


@dataclass(frozen=True)
class ObjectiveSpec:
    """A perturbed ridge likelihood: data pairs, logistic link, gamma, noise w."""

    n: int
    i: np.ndarray
    j: np.ndarray
    M: np.ndarray
    ybar: np.ndarray
    link: LinkFunction
    gamma: float = 0.0
    w: np.ndarray | None = None

    def __post_init__(self):
        if self.link.name != "logistic":
            raise ValueError(f"closed-form likelihood needs the logistic link, "
                             f"got {self.link.name!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.w is not None and self.w.shape != (self.n,):
            raise ValueError("w must have length n")

    @classmethod
    def from_edge(cls, data: EdgeDataset, link: LinkFunction,
                  gamma: float = 0.0, w: np.ndarray | None = None) -> "ObjectiveSpec":
        return cls(n=data.n, i=data.graph.i, j=data.graph.j,
                   M=np.ones(data.graph.n_edges), ybar=data.y.astype(float),
                   link=link, gamma=gamma, w=w)

    @classmethod
    def from_individual(cls, data: IndividualDataset, link: LinkFunction,
                        gamma: float = 0.0, w: np.ndarray | None = None) -> "ObjectiveSpec":
        i, j, M, ybar = aggregate(data)
        return cls(n=data.n, i=i, j=j, M=M, ybar=ybar, link=link, gamma=gamma, w=w)


def nll(theta: np.ndarray, spec: ObjectiveSpec) -> float:
    """Likelihood term only; ridge and perturbation excluded."""
    theta = np.asarray(theta, dtype=float)
    t = theta[spec.i] - theta[spec.j]
    # -ybar log F(t) - (1 - ybar) log F(-t) with log F(-t) = log F(t) - t
    terms = (1.0 - spec.ybar) * t - spec.link.log_eval(t)
    return float(np.dot(spec.M, terms))


def objective(theta: np.ndarray, spec: ObjectiveSpec) -> float:
    """nll + (gamma/2)||theta||^2 + w.theta."""
    theta = np.asarray(theta, dtype=float)
    val = nll(theta, spec) + 0.5 * spec.gamma * float(theta @ theta)
    if spec.w is not None:
        val += float(spec.w @ theta)
    return val


def grad(theta: np.ndarray, spec: ObjectiveSpec) -> np.ndarray:
    """Gradient of the full objective (ridge and perturbation included)."""
    theta = np.asarray(theta, dtype=float)
    t = theta[spec.i] - theta[spec.j]
    coef = spec.M * (spec.link.eval(t) - spec.ybar)
    g = np.bincount(spec.i, weights=coef, minlength=spec.n)
    g -= np.bincount(spec.j, weights=coef, minlength=spec.n)
    g += spec.gamma * theta
    if spec.w is not None:
        g += spec.w
    return g


def hessian(theta: np.ndarray, spec: ObjectiveSpec) -> np.ndarray:
    """Dense Hessian of the full objective; materialized only for small n."""
    if spec.n > HESSIAN_DENSE_LIMIT:
        raise ValueError(f"dense Hessian limited to n <= {HESSIAN_DENSE_LIMIT}")
    theta = np.asarray(theta, dtype=float)
    t = theta[spec.i] - theta[spec.j]
    # both outcomes have curvature F(t)F(-t), so ybar drops out
    c = spec.M * spec.link.neg_log_second(t)
    H = np.zeros((spec.n, spec.n))
    np.add.at(H, (spec.i, spec.i), c)
    np.add.at(H, (spec.j, spec.j), c)
    np.subtract.at(H, (spec.i, spec.j), c)
    np.subtract.at(H, (spec.j, spec.i), c)
    H += spec.gamma * np.eye(spec.n)
    return H
