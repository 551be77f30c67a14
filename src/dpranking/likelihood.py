"""Negative log-likelihood, gradient, and Hessian for the comparison model.

Both the edge form (one Bernoulli outcome per observed pair) and the
aggregated individual form (per-pair counts and win fractions) reduce to the
same weighted-pair representation, so a single set of routines serves both.
``grad`` and ``hessian`` differentiate the full perturbed objective
nll + (gamma/2)||theta||^2 + w.theta; ``nll`` is the likelihood term alone.

Under the logistic (Bradley-Terry-Luce) link, log F(-t) = log F(t) - t, so a
pair's term has derivative F(t) - ybar and curvature F(t)F(-t) in
t = theta_i - theta_j: each evaluation makes one link pass.

Pairs are held sorted by i, so each item's i-side terms are one contiguous
run. The gradient sums each run with np.add.reduceat, where a scatter would
add into the same slot one term after another, and scatters only the j side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EdgeDataset, IndividualDataset, check_outcomes
from .links import LinkFunction

HESSIAN_DENSE_LIMIT = 2000


def aggregate(data: IndividualDataset
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse raw records to per-pair arrays (i, j, M, ybar), sorted by (i, j).

    Only observed pairs appear, so every comparison count M is positive;
    ybar is the fraction of those comparisons that item i won. The records
    are sorted once by the key (i n + j) 2 + y, so each pair is one run of
    keys, its losses before its wins.
    """
    check_outcomes(data.y)
    # the narrower key sorts about twice as fast
    dtype = np.int32 if 2 * data.n * data.n <= np.iinfo(np.int32).max else np.int64
    key = data.i.astype(dtype)
    key *= data.n
    key += data.j.astype(dtype)
    key *= 2
    np.add(key, data.y, out=key, casting="unsafe")  # y is 0 or 1 in any dtype
    key.sort()
    # the last record of each run of equal keys, then of each run of equal pairs
    last = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    run_key, run_end = key[last], np.flatnonzero(last) + 1
    pair = run_key >> 1
    last = np.ones(len(pair), dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=last[:-1])
    # records per run, and per pair, from the record counts at their ends
    count = run_end - np.concatenate(([0], run_end[:-1]))
    M = (run_end[last] - np.concatenate(([0], run_end[last][:-1]))).astype(float)
    # a pair's losses come before its wins, so its last run holds the wins if any
    wins = count[last] * (run_key[last] & 1).astype(float)
    i, j = np.divmod(pair[last].astype(np.int64), data.n)
    return i, j, M, wins / M


@dataclass(frozen=True)
class ObjectiveSpec:
    """A perturbed ridge likelihood: data pairs, logistic link, gamma, noise w.

    The pairs must be sorted by i. ``_starts`` holds the first pair of each
    run of equal i and ``_rows`` that run's i.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    M: np.ndarray
    ybar: np.ndarray
    link: LinkFunction
    gamma: float = 0.0
    w: np.ndarray | None = None
    _starts: np.ndarray = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.link.name != "logistic":
            raise ValueError(f"closed-form likelihood needs the logistic link, "
                             f"got {self.link.name!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.w is not None and self.w.shape != (self.n,):
            raise ValueError("w must have length n")
        # lambda's calibration needs |F(t) - ybar| <= 1; written so that NaN fails it
        if self.ybar.size and not (self.ybar.min() >= 0 and self.ybar.max() <= 1):
            raise ValueError("outcomes must be 0 or 1: a pair's ybar lies outside [0, 1]")
        # the prepended i[0] - 1 makes the first pair start a run
        step = np.diff(self.i, prepend=self.i[:1] - 1)
        if np.any(step < 0):
            raise ValueError("pairs must be sorted by i")
        starts = np.flatnonzero(step)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_rows", self.i[starts])

    @classmethod
    def from_edge(cls, data: EdgeDataset, link: LinkFunction,
                  gamma: float = 0.0, w: np.ndarray | None = None) -> "ObjectiveSpec":
        check_outcomes(data.y)
        return cls(n=data.n, i=data.i, j=data.j, M=np.ones(len(data.y)),
                   ybar=data.y.astype(float), link=link, gamma=gamma, w=w)

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
    t = theta[spec.i]
    t -= theta[spec.j]
    coef = spec.link.eval(t)
    coef -= spec.ybar
    coef *= spec.M
    # start from the ridge: an edgeless spec's bincounts are integer zeros
    g = spec.gamma * theta
    g += np.bincount(spec._rows, np.add.reduceat(coef, spec._starts), spec.n)
    g -= np.bincount(spec.j, coef, spec.n)
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


def smoothness(spec: ObjectiveSpec) -> float:
    """L >= the objective Hessian's largest eigenvalue at every theta.

    Each pair's curvature F(t)F(-t) is at most 1/4, so the Hessian is at most
    Lap(M)/4 + gamma*I. The weighted Laplacian's largest eigenvalue is at most
    twice its largest weighted degree (Gershgorin), and at most n*max(M), since
    max(M)*Lap(K_n) - Lap(M) is a nonnegative sum of pair Laplacians and
    Lap(K_n) has largest eigenvalue n. The second bound is exact on a complete
    graph with uniform M at theta = 0; the first is the smaller on sparse graphs.
    """
    degree = np.bincount(spec._rows, np.add.reduceat(spec.M, spec._starts), spec.n)
    degree += np.bincount(spec.j, spec.M, spec.n)
    lap_max = min(2.0 * float(np.max(degree, initial=0.0)),
                  spec.n * float(np.max(spec.M, initial=0.0)))
    return 0.25 * lap_max + spec.gamma
