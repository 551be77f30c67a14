"""Experiment presets, long-format CSV emission, ingestion, and real-data runs.

Every simulation trial draws its randomness from a substream derived by
hashing (master_seed, experiment, n, p, m, L, epsilon, trial), so grid cells
are reproducible independently of execution order and worker count. A grid
runs in batches, one per job: consecutive trials of one (n, p or m, epsilon)
cell, as many as fit under PAIR_BUDGET stacked pairs. A batch's trials are
drawn in order, reduced to their aggregated pairs and win counts, and their
perturbed MLEs solved together by ``mle.estimate_batch``. Output rows are
sorted on a fixed key before writing; reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from . import counts as counts_mod
from . import metrics as metrics_mod
from .data import (ComparisonGraph, EdgeDataset, IndividualDataset, generate_theta,
                   pair_count, rho_from_theta, sample_edge_outcomes, sample_er_graph,
                   sample_individual)
from .links import get_link
from .mle import (calibrate_edge, calibrate_individual, estimate_batch, objective_spec,
                  rank_from_scores)

EPS_LEVELS = (0.5, 1.0, 2.5, math.inf)


def eps_token(x: float) -> str:
    """Text for an epsilon or p value that ``parse_eps`` reads back exactly:
    the short "g" form ("0.5", "1", "inf") when it round-trips, else repr."""
    if math.isinf(x):
        return "inf"
    text = format(x, "g")
    return text if float(text) == x else repr(float(x))


def parse_eps(token: str) -> float:
    """Read an epsilon token: a positive number, or "inf" for the non-private sentinel."""
    eps = float(token)  # float reads "inf" and "Infinity" in any case
    if not eps > 0:
        raise ValueError(f"epsilon must be positive or 'inf', got {token!r}")
    return eps


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str  # exp1..exp7 or "custom"
    regime: str  # "edge" | "individual"
    n_values: tuple[int, ...]
    epsilon_values: tuple[float, ...]
    p_values: tuple[float, ...] = ()
    m_values: tuple[int, ...] = ()
    L: int = 1
    trials: int = 50
    master_seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        # csv.writer quotes \n but writes \r bare, which ends a row on reading
        if "\r" in self.preset:
            raise ValueError("config key 'preset' must not hold a carriage return")
        for key in ("trials", "L", "master_seed"):
            value = getattr(self, key)
            # a bool is an int, and True would run as 1
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"config key {key!r} must be a JSON integer")
            if key != "master_seed" and value < 1:
                raise ValueError(f"config key {key!r} must be >= 1, got {value!r}")
        for key, kind, ok, want in (
                ("n_values", Integral, lambda v: v >= 2, "integers >= 2"),
                ("m_values", Integral, lambda v: v >= 1, "integers >= 1"),
                ("p_values", Real, lambda v: 0 < v <= 1, "numbers in (0, 1]"),
                ("epsilon_values", Real, lambda v: v > 0, "numbers > 0 or 'inf'")):
            values = getattr(self, key)
            bad = [v for v in values if isinstance(v, bool) or not isinstance(v, kind)
                   or not ok(v)] if isinstance(values, (tuple, list)) else [values]
            if bad:
                raise ValueError(f"config key {key!r} must be a JSON array of {want}, "
                                 f"got {bad[0]!r}")
        if self.regime not in ("edge", "individual"):
            raise ValueError("regime must be 'edge' or 'individual'")
        if self.regime == "edge" and not self.p_values:
            raise ValueError("edge regime requires p_values")
        if self.regime == "individual" and not self.m_values:
            raise ValueError("individual regime requires m_values")
        # a grid ignores the other regime's keys, but substream keys every trial
        # on L, so a stray L would silently reseed an edge grid
        for key, owner, stray in (("p_values", "edge", self.p_values),
                                  ("L", "individual", self.L != 1),
                                  ("m_values", "individual", self.m_values)):
            if stray and owner != self.regime:
                raise ValueError(f"config key {key!r} belongs to the {owner} regime")
        for key in ("n_values", "epsilon_values"):
            if not getattr(self, key):
                raise ValueError(f"config key {key!r} must hold at least one value")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """A preset plus run-key overrides, or an explicit grid; unknown keys fail."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        # the preset names the CSV's experiment column; a null output_path is stdout
        for key, kind in (("preset", str), ("output_path", (str, type(None)))):
            if not isinstance(raw.get(key, ""), kind):
                raise ValueError(f"config key {key!r} must be a JSON string")
        if "preset" in raw and set(raw) <= {"preset", "trials", "master_seed", "output_path"}:
            return replace(preset_config(raw.pop("preset")), **raw)
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in raw and f.name != "preset"]
        if missing:
            raise ValueError(f"missing config key(s): {', '.join(missing)}")
        try:
            if isinstance(raw["epsilon_values"], list):
                raw["epsilon_values"] = [parse_eps(str(e)) for e in raw["epsilon_values"]]
        except ValueError:
            raise ValueError("config key 'epsilon_values' must hold numbers > 0 "
                             "or 'inf'") from None
        return cls(**{"preset": "custom",
                      **{k: tuple(v) if isinstance(v, list) else v
                         for k, v in raw.items()}})


def preset_config(name: str) -> ExperimentConfig:
    """Desk-scale versions of the simulation experiments."""
    if name in ("exp1", "exp4"):
        return ExperimentConfig(preset=name, regime="edge", n_values=(50, 100, 200),
                                p_values=(1.0,), epsilon_values=EPS_LEVELS)
    if name in ("exp2", "exp3"):
        return ExperimentConfig(preset=name, regime="edge", n_values=(300,),
                                p_values=(0.25, 0.5, 0.75, 1.0),
                                epsilon_values=EPS_LEVELS)
    if name == "exp5":
        return ExperimentConfig(preset=name, regime="individual", n_values=(8, 16, 32),
                                m_values=(1000,), L=5, epsilon_values=EPS_LEVELS)
    if name in ("exp6", "exp7"):
        return ExperimentConfig(preset=name, regime="individual", n_values=(16,),
                                m_values=(250, 500, 1000, 2000), L=5,
                                epsilon_values=EPS_LEVELS)
    raise ValueError(f"unknown preset {name!r}")


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    algorithm: str
    n: int
    epsilon: float
    trial: int
    seed: str
    metric: str
    value: float
    p: float | None = None
    m: int | None = None
    L: int | None = None

    def sort_key(self):
        return (self.experiment, self.n,
                -1.0 if self.p is None else self.p,
                -1 if self.m is None else self.m,
                eps_token(self.epsilon), self.trial, self.algorithm, self.metric)


def substream(master_seed: int, experiment: str, n: int, p, m, L: int,
              eps: float, trial: int) -> tuple[np.random.SeedSequence, str]:
    """Deterministic per-trial seed sequence and a short id for the CSV."""
    p_tok = "" if p is None else eps_token(p)
    m_tok = "" if m is None else str(m)
    key = f"{master_seed}|{experiment}|{n}|{p_tok}|{m_tok}|{L}|{eps_token(eps)}|{trial}"
    digest = hashlib.sha256(key.encode()).digest()
    words = [int.from_bytes(digest[8 * t:8 * (t + 1)], "little") for t in range(4)]
    return np.random.SeedSequence(words), digest[:8].hex()


# most stacked pairs in one batched solve: the trials of a cell are solved in
# groups whose complete graphs fit, and a trial whose graph does not runs alone.
# A batch evaluates every row's gradient until its slowest row converges, so it
# pays only while per-call overhead outweighs the pairs' arithmetic. Timed per
# trial against one-row solves (2-core Xeon, numpy 2.4; edge, p = 1, eps 1 and
# inf): 5-13 trials at n = 50 took 0.4-0.6x as long, 3 at n = 100 0.9x, but 2
# at n = 130 1.1-1.3x and 6 at n = 100 1.6-2.2x; 12-33 trials at n = 32
# (individual) took 0.2-0.4x.
# Under this budget a trial of more than 4,096 pairs (n >= 92) runs alone.
PAIR_BUDGET = 1 << 13


def _batches(count: int, pairs: int) -> list[range]:
    """Consecutive groups of ``count`` trials, each within PAIR_BUDGET at ``pairs`` apiece."""
    size = max(1, PAIR_BUDGET // max(pairs, 1))
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _draw_trial(cfg: ExperimentConfig, n: int, p, m, eps: float, trial: int, calib,
                link) -> tuple:
    """A trial's draws before its solve: its seed id and stream, theta*, and its
    data reduced to the objective's pairs and the win counts (the records are dropped)."""
    ss, seed_id = substream(cfg.master_seed, cfg.preset, n, p, m, cfg.L, eps, trial)
    rng = np.random.default_rng(ss)
    theta_star = generate_theta(n, max(1, n // 4), seed=rng, top_inclusive=True)
    rho = rho_from_theta(theta_star, link)
    if cfg.regime == "edge":
        dataset = sample_edge_outcomes(sample_er_graph(n, p, seed=rng), rho, seed=rng)
    else:
        dataset = sample_individual(n, m, cfg.L, rho, seed=rng)
    return (seed_id, rng, theta_star, objective_spec(dataset, calib, link),
            counts_mod.win_counts(dataset))


def _batch_records(cfg: ExperimentConfig, n: int, p, m, eps: float,
                   trials: range) -> list[TrialRecord]:
    """Draw ``trials`` of one (n, p or m, epsilon) cell in order, solve their
    MLEs as one batch, then score them.

    A trial's stream draws theta*, then its data, then its w (in the solve),
    then its count noise, so its records do not depend on the batch.
    """
    link = get_link("logistic")
    if cfg.regime == "edge":
        calib = calibrate_edge(eps, n, p, link)
    else:
        calib = calibrate_individual(eps, n, m, cfg.L, link)
    k = max(1, n // 4)
    seed_ids, rngs, theta_stars, specs, wins = zip(
        *[_draw_trial(cfg, n, p, m, eps, t, calib, link) for t in trials])
    thetas, _ = estimate_batch(list(specs), calib, rngs)
    records = []
    for trial, seed_id, rng, theta_star, theta_hat, counts in zip(
            trials, seed_ids, rngs, theta_stars, thetas, wins):
        # tau rises strictly with theta, which ties only inside its top group
        true_set = rank_from_scores(theta_star, k)
        common = dict(experiment=cfg.preset, n=n, epsilon=eps, trial=trial, seed=seed_id,
                      p=p, m=m, L=cfg.L if cfg.regime == "individual" else None)
        records.append(TrialRecord(algorithm="truth", metric="theta_star_inf_norm",
                                   value=float(np.max(np.abs(theta_star))), **common))
        est_set = rank_from_scores(theta_hat, k)
        centered = theta_hat - theta_hat.mean()
        values = {
            "linf_rel_log": metrics_mod.linf_rel_log_error(theta_hat, theta_star),
            "l2_rel_log": metrics_mod.l2_rel_log_error(theta_hat, theta_star),
            "linf_rel_log_centered": metrics_mod.linf_rel_log_error(centered, theta_star),
            "l2_rel_log_centered": metrics_mod.l2_rel_log_error(centered, theta_star),
            "linf_error": float(np.max(np.abs(theta_hat - theta_star))),
            "topk_overlap_loss": metrics_mod.topk_overlap_loss(est_set, true_set, k),
            "hamming": float(metrics_mod.hamming_sets(est_set, true_set)),
        }
        records += [TrialRecord(algorithm="parametric", metric=name, value=val, **common)
                    for name, val in values.items()]

        est_set = counts_mod.noisy_topk(counts, k, eps, cfg.regime, L=calib.L, seed=rng)
        values = {
            "topk_overlap_loss": metrics_mod.topk_overlap_loss(est_set, true_set, k),
            "hamming": float(metrics_mod.hamming_sets(est_set, true_set)),
        }
        records += [TrialRecord(algorithm="nonparametric", metric=name, value=val, **common)
                    for name, val in values.items()]
    return records


def _cells(cfg: ExperimentConfig):
    if cfg.regime == "edge":
        return [(n, p, None) for n in cfg.n_values for p in cfg.p_values]
    return [(n, None, m) for n in cfg.n_values for m in cfg.m_values]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[TrialRecord]:
    """Run all grid cells and trials; write CSV if output_path is set."""
    jobs = [(cfg, n, p, m, eps, batch) for (n, p, m) in _cells(cfg)
            for eps in cfg.epsilon_values
            for batch in _batches(cfg.trials, pair_count(n))]
    if workers > 1:
        # multiprocessing costs start-up time that a serial run never repays
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_batch_records, *zip(*jobs), chunksize=4))
    else:
        chunks = [_batch_records(*job) for job in jobs]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=TrialRecord.sort_key)
    if cfg.output_path:
        write_records_csv(records, cfg.output_path)
    return records


CSV_HEADER = ["experiment", "algorithm", "n", "p", "m", "L", "epsilon",
              "trial", "seed", "metric", "value"]


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(v, ".12g") if isinstance(v, float) else str(v)


def write_records_csv(records: list[TrialRecord], path: str) -> None:
    """Stable long-format CSV: LF endings, UTF-8, 12-digit values, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        # p is written as substream keys it, so the text reads back to that p
        writer.writerows([r.experiment, r.algorithm, _fmt(r.n),
                          "" if r.p is None else eps_token(r.p), _fmt(r.m),
                          _fmt(r.L), eps_token(r.epsilon), _fmt(r.trial), r.seed,
                          r.metric, _fmt(r.value)] for r in records)


# ---------------------------------------------------------------------------
# ingestion of raw comparison files


class ParseError(ValueError):
    pass


class AdjacencyModelError(ValueError):
    pass


REQUIRED_COLUMNS = ("user_id", "item_a", "item_b", "winner")


def _read_rows(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(REQUIRED_COLUMNS) <= set(reader.fieldnames):
            raise ParseError(f"{path}: header must contain {REQUIRED_COLUMNS}")
        for lineno, row in enumerate(reader, start=2):
            # DictReader fills the fields of a truncated line with None
            missing = [key for key in REQUIRED_COLUMNS if not row[key]]
            if missing:
                raise ParseError(f"{path}:{lineno}: row is missing {', '.join(missing)}")
            a, b, w = row["item_a"], row["item_b"], row["winner"]
            if a == b:
                raise ParseError(f"{path}:{lineno}: self-comparison {a!r}")
            if w not in (a, b):
                raise ParseError(f"{path}:{lineno}: winner {w!r} is neither item")
            yield lineno, row["user_id"], a, b, w


def ingest(path: str, mode: str) -> EdgeDataset | IndividualDataset:
    """Read a raw comparison CSV into a dataset.

    Item names map to 0-based indices by first appearance. Individual mode
    groups rows by user and requires every user to hold the modal record
    count L; a user who does not is a ParseError that names them and the
    line of their first record. Edge mode admits at most one comparison per
    unordered pair, and a repeat names both lines.
    """
    if mode not in ("edge", "individual"):
        raise ValueError("mode must be 'edge' or 'individual'")

    index: dict[str, int] = {}
    users: dict[str, list[tuple[int, int, int]]] = {}
    user_line: dict[str, int] = {}
    pair_line: dict[tuple[int, int], int] = {}
    for lineno, user, a, b, w in _read_rows(path):
        for name in (a, b):
            if name not in index:
                index[name] = len(index)
        ia, ib = index[a], index[b]
        lo, hi = (ia, ib) if ia < ib else (ib, ia)
        if mode == "edge":
            if (lo, hi) in pair_line:
                first, second = (a, b) if ia < ib else (b, a)
                raise AdjacencyModelError(
                    f"{path}:{lineno}: pair ({first}, {second}) compared more than "
                    f"once (first on line {pair_line[lo, hi]}); use individual mode")
            pair_line[lo, hi] = lineno
        y = 1 if index[w] == lo else 0
        users.setdefault(user, []).append((lo, hi, y))
        user_line.setdefault(user, lineno)
    if not users:
        raise ParseError(f"{path}: no data rows")
    n = len(index)
    items = tuple(sorted(index, key=index.get))
    recs = [r for rows in users.values() for r in rows]
    i = np.array([r[0] for r in recs], dtype=np.int64)
    j = np.array([r[1] for r in recs], dtype=np.int64)
    y = np.array([r[2] for r in recs], dtype=np.int8)

    if mode == "edge":
        order = np.lexsort((j, i))
        return EdgeDataset(graph=ComparisonGraph(n=n, i=i[order], j=j[order]),
                           y=y[order], items=items)

    tally = Counter(len(rows) for rows in users.values())
    L = max(tally, key=lambda c: (tally[c], -c))
    for user, rows in users.items():
        if len(rows) != L:
            raise ParseError(f"{path}:{user_line[user]}: user {user!r} has {len(rows)} "
                             f"records, expected {L}")
    return IndividualDataset(n=n, m=len(users), L=L, i=i, j=j, y=y, items=items)


# ---------------------------------------------------------------------------
# real-data evaluation


def max_mean_rank_diff(n: int) -> float:
    """Largest possible mean absolute rank displacement, attained by reversal."""
    return 2.0 * (n * n // 4) / n


def real_data_eval(data: IndividualDataset, epsilons, trials: int,
                   seed: int = 0) -> list[TrialRecord]:
    """Mean rank difference of the private rankings against non-private references.

    The references are the ridge MLE ordering (epsilon = inf calibration) and
    the exact Copeland ordering.
    """
    link = get_link("logistic")
    calib_ref = calibrate_individual(math.inf, data.n, data.m, data.L, link)
    # the records are aggregated once; each epsilon only changes gamma
    spec = objective_spec(data, calib_ref, link)
    theta_ref = estimate_batch([spec], calib_ref, [0])[0][0]
    ranking_mle = metrics_mod.descending_order(theta_ref)
    wins = counts_mod.win_counts(data)
    ranking_copeland = counts_mod.noisy_full_ranking(wins, math.inf, "individual",
                                                     L=data.L)
    bound = max_mean_rank_diff(data.n)
    records = []
    for eps in epsilons:
        calib = calibrate_individual(eps, data.n, data.m, data.L, link)
        spec_eps = replace(spec, gamma=calib.gamma)
        for batch in _batches(trials, len(spec.i)):
            streams = [substream(seed, "real_data", data.n, None, data.m, data.L, eps, t)
                       for t in batch]
            rngs = [np.random.default_rng(ss) for ss, _ in streams]
            thetas, _ = estimate_batch([spec_eps] * len(batch), calib, rngs)
            for t, (_, seed_id), rng, theta_hat in zip(batch, streams, rngs, thetas):
                diff_par = metrics_mod.mean_abs_rank_diff(
                    metrics_mod.descending_order(theta_hat), ranking_mle)
                ranking_np = counts_mod.noisy_full_ranking(wins, eps, "individual",
                                                           L=data.L, seed=rng)
                diff_np = metrics_mod.mean_abs_rank_diff(ranking_np, ranking_copeland)
                for algo, val in (("parametric", diff_par), ("nonparametric", diff_np)):
                    if not 0.0 <= val <= bound + 1e-12:
                        raise AssertionError(
                            f"rank difference {val} outside [0, {bound}]")
                    records.append(TrialRecord(
                        experiment="real_data", algorithm=algo, n=data.n, epsilon=eps,
                        trial=t, seed=seed_id, metric="mean_abs_rank_diff", value=val,
                        m=data.m, L=data.L))
    records.sort(key=TrialRecord.sort_key)
    return records

