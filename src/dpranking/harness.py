"""Experiment presets, long-format CSV emission, ingestion, and real-data runs.

Every simulation trial draws its randomness from a substream derived by
hashing (master_seed, experiment, n, p, m, L, epsilon, trial), so grid cells
are reproducible independently of execution order and worker count. Output
rows are sorted on a fixed key before writing; reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import counts as counts_mod
from . import metrics as metrics_mod
from .data import (ComparisonGraph, EdgeDataset, IndividualDataset, generate_theta,
                   pair_count, rho_from_theta, sample_edge_outcomes,
                   sample_er_graph, sample_individual)
from .links import get_link
from .mle import calibrate_edge, calibrate_individual, estimate, rank_from_scores

EPS_LEVELS = (0.5, 1.0, 2.5, math.inf)


def eps_token(x: float) -> str:
    """Text for an epsilon or p value that ``parse_eps`` reads back exactly:
    the short "g" form ("0.5", "1", "inf") when it round-trips, else repr."""
    if math.isinf(x):
        return "inf"
    text = format(x, "g")
    return text if float(text) == x else repr(float(x))


def parse_eps(token: str) -> float:
    return math.inf if token.strip().lower() in ("inf", "infinity") else float(token)


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.regime not in ("edge", "individual"):
            raise ValueError("regime must be 'edge' or 'individual'")
        if self.regime == "edge" and not self.p_values:
            raise ValueError("edge regime requires p_values")
        if self.regime == "individual" and not self.m_values:
            raise ValueError("individual regime requires m_values")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """A preset plus run-key overrides, or an explicit grid; unknown keys fail."""
        raw = json.loads(text)
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for key, kind in (("n_values", list), ("epsilon_values", list), ("p_values", list),
                          ("m_values", list), ("L", int), ("trials", int),
                          ("master_seed", int)):
            if key in raw and (not isinstance(raw[key], kind) or isinstance(raw[key], bool)):
                raise ValueError(f"config key {key!r} must be a JSON "
                                 f"{'array' if kind is list else 'integer'}")
        if "preset" in raw and set(raw) <= {"preset", "trials", "master_seed", "output_path"}:
            return replace(preset_config(raw.pop("preset")), **raw)
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in raw and f.name != "preset"]
        if missing:
            raise ValueError(f"missing config key(s): {', '.join(missing)}")
        if "epsilon_values" in raw:
            raw["epsilon_values"] = [parse_eps(str(e)) for e in raw["epsilon_values"]]
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


def _trial_records(cfg: ExperimentConfig, n: int, p, m, eps: float,
                   trial: int) -> list[TrialRecord]:
    link = get_link("logistic")
    L = cfg.L if cfg.regime == "individual" else None
    ss, seed_id = substream(cfg.master_seed, cfg.preset, n, p, m, cfg.L, eps, trial)
    rng = np.random.default_rng(ss)
    k = max(1, n // 4)

    theta_star = generate_theta(n, k, seed=rng, top_inclusive=True)
    rho = rho_from_theta(theta_star, link)
    tau_scores = metrics_mod.tau(rho)
    true_set = metrics_mod.true_topk(tau_scores, k)

    if cfg.regime == "edge":
        graph = sample_er_graph(n, p, seed=rng)
        dataset = sample_edge_outcomes(graph, rho, seed=rng)
    else:
        dataset = sample_individual(n, m, cfg.L, rho, seed=rng)

    common = dict(experiment=cfg.preset, n=n, epsilon=eps, trial=trial,
                  seed=seed_id, p=p, m=m, L=L)
    records = [TrialRecord(algorithm="truth", metric="theta_star_inf_norm",
                           value=float(np.max(np.abs(theta_star))), **common)]

    with warnings.catch_warnings():
        # the utility-guarantee warning would repeat on every trial
        warnings.simplefilter("ignore")
        calib = (calibrate_edge(eps, n, p, link) if cfg.regime == "edge"
                 else calibrate_individual(eps, n, m, cfg.L, link))
    theta_hat = estimate(dataset, calib, link, seed=rng)
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

    wins = counts_mod.win_counts(dataset)
    np_L = cfg.L if cfg.regime == "individual" else 1
    est_set = counts_mod.noisy_topk(wins, k, eps, cfg.regime, L=np_L, seed=rng)
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
    jobs = [(cfg, n, p, m, eps, t)
            for (n, p, m) in _cells(cfg)
            for eps in cfg.epsilon_values
            for t in range(cfg.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_trial_records, *zip(*jobs), chunksize=4))
    else:
        chunks = [_trial_records(*job) for job in jobs]
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
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".12g")
    return str(v)


def write_records_csv(records: list[TrialRecord], path: str) -> None:
    """Stable long-format CSV: LF endings, UTF-8, 12-significant-digit floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for r in records:
            row = [r.experiment, r.algorithm, _fmt(r.n), _fmt(r.p), _fmt(r.m),
                   _fmt(r.L), eps_token(r.epsilon), _fmt(r.trial), r.seed,
                   r.metric, _fmt(r.value)]
            fh.write(",".join(row) + "\n")


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
            a, b, w = row["item_a"], row["item_b"], row["winner"]
            if a == b:
                raise ParseError(f"{path}:{lineno}: self-comparison {a!r}")
            if w not in (a, b):
                raise ParseError(f"{path}:{lineno}: winner {w!r} is neither item")
            yield lineno, row["user_id"], a, b, w


def ingest(path: str, mode: str, L_policy: str = "strict"
           ) -> EdgeDataset | IndividualDataset:
    """Read a raw comparison CSV into a dataset.

    Item names map to 0-based indices by first appearance. Individual mode
    groups rows by user; ``strict`` requires a common L, ``pad-skip`` keeps
    only users matching the modal record count and warns about the rest.
    Edge mode admits at most one comparison per unordered pair.
    """
    if mode not in ("edge", "individual"):
        raise ValueError("mode must be 'edge' or 'individual'")
    if L_policy not in ("strict", "pad-skip"):
        raise ValueError("L_policy must be 'strict' or 'pad-skip'")

    index: dict[str, int] = {}
    users: dict[str, list[tuple[int, int, int]]] = {}
    for lineno, user, a, b, w in _read_rows(path):
        for name in (a, b):
            if name not in index:
                index[name] = len(index)
        ia, ib = index[a], index[b]
        lo, hi = (ia, ib) if ia < ib else (ib, ia)
        y = 1 if index[w] == lo else 0
        users.setdefault(user, []).append((lo, hi, y))
    if not users:
        raise ParseError(f"{path}: no data rows")
    n = len(index)
    items = tuple(sorted(index, key=index.get))

    if mode == "edge":
        recs = [r for rows in users.values() for r in rows]
        seen = set()
        for lo, hi, _ in recs:
            if (lo, hi) in seen:
                raise AdjacencyModelError(
                    f"pair ({items[lo]}, {items[hi]}) compared more than once; "
                    "use individual mode")
            seen.add((lo, hi))
        i = np.array([r[0] for r in recs], dtype=np.int64)
        j = np.array([r[1] for r in recs], dtype=np.int64)
        y = np.array([r[2] for r in recs], dtype=np.int8)
        order = np.lexsort((j, i))
        graph = ComparisonGraph(n=n, i=i[order], j=j[order],
                                p=len(recs) / pair_count(n))
        return EdgeDataset(graph=graph, y=y[order], items=items)

    lengths = {u: len(rows) for u, rows in users.items()}
    tally = Counter(lengths.values())
    L = max(tally, key=lambda c: (tally[c], -c))
    kept = [u for u in users if lengths[u] == L]
    dropped = [u for u in users if lengths[u] != L]
    if dropped and L_policy == "strict":
        raise ParseError(f"user {dropped[0]!r} has {lengths[dropped[0]]} records, "
                         f"expected {L}")
    if dropped:
        warnings.warn(f"dropped {len(dropped)} user(s) with record count != {L}: "
                      f"{dropped}", stacklevel=2)
    i = np.array([r[0] for u in kept for r in users[u]], dtype=np.int64)
    j = np.array([r[1] for u in kept for r in users[u]], dtype=np.int64)
    y = np.array([r[2] for u in kept for r in users[u]], dtype=np.int8)
    return IndividualDataset(n=n, m=len(kept), L=L, i=i, j=j, y=y, items=items)


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
    theta_ref = estimate(data, calib_ref, link, seed=0)
    ranking_mle = metrics_mod.descending_order(theta_ref)
    wins = counts_mod.win_counts(data)
    ranking_copeland = counts_mod.noisy_full_ranking(wins, math.inf, "individual",
                                                     L=data.L)
    bound = max_mean_rank_diff(data.n)
    records = []
    for eps in epsilons:
        calib = calibrate_individual(eps, data.n, data.m, data.L, link)
        for t in range(trials):
            ss, seed_id = substream(seed, "real_data", data.n, None, data.m,
                                    data.L, eps, t)
            rng = np.random.default_rng(ss)
            theta_hat = estimate(data, calib, link, seed=rng)
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

