"""Command-line interface: simulate, estimate, rank, audit, ingest-rank."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import audit as audit_mod
from . import counts as counts_mod
from .data import (generate_theta, pair_count, rho_from_theta, sample_edge_outcomes,
                   sample_er_graph, sample_individual)
from .harness import (ExperimentConfig, eps_token, ingest, parse_eps, real_data_eval,
                      run_experiment, write_records_csv)
from .links import get_link
from .metrics import descending_order
from .mle import calibrate_edge, calibrate_individual, estimate_full, rank_from_scores

SEED_ENV = "DPRANKING_MASTER_SEED"


def _int_at_least(low: int):
    """An argparse type for integers >= low, so a bad value exits 2 naming its flag."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)
    return integer


def _epsilon(text: str) -> float:
    try:
        return parse_eps(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _epsilons(text: str) -> list[float]:
    return [_epsilon(tok) for tok in text.split(",")]


def _checked_k(k: int, data) -> int:
    if k > data.n:
        raise ValueError(f"argument --k: {k} exceeds the {data.n} items in the data")
    return k


def _cmd_simulate(args):
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    except ValueError as exc:  # bad JSON or a bad key: name the file
        raise ValueError(f"{args.config}: {exc}") from None
    if args.out:
        from dataclasses import replace
        cfg = replace(cfg, output_path=args.out)
    records = run_experiment(cfg, workers=args.workers)
    if not cfg.output_path:
        write_records_csv(records, "/dev/stdout")
    else:
        print(f"wrote {len(records)} rows to {cfg.output_path}", file=sys.stderr)
    return 0


def _cmd_estimate(args):
    link = get_link("logistic")
    data = ingest(args.data, mode=args.mode)
    if args.mode == "edge":
        calib = calibrate_edge(args.epsilon, data.n, len(data.y) / pair_count(data.n), link)
    else:
        calib = calibrate_individual(args.epsilon, data.n, data.m, data.L, link)
    theta, info = estimate_full(data, calib, link, seed=args.seed)
    k = _checked_k(args.k or max(1, data.n // 4), data)
    names = data.item_names()
    out = {
        "epsilon": eps_token(args.epsilon),
        "theta": {names[i]: float(theta[i]) for i in range(data.n)},
        "ranking": [names[i] for i in descending_order(theta)],
        "top_k": sorted(names[i] for i in rank_from_scores(theta, k)),
        "diagnostics": {
            "iterations": info.iterations,
            "final_grad_sup_norm": info.grad_sup_norm,
            "floor_binding": calib.floor_binding,
            "utility_guarantee_applies": calib.utility_guarantee_applies,
            "lambda": calib.lam,
            "gamma": calib.gamma,
        },
    }
    text = json.dumps(out, indent=2, allow_nan=False)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        with open(args.out + ".diag.json", "w", encoding="utf-8") as fh:
            json.dump(out["diagnostics"], fh, indent=2, allow_nan=False)
    return 0


def _cmd_rank(args):
    data = ingest(args.data, mode=args.mode)
    wins = counts_mod.win_counts(data)
    top = counts_mod.noisy_topk(wins, _checked_k(args.k, data), args.epsilon, args.mode,
                                L=data.L, seed=args.seed)
    names = data.item_names()
    print(json.dumps({"epsilon": eps_token(args.epsilon), "k": args.k,
                      "top_k": sorted(names[i] for i in top)}, indent=2, allow_nan=False))
    return 0


def _cmd_audit(args):
    rng = np.random.default_rng(args.seed)
    link = get_link("logistic")
    n, k = 4, 2
    theta = generate_theta(n, k, seed=rng, top_inclusive=True)
    rho = rho_from_theta(theta, link)
    if args.mode == "edge":
        graph = sample_er_graph(n, 1.0, seed=rng)
        base = sample_edge_outcomes(graph, rho, seed=rng)
        pair = audit_mod.enumerate_adjacent(base, budget=1, seed=rng)[0]
    else:
        base = sample_individual(n, 50, L=5, rho=rho, seed=rng)
        pair = audit_mod.extremal_user_pair(base, k)
    sens = audit_mod.sensitivity_check([pair])
    mechanism = audit_mod.CountTopKMechanism(k=k, epsilon=args.epsilon, regime=args.mode,
                                             L=base.L)
    est = audit_mod.estimate_epsilon(mechanism, pair, args.samples, seed=rng)
    eps_hat = est.epsilon_hat
    print(json.dumps({
        "mode": args.mode,
        "epsilon_declared": eps_token(est.epsilon_declared),
        # JSON has no Infinity or NaN: inf is written "inf", an inconclusive NaN null
        "epsilon_hat": (None if np.isnan(eps_hat) else
                        eps_hat if np.isfinite(eps_hat) else eps_token(eps_hat)),
        "max_l1_sensitivity": sens.max_l1,
        "per_coordinate_max": sens.per_coordinate_max,
        "samples": est.samples,
    }, indent=2, allow_nan=False))
    return 0


def _cmd_ingest_rank(args):
    data = ingest(args.data, mode="individual")
    records = real_data_eval(data, args.epsilons, trials=args.trials, seed=args.seed)
    write_records_csv(records, args.out or "/dev/stdout")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpranking",
        description="Differentially private ranking from pairwise comparisons")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse applies type=int to a string default, so a bad value exits 2
    seed = {"type": int, "default": os.environ.get(SEED_ENV, "0")}

    p = sub.add_parser("simulate", help="run an experiment config and emit CSV")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", help="output CSV path (overrides config)")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="perturbed MLE on an ingested dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["edge", "individual"], required=True)
    p.add_argument("--epsilon", type=_epsilon, required=True,
                   help="positive value or 'inf'")
    p.add_argument("--seed", **seed)
    p.add_argument("--k", type=_int_at_least(1))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("rank", help="noisy-count top-k on an ingested dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["edge", "individual"], required=True)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--seed", **seed)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("audit", help="sensitivity and empirical-epsilon audit")
    p.add_argument("--mode", choices=["edge", "individual"], required=True)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--samples", type=_int_at_least(audit_mod.MIN_EPSILON_SAMPLES),
                   default=1_000_000)
    p.add_argument("--seed", **seed)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("ingest-rank", help="real-data rank-difference evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilons", type=_epsilons, required=True,
                   help="comma-separated, may include inf")
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", **seed)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingest_rank)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # unreadable or malformed input
        print(f"dpranking {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
