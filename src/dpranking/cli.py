"""Command-line interface: simulate, estimate, rank, audit, ingest-rank."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import audit as audit_mod
from . import counts as counts_mod
from .data import sample_er_graph, sample_edge_outcomes, rho_from_theta, generate_theta, sample_individual
from .harness import (ExperimentConfig, eps_token, ingest, parse_eps, real_data_eval,
                      run_experiment, write_records_csv)
from .links import get_link
from .metrics import descending_order
from .mle import calibrate_edge, calibrate_individual, estimate_full, rank_from_scores

SEED_ENV = "DPRANKING_MASTER_SEED"


def _default_seed(args_seed):
    if args_seed is not None:
        return args_seed
    return int(os.environ.get(SEED_ENV, "0"))


def _cmd_simulate(args):
    with open(args.config, encoding="utf-8") as fh:
        cfg = ExperimentConfig.from_json(fh.read())
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
    data = ingest(args.data, mode=args.mode, L_policy=args.l_policy)
    eps = parse_eps(args.epsilon)
    if args.mode == "edge":
        calib = calibrate_edge(eps, data.n, data.graph.p, link)
    else:
        calib = calibrate_individual(eps, data.n, data.m, data.L, link)
    seed = _default_seed(args.seed)
    theta, info = estimate_full(data, calib, link, seed=seed)
    k = args.k or max(1, data.n // 4)
    names = data.item_names()
    out = {
        "epsilon": eps_token(eps),
        "theta": {names[i]: float(theta[i]) for i in range(data.n)},
        "ranking": [names[i] for i in descending_order(theta)],
        "top_k": sorted(names[i] for i in rank_from_scores(theta, k)),
        "diagnostics": {
            "iterations": info.iterations,
            "final_grad_sup_norm": info.grad_sup_norm,
            "floor_binding": calib.floor_binding,
            "lambda": calib.lam,
            "gamma": calib.gamma,
        },
    }
    text = json.dumps(out, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        with open(args.out + ".diag.json", "w", encoding="utf-8") as fh:
            json.dump(out["diagnostics"], fh, indent=2)
    return 0


def _cmd_rank(args):
    data = ingest(args.data, mode=args.mode, L_policy=args.l_policy)
    eps = parse_eps(args.epsilon)
    wins = counts_mod.win_counts(data)
    L = data.L if args.mode == "individual" else 1
    seed = _default_seed(args.seed)
    top = counts_mod.noisy_topk(wins, args.k, eps, args.mode, L=L, seed=seed)
    names = data.item_names()
    print(json.dumps({"epsilon": eps_token(eps), "k": args.k,
                      "top_k": sorted(names[i] for i in top)}, indent=2))
    return 0


def _cmd_audit(args):
    eps = parse_eps(args.epsilon)
    seed = _default_seed(args.seed)
    rng = np.random.default_rng(seed)
    link = get_link("logistic")
    n, k = 4, 2
    theta = generate_theta(n, k, seed=rng, top_inclusive=True)
    rho = rho_from_theta(theta, link)
    if args.mode == "edge":
        graph = sample_er_graph(n, 1.0, seed=rng)
        base = sample_edge_outcomes(graph, rho, seed=rng)
        pair = audit_mod.enumerate_adjacent(base, budget=1, seed=rng)[0]
        L = 1
    else:
        L = 5
        base = sample_individual(n, 50, L, rho, seed=rng)
        pair = audit_mod.extremal_user_pair(base, k)
    sens = audit_mod.sensitivity_check([pair])
    mechanism = audit_mod.CountTopKMechanism(k=k, epsilon=eps, regime=args.mode, L=L)
    est = audit_mod.estimate_epsilon(mechanism, pair, args.samples, seed=rng)
    print(json.dumps({
        "mode": args.mode,
        "epsilon_declared": eps_token(est.epsilon_declared),
        "epsilon_hat": est.epsilon_hat,
        "max_l1_sensitivity": sens.max_l1,
        "per_coordinate_max": sens.per_coordinate_max,
        "samples": est.samples,
    }, indent=2))
    return 0


def _cmd_ingest_rank(args):
    data = ingest(args.data, mode="individual", L_policy=args.l_policy)
    epsilons = [parse_eps(tok) for tok in args.epsilons.split(",")]
    seed = _default_seed(args.seed)
    records = real_data_eval(data, epsilons, trials=args.trials, seed=seed)
    write_records_csv(records, args.out or "/dev/stdout")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpranking",
        description="Differentially private ranking from pairwise comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an experiment config and emit CSV")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", help="output CSV path (overrides config)")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="perturbed MLE on an ingested dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["edge", "individual"], required=True)
    p.add_argument("--epsilon", required=True, help="positive value or 'inf'")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l-policy", choices=["strict", "pad-skip"], default="strict")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("rank", help="noisy-count top-k on an ingested dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["edge", "individual"], required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--l-policy", choices=["strict", "pad-skip"], default="strict")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("audit", help="sensitivity and empirical-epsilon audit")
    p.add_argument("--mode", choices=["edge", "individual"], required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("ingest-rank", help="real-data rank-difference evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilons", required=True, help="comma-separated, may include inf")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--l-policy", choices=["strict", "pad-skip"], default="strict")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingest_rank)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
