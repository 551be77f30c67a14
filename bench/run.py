"""Run one benchmark workload as a closed loop and print its metrics.

    python3 bench/run.py --workload dense-edge --seed 1 --seconds 25 --trace 0

A single caller in one process starts each operation after the previous one
ends, for ``--seconds`` seconds, and checks every operation's outputs. The
workloads and their metrics are described in BENCHMARK.json and
bench/NOTES.md.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics. With ``--trace 1`` it holds the per-layer metrics: the
first half of the run is untraced and gives the baseline for the tracing
overhead, the second half is traced. Readable ``name value unit`` lines come
first. Without the dpranking sources next to this directory the script exits
with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
import warnings
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "dpranking")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
UTILITY_WARNING = "utility guarantee does not apply"
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def import_package() -> float:
    """Import dpranking from this checkout's src/; return the seconds it took."""
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import dpranking
        import tracing  # noqa: F401  (imports the package's modules)
        import workloads  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import dpranking from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(dpranking.__file__)) != PACKAGE:
        raise SystemExit(f"bench: dpranking imported from {dpranking.__file__}, "
                         f"not from {PACKAGE}")
    return time.perf_counter() - start


def keep_freed_memory() -> None:
    """Have glibc reuse freed heap memory instead of unmapping it.

    A sparse-edge trial allocates and frees about 1 GB of arrays. Mapped
    afresh every trial, that memory is zeroed page by page by the kernel,
    which took about a third of the trial and swung it by +-20% with the
    load of other processes on the machine. Other C libraries are left as is.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt(M_MMAP_THRESHOLD, 1 << 30)
    libc.mallopt(M_TRIM_THRESHOLD, (1 << 31) - 1)


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond.

    With ten or fewer samples no percentile has ten beyond it; the minimum,
    which has the most samples beyond it, is reported.
    """
    ordered = sorted(values)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class Loop:
    """What one closed loop did: operation times, checks and warnings."""

    durations: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    warnings: defaultdict[str, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def ops(self) -> int:
        return len(self.durations)

    def ops_per_s(self) -> float:
        return self.ops / sum(self.durations)


def run_loop(workload, seconds: float, tracer=None) -> Loop:
    from dpranking.solver import ConvergenceError

    loop = Loop()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                start = time.perf_counter()
                with tracer.operation() if tracer else nullcontext():
                    result = workload.run(index)
                loop.durations.append(time.perf_counter() - start)
                checks = workload.check(result)
            except ConvergenceError:
                checks = [False]
        for w in caught:
            kind = "utility_guarantee" if UTILITY_WARNING in str(w.message) else "other"
            loop.warnings[kind] += 1
        loop.attempted += len(checks)
        loop.failed += checks.count(False)
        index += 1
        if time.perf_counter() >= deadline:
            break
    if not loop.durations:
        raise SystemExit("bench: every operation failed to complete")
    return loop


def set_up(name: str, seed: int, tiny: bool):
    """Build the workload's inputs and warm up on a tiny operation, timed.

    Repeated ``SETUP_REPEATS`` times; the last workload is kept.
    """
    from workloads import WORKLOADS

    times, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, tiny=tiny)
        warm = WORKLOADS[name](seed, tiny=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                warm.run(0)
        finally:
            warm.close()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def end_to_end(loop: Loop, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(loop.durations), "s"),
        "op_s.tail": (tail(loop.durations)[0], "s"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def src_lines() -> dict[str, tuple[float, str]]:
    per_module = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                per_module[fname[:-3]] = sum(1 for _ in fh)
    out = {"src.lines": (float(sum(per_module.values())), "lines")}
    out.update({f"src.lines.{mod}": (float(count), "lines")
                for mod, count in per_module.items()})
    return out


def per_layer(tracer, plain: Loop, traced: Loop, plain_stats, stats
              ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: spans of the traced half, rates of the untraced half.

    Times and counts are means per operation. ``plain_stats`` and ``stats``
    are the workload's observations in the untraced and traced halves.
    """
    from tracing import LAYERS, ROOT_SPAN

    ops = tracer.ops
    calls, total, own, count = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    both = {key: plain_stats.get(key, []) + stats.get(key, [])
            for key in set(plain_stats) | set(stats)}
    iterations = tracer.samples["solver.iterations"]
    evals = calls["likelihood.objective"] + calls["likelihood.grad"]
    layer_self = tracer.layer_self_s()
    op_total = total[ROOT_SPAN]
    _, tail_pct = tail(plain.durations)

    m = {
        "links.calls": (per_op(calls["links"]), "calls/op"),
        "links.elements": (per_op(count["links.elements"]), "elements/op"),
        "links.busy_s": (per_op(total["links"]), "s/op"),
        "links.ns_per_element": (ratio(1e9 * total["links"], count["links.elements"]), "ns"),
        "likelihood.objective.calls": (per_op(calls["likelihood.objective"]), "calls/op"),
        "likelihood.grad.calls": (per_op(calls["likelihood.grad"]), "calls/op"),
        "likelihood.objective.self_s": (per_op(own["likelihood.objective"]), "s/op"),
        "likelihood.grad.self_s": (per_op(own["likelihood.grad"]), "s/op"),
        "likelihood.aggregate_s": (per_op(total["likelihood.aggregate"]), "s/op"),
        "likelihood.bytes_per_eval": (ratio(count["likelihood.bytes"], evals),
                                      "B/eval_computed"),
        "solver.iterations.p50": (median(iterations), "iterations"),
        "solver.evals_per_iter": (ratio(calls["likelihood.objective"], sum(iterations)),
                                  "evals/iter"),
        "solver.self_s": (per_op(own["solver.minimize"]), "s/op"),
        "solver.grad_ratio.max": (max(both.get("grad_ratio", [0.0])), "ratio"),
        "mle.estimate_s": (per_op(total["mle.estimate_full"]), "s/op"),
        "mle.prep_s": (per_op(total["mle.estimate_full"] - total["solver.minimize"]), "s/op"),
        "data.sample_er_graph_s": (per_op(total["data.sample_er_graph"]), "s/op"),
        "data.graph_check_s": (per_op(total["data.graph_check"]), "s/op"),
        "data.rho_from_theta_s": (per_op(total["data.rho_from_theta"]), "s/op"),
        "data.sample_edge_outcomes_s": (per_op(total["data.sample_edge_outcomes"]), "s/op"),
        "data.sample_individual_s": (per_op(total["data.sample_individual"]), "s/op"),
        "data.pairs_materialized": (per_op(count["data.pairs_materialized"]), "pairs/op"),
        "data.edge_yield": (ratio(count["data.edges"], count["data.pairs_materialized"]),
                            "ratio"),
        "metrics.tau_s": (per_op(total["metrics.tau"]), "s/op"),
        "metrics.true_topk_s": (per_op(total["metrics.true_topk"]), "s/op"),
        "metrics.errors_s": (per_op(total["metrics.errors"]), "s/op"),
        "counts.win_counts_s": (per_op(total["counts.win_counts"]), "s/op"),
        "counts.noisy_topk_s": (per_op(total["counts.noisy_topk"]), "s/op"),
        "audit.output_masks_s": (per_op(total["audit.output_masks"]), "s/op"),
        "audit.freq_count_s": (per_op(own["audit.estimate_epsilon"]), "s/op"),
        "audit.enumerate_adjacent_s": (per_op(total["audit.enumerate_adjacent"]), "s/op"),
        "audit.sensitivity_check_s": (per_op(total["audit.sensitivity_check"]), "s/op"),
        "audit.pairs": (median(both.get("pairs", [])), "pairs/op"),
        "audit.conclusive_frac": (ratio(sum(both.get("conclusive", [])),
                                        len(both.get("conclusive", []))), "ratio"),
        "audit.eps_hat.edge": (median(both.get("eps_hat_edge", [])), "epsilon"),
        "audit.eps_hat.individual_extremal": (
            median(both.get("eps_hat_individual_extremal", [])), "epsilon"),
        "audit.replays_per_s": (median(plain_stats.get("replays_per_s", [])), "1/s"),
        "audit.adjacent_pairs_per_s": (
            median(plain_stats.get("adjacent_pairs_per_s", [])), "1/s"),
        "harness.self_s": (per_op(own["harness.run_experiment"]), "s/op"),
        "harness.csv_write_s": (per_op(total["harness.csv_write"]), "s/op"),
        "harness.csv_bytes": (median(both.get("csv_bytes", [])), "B/op"),
        "harness.rows": (median(both.get("rows", [])), "rows/op"),
        "harness.ingest_s": (per_op(total["harness.ingest"]), "s/op"),
        "harness.real_data_eval_s": (per_op(total["harness.real_data_eval"]), "s/op"),
        "harness.trials_per_s": (median(plain_stats.get("trials", [])) * plain.ops_per_s(),
                                 "1/s"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (per_op(layer_self[layer]), "s/op")
        m[f"layer.{layer}.share"] = (100.0 * ratio(layer_self[layer], op_total), "%")
    m.update({
        "op_s.tail_pct": (tail_pct, "%"),
        "op_s.samples": (float(plain.ops), "count"),
        "trace.op_s.p50": (median(traced.durations), "s"),
        "trace.overhead_s": (median(traced.durations) - median(plain.durations), "s"),
        "failed_frac": (ratio(plain.failed + traced.failed,
                              plain.attempted + traced.attempted), "ratio"),
        "warnings.utility_guarantee": (
            ratio(plain.warnings["utility_guarantee"] + traced.warnings["utility_guarantee"],
                  plain.ops + traced.ops), "count/op"),
        "warnings.other": (ratio(plain.warnings["other"] + traced.warnings["other"],
                                 plain.ops + traced.ops), "count/op"),
        "quality.linf_rel_log.p50": (median(both.get("linf_rel_log", [])), "log"),
    })
    m.update(src_lines())
    return m


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, tiny: bool = False) -> dict:
    """Run the benchmark; ``tiny`` shrinks every workload for the smoke test."""
    import_s = import_package()
    args = parse_args(argv)
    workload, setup_s = set_up(args.workload, args.seed, tiny)
    try:
        if args.trace:
            import tracing

            plain = run_loop(workload, args.seconds / 2)
            plain_stats = dict(workload.stats)
            workload.stats.clear()
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = run_loop(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, plain, traced, plain_stats, workload.stats)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        else:
            loop = run_loop(workload, args.seconds)
            metrics = end_to_end(loop, import_s + setup_s)
            attempted, failed = loop.attempted, loop.failed
            _, pct = tail(loop.durations)
            print(f"# {args.workload}: {loop.ops} operations, tail is the "
                  f"p{pct:.1f} of {loop.ops} samples")
    finally:
        workload.close()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: the benchmark is one process
    # with one caller, on a two-core machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    keep_freed_memory()
    main()
