"""Span tracing for the traced benchmark run.

The package is traced from outside: ``install`` swaps the attributes that the
dpranking modules look up at call time for timing wrappers, and ``uninstall``
puts the originals back. No source file of the package changes.

Each wrapped call records a span (name, start, end, parent) in memory. The
spans of one operation (a trial, a sweep or an audit round) are reduced when
the operation ends into per-name call counts, total times and self times; a
span's self time is its duration minus the time its child spans cover. Calls
made outside an operation, such as the benchmark's own output checks, are not
recorded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from dpranking import audit as dp_audit
from dpranking import counts as dp_counts
from dpranking import data as dp_data
from dpranking import harness as dp_harness
from dpranking import likelihood as dp_likelihood
from dpranking import links as dp_links
from dpranking import metrics as dp_metrics
from dpranking import mle as dp_mle

ROOT_SPAN = "op"

# Module layers in the order reported. The root span's self time is the
# benchmark's own code between wrapped calls: the unattributed remainder.
LAYERS = ("links", "likelihood", "solver", "mle", "data", "metrics", "counts",
          "audit", "harness", "unattributed")


class Tracer:
    """Spans of the open operation plus totals over every finished one."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list] = defaultdict(list)
        self.ops = 0
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def operation(self):
        """Root span of one operation; its spans are reduced when it ends."""
        index = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(index)
            self._reduce()

    def _reduce(self) -> None:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in reversed(self.spans):
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child
        self.spans.clear()
        self.ops += 1

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call made inside an operation.

        ``observe(tracer, args, result)`` may add counters from the call.
        """
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            layer = "unattributed" if name == ROOT_SPAN else name.split(".")[0]
            out[layer] += value
        return out


def _count_elements(tracer, args, result):
    tracer.counters["links.elements"] += np.size(args[0])


def _count_eval_bytes(tracer, args, result):
    # computed, not measured: the per-pair input arrays one evaluation must
    # stream at least once (two index arrays, counts and win fractions)
    spec = args[1]
    tracer.counters["likelihood.bytes"] += len(spec.i) * (
        spec.i.itemsize + spec.j.itemsize + spec.M.itemsize + spec.ybar.itemsize)


def _count_iterations(tracer, args, result):
    tracer.samples["solver.iterations"].append(result[1].iterations)


def _count_pairs(tracer, args, result):
    tracer.counters["data.pairs_materialized"] += len(result[0])


def _count_edges(tracer, args, result):
    tracer.counters["data.edges"] += result.n_edges


def traced_link(tracer: Tracer, link: dp_links.LinkFunction) -> dp_links.LinkFunction:
    """The same link with every callable recorded as a ``links`` span."""
    def wrap(fn):
        return tracer.wrap("links", fn, _count_elements)
    return dp_links.LinkFunction(
        name=link.name, eval=wrap(link.eval), deriv=wrap(link.deriv),
        neg_log_second=wrap(link.neg_log_second), kappa1=link.kappa1,
        kappa2=link.kappa2, log_eval=wrap(link.log_eval))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every dpranking module the workloads call.

    A function is patched in each module that binds it under its own name
    (``from .data import sample_er_graph`` in harness, for instance), so calls
    from inside the package are recorded as well as the benchmark's own.
    """
    link = traced_link(tracer, dp_links.get_link("logistic"))
    for owner in (dp_links, dp_harness):
        tracer.replace(owner, "get_link", lambda name: link)

    patch = tracer.patch
    patch(dp_mle, "objective", "likelihood.objective", _count_eval_bytes)
    patch(dp_mle, "grad", "likelihood.grad", _count_eval_bytes)
    patch(dp_likelihood, "aggregate", "likelihood.aggregate")
    patch(dp_mle, "minimize", "solver.minimize", _count_iterations)
    patch(dp_mle, "estimate_full", "mle.estimate_full")
    for owner in (dp_mle, dp_harness):
        patch(owner, "calibrate_edge", "mle.calibrate")
        patch(owner, "calibrate_individual", "mle.calibrate")
        patch(owner, "rank_from_scores", "mle.rank_from_scores")

    for owner in (dp_data, dp_harness):
        for fn in ("generate_theta", "rho_from_theta", "sample_edge_outcomes",
                   "sample_individual"):
            patch(owner, fn, f"data.{fn}")
        patch(owner, "sample_er_graph", "data.sample_er_graph", _count_edges)
    patch(dp_data, "ComparisonGraph", "data.graph_check")
    for owner in (dp_data, dp_audit):
        patch(owner, "pair_arrays", "data.pair_arrays", _count_pairs)

    patch(dp_metrics, "tau", "metrics.tau")
    patch(dp_metrics, "true_topk", "metrics.true_topk")
    for fn in ("linf_rel_log_error", "l2_rel_log_error", "topk_overlap_loss",
               "hamming_sets", "mean_abs_rank_diff"):
        patch(dp_metrics, fn, "metrics.errors")

    for owner in (dp_counts, dp_audit):
        patch(owner, "win_counts", "counts.win_counts")
    for fn in ("noisy_topk", "noisy_full_ranking"):
        patch(dp_counts, fn, "counts.noisy_topk")

    for fn in ("enumerate_adjacent", "sensitivity_check", "estimate_epsilon",
               "replace_user"):
        patch(dp_audit, fn, f"audit.{fn}")
    patch(dp_audit.CountTopKMechanism, "output_masks", "audit.output_masks")

    for fn in ("run_experiment", "ingest", "real_data_eval"):
        patch(dp_harness, fn, f"harness.{fn}")
    patch(dp_harness, "write_records_csv", "harness.csv_write")
