"""Smoke test of the benchmark: each workload at a tiny size, one operation.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os

import pytest

import run

run.import_package()

import workloads  # noqa: E402  (needs the package path set up above)
from dpranking.solver import SolverConfig  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int) -> dict:
    return run.main(["--workload", workload, "--seed", "1", "--seconds", "0.001",
                     "--trace", str(trace)], tiny=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace, capsys):
    result = bench(workload, trace)
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last_line) == result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_forced_check_failure_shows_in_failed_frac(monkeypatch):
    # a tolerance no solve can meet: every stationarity check fails
    monkeypatch.setattr(workloads, "default_solver_config",
                        lambda gamma: SolverConfig(tol=1e-300))
    result = bench("dense-edge", trace=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["failed_frac"]["value"] == 1.0
