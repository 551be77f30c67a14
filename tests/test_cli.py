import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import dpranking
from dpranking import audit as audit_mod
from dpranking.cli import main


@pytest.fixture()
def cems_path():
    return str(pathlib.Path(__file__).resolve().parent.parent / "data" / "cems_synthetic.csv")


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "regime": "edge", "n_values": [10], "p_values": [1.0],
        "epsilon_values": ["inf"], "trials": 1, "master_seed": 0}))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,algorithm,n,")
    assert len(lines) > 1


def test_estimate_json_output(cems_path, tmp_path, capsys):
    out = tmp_path / "est.json"
    rc = main(["estimate", "--data", cems_path, "--mode", "individual",
               "--epsilon", "inf", "--seed", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"epsilon", "theta", "ranking", "top_k", "diagnostics"}
    assert len(payload["theta"]) == 6
    sidecar = json.loads((tmp_path / "est.json.diag.json").read_text())
    assert {"iterations", "final_grad_sup_norm", "floor_binding"} <= set(sidecar)


def test_estimate_seed_env_default(cems_path, capsys, monkeypatch):
    monkeypatch.setenv("DPRANKING_MASTER_SEED", "11")
    main(["estimate", "--data", cems_path, "--mode", "individual",
          "--epsilon", "1"])
    first = json.loads(capsys.readouterr().out)
    main(["estimate", "--data", cems_path, "--mode", "individual",
          "--epsilon", "1"])
    second = json.loads(capsys.readouterr().out)
    assert first["theta"] == second["theta"]
    # explicit flag overrides the environment
    main(["estimate", "--data", cems_path, "--mode", "individual",
          "--epsilon", "1", "--seed", "99"])
    third = json.loads(capsys.readouterr().out)
    assert third["theta"] != first["theta"]


@pytest.mark.parametrize("argv, needle", [
    (["estimate", "--mode", "individual", "--epsilon", "1", "--k", "100"], "argument --k"),
    (["rank", "--mode", "individual", "--epsilon", "1", "--k", "7"], "argument --k"),
    (["rank", "--data", "{bad}", "--mode", "edge", "--epsilon", "1", "--k", "1"],
     "bad.csv:3: winner 'rome' is neither item"),
    (["ingest-rank", "--data", "{missing}", "--epsilons", "1", "--trials", "1"],
     "missing.csv"),
    (["estimate", "--mode", "edge", "--epsilon", "1"], "use individual mode"),
], ids=["estimate-k", "rank-k", "bad-winner", "missing-file", "edge-repeats"])
def test_bad_input_exits_2_with_one_line(cems_path, tmp_path, capsys, argv, needle):
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,item_a,item_b,winner\nu1,paris,london,paris\n"
                   "u2,london,milan,rome\n")
    argv = [a.format(bad=bad, missing=tmp_path / "missing.csv") for a in argv]
    if "--data" not in argv:
        argv += ["--data", cems_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"dpranking {argv[0]}: error: ") and needle in lines[0]
    assert captured.out == ""


def test_edge_repeat_names_file_and_lines(cems_path, capsys):
    assert main(["estimate", "--data", cems_path, "--mode", "edge", "--epsilon", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"dpranking estimate: error: {cems_path}:17: pair (item_1, item_2) compared "
        "more than once (first on line 2); use individual mode"]


def test_bad_seed_env_exits_2(cems_path, capsys, monkeypatch):
    monkeypatch.setenv("DPRANKING_MASTER_SEED", "x")
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--data", cems_path, "--mode", "individual", "--epsilon", "1",
              "--k", "3"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["dpranking rank: error: argument --seed: invalid int value: 'x'"]


def test_estimate_rejects_zero_k(cems_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", cems_path, "--mode", "individual",
              "--epsilon", "inf", "--k", "0"])
    assert exc.value.code != 0
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_nonpositive_workers(tmp_path, capsys, workers):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "regime": "edge", "n_values": [10], "p_values": [1.0],
        "epsilon_values": ["inf"], "trials": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--workers", workers])
    assert exc.value.code != 0
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"regime": "edge", "n_values": [10], "p_values": [1.0],
      "epsilon_values": ["inf"], "trail": 1}, "trail"),
    ({"regime": "edge", "n_values": [1], "p_values": [1.0],
      "epsilon_values": ["inf"]}, "n_values"),
    ({"preset": "a\rb", "regime": "edge", "n_values": [10], "p_values": [1.0],
      "epsilon_values": ["inf"]}, "preset"),
], ids=["unknown-key", "n-out-of-range", "preset-carriage-return"])
def test_simulate_bad_config_exits_2_naming_file_and_key(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert str(cfg) in lines[0] and key in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("text", ["{\"regime\": ", None], ids=["truncated", "missing"])
def test_simulate_unreadable_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and str(cfg) in lines[0]


@pytest.mark.parametrize("argv, flag", [
    (["rank", "--mode", "individual", "--k", "2", "--epsilon", "nan"], "--epsilon"),
    (["estimate", "--mode", "individual", "--epsilon", "nan"], "--epsilon"),
    (["estimate", "--mode", "individual", "--epsilon", "0"], "--epsilon"),
    (["estimate", "--mode", "edge", "--epsilon=-inf"], "--epsilon"),
    (["ingest-rank", "--epsilons", "1,nan", "--trials", "1"], "--epsilons"),
    (["ingest-rank", "--epsilons", "1", "--trials", "0"], "--trials"),
    (["ingest-rank", "--epsilons", "1", "--trials", "-2"], "--trials"),
    (["audit", "--mode", "edge", "--epsilon", "nan"], "--epsilon"),
    (["audit", "--mode", "edge", "--epsilon", "1", "--samples", "1000"], "--samples"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_value_exits_2_naming_flag(cems_path, capsys, argv, flag):
    if argv[0] != "audit":
        argv = argv + ["--data", cems_path]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_edge_mode_keeps_item_names(tmp_path, capsys):
    path = tmp_path / "edge.csv"
    path.write_text("user_id,item_a,item_b,winner\n"
                    "u1,paris,london,paris\nu2,london,milan,london\n"
                    "u3,paris,milan,paris\n")
    main(["estimate", "--data", str(path), "--mode", "edge", "--epsilon", "inf"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["ranking"] == ["paris", "london", "milan"]
    main(["rank", "--data", str(path), "--mode", "edge", "--epsilon", "inf",
          "--k", "1"])
    assert json.loads(capsys.readouterr().out)["top_k"] == ["paris"]


def test_rank_subcommand(cems_path, capsys):
    rc = main(["rank", "--data", cems_path, "--mode", "individual",
               "--epsilon", "inf", "--k", "2", "--seed", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["top_k"]) == 2


def test_audit_subcommand(capsys):
    rc = main(["audit", "--mode", "edge", "--epsilon", "1",
               "--samples", "100000", "--seed", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon_declared"] == "1"
    assert payload["max_l1_sensitivity"] <= 2
    assert payload["epsilon_hat"] <= 1.2


def test_audit_individual_subcommand(capsys):
    # the replayed pair is the worst-case user replacement: 2L = 10 in l1 at L = 5
    rc = main(["audit", "--mode", "individual", "--epsilon", "1",
               "--samples", "200000", "--seed", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_l1_sensitivity"] == 10
    assert payload["epsilon_hat"] <= 1.2


@pytest.mark.parametrize("mode, eps_hat, l1, coord", [
    ("edge", 0.7037095851289619, 2.0, 1.0),
    ("individual", 0.8004945289703426, 10.0, 5.0),
])
def test_audit_output_is_pinned(capsys, mode, eps_hat, l1, coord):
    # the replay stream, the top-k rule and the pair are fixed by the seed, so
    # any change to them shows as a different epsilon_hat
    assert main(["audit", "--mode", mode, "--epsilon", "1", "--samples", "200000",
                 "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "mode": mode, "epsilon_declared": "1", "epsilon_hat": eps_hat,
        "max_l1_sensitivity": l1, "per_coordinate_max": coord, "samples": 200000}


def test_ingest_rank_subcommand(cems_path, tmp_path):
    out = tmp_path / "rank.csv"
    rc = main(["ingest-rank", "--data", cems_path, "--epsilons", "1,inf",
               "--trials", "2", "--seed", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header + eps x trials x algorithms


def test_import_leaves_process_pool_unloaded():
    # multiprocessing is only needed by simulate --workers > 1, and scipy by
    # nothing; importing either at start-up would cost every command its import time
    src = str(pathlib.Path(dpranking.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import dpranking.cli, sys; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'scipy') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _strict_json(text):
    """json.loads that refuses the Infinity and NaN tokens RFC 8259 lacks."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("seed, eps_hat", [(0, "inf"), (2, 0.0)])
def test_nonprivate_audit_prints_strict_json(capsys, seed, eps_hat):
    # at epsilon = inf the estimate is inf when the output sets differ, else 0
    assert main(["audit", "--mode", "edge", "--epsilon", "inf", "--samples", "100000",
                 "--seed", str(seed)]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["epsilon_hat"] == eps_hat
    assert payload["epsilon_declared"] == "inf"


def test_inconclusive_audit_prints_null(capsys, monkeypatch):
    real = audit_mod.estimate_epsilon
    monkeypatch.setattr(audit_mod, "estimate_epsilon", lambda *args, **kwargs: replace(
        real(*args, **kwargs), epsilon_hat=math.nan, conclusive=False))
    assert main(["audit", "--mode", "edge", "--epsilon", "1", "--samples", "100000",
                 "--seed", "0"]) == 0
    assert _strict_json(capsys.readouterr().out)["epsilon_hat"] is None


def test_edge_estimate_reports_utility_guarantee_without_warning(tmp_path):
    # lambda = 8 at epsilon = 1 exceeds sqrt(log 4): private, outside the utility regime
    data = tmp_path / "edge.csv"
    data.write_text("user_id,item_a,item_b,winner\nu1,a,b,a\nu2,b,c,b\n"
                    "u3,c,d,c\nu4,a,d,a\n")
    out = tmp_path / "est.json"
    src = str(pathlib.Path(dpranking.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "dpranking.cli", "estimate", "--data", str(data),
         "--mode", "edge", "--epsilon", "1", "--seed", "0", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert _strict_json(proc.stdout)["diagnostics"]["utility_guarantee_applies"] is False
    sidecar = _strict_json((tmp_path / "est.json.diag.json").read_text())
    assert sidecar["utility_guarantee_applies"] is False


def test_edge_estimate_output_is_pinned(tmp_path, capsys):
    # 7 of the C(5, 2) = 10 pairs, so p = 0.7 and the epsilon = inf gamma is the
    # utility value c0 sqrt(n p log n): theta and gamma pin the p the CLI derives
    data = tmp_path / "edge.csv"
    data.write_text("user_id,item_a,item_b,winner\nu1,a,b,a\nu2,b,c,c\nu3,c,d,c\n"
                    "u4,a,d,a\nu5,b,e,e\nu6,a,c,a\nu7,d,e,d\n")
    assert main(["estimate", "--data", str(data), "--mode", "edge", "--epsilon", "inf",
                 "--seed", "0"]) == 0
    assert capsys.readouterr().out == json.dumps({
        "epsilon": "inf",
        "theta": {"a": 1.7388181535069178, "b": -1.6293578044092647,
                  "c": 0.6402909589940471, "d": -0.167719329528905,
                  "e": -0.5820319785627952},
        "ranking": ["a", "c", "d", "e", "b"],
        "top_k": ["a"],
        "diagnostics": {"iterations": 13, "final_grad_sup_norm": 3.829598527183009e-09,
                        "floor_binding": False, "utility_guarantee_applies": True,
                        "lambda": 0.0, "gamma": 0.23734010814692388},
    }, indent=2) + "\n"
