import json
import pathlib

import pytest

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


def test_ingest_rank_subcommand(cems_path, tmp_path):
    out = tmp_path / "rank.csv"
    rc = main(["ingest-rank", "--data", cems_path, "--epsilons", "1,inf",
               "--trials", "2", "--seed", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header + eps x trials x algorithms
