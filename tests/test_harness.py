import csv
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpranking.harness import (AdjacencyModelError, ExperimentConfig,
                               ParseError, eps_token, ingest,
                               max_mean_rank_diff, parse_eps, preset_config,
                               real_data_eval, run_experiment, substream,
                               write_records_csv)

CEMS_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / "cems_synthetic.csv"


class TestEpsTokens:
    def test_round_trip(self):
        for eps in (0.5, 1.0, 2.5, math.inf):
            assert parse_eps(eps_token(eps)) == eps

    def test_inf_spelling(self):
        assert eps_token(math.inf) == "inf"
        assert parse_eps("Infinity") == math.inf

    def test_shipped_tokens_unchanged(self):
        assert [eps_token(e) for e in (0.5, 1.0, 2.5, math.inf)] == \
            ["0.5", "1", "2.5", "inf"]
        assert [eps_token(p) for p in (0.25, 0.75, 1)] == ["0.25", "0.75", "1"]

    @given(st.floats(min_value=0.0, exclude_min=True, allow_nan=False))
    def test_round_trip_any_positive_float(self, x):
        assert parse_eps(eps_token(x)) == x

    def test_close_values_get_distinct_tokens_and_streams(self):
        assert eps_token(1.0000001) != eps_token(1.0)
        eps_a = substream(0, "exp1", 50, 1.0, None, 1, 1.0, 0)[1]
        eps_b = substream(0, "exp1", 50, 1.0, None, 1, 1.0000001, 0)[1]
        p_b = substream(0, "exp1", 50, 1.0000001, None, 1, 1.0, 0)[1]
        assert len({eps_a, eps_b, p_b}) == 3


class TestConfig:
    def test_presets_cover_experiments(self):
        for name in ("exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7"):
            cfg = preset_config(name)
            assert cfg.trials == 50
            assert math.inf in cfg.epsilon_values

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("exp9")

    def test_from_json_preset_shortcut(self):
        cfg = ExperimentConfig.from_json(
            json.dumps({"preset": "exp1", "trials": 3, "master_seed": 5}))
        assert cfg.n_values == (50, 100, 200)
        assert cfg.trials == 3
        assert cfg.master_seed == 5

    def test_from_json_explicit(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "regime": "edge", "n_values": [10], "p_values": [1.0],
            "epsilon_values": ["1", "inf"], "trials": 2}))
        assert cfg.epsilon_values == (1.0, math.inf)

    def test_from_json_rejects_misspelled_key(self):
        with pytest.raises(ValueError, match="trail"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": ["1"], "trail": 3}))

    def test_from_json_rejects_removed_link_key(self):
        with pytest.raises(ValueError, match="link"):
            ExperimentConfig.from_json(
                json.dumps({"preset": "exp1", "trials": 3, "link": "logistic"}))

    def test_from_json_names_missing_keys(self):
        # a preset plus a grid key is read as an explicit grid
        with pytest.raises(ValueError, match="regime, n_values, epsilon_values"):
            ExperimentConfig.from_json(json.dumps({"preset": "exp1", "L": 2}))

    def test_from_json_rejects_scalar_n_values(self):
        with pytest.raises(ValueError, match="'n_values' must be a JSON array"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": 10, "p_values": [1.0],
                "epsilon_values": ["1"]}))

    def test_from_json_rejects_string_epsilon_values(self):
        with pytest.raises(ValueError, match="'epsilon_values' must be a JSON array"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": "0.5"}))

    def test_from_json_rejects_string_trials(self):
        grid = {"regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": ["1"]}
        for raw in ({**grid, "trials": "3"}, {"preset": "exp1", "trials": "3"}):
            with pytest.raises(ValueError, match="'trials' must be a JSON integer"):
                ExperimentConfig.from_json(json.dumps(raw))

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="custom", regime="edge", n_values=(10,),
                             epsilon_values=(1.0,))


class TestSubstream:
    def test_deterministic(self):
        a = substream(0, "exp1", 50, 1.0, None, 1, 1.0, 3)
        b = substream(0, "exp1", 50, 1.0, None, 1, 1.0, 3)
        assert a[1] == b[1]
        assert np.random.default_rng(a[0]).random() == \
            np.random.default_rng(b[0]).random()

    def test_distinct_across_trials(self):
        ids = {substream(0, "exp1", 50, 1.0, None, 1, 1.0, t)[1]
               for t in range(20)}
        assert len(ids) == 20


def _tiny_config(**overrides):
    base = dict(preset="exp1", regime="edge", n_values=(12,), p_values=(1.0,),
                epsilon_values=(1.0, math.inf), trials=2, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_conservation(self):
        records = run_experiment(_tiny_config())
        # per trial: 1 truth + 7 parametric + 2 nonparametric rows
        assert len(records) == 1 * 2 * 2 * 10

    def test_csv_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = _tiny_config()
        write_records_csv(run_experiment(cfg), p1)
        write_records_csv(run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        cfg = _tiny_config()
        r1 = run_experiment(cfg, workers=1)
        r2 = run_experiment(cfg, workers=2)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_records_csv(r1, p1)
        write_records_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_private_edge_trials_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(_tiny_config(epsilon_values=(0.5,), trials=1))
        assert [str(w.message) for w in caught] == []

    def test_individual_regime_runs(self):
        cfg = ExperimentConfig(preset="exp5", regime="individual",
                               n_values=(6,), m_values=(40,), L=3,
                               epsilon_values=(math.inf,), trials=1)
        records = run_experiment(cfg)
        metrics = {r.metric for r in records}
        assert "topk_overlap_loss" in metrics
        assert all(r.m == 40 and r.L == 3 for r in records)

    def test_values_finite_or_floored(self):
        for r in run_experiment(_tiny_config()):
            assert np.isfinite(r.value)
            assert r.value >= -50.0


CEMS_CSV = """user_id,item_a,item_b,winner
u1,paris,london,paris
u1,paris,milan,milan
u2,paris,london,london
u2,paris,milan,paris
"""


class TestIngest:
    def test_bundled_csv_matches_reader(self):
        # an independent parse: users in file order, items by first appearance
        with open(CEMS_PATH, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        items = list(dict.fromkeys(name for row in rows for name in row[1:3]))
        index = {name: t for t, name in enumerate(items)}
        pairs = [sorted((index[a], index[b])) for _, a, b, _ in rows]
        data = ingest(CEMS_PATH, mode="individual")
        assert (data.n, data.m, data.L) == (6, 303, 15)
        assert data.items == tuple(items)
        assert np.array_equal(data.i, [lo for lo, _ in pairs])
        assert np.array_equal(data.j, [hi for _, hi in pairs])
        assert np.array_equal(data.y, [int(index[row[3]] == lo)
                                       for (lo, _), row in zip(pairs, rows)])

    def test_items_by_first_appearance(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(CEMS_CSV)
        data = ingest(path, mode="individual")
        assert data.items == ("paris", "london", "milan")
        assert (data.n, data.m, data.L) == (3, 2, 2)

    def test_strict_L_mismatch_names_user(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(CEMS_CSV + "u2,london,milan,milan\n")
        with pytest.raises(ParseError, match="u2"):
            ingest(path, mode="individual", L_policy="strict")

    def test_pad_skip_drops_minority(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(CEMS_CSV + "u3,london,milan,milan\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            data = ingest(path, mode="individual", L_policy="pad-skip")
        assert data.m == 2

    def test_edge_mode_duplicate_pair(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(CEMS_CSV)
        with pytest.raises(AdjacencyModelError, match="individual mode"):
            ingest(path, mode="edge")

    def test_edge_mode_accepts_unique_pairs(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("user_id,item_a,item_b,winner\n"
                        "u1,a,b,a\nu1,b,c,c\n")
        data = ingest(path, mode="edge")
        assert data.graph.n_edges == 2

    def test_bad_winner_reports_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("user_id,item_a,item_b,winner\nu1,a,b,z\n")
        with pytest.raises(ParseError, match=":2:"):
            ingest(path, mode="individual")

    def test_self_comparison_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("user_id,item_a,item_b,winner\nu1,a,a,a\n")
        with pytest.raises(ParseError, match="self-comparison"):
            ingest(path, mode="individual")

    def test_missing_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError, match="header"):
            ingest(path, mode="edge")


class TestRealDataEval:
    def test_cems_shape(self):
        # every user compares each of the C(6, 2) = 15 pairs exactly once
        data = ingest(CEMS_PATH, mode="individual")
        assert (data.n, data.m, data.L) == (6, 303, 15)
        keys = (data.i * data.n + data.j).reshape(data.m, data.L)
        assert all(len(set(row)) == 15 for row in keys.tolist())

    def test_noiseless_rank_diff_zero(self):
        data = ingest(CEMS_PATH, mode="individual")
        records = real_data_eval(data, [math.inf], trials=2, seed=0)
        np_rows = [r for r in records if r.algorithm == "nonparametric"]
        assert all(r.value == 0.0 for r in np_rows)

    def test_values_within_bound(self):
        data = ingest(CEMS_PATH, mode="individual")
        records = real_data_eval(data, [0.5, math.inf], trials=3, seed=1)
        bound = max_mean_rank_diff(6)
        assert all(0.0 <= r.value <= bound for r in records)

    def test_max_bound_formula(self):
        assert max_mean_rank_diff(6) == 3.0
        assert max_mean_rank_diff(2) == 1.0
