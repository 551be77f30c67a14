import csv
import json
from dataclasses import replace
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpranking.data import generate_theta, rho_from_theta
from dpranking.harness import (AdjacencyModelError, ExperimentConfig,
                               ParseError, _batch_records, eps_token, ingest,
                               max_mean_rank_diff, parse_eps, preset_config,
                               real_data_eval, run_experiment, substream,
                               TrialRecord, write_records_csv)
from dpranking.links import logistic_link
from dpranking.metrics import tau, true_topk
from dpranking.mle import rank_from_scores

CEMS_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / "cems_synthetic.csv"


@pytest.mark.parametrize("n", [8, 16, 32, 300, 800])
def test_true_topk_is_theta_stars_top_k(n):
    # the trial takes its truth from theta*; tau would give the same set
    k = n // 4
    for seed in range(4):
        theta = generate_theta(n, k, seed=seed, top_inclusive=True)
        expected = true_topk(tau(rho_from_theta(theta, logistic_link())), k)
        assert np.array_equal(rank_from_scores(theta, k), expected)


def test_sparse_edge_trial_holds_no_triangle():
    # at n = 20000 the n(n-1)/2 probabilities alone would take 1.6 GB
    n = 20000
    p = 2 * math.log(n) / n
    cfg = ExperimentConfig(preset="custom", regime="edge", n_values=(n,),
                           p_values=(p,), epsilon_values=(1.0,), trials=1)
    tracemalloc.start()
    try:
        _batch_records(cfg, n, p, None, 1.0, range(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def _batch_peak(cfg, n, m, trials):
    tracemalloc.start()
    try:
        _batch_records(cfg, n, None, m, 1.0, range(trials))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cell_holds_no_raw_records_across_trials():
    # a trial keeps its aggregated pairs (at most 120 at n = 16), not its
    # m L = 10,000 records, while the rest of its cell is drawn
    cfg = preset_config("exp6")
    _batch_peak(cfg, 16, 2000, 1)  # a first call also allocates what later calls reuse
    one = _batch_peak(cfg, 16, 2000, 1)
    assert _batch_peak(cfg, 16, 2000, 12) < 1.5 * one


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

    @pytest.mark.parametrize("text", ['[1]', '"exp1"', 'null'])
    def test_from_json_rejects_non_object(self, text):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json(text)

    def test_from_json_rejects_misspelled_key(self):
        with pytest.raises(ValueError, match="trail"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": ["1"], "trail": 3}))

    @pytest.mark.parametrize("regime, key, value", [
        ("edge", "L", 3), ("edge", "m_values", [100]), ("individual", "p_values", [1.0])])
    def test_rejects_the_other_regimes_key(self, regime, key, value):
        # substream keys every trial on L, so L = 3 on an edge grid used to
        # reseed every trial while the CSV's L column stayed empty
        grid = {"edge": {"p_values": [1.0]}, "individual": {"m_values": [20], "L": 2}}
        raw = {"regime": regime, "n_values": [10], "epsilon_values": ["1"],
               **grid[regime], key: value}
        with pytest.raises(ValueError, match=f"config key '{key}' belongs to the"):
            ExperimentConfig.from_json(json.dumps(raw))

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

    def test_from_json_rejects_string_n_value(self):
        with pytest.raises(ValueError, match="'n_values' must be a JSON array of integers"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": ["10"], "p_values": [1.0],
                "epsilon_values": ["1"]}))

    def test_from_json_rejects_fractional_m_value(self):
        with pytest.raises(ValueError, match="'m_values' must be a JSON array of integers"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "individual", "n_values": [8], "m_values": [2.5],
                "L": 2, "epsilon_values": ["1"]}))

    def test_from_json_rejects_string_p_value(self):
        with pytest.raises(ValueError, match="'p_values' must be a JSON array of numbers"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": [10], "p_values": ["1"],
                "epsilon_values": ["1"]}))

    def test_from_json_rejects_unreadable_epsilon_value(self):
        with pytest.raises(ValueError, match="'epsilon_values' must hold numbers"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": ["one"]}))

    @pytest.mark.parametrize("value", ["nan", math.nan, 0, "-1"])
    def test_from_json_rejects_nonpositive_epsilon_value(self, value):
        # json.dumps writes math.nan as the bare token NaN, which json.loads reads
        with pytest.raises(ValueError, match="'epsilon_values' must hold numbers > 0"):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": [value]}))

    @pytest.mark.parametrize("key, value", [
        ("n_values", [1]), ("m_values", [0]), ("L", 0),
        ("p_values", [0.0]), ("p_values", [1.5]),
    ])
    def test_from_json_rejects_out_of_range_value(self, key, value):
        grid = {"edge": {"regime": "edge", "n_values": [10], "p_values": [1.0]},
                "individual": {"regime": "individual", "n_values": [10],
                               "m_values": [20], "L": 2}}
        raw = {**grid["individual" if key in ("m_values", "L") else "edge"],
               "epsilon_values": ["1"], key: value}
        with pytest.raises(ValueError, match=f"config key '{key}' must"):
            ExperimentConfig.from_json(json.dumps(raw))

    @pytest.mark.parametrize("preset, key, value", [
        ("exp1", "n_values", (50, 1)), ("exp5", "m_values", (0,)), ("exp5", "L", 0),
        ("exp2", "p_values", (0.5, 0.0)), ("exp2", "p_values", (1.5,)),
        # csv.writer leaves \r unquoted, so csv.reader would split the row there
        ("exp1", "preset", "a\rb"),
        # a bad epsilon would otherwise fail only when the sweep reaches it
        ("exp1", "epsilon_values", (0.0,)), ("exp1", "epsilon_values", (1.0, math.nan)),
        ("exp1", "epsilon_values", (-1.0,)),
        # a bool is an int, so True would run as 1
        ("exp1", "trials", True), ("exp5", "L", True), ("exp1", "master_seed", False),
        ("exp5", "m_values", (True,)),
    ])
    def test_preset_override_rejects_out_of_range_value(self, preset, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must"):
            replace(preset_config(preset), **{key: value})

    @pytest.mark.parametrize("preset, key, value", [
        # built from Python, a float count would fail only inside the sweep
        ("exp5", "trials", 2.5), ("exp5", "L", 5.0), ("exp1", "master_seed", 1.5),
        ("exp5", "n_values", (8.0,)), ("exp5", "m_values", (100, 2.5)),
        # a string would otherwise raise TypeError at the range comparison
        ("exp2", "p_values", ("0.5",)), ("exp1", "epsilon_values", ("1",)),
    ])
    def test_preset_override_rejects_wrong_type(self, preset, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must"):
            replace(preset_config(preset), **{key: value})

    def test_preset_override_accepts_numpy_numbers(self):
        cfg = replace(preset_config("exp5"), trials=np.int64(2), n_values=(np.int32(8),),
                      epsilon_values=(np.float64(1.0), math.inf))
        assert cfg.trials == 2 and cfg.n_values == (8,)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="custom", regime="edge", n_values=(10,),
                             epsilon_values=(1.0,))

    @pytest.mark.parametrize("key, value", [("preset", 5), ("output_path", 7)])
    def test_from_json_rejects_non_string(self, key, value):
        # the preset is the CSV's experiment column, written after every trial,
        # and open() takes an integer path as a file descriptor
        grid = {"regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": ["1"], "trials": 1}
        for raw in ({**grid, key: value}, {"preset": "exp1", key: value}):
            with pytest.raises(ValueError, match=f"config key '{key}' must be a JSON string"):
                ExperimentConfig.from_json(json.dumps(raw))

    @pytest.mark.parametrize("key", ["n_values", "epsilon_values"])
    def test_rejects_empty_grid_axis(self, key):
        # an empty axis would write a header-only CSV and exit 0
        match = f"config key '{key}' must hold at least one value"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_json(json.dumps({
                "regime": "edge", "n_values": [10], "p_values": [1.0],
                "epsilon_values": ["1"], key: []}))
        with pytest.raises(ValueError, match=match):
            replace(preset_config("exp1"), **{key: ()})


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

    def test_csv_quotes_fields_that_need_it(self, tmp_path):
        # a preset is free text and names the experiment column
        path = tmp_path / "q.csv"
        write_records_csv(run_experiment(_tiny_config(preset='a,b"c\nd', trials=1)), path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 10
        assert all(len(row) == 11 for row in rows)
        assert {row[0] for row in rows[1:]} == {'a,b"c\nd'}

    def test_worker_count_invariance(self, tmp_path):
        cfg = _tiny_config()
        r1 = run_experiment(cfg, workers=1)
        r2 = run_experiment(cfg, workers=2)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_records_csv(r1, p1)
        write_records_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sparse_edge_csv_is_deterministic_across_workers(self, tmp_path):
        # p < 1 draws the graph by geometric gaps; p = 1 by unit gaps
        cfg = _tiny_config(n_values=(20,), p_values=(0.3, 1.0))
        outs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 3)):
            path = tmp_path / f"{name}.csv"
            write_records_csv(run_experiment(cfg, workers=workers), path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert b",0.3," in outs[0]

    def test_csv_p_reads_back_to_the_keying_p(self, tmp_path):
        # substream keys on eps_token(p); 12 significant digits would merge the
        # first two and write 2 ln n/n at n = 1e5 as a value that is not p
        ps = (0.5, 0.5000000000001, 2 * math.log(1e5) / 1e5)
        records = [TrialRecord(experiment="x", algorithm="truth", n=10, epsilon=1.0,
                               trial=0, seed="0", metric="m", value=0.0, p=p)
                   for p in ps]
        path = tmp_path / "p.csv"
        write_records_csv(records, path)
        with open(path, newline="") as fh:
            assert tuple(float(row["p"]) for row in csv.DictReader(fh)) == ps

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
            ingest(path, mode="individual")

    def test_strict_L_mismatch_names_first_line_of_user(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(CEMS_CSV + "u2,london,milan,milan\n")
        with pytest.raises(ParseError, match=r"raw\.csv:4: user 'u2' has 3 records, expected 2"):
            ingest(path, mode="individual")

    def test_edge_mode_duplicate_pair(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(CEMS_CSV)
        with pytest.raises(AdjacencyModelError, match="individual mode"):
            ingest(path, mode="edge")

    def test_edge_mode_duplicate_pair_names_both_lines(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(CEMS_CSV)
        with pytest.raises(AdjacencyModelError,
                           match=r"raw\.csv:4: pair \(paris, london\) compared more than "
                                 r"once \(first on line 2\); use individual mode"):
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

    def test_truncated_row_reports_line(self, tmp_path):
        # DictReader fills the missing fields of a short line with None; an
        # empty field would otherwise become an item named ""
        path = tmp_path / "raw.csv"
        for row, missing in (("u2,a", "item_b, winner"), ("u2,a,,a", "item_b"),
                             (",a,b,a", "user_id")):
            path.write_text(f"user_id,item_a,item_b,winner\nu1,a,b,a\n{row}\n")
            for mode in ("edge", "individual"):
                with pytest.raises(ParseError,
                                   match=rf"raw\.csv:3: row is missing {missing}$"):
                    ingest(path, mode=mode)

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
