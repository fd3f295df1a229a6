import csv
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dptree import cli, experiments
from dptree.cli import main
from dptree.data_io import (
    DataError,
    load_schema,
    partition,
    save_schema,
    schema_from_dict,
    synthetic_schema,
    synthetic_tree_dataset,
    train_test_split,
    write_csv,
)
from dptree.dp_core import InvalidParameterError, RandomSource, zero_noise
from dptree.dp_topdown import DPTopDownConfig, dp_topdown
from dptree.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    derive_seed,
    load_experiment_config,
    prepare_data,
    run_single,
    run_sweep,
    summarize,
)
from dptree.split_strategies import EntityPool
from dptree.theory import boosting_recurrence
from dptree.tree_learning import DecisionTree, SplitFunction, SplitPlan, tree_error
from oracle import load_csv_rows, mutate_csv

# Finite JSON numbers, subnormals and the edge of the float range included.
JSON_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1.0),
                         st.sampled_from([5e-324, 1e-320, 1e-300, 1e-10, 0.5, 1.0, 1e308]))
COUNTS = st.integers(max_value=10**4)
# `recurrence` is left out: its iteration count is superpolynomial in 1/error.
THEORY_PARAMS = {
    "sensitivity": st.fixed_dictionaries(
        {"criterion": st.sampled_from(["entropy", "gini", "root-gini"]), "m": COUNTS}),
    "rnm-bound": st.fixed_dictionaries(
        {"zeta": JSON_NUMBERS, "alpha": JSON_NUMBERS, "delta": JSON_NUMBERS, "h_size": COUNTS}),
    "noisycounts-bound": st.fixed_dictionaries(
        {"zeta": JSON_NUMBERS, "alpha": JSON_NUMBERS, "delta": JSON_NUMBERS, "k": COUNTS, "h_size": COUNTS}),
    "dataset-requirement": st.fixed_dictionaries(
        {"gamma": JSON_NUMBERS, "error": JSON_NUMBERS, "delta": JSON_NUMBERS, "alpha": JSON_NUMBERS,
         "max_nodes": COUNTS, "h_size": COUNTS},
        optional={"entities": COUNTS, "schedule": st.sampled_from(["uniform", "decay"]),
                  "splitter": st.sampled_from(["rnm", "noisy-counts"])}),
}


# A schema and config with an object at every level the readers know: a
# continuous and a categorical feature, per-feature counts and a block.
FUZZ_SCHEMA = {
    "features": [{"name": "x0", "kind": "continuous", "min": 0.0, "max": 1.0},
                 {"name": "c", "kind": "categorical", "values": ["a", "b"]}],
    "label": {"name": "y", "values": ["0", "1"]},
    "splits": {"default_thresholds": 3, "per_feature": {"x0": 2},
               "blocks": [{"columns": [0, 1], "thresholds": [0.5]}]},
}
FUZZ_CSV = "x0,c,y\n" + "".join(f"{i / 40},{'ab'[i % 2]},{int(i >= 20)}\n" for i in range(40))
# Keys without which a file describes no run.
FUZZ_REQUIRED = {"schema", "data", "csv", "features", "label", "name", "min", "max", "values",
                 "columns", "thresholds"}
FUZZ_VALUES = [None, True, 0, 2.5, "text", [], {}, math.nan, math.inf, -math.inf]


def fuzz_config(schema_path, csv_path):
    return {"schema": str(schema_path), "data": {"csv": str(csv_path), "ratio": [3, 1], "split_seed": 0},
            "algorithm": "single-rnm", "alphas": [1.0], "lpfs": [0.5], "train_fractions": [1.0],
            "entities": 2, "max_nodes": 4, "error": 0.1, "criterion": "entropy", "schedule": "decay",
            "min_gain": 0.01, "runs": 1, "seed": 0, "zero_noise": False}


def json_nodes(doc, path=()):
    """(path, value) of every value in a JSON document, the document first."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from json_nodes(value, (*path, key))


def mutate(doc, data):
    """`doc` with one key dropped, one unknown key added to an object at any
    level, or one value swapped for one of another type, NaN or Infinity;
    returns the mutated document and whether it must not train."""
    kind = data.draw(st.sampled_from(["none", "drop", "add", "swap"]), label="mutation")
    if kind == "none":
        return doc, False
    nodes = list(json_nodes(doc))
    if kind == "swap":
        path, value = data.draw(st.sampled_from(nodes), label="value")
        new = data.draw(st.sampled_from([v for v in FUZZ_VALUES if type(v) is not type(value)]), label="by")
    else:
        objects = [(path, value) for path, value in nodes if isinstance(value, dict) and (value or kind == "add")]
        obj_path, obj = data.draw(st.sampled_from(objects), label="object")
        if kind == "add":
            path, new = obj_path, {**obj, "zz_unknown": 1}
        else:
            key = data.draw(st.sampled_from(sorted(obj)), label="key")
            path, new = obj_path, {k: v for k, v in obj.items() if k != key}
    if not path:
        return new, kind == "add"
    mutated = json.loads(json.dumps(doc))
    parent = mutated
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return mutated, kind == "add" or (kind == "drop" and key in FUZZ_REQUIRED)


@pytest.fixture
def workspace(tmp_path):
    ds, truth, schema = synthetic_tree_dataset(1500, RandomSource(42), depth=2, label_noise=0.05)
    schema_path = tmp_path / "schema.json"
    csv_path = tmp_path / "data.csv"
    save_schema(schema, schema_path)
    write_csv(ds, schema, csv_path)
    config = {
        "schema": str(schema_path),
        "data": {"csv": str(csv_path), "ratio": [9, 1], "split_seed": 3},
        "algorithm": "single-rnm",
        "alphas": [1.0, 8.0],
        "lpfs": [0.5],
        "train_fractions": [1.0],
        "max_nodes": 6,
        "runs": 3,
        "seed": 11,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config, config_path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strip_wall(text):
    lines = text.splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestConfig:
    def test_defaults(self, workspace):
        _, config, config_path = workspace
        loaded = load_experiment_config(config_path)
        assert loaded.entities == 4
        assert loaded.schedule == "decay"
        assert loaded.error == 0.1

    def test_default_alpha_grid(self, workspace):
        tmp_path, config, _ = workspace
        config = dict(config)
        config.pop("alphas")
        loaded = config_from_dict(config)
        assert loaded.alphas == [2.0**e for e in range(-3, 10)]
        assert loaded.runs == 3

    @pytest.mark.parametrize(
        "patch",
        [
            {"algorithm": "id3"},
            {"alphas": []},
            {"runs": 0},
            {"train_fractions": [0.0]},
            {"data": {}},
            {"entities": "abc"},
            {"alphas": ["x"]},
            {"alphas": "12"},
            {"zero_noise": "false"},
            {"data": {"csv": "d.csv", "ratio": [9]}},
            {"data": {"csv": "d.csv", "ratio": ["a", "b"]}},
            {"data": {"csv": "d.csv", "split_seed": -1}},
            {"algorithm": "baseline", "max_nodes": 0},
            {"data": ["csv"]},
            {"max_node": 6},  # misspelt
            {"delta": 1e-6},  # read by nothing
            ["a list, not an object"],  # the whole document
            {"min_gain": math.nan},
            {"min_gain": math.inf},
            {"algorithm": "baseline", "error": math.nan},
            {"algorithm": "baseline", "error": 0.0},
            {"entities": 0},
            {"max_nodes": 6.9},
            {"entities": True},
            {"data": {"csv": "d.csv", "split_seed": True}},
            {"runs": 2.5},
            {"algorithm": "baseline", "alphas": [math.nan]},
            {"algorithm": "baseline", "lpfs": [7.0]},
            # float() would make true 1.0 and read numbers out of strings.
            {"alphas": [True]},
            {"error": True},
            {"min_gain": True},
            {"train_fractions": [True]},
            {"alphas": ["1.5"]},
            {"error": "0.1"},
            {"lpfs": ["0.5"]},
            {"min_gain": "0.01"},
            # RNM needs a proven sensitivity bound, and root Gini has none.
            {"algorithm": "single-rnm", "criterion": "root-gini"},
            {"algorithm": "local-rnm", "criterion": "root-gini"},
            # Names and budgets are resolved through the learner's types.
            {"criterion": "bogus"},
            {"schedule": "bogus"},
            {"alphas": [1.0, 1e-300]},
            {"lpfs": [0.5, 5e-324]},
            # One data source: a CSV to split, or a train and a test file.
            {"data": {"train": "train.csv"}},
            {"data": {"csv": "d.csv", "train": "train.csv", "test": "test.csv"}},
        ],
    )
    def test_invalid_configs_rejected(self, workspace, patch):
        _, config, _ = workspace
        bad = {**config, **patch} if isinstance(patch, dict) else patch
        with pytest.raises(InvalidParameterError):
            config_from_dict(bad)

    def test_every_field_has_exactly_one_config_key(self):
        keys = [key for key in [*experiments._CONFIG_KEYS, *experiments._DATA_KEYS] if key != "data"]
        targets = [experiments._FIELD_OF.get(key, key) for key in keys]
        assert sorted(targets) == sorted(f.name for f in fields(experiments.ExperimentConfig))

    def test_data_cache_holds_latest_key_only(self, workspace):
        _, config, _ = workspace
        experiments._data_cache.clear()
        for split_seed in (3, 4):
            data = {**config["data"], "split_seed": split_seed}
            latest = prepare_data(config_from_dict({**config, "data": data}))
        assert len(experiments._data_cache) == 1
        assert next(iter(experiments._data_cache.values())) is latest

    @pytest.mark.parametrize("field, value", [
        ("max_nodes", 2.5), ("max_nodes", True), ("ratio", 5), ("runs", 2.5), ("runs", True), ("entities", 2.5),
        ("alphas", 8.0), ("seed", 1.5), ("split_seed", 1.5),
    ])
    def test_python_api_refuses_a_bad_type_when_made(self, workspace, field, value):
        # The config file's casts refuse these values; made from Python, the
        # config must refuse them too, not fail later in a run.
        _, config, _ = workspace
        with pytest.raises(InvalidParameterError, match=field):
            ExperimentConfig(config["schema"], csv_path=config["data"]["csv"], **{field: value})

    @pytest.mark.parametrize("made, field, value", [
        ("config", "error", "0.1"), ("config", "min_gain", "x"), ("config", "alphas", ["8"]),
        ("config", "lpfs", ["0.5"]), ("config", "train_fractions", ["1"]), ("config", "zero_noise", "yes"),
        ("config", "schema_path", 5), ("learner", "alpha", "8"), ("learner", "error", "0.1"),
        ("learner", "leaf_privacy_fraction", "0.5"), ("learner", "min_gain", None),
    ], ids=lambda part: part if isinstance(part, str) else repr(part))
    def test_python_api_refuses_a_value_of_the_wrong_type(self, workspace, made, field, value):
        # A number given as text, text given as a number and a flag that is
        # not a bool: the config file's casts refuse each, and so must the
        # configs made from Python, not raise a TypeError or misread it later.
        _, config, _ = workspace
        with pytest.raises(InvalidParameterError):
            if made == "config":
                ExperimentConfig(**{"schema_path": config["schema"], "csv_path": config["data"]["csv"], field: value})
            else:
                DPTopDownConfig(**{"alpha": 8.0, "max_nodes": 4, field: value})

    def test_python_api_keeps_good_values_as_given(self, workspace):
        _, config, _ = workspace
        made = ExperimentConfig(config["schema"], csv_path=config["data"]["csv"], alphas=[8], seed=-1, runs=1)
        assert (made.alphas, made.seed, made.runs) == ([8], -1, 1)

    def test_cold_set_up_holds_no_copy_of_all_rows(self, tmp_path):
        # The CSV is binned block by block as it is read, so a cold set-up's
        # traced peak holds the codes, the split's row order and one block,
        # not a parsed table and float matrix of all rows (about 64 B a row).
        n = 100_000
        lines = [f"{a:.6f},{b:.6f},{c:.6f},{int(a > 0.5)}\n" for a, b, c in RandomSource(7).uniform(size=(1000, 3))]
        csv_path, schema_path = tmp_path / "big.csv", tmp_path / "schema.json"
        csv_path.write_text("x0,x1,x2,y\n" + "".join(lines) * (n // 1000))
        save_schema(synthetic_schema(3), schema_path)
        config = ExperimentConfig(str(schema_path), csv_path=str(csv_path))
        experiments._data_cache.clear()
        tracemalloc.start()
        try:
            train, test = prepare_data(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            experiments._data_cache.clear()
        assert train.n + test.n == n
        assert peak < 40 * n

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


class TestRunSingle:
    def test_deterministic_rows(self, workspace):
        _, config, _ = workspace
        cfg = config_from_dict(config)
        a = run_single(cfg, 0, 0, 0, 0)
        b = run_single(cfg, 0, 0, 0, 0)
        assert a.to_csv().rsplit(",", 1)[0] == b.to_csv().rsplit(",", 1)[0]

    def test_ledger_cost_bounded(self, workspace):
        _, config, _ = workspace
        cfg = config_from_dict(config)
        for alpha_i, alpha in enumerate(cfg.alphas):
            row = run_single(cfg, alpha_i, 0, 0, 0)
            assert row.ledger_cost <= alpha
            assert 0.0 <= row.train_acc <= 1.0

    def test_baseline_constant_across_alpha(self, workspace):
        _, config, _ = workspace
        cfg = config_from_dict({**config, "algorithm": "baseline"})
        rows = [run_single(cfg, alpha_i, 0, 0, 0) for alpha_i in range(2)]
        assert rows[0].train_acc == rows[1].train_acc
        assert rows[0].test_acc == rows[1].test_acc
        assert all(row.ledger_cost == 0.0 for row in rows)

    def test_distributed_algorithms_run(self, workspace):
        _, config, _ = workspace
        for algorithm in ("noisy-counts", "local-rnm"):
            cfg = config_from_dict({**config, "algorithm": algorithm, "entities": 3})
            row = run_single(cfg, 1, 0, 0, 0)
            assert row.ledger_cost <= cfg.alphas[1]

    @pytest.mark.parametrize("algorithm", ["baseline", "noisy-counts"])
    def test_count_noised_learners_keep_root_gini(self, workspace, algorithm):
        # Their noise is on counts, so a root-Gini gain is post-processing.
        _, config, _ = workspace
        cfg = config_from_dict({**config, "algorithm": algorithm, "criterion": "root-gini"})
        row = run_single(cfg, 1, 0, 0, 0)
        assert row.nodes >= 1 and row.ledger_cost <= cfg.alphas[1]

    def test_train_and_test_files_match_the_split_csv(self, workspace):
        # The two files hold the parts that the CSV's seeded split makes, in
        # order, so every algorithm gives the same row from either source.
        tmp_path, config, _ = workspace
        schema = load_schema(config["schema"])
        data = {"csv": config["data"]["csv"], "ratio": [3, 1], "split_seed": 5}
        parts = train_test_split(load_csv_rows(data["csv"], schema), data["ratio"], RandomSource(5, ("split",)))
        paths = [str(tmp_path / "train.csv"), str(tmp_path / "test.csv")]
        for part, path in zip(parts, paths):
            write_csv(part, schema, path)
        one = {**config, "data": data, "entities": 3, "train_fractions": [0.5]}
        two = {**one, "data": {"train": paths[0], "test": paths[1]}}
        for algorithm in experiments.ALGORITHMS:
            split_csv, files = ({**asdict(run_single(config_from_dict({**doc, "algorithm": algorithm}), 1, 0, 0, 0)),
                                 "wall_ms": None} for doc in (one, two))
            assert files == split_csv

    def test_list_ratio_gives_the_row_of_a_tuple(self, workspace):
        # The Python API may pass a list; it is held as a tuple, so the data
        # cache can key on it.
        _, config, _ = workspace
        cfg = config_from_dict(config)
        rows = [{**asdict(run_single(replace(cfg, ratio=ratio), 0, 0, 0, 0)), "wall_ms": None}
                for ratio in ([9, 1], (9, 1))]
        assert rows[0] == rows[1]

    def test_config_zero_noise_reaches_the_learner(self, workspace):
        # run_single applies the config's zero noise itself, and otherwise
        # keeps the caller's: either way single-rnm grows the baseline's tree.
        _, config, _ = workspace
        exact = {**config, "alphas": [0.125], "zero_noise": True}
        rows = [run_single(config_from_dict({**exact, "algorithm": algorithm}), 0, 0, 0, 0)
                for algorithm in ("single-rnm", "baseline")]
        with zero_noise():
            rows.append(run_single(config_from_dict({**exact, "zero_noise": False}), 0, 0, 0, 0))
        assert len({(row.train_acc, row.test_acc, row.depth, row.nodes) for row in rows}) == 1

    def test_train_fraction_subsamples(self, workspace):
        _, config, _ = workspace
        cfg = config_from_dict({**config, "train_fractions": [0.2], "algorithm": "baseline"})
        row = run_single(cfg, 0, 0, 0, 0)
        assert row.train_fraction == 0.2

    def test_cycles_hash_no_split(self, workspace, monkeypatch):
        # A path is (plan index, side) pairs, so once the data is prepared no
        # split object is hashed: every algorithm, with and without noise,
        # gives the row it gives with hashing left alone.
        _, config, _ = workspace
        cfgs = [config_from_dict({**config, "algorithm": algorithm, "entities": 3, "zero_noise": exact})
                for algorithm in experiments.ALGORITHMS for exact in (False, True)]
        prepare_data(cfgs[0])
        rows = [{**asdict(run_single(cfg, 1, 0, 0, 0)), "wall_ms": None} for cfg in cfgs]

        def refuse(split):
            raise AssertionError("a split was hashed during a cycle")

        monkeypatch.setattr(SplitFunction, "__hash__", refuse)
        assert [{**asdict(run_single(cfg, 1, 0, 0, 0)), "wall_ms": None} for cfg in cfgs] == rows

    @pytest.mark.parametrize("algorithm", experiments.ALGORITHMS)
    def test_cycles_do_not_bin_again(self, workspace, monkeypatch, algorithm):
        # The splitting class is fixed before any data is read, so the data
        # is planned and binned once, when prepared, and a cycle only slices
        # its codes.
        _, config, _ = workspace
        cfg = config_from_dict({**config, "algorithm": algorithm, "train_fractions": [1.0, 0.5]})
        experiments._data_cache.clear()
        prepare_data(cfg)
        calls = []
        planning, binning = SplitPlan.__init__, SplitPlan.bin
        searchsorted = np.searchsorted
        monkeypatch.setattr(SplitPlan, "__init__",
                            lambda *args, **kwargs: calls.append("plan") or planning(*args, **kwargs))
        monkeypatch.setattr(SplitPlan, "bin",
                            lambda *args, **kwargs: calls.append("bin") or binning(*args, **kwargs))
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args, **kwargs: calls.append("search") or searchsorted(*args, **kwargs))
        for fraction_i in (0, 1):
            for run_i in (0, 1):
                row = run_single(cfg, 0, 0, fraction_i, run_i)
                assert row.train_fraction == cfg.train_fractions[fraction_i]
        assert calls == []

    @pytest.mark.parametrize("files", ["csv", "train-test"])
    @pytest.mark.parametrize("algorithm", experiments.ALGORITHMS)
    def test_one_plan_per_prepared_dataset(self, workspace, monkeypatch, algorithm, files):
        # A cold set-up plans the splitting class once, and every binning of
        # its data shares that plan: the train and test binnings and a
        # cycle's pool's binning, its subsample or the subsample's codes
        # under its holders' labels. A distributed cycle deals its rows once.
        _, config, _ = workspace
        data = config["data"] if files == "csv" else {"train": config["data"]["csv"], "test": config["data"]["csv"]}
        cfg = config_from_dict({**config, "data": data, "algorithm": algorithm, "train_fractions": [0.5]})
        made, strategies, dealt = [], [], []
        planning = SplitPlan.__init__
        monkeypatch.setattr(SplitPlan, "__init__", lambda plan, splits: made.append(plan) or planning(plan, splits))
        monkeypatch.setattr(experiments, "dp_topdown",
                            lambda strategy, dp_config: strategies.append(strategy) or dp_topdown(strategy, dp_config))
        monkeypatch.setattr(experiments, "partition", lambda n, k, rng: dealt.append((n, k)) or partition(n, k, rng))
        experiments._data_cache.clear()
        train, test = prepare_data(cfg)
        assert len(made) == 1
        row = run_single(cfg, 0, 0, 0, 0)
        pool = strategies[0].pool
        assert len(made) == 1 and all(binned.plan is made[0] for binned in (train, test, pool.binned))
        assert dealt == ([(pool.binned.n, cfg.entities)] if algorithm in ("noisy-counts", "local-rnm") else [])
        assert pool.binned.n == int(train.n * row.train_fraction)

    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "zero-noise"])
    @pytest.mark.parametrize("algorithm", experiments.ALGORITHMS)
    def test_train_acc_is_one_minus_tree_error(self, workspace, monkeypatch, algorithm, noise):
        # Training accuracy is read from the strategy's pool; it must equal
        # routing the training rows through the tree, bit for bit.
        _, config, _ = workspace
        cfg = config_from_dict({**config, "algorithm": algorithm, "train_fractions": [1.0, 0.5]})
        learned, trains = [], []

        def learn(strategy, dp_config):
            result = dp_topdown(strategy, dp_config)
            learned.append((strategy, result[0]))
            return result

        def pool_of(train, *args):
            trains.append(train)
            return EntityPool(train, *args)

        monkeypatch.setattr(experiments, "dp_topdown", learn)
        monkeypatch.setattr(experiments, "EntityPool", pool_of)
        for fraction_i in (0, 1):
            with zero_noise(not noise):
                row = run_single(cfg, 1, 0, fraction_i, 0)
            strategy, tree = learned[-1]
            pool = strategy.pool
            train = pool.binned if algorithm in ("baseline", "single-rnm") else trains[-1]
            # The final leaves' records hold every training row, each holder's
            # rows apart.
            held = np.sum([pool.bounds(pool.leaf(leaf.path)) for leaf in tree.leaves()], axis=0)
            assert train.n == pool.binned.n == held[-1]
            assert len(held) == pool.k + 1 == (cfg.entities if algorithm in ("noisy-counts", "local-rnm") else 1) + 1
            assert row.train_acc == 1.0 - tree_error(tree, train)

    @pytest.mark.parametrize("algorithm", experiments.ALGORITHMS)
    def test_cycles_route_only_the_test_rows(self, workspace, monkeypatch, algorithm):
        # Training accuracy comes from the leaf caches, so the only rows a
        # cycle routes down its tree are the test rows.
        _, config, _ = workspace
        cfg = config_from_dict({**config, "algorithm": algorithm, "train_fractions": [1.0, 0.5]})
        _, test = prepare_data(cfg)
        routed = []
        assign = DecisionTree.assign
        monkeypatch.setattr(DecisionTree, "assign",
                            lambda tree, n, goes_right: routed.append(n) or assign(tree, n, goes_right))
        for fraction_i in (0, 1):
            routed.clear()
            run_single(cfg, 0, 0, fraction_i, 0)
            assert 0 < sum(routed) <= test.n

    @pytest.mark.parametrize("algorithm", ["noisy-counts", "local-rnm"])
    def test_holders_share_the_cycle_binning_codes(self, workspace, monkeypatch, algorithm):
        # A k-holder pool relabels the cycle's binning by holder: its codes
        # are the cycle's own arrays, not copies of them.
        _, config, _ = workspace
        cfg = config_from_dict({**config, "algorithm": algorithm, "entities": 3})
        strategies = []
        monkeypatch.setattr(experiments, "dp_topdown",
                            lambda strategy, dp_config: strategies.append(strategy) or dp_topdown(strategy, dp_config))
        train, _ = prepare_data(cfg)
        run_single(cfg, 0, 0, 0, 0)
        codes = strategies[0].pool.binned.codes
        assert len(codes) == len(train.codes) and all(ours is theirs for ours, theirs in zip(codes, train.codes))

    @pytest.mark.parametrize("algorithm", ["noisy-counts", "local-rnm"])
    def test_more_holders_than_training_rows(self, tmp_path, monkeypatch, algorithm):
        # 40 holders deal 12 rows, so most holders, the last one included,
        # get none: k comes from the config, not from the holders dealt.
        dataset, _, schema = synthetic_tree_dataset(12, RandomSource(5))
        write_csv(dataset, schema, tmp_path / "data.csv")
        save_schema(schema, tmp_path / "schema.json")
        cfg = ExperimentConfig(str(tmp_path / "schema.json"), train_path=str(tmp_path / "data.csv"),
                               test_path=str(tmp_path / "data.csv"), algorithm=algorithm, alphas=[8.0],
                               entities=40, max_nodes=4, seed=2)
        pools = []
        monkeypatch.setattr(experiments, "dp_topdown",
                            lambda strategy, dp_config: pools.append(strategy.pool) or dp_topdown(strategy, dp_config))
        experiments._data_cache.clear()
        try:
            row = run_single(cfg, 0, 0, 0, 0)
            with zero_noise():
                private = run_single(cfg, 0, 0, 0, 0)
            baseline = run_single(replace(cfg, algorithm="baseline"), 0, 0, 0, 0)
        finally:
            experiments._data_cache.clear()
        assert row.ledger_cost <= 8.0
        for pool in pools[:2]:
            bounds = pool.bounds(pool.leaf(()))
            assert len(bounds) == 40 + 1 and bounds[-1] == 12
            assert bounds[-2] == bounds[-1]  # the last holder has no row
        same = ("train_acc", "test_acc", "depth", "nodes")
        assert [getattr(private, name) for name in same] == [getattr(baseline, name) for name in same]

    def test_cycle_holds_each_training_row_once(self, tmp_path):
        # Pool positions take 4 bytes, an empty leaf pins no evicted parent's
        # positions, and the pool is freed before the test rows are routed,
        # so a cycle's traced peak above the prepared data is about 20 B per
        # training row here, and about 47 with 64-bit positions that empty
        # leaves' views keep alive.
        dataset, _, schema = synthetic_tree_dataset(50_000, RandomSource(3), depth=3, label_noise=0.05,
                                                    thresholds=31)
        csv_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
        write_csv(dataset, schema, csv_path)
        save_schema(schema, schema_path)
        config = ExperimentConfig(str(schema_path), csv_path=str(csv_path), alphas=[8.0])
        experiments._data_cache.clear()
        try:
            train, _ = prepare_data(config)
            run_single(config, 0, 0, 0, 0)  # makes the count keys, which stay with the data
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run_single(config, 0, 0, 0, 1)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        finally:
            experiments._data_cache.clear()
        assert peak < 32 * train.n


class TestSweep:
    def test_row_count_and_header(self, workspace):
        tmp_path, config, _ = workspace
        cfg = config_from_dict(config)
        out = run_sweep(cfg, tmp_path / "sweep.csv")
        text = out.read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == 1 + 2 * 1 * 1 * 3

    def test_reproducible_modulo_wall_ms(self, workspace):
        tmp_path, config, _ = workspace
        cfg = config_from_dict(config)
        first = run_sweep(cfg, tmp_path / "a.csv").read_text()
        second = run_sweep(cfg, tmp_path / "b.csv").read_text()
        assert strip_wall(first) == strip_wall(second)

    def test_resume_skips_existing_rows(self, workspace):
        tmp_path, config, _ = workspace
        cfg = config_from_dict(config)
        full = run_sweep(cfg, tmp_path / "full.csv").read_text()
        partial_path = tmp_path / "partial.csv"
        partial_lines = full.splitlines()[:4]
        partial_path.write_text("\n".join(partial_lines) + "\n")
        resumed = run_sweep(cfg, partial_path, resume=True).read_text()
        assert strip_wall(resumed) == strip_wall(full)

    def test_resume_truncates_torn_row(self, workspace):
        tmp_path, config, _ = workspace
        cfg = config_from_dict(config)
        full = run_sweep(cfg, tmp_path / "full.csv").read_text()
        lines = full.splitlines()
        torn_path = tmp_path / "torn.csv"
        # Header, 3 rows, then half of the next row without its newline.
        torn_path.write_text("\n".join(lines[:4]) + "\n" + lines[4][: len(lines[4]) // 2])
        resumed = run_sweep(cfg, torn_path, resume=True).read_text()
        assert strip_wall(resumed) == strip_wall(full)

    def test_row_text_is_pinned(self):
        # One row's text as the sweep wrote it before its columns were read
        # from ResultRow's fields.
        row = ResultRow("local-rnm", 0.125, 0.5, 0.75, 3, derive_seed(11, 0, 0, 0, 3), 0.1 + 0.2,
                        math.nan, 4, 9, 1 / 3, 12.5)
        assert row.to_csv() == ("local-rnm,0.125,0.5,0.75,3,5772892575248551064,0.30000000000000004,"
                                "nan,4,9,0.3333333333333333,12.5")
        assert CSV_HEADER == ("algorithm,alpha,lpf,train_fraction,run,seed,train_acc,test_acc,"
                              "depth,nodes,ledger_cost,wall_ms")

    def test_resume_over_undecodable_file_exit_code(self, workspace):
        tmp_path, _, config_path = workspace
        out = tmp_path / "rows.csv"
        out.write_bytes(CSV_HEADER.encode() + b"\nsingle-rnm,1.0,0.5,1.0,0,7,0.\xff9\n")
        result = CliRunner().invoke(main, ["sweep", "--config", str(config_path), "--out", str(out), "--resume"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot read {out}: ")

    @pytest.mark.parametrize("change, expected", [
        (lambda lines: [lines[0], "not,a,row"], ":2: expected 12 columns, got 3"),
        (lambda lines: lines[:3] + [lines[3].replace(",1.0,0.5,1.0,", ",2.0,0.5,1.0,", 1)] + lines[4:5],
         ":4: found the row of ('single-rnm', 2.0,"),
        (lambda lines: lines[:2] + [lines[3], lines[2]], ":3: found the row of ('single-rnm', 1.0, 0.5, 1.0, 2,"),
        (lambda lines: lines + [lines[-1]], ":8: this sweep has only 6 rows"),
    ], ids=["not-a-row", "other-alpha", "out-of-order", "extra-row"])
    def test_resume_refuses_rows_of_other_tasks(self, workspace, change, expected):
        # Resuming reads every row it skips: a row that is not the one this
        # config's task writes in its place exits 3, naming its line, and the
        # file is left as it was, its torn last row included.
        tmp_path, config, config_path = workspace
        full = run_sweep(config_from_dict(config), tmp_path / "full.csv").read_text().splitlines()
        out = tmp_path / "rows.csv"
        out.write_text("\n".join(change(full)) + "\n" + full[1][:20])
        before = out.read_text()
        result = CliRunner().invoke(main, ["sweep", "--config", str(config_path), "--out", str(out), "--resume"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: {out}{expected}")
        assert out.read_text() == before

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
    @pytest.mark.parametrize("key, value", [
        ("criterion", "bogus"),
        ("schedule", "bogus"),
        ("ratio", [9, -1]),
        ("ratio", [0, 1]),
        ("ratio", [1, 10**6]),
        ("csv", "missing.csv"),
        ("schema", "unloadable.json"),
    ], ids=["criterion", "schedule", "negative-ratio", "zero-ratio", "no-training-rows", "missing-csv",
            "bad-schema"])
    def test_refused_sweep_leaves_out_alone(self, workspace, key, value, resume):
        # A sweep refused for its config or its data exits before it opens
        # --out: the file, torn last row included, is left byte for byte.
        tmp_path, config, _ = workspace
        (tmp_path / "unloadable.json").write_text('{"features": ')
        out = tmp_path / "rows.csv"
        run_sweep(config_from_dict({**config, "runs": 1}), out)
        out.write_bytes(out.read_bytes()[:-7])
        before = out.read_bytes()
        doc = {**config, "data": dict(config["data"])}
        (doc["data"] if key in ("ratio", "csv") else doc)[key] = (
            str(tmp_path / value) if key in ("csv", "schema") else value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = ["sweep", "--config", str(bad), "--out", str(out)] + ["--resume"] * resume
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (2, 3), result.output
        assert isinstance(result.exception, SystemExit)
        assert out.read_bytes() == before

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sweep_writes_every_row_or_leaves_out_alone(self, data):
        # Any config that loads either fails before --out is touched or
        # writes the row of every task, here over a file whose last row is
        # torn; settings are drawn at and past the edges the learner accepts.
        def edge(values):
            return st.lists(st.sampled_from(values), min_size=1, max_size=2)

        doc = {
            "algorithm": data.draw(st.sampled_from(["baseline", "single-rnm", "noisy-counts", "local-rnm"])),
            "criterion": data.draw(st.sampled_from(["entropy", "gini", "root-gini", "bogus", ""])),
            "schedule": data.draw(st.sampled_from(["decay", "uniform", "bogus"])),
            "alphas": data.draw(edge([5e-324, 1e-300, 1e-265, 1e-10, 1.0, 1e308, 0.0, -1.0])),
            "lpfs": data.draw(edge([5e-324, 1e-300, 0.5, 1 - 2**-53, 0.0, 1.0])),
            "train_fractions": data.draw(edge([5e-324, 0.5, 1.0])),
            "error": data.draw(st.sampled_from([5e-324, 0.1, 1.0, 0.0, 1.5])),
            "min_gain": data.draw(st.sampled_from([-1.7976931348623157e308, 0.0, 0.01, 1e308])),
            "max_nodes": data.draw(st.integers(0, 4)),
            "entities": data.draw(st.integers(1, 3)),
            "runs": data.draw(st.integers(1, 2)),
        }
        ratio = data.draw(st.lists(st.integers(-1, 3) | st.just(10**6), min_size=2, max_size=2))
        resume = data.draw(st.booleans(), label="resume")
        with tempfile.TemporaryDirectory() as tmp:
            schema_path, csv_path, out = (Path(tmp) / name for name in ("s.json", "d.csv", "rows.csv"))
            schema_path.write_text(json.dumps(FUZZ_SCHEMA))
            csv_path.write_text(FUZZ_CSV)
            out.write_text(CSV_HEADER + "\nsingle-rnm,1.0,0.5,1.0,0,12")
            before = out.read_bytes()
            try:
                config = config_from_dict({**doc, "schema": str(schema_path),
                                           "data": {"csv": str(csv_path), "ratio": ratio}})
            except InvalidParameterError:
                return
            try:
                run_sweep(config, out, resume=resume)
            except (DataError, InvalidParameterError):
                assert out.read_bytes() == before
                return
            lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(config.alphas) * len(config.lpfs) * len(config.train_fractions) * config.runs

    def test_resume_refuses_rows_of_another_config(self, workspace):
        tmp_path, config, config_path = workspace
        out = tmp_path / "rows.csv"
        run_sweep(config_from_dict({**config, "seed": 12, "runs": 1}), out)
        result = CliRunner().invoke(main, ["sweep", "--config", str(config_path), "--out", str(out), "--resume"])
        assert result.exit_code == 3
        assert result.output.startswith(f"error: {out}:2: found the row of ('single-rnm', 1.0, 0.5, 1.0, 0, ")

    def test_ledger_cost_audit_across_sweep(self, workspace):
        tmp_path, config, _ = workspace
        cfg = config_from_dict(config)
        out = run_sweep(cfg, tmp_path / "audit.csv")
        for record in read_rows(out):
            assert float(record["ledger_cost"]) <= float(record["alpha"])

    def test_workers_env_parallel_matches_serial(self, workspace, monkeypatch):
        tmp_path, config, _ = workspace
        outputs = {}
        for exact in (False, True):
            cfg = config_from_dict({**config, "zero_noise": exact})
            monkeypatch.setenv("DPTREE_WORKERS", "1")
            serial = run_sweep(cfg, tmp_path / f"serial-{exact}.csv").read_text()
            monkeypatch.setenv("DPTREE_WORKERS", "2")
            parallel = run_sweep(cfg, tmp_path / f"parallel-{exact}.csv").read_text()
            assert strip_wall(serial) == strip_wall(parallel)
            outputs[exact] = strip_wall(serial)
        # Zero noise reached every run: exact RNM repeats across the runs of a cell.
        assert outputs[False] != outputs[True]
        runs = [line.split(",") for line in outputs[True][1:]]
        assert len({(r[1], r[6], r[7], r[8], r[9]) for r in runs}) == len(config["alphas"])

    def test_baseline_learns_once_per_whole_train_fraction(self, workspace, monkeypatch):
        # The baseline draws nothing, so at train fraction 1 every alpha, lpf
        # and run learns one tree: the sweep learns it once, and its rows are
        # those of a run per task but for wall_ms, serially, with two
        # workers and after a resume.
        tmp_path, config, _ = workspace
        cfg = config_from_dict({**config, "algorithm": "baseline", "alphas": [1.0, 8.0], "lpfs": [0.25, 0.5],
                                "runs": 3, "train_fractions": [1.0, 0.5]})
        tasks = list(itertools.product(range(2), range(2), range(2), range(3)))
        expected = [CSV_HEADER] + [run_single(cfg, *task).to_csv() for task in tasks]
        learned = []
        monkeypatch.setattr(experiments, "dp_topdown",
                            lambda *args: learned.append(args) or dp_topdown(*args))
        serial = run_sweep(cfg, tmp_path / "serial.csv").read_text()
        assert len(learned) == 1 + 2 * 2 * 3
        assert strip_wall(serial) == strip_wall("\n".join(expected))
        monkeypatch.setenv("DPTREE_WORKERS", "2")
        assert strip_wall(run_sweep(cfg, tmp_path / "parallel.csv").read_text()) == strip_wall(serial)
        monkeypatch.setenv("DPTREE_WORKERS", "1")
        # Cut after the first fraction-1 rows, so the resumed sweep's first
        # fraction-1 task is not the grid's first.
        partial = tmp_path / "partial.csv"
        partial.write_text("\n".join(serial.splitlines()[:5]) + "\n")
        learned.clear()
        assert strip_wall(run_sweep(cfg, partial, resume=True).read_text()) == strip_wall(serial)
        assert len(learned) == 1 + 2 * 2 * 3 - 1  # one fraction-0.5 row was on disk


class TestPaperClaims:
    def test_private_trees_converge_to_the_baseline_as_alpha_grows(self, tmp_path):
        # The private learners' mean test accuracy at a large alpha is within
        # 0.01 of the greedy baseline's. Data, alpha, seeds, runs and margin
        # were fixed before the result was seen.
        dataset, _, schema = synthetic_tree_dataset(20_000, RandomSource(97), depth=3, label_noise=0.05,
                                                    thresholds=31)
        write_csv(dataset, schema, tmp_path / "data.csv")
        save_schema(schema, tmp_path / "schema.json")
        mean_acc = {}
        for algorithm in experiments.ALGORITHMS:
            config = ExperimentConfig(str(tmp_path / "schema.json"), csv_path=str(tmp_path / "data.csv"),
                                      ratio=(9, 1), split_seed=0, algorithm=algorithm, alphas=[512.0], lpfs=[0.5],
                                      entities=4, max_nodes=16, criterion="entropy", schedule="decay", runs=5,
                                      seed=7)
            mean_acc[algorithm] = np.mean([run_single(config, 0, 0, 0, run).test_acc for run in range(5)])
        experiments._data_cache.clear()
        for algorithm in ("single-rnm", "noisy-counts", "local-rnm"):
            assert mean_acc[algorithm] >= mean_acc["baseline"] - 0.01, mean_acc


class TestSummarize:
    def test_sem_is_std_over_sqrt_runs(self, workspace):
        tmp_path, config, _ = workspace
        cfg = config_from_dict({**config, "runs": 4, "alphas": [1.0]})
        out = run_sweep(cfg, tmp_path / "s.csv")
        rows = read_rows(out)
        accs = [float(r["test_acc"]) for r in rows]
        summary = summarize(out)
        cell = summary["cells"][0]
        assert cell["runs"] == 4
        assert cell["test_acc_mean"] == pytest.approx(float(np.mean(accs)))
        assert cell["test_acc_sem"] == pytest.approx(float(np.std(accs, ddof=1) / 2))

    def test_cells_in_numeric_order(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text("\n".join([CSV_HEADER] + [
            f"baseline,{alpha},0.5,1.0,0,7,0.9,0.8,2,3,0.0,1.5" for alpha in ("16.0", "2.0", "1.0", "2")
        ]) + "\n")
        cells = summarize(rows)["cells"]
        assert [(cell["alpha"], cell["runs"]) for cell in cells] == [(1.0, 1), (2.0, 2), (16.0, 1)]

    # Two sweep rows, the second cut, made non-numeric or made not UTF-8.
    ROWS = ["single-rnm,1.0,0.5,1.0,0,7,0.9,0.8,2,3,0.5,1.5",
            "single-rnm,1.0,0.5,1.0,1,8,0.9,0.7,2,3,0.5,1.25"]

    @pytest.mark.parametrize("last, expected", [
        (b"single-rnm,1.0,0.5,1.0,1,8,0.9", "expected 12 columns, got 7"),
        (ROWS[1].replace("0.7", "seven").encode(), "cannot parse 'seven' as a number for 'test_acc'"),
        (ROWS[1].replace("0.7", "0.\xff7").encode("latin-1") + b"\n", "byte b'\\xff' is not UTF-8"),
        (ROWS[1].replace("0.5,1.25", "inf,1.25").encode(), "'ledger_cost' must be a finite number, got 'inf'"),
    ], ids=["torn-last-row", "non-numeric", "not-utf8", "infinite"])
    def test_bad_sweep_csv_exit_code(self, tmp_path, last, expected):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("\n".join([CSV_HEADER, self.ROWS[0], ""]).encode() + last)
        result = CliRunner().invoke(main, ["summarize", "--in", str(bad), "--out", str(tmp_path / "s.json")])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: {bad}:3: ")
        assert expected in result.output
        assert ("sweep --resume" in result.output) == ("columns" in expected)
        assert not (tmp_path / "s.json").exists()


    @pytest.mark.parametrize("column, cell", [
        ("alpha", "1_0"), ("alpha", "\u0661"), ("depth", "1_0"), ("nodes", "\u0663"), ("seed", " 8_0 "),
    ])
    def test_sweep_number_grammar(self, tmp_path, column, cell):
        # float() and int() read these as 10 and 1 (or 3, 80); the sweep CSV
        # refuses them, as a data CSV does.
        bad = tmp_path / "bad.csv"
        position = CSV_HEADER.split(",").index(column)
        cells = self.ROWS[1].split(",")
        cells[position] = cell
        bad.write_text("\n".join([CSV_HEADER, self.ROWS[0], ",".join(cells), ""]), encoding="utf-8")
        with pytest.raises(DataError, match=rf"^{re.escape(str(bad))}:3: cannot parse {re.escape(repr(cell))} "
                                            rf"as a number for '{column}'$"):
            summarize(bad)


class TestCli:
    def test_train_emits_row_json(self, workspace):
        _, _, config_path = workspace
        result = CliRunner().invoke(main, ["train", "--config", str(config_path), "--seed", "5"])
        assert result.exit_code == 0, result.output
        row = json.loads(result.output)
        assert row["algorithm"] == "single-rnm"
        assert 0.0 <= row["test_acc"] <= 1.0

    def test_train_zero_noise_matches_baseline_quality(self, workspace):
        tmp_path, config, config_path = workspace
        result = CliRunner().invoke(main, ["train", "--config", str(config_path), "--zero-noise"])
        assert result.exit_code == 0, result.output
        noisy_free = json.loads(result.output)
        baseline_cfg = tmp_path / "baseline.json"
        baseline_cfg.write_text(json.dumps({**config, "algorithm": "baseline"}))
        base = json.loads(
            CliRunner().invoke(main, ["train", "--config", str(baseline_cfg)]).output
        )
        assert noisy_free["train_acc"] == base["train_acc"]
        assert noisy_free["test_acc"] == base["test_acc"]
        assert noisy_free["depth"] == base["depth"]
        assert noisy_free["nodes"] == base["nodes"]
        assert noisy_free["ledger_cost"] > 0.0 == base["ledger_cost"]

    def test_outputs_are_strict_json_without_test_rows(self, tmp_path):
        # A ratio of [1, 0] holds out no row, so no test accuracy exists: it
        # is null in both outputs, neither of which holds NaN, and the sweep
        # CSV keeps its nan.
        ds, _, schema = synthetic_tree_dataset(200, RandomSource(7), depth=2, label_noise=0.05)
        save_schema(schema, tmp_path / "schema.json")
        write_csv(ds, schema, tmp_path / "data.csv")
        config = {"schema": str(tmp_path / "schema.json"), "data": {"csv": str(tmp_path / "data.csv"),
                  "ratio": [1, 0]}, "alphas": [8.0], "max_nodes": 4, "runs": 2, "entities": 2}

        def strict(text):
            def refuse(constant):
                raise AssertionError(f"{constant} is not JSON")
            return json.loads(text, parse_constant=refuse)

        for algorithm in experiments.ALGORITHMS:
            path = tmp_path / f"{algorithm}.json"
            path.write_text(json.dumps({**config, "algorithm": algorithm}))
            result = CliRunner().invoke(main, ["train", "--config", str(path)])
            assert result.exit_code == 0, result.output
            row = strict(result.output)
            assert row["test_acc"] is None and 0.0 < row["train_acc"] <= 1.0
        rows = tmp_path / "rows.csv"
        assert CliRunner().invoke(main, ["sweep", "--config", str(tmp_path / "baseline.json"),
                                         "--out", str(rows)]).exit_code == 0
        assert [row["test_acc"] for row in read_rows(rows)] == ["nan", "nan"]
        result = CliRunner().invoke(main, ["summarize", "--in", str(rows), "--out", str(tmp_path / "s.json")])
        assert result.exit_code == 0, result.output
        (cell,) = strict((tmp_path / "s.json").read_text())["cells"]
        assert cell["test_acc_mean"] is None and cell["test_acc_sem"] is None
        assert cell["train_acc_mean"] > 0.0 and cell["train_acc_sem"] == 0.0

    def test_sweep_and_summarize_commands(self, workspace, tmp_path):
        _, _, config_path = workspace
        out_csv = tmp_path / "rows.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--config", str(config_path), "--out", str(out_csv)]
        )
        assert result.exit_code == 0, result.output
        out_json = tmp_path / "summary.json"
        result = CliRunner().invoke(
            main, ["summarize", "--in", str(out_csv), "--out", str(out_json)]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(out_json.read_text())
        assert len(summary["cells"]) == 2

    def test_output_dir_env(self, workspace, tmp_path, monkeypatch):
        _, _, config_path = workspace
        outdir = tmp_path / "results"
        monkeypatch.setenv("DPTREE_OUTPUT_DIR", str(outdir))
        result = CliRunner().invoke(
            main, ["sweep", "--config", str(config_path), "--out", "rows.csv"]
        )
        assert result.exit_code == 0, result.output
        assert (outdir / "rows.csv").exists()

    def test_theory_commands(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["theory", "sensitivity", "--params", '{"criterion": "entropy", "m": 1024}']
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["value"] == pytest.approx(0.09765625)

        result = runner.invoke(
            main, ["theory", "rnm-bound", "--params",
                   '{"zeta": 0.1, "alpha": 1, "delta": 0.05, "h_size": 159}']
        )
        assert json.loads(result.output)["value"] == 52124

        result = runner.invoke(
            main, ["theory", "recurrence", "--params", '{"error": 0.9, "gamma": 0.5}']
        )
        assert json.loads(result.output)["value"] == boosting_oracle(0.9, 0.5, 4)

        result = runner.invoke(
            main, ["theory", "dataset-requirement", "--params",
                   '{"gamma": 0.25, "error": 0.1, "delta": 0.1, "max_nodes": 16, '
                   '"alpha": 1, "h_size": 50, "splitter": "rnm", "schedule": "uniform"}']
        )
        doc = json.loads(result.output)
        assert doc["value"] == 211591309208640

    @pytest.mark.parametrize("doc, key", [
        ({"schema": "nope.json", "data": {}}, None),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "entities": "abc"}, "entities"),
        ([{"schema": "nope.json", "data": {"csv": "d.csv"}}], None),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "min_gain": math.nan}, None),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "algorithm": "baseline", "error": 0.0}, None),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "entities": 0}, None),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "alphas": [True]}, "alphas"),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "error": True}, "error"),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "min_gain": True}, "min_gain"),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "train_fractions": [True]}, "train_fractions"),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "alphas": ["1.5"]}, "alphas"),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "error": "0.1"}, "error"),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "criterion": "root-gini"}, None),
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "algorithm": "local-rnm", "criterion": "root-gini"},
         None),
        # The label budget rounds to 0.0: its noise scale was a division by zero mid-run.
        ({"schema": "nope.json", "data": {"csv": "d.csv"}, "algorithm": "noisy-counts", "alphas": [1e-300],
          "lpfs": [1e-300]}, None),
    ], ids=["missing-data", "uncastable-value", "list-document", "nan-min-gain",
            "baseline-zero-error", "no-entities", "boolean-alpha", "boolean-error", "boolean-min-gain",
            "boolean-train-fraction", "string-alpha", "string-error", "root-gini-single-rnm",
            "root-gini-local-rnm", "underflowed-label-budget"])
    def test_config_error_exit_code(self, tmp_path, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["train", "--config", str(bad)])
        assert result.exit_code == 2
        if key is not None:
            assert result.output.startswith(f"error: config key {key!r} has a bad value")

    def test_budget_exceeded_exit_code(self, workspace, monkeypatch):
        _, _, config_path = workspace
        # Fund every depth with the whole split budget, so the run overspends.
        # The package attribute `dptree.dp_topdown` is the learner function.
        monkeypatch.setattr(importlib.import_module("dptree.dp_topdown"), "budget_share",
                            lambda schedule, depth, max_nodes: Fraction(1))
        result = CliRunner().invoke(main, ["train", "--config", str(config_path)])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: effective cost")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("subcommand, params", [
        ("sensitivity", '[1]'),
        ("sensitivity", '{"criterion": "entropy", "m": "abc"}'),
        ("rnm-bound", '{"zeta": 0.1, "alpha": NaN, "delta": 0.05, "h_size": 159}'),
        ("noisycounts-bound", '{"zeta": 0.1, "alpha": NaN, "delta": 0.05, "k": 4, "h_size": 159}'),
        ("rnm-bound", '{"zeta": 0.1, "alpha": Infinity, "delta": 0.05, "h_size": 159}'),
        ("recurrence", '{"error": 0.9, "gamma": 0.5, "slowdown": NaN}'),
        ("sensitivity", '{"criterion": "entropy", "m": 3.9}'),
        ("rnm-bound", '{"zeta": 0.1, "alpha": 1, "delta": 0.05, "h_size": 10.7}'),
        ("dataset-requirement", '{"gamma": 0.25, "error": 0.1, "delta": 0.1, "max_nodes": 8.9, '
                                '"alpha": 1, "h_size": 50}'),
        ("rnm-bound", '{"zeta": 0.1, "alpha": 1, "delta": 0.05, "h_size": true}'),
        ("sensitivity", '{"criterion": "root-gini", "m": 64}'),
        # Inputs whose intermediates or results leave the finite positive floats.
        ("rnm-bound", '{"zeta": 1e-320, "alpha": 1e-10, "delta": 0.5, "h_size": 10}'),
        ("rnm-bound", '{"zeta": 1e-300, "alpha": 1e-10, "delta": 0.5, "h_size": 10}'),
        ("noisycounts-bound", '{"zeta": 1e-300, "alpha": 1e-10, "delta": 0.5, "k": 4, "h_size": 10}'),
        ("dataset-requirement", '{"gamma": 0.25, "error": 0.1, "delta": 0.1, "max_nodes": 2000, '
                                '"alpha": 1, "h_size": 50, "schedule": "decay"}'),
        ("dataset-requirement", '{"gamma": 0.25, "error": 0.1, "delta": 0.1, "max_nodes": 16, '
                                '"alpha": 1e-320, "h_size": 50}'),
        ("sensitivity", '{"criterion": "entropy", "m": 1%s}' % ("0" * 400)),
        # Below three rows the learner's formula has no bound to give.
        ("sensitivity", '{"criterion": "entropy", "m": 0}'),
        ("sensitivity", '{"criterion": "gini", "m": 2}'),
        ("sensitivity", '{"criterion": "root-gini", "m": 2}'),
        # The single-machine analysis has no k to put into its terms.
        ("dataset-requirement", '{"gamma": 0.25, "error": 0.1, "delta": 0.1, "max_nodes": 16, '
                                '"alpha": 1, "h_size": 50, "entities": 8}'),
    ], ids=["not-an-object", "non-numeric", "nan-alpha-rnm", "nan-alpha-noisycounts", "infinite-alpha",
            "nan-slowdown", "fractional-m", "fractional-h-size", "fractional-max-nodes", "boolean-h-size",
            "root-gini", "underflowed-rnm-denominator", "overflowed-rnm-bound", "overflowed-noisycounts-bound",
            "underflowed-decay-budget", "subnormal-alpha", "m-past-the-floats", "m-zero", "m-two",
            "root-gini-m-two", "rnm-many-entities"])
    def test_theory_bad_params_exit_code(self, subcommand, params):
        result = CliRunner().invoke(main, ["theory", subcommand, "--params", params])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")

    def test_theory_recurrence_cap_exit_code(self, monkeypatch):
        _, casts = cli.THEORY["recurrence"]
        monkeypatch.setitem(cli.THEORY, "recurrence", (functools.partial(boosting_recurrence, cap=10), casts))
        params = '{"error": 0.1, "gamma": 0.05}'
        result = CliRunner().invoke(main, ["theory", "recurrence", "--params", params])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: recurrence did not reach 0.1 within 10 iterations")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_theory_calculators_fail_closed(self, data):
        subcommand = data.draw(st.sampled_from(sorted(THEORY_PARAMS)))
        params = data.draw(THEORY_PARAMS[subcommand])
        result = CliRunner().invoke(main, ["theory", subcommand, "--params", json.dumps(params)])
        assert result.exit_code in (0, 2), (subcommand, params, result.exception)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_train_fails_closed_on_mutated_inputs(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            schema_path, csv_path, config_path = (Path(tmp) / name for name in ("s.json", "d.csv", "c.json"))
            csv_path.write_text(FUZZ_CSV)
            target = data.draw(st.sampled_from(["schema", "config", "csv"]), label="file")
            schema, config, refused = FUZZ_SCHEMA, fuzz_config(schema_path, csv_path), False
            if target == "schema":
                schema, refused = mutate(schema, data)
            elif target == "config":
                config, refused = mutate(config, data)
            else:
                parsed = schema_from_dict(schema)
                csv_path.write_bytes(mutate_csv(FUZZ_CSV.splitlines(), parsed, data).encode("utf-8"))
                try:
                    load_csv_rows(csv_path, parsed)
                except DataError:
                    refused = True
            schema_path.write_text(json.dumps(schema))
            config_path.write_text(json.dumps(config))
            result = CliRunner().invoke(main, ["train", "--config", str(config_path)])
        assert result.exit_code in (0, 2, 3, 4), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        if refused and target == "csv":
            assert result.exit_code == 3, result.output
        elif refused:
            assert result.exit_code != 0, (schema, config)

    def test_theory_recurrence_stall_exit_code(self, monkeypatch):
        # slowdown 1e308 makes the first decrement vanish against 1.0. The cap
        # keeps a build that misses the stall from running 10**9 steps.
        _, casts = cli.THEORY["recurrence"]
        monkeypatch.setitem(cli.THEORY, "recurrence", (functools.partial(boosting_recurrence, cap=10**6), casts))
        params = '{"error": 0.1, "gamma": 0.5, "slowdown": 1e308}'
        result = CliRunner().invoke(main, ["theory", "recurrence", "--params", params])
        assert result.exit_code == 2, result.output
        assert result.output == "error: recurrence stalls at step 1 with potential 1.0, above 0.1\n"

    @pytest.mark.parametrize("subcommand, params", [
        ("sensitivity", {"criterion": "gini", "m": 100}),
        ("rnm-bound", {"zeta": 0.1, "alpha": 1, "delta": 0.05, "h_size": 159}),
        ("noisycounts-bound", {"zeta": 0.1, "alpha": 1, "delta": 0.05, "k": 4, "h_size": 159}),
        ("recurrence", {"error": 0.9, "gamma": 0.5, "slowdown": 4}),
        ("dataset-requirement", {"gamma": 0.25, "error": 0.1, "delta": 0.1, "max_nodes": 16, "alpha": 1,
                                 "h_size": 50, "entities": 1, "schedule": "uniform", "splitter": "rnm"}),
    ])
    def test_theory_unknown_parameter_exit_code(self, subcommand, params):
        good = CliRunner().invoke(main, ["theory", subcommand, "--params", json.dumps(params)])
        assert good.exit_code == 0, good.output
        # Ignored, a misspelt parameter would leave the calculator's default in force.
        bad = json.dumps({**params, "alhpa": 5})
        result = CliRunner().invoke(main, ["theory", subcommand, "--params", bad])
        assert result.exit_code == 2
        assert result.output == "error: --params has unknown key 'alhpa'\n"
        # A key may be left out exactly when the calculator gives it a default.
        defaults = inspect.signature(cli.THEORY[subcommand][0]).parameters
        for key in params:
            rest = json.dumps({k: v for k, v in params.items() if k != key})
            result = CliRunner().invoke(main, ["theory", subcommand, "--params", rest])
            if defaults[key].default is inspect.Parameter.empty:
                assert (result.exit_code, result.output) == (2, f"error: --params is missing required key {key!r}\n")
            else:
                assert result.exit_code == 0, result.output

    def test_data_error_exit_code(self, workspace, tmp_path):
        workspace_path, config, _ = workspace
        broken = dict(config)
        broken["data"] = {"csv": str(tmp_path / "missing.csv"), "ratio": [9, 1]}
        config_path = tmp_path / "broken.json"
        config_path.write_text(json.dumps(broken))
        result = CliRunner().invoke(main, ["train", "--config", str(config_path)])
        assert result.exit_code == 3

    @pytest.mark.parametrize("schema", [
        {},
        [{"name": "x0"}],
        {"features": [{"name": "x0", "min": "low", "max": 1}], "label": {"name": "y", "values": ["0", "1"]}},
        {"features": [{"name": "x0", "min": 1, "max": 0}], "label": {"name": "y", "values": ["0", "1"]}},
        {"features": [{"name": "x0", "min": math.nan, "max": 1}], "label": {"name": "y", "values": ["0", "1"]}},
        {"features": [], "label": {"name": "y", "values": ["0", "1", "0"]}},
        {"features": [{"name": "x0", "min": 0, "max": 1}], "label": {"name": "y", "values": ["0", "1"]},
         "splits": {"default_thresholds": 0}},
        {"features": [{"name": "x0", "min": 0, "max": 1}], "label": {"name": "y", "values": ["0", "1"]},
         "splits": {"default_thresholds": 6.9}},
        # The workspace's schema but for one value, which float() would
        # read as 0.0, 1.0 and (1.0, 0.5).
        {"features": [{"name": "x0", "min": False, "max": 1}, {"name": "x1", "min": 0, "max": 1}],
         "label": {"name": "y", "values": ["0", "1"]}},
        {"features": [{"name": "x0", "min": 0, "max": "1"}, {"name": "x1", "min": 0, "max": 1}],
         "label": {"name": "y", "values": ["0", "1"]}},
        {"features": [{"name": "x0", "min": 0, "max": 1}, {"name": "x1", "min": 0, "max": 1}],
         "label": {"name": "y", "values": ["0", "1"]},
         "splits": {"blocks": [{"columns": [0, 1], "thresholds": [True, "0.5"]}]}},
        # The workspace's schema with a threshold count for a name that is no feature.
        {"features": [{"name": "x0", "min": 0, "max": 1}, {"name": "x1", "min": 0, "max": 1}],
         "label": {"name": "y", "values": ["0", "1"]},
         "splits": {"per_feature": {"x0": 4, "xx": 50}}},
        # A schema that declares no feature has no split to learn with.
        {"features": [], "label": {"name": "y", "values": ["0", "1"]}},
    ], ids=["no-features", "list-document", "non-numeric-min", "empty-range", "nan-range",
            "duplicate-label", "zero-thresholds", "fractional-thresholds", "boolean-min", "string-max",
            "boolean-and-string-thresholds", "per-feature-not-continuous", "empty-feature-list"])
    def test_bad_schema_exit_code(self, workspace, tmp_path, schema):
        _, config, _ = workspace
        schema_path = tmp_path / "bad-schema.json"
        schema_path.write_text(json.dumps(schema))
        config_path = tmp_path / "bad-schema-config.json"
        config_path.write_text(json.dumps({**config, "schema": str(schema_path)}))
        result = CliRunner().invoke(main, ["train", "--config", str(config_path)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert "Traceback" not in result.output

    def test_short_csv_row_exit_code(self, workspace, tmp_path):
        _, config, _ = workspace
        csv_path = tmp_path / "short.csv"
        lines = Path(config["data"]["csv"]).read_text().splitlines()
        csv_path.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]]) + "\n")
        config_path = tmp_path / "short.json"
        config_path.write_text(json.dumps({**config, "data": {**config["data"], "csv": str(csv_path)}}))
        result = CliRunner().invoke(main, ["train", "--config", str(config_path)])
        assert result.exit_code == 3
        assert "expected" in result.output and "columns" in result.output

    @pytest.mark.parametrize("cell", [b"0.\xff5", b"0." + b"5" * 140_000], ids=["not-utf8", "over-field-limit"])
    def test_undecodable_csv_exit_code(self, workspace, tmp_path, cell):
        _, config, _ = workspace
        csv_path = tmp_path / "undecodable.csv"
        lines = Path(config["data"]["csv"]).read_bytes().splitlines()
        lines[4] = cell + lines[4][lines[4].index(b","):]
        csv_path.write_bytes(b"\n".join(lines) + b"\n")
        config_path = tmp_path / "undecodable.json"
        config_path.write_text(json.dumps({**config, "data": {**config["data"], "csv": str(csv_path)}}))
        result = CliRunner().invoke(main, ["train", "--config", str(config_path)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: {csv_path}:5: ")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("which", ["config", "schema"])
    @pytest.mark.parametrize("content", [b'{"schema": "\xff"}', b"[" * 50_000 + b"]" * 50_000,
                                         b'{"runs": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "nested-50k-deep", "5000-digit-int"])
    def test_undecodable_json_exit_code(self, workspace, tmp_path, which, content):
        _, config, config_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if which == "schema":
            config_path.write_text(json.dumps({**config, "schema": str(bad)}))
        result = CliRunner().invoke(main, ["train", "--config", str(bad if which == "config" else config_path)])
        assert result.exit_code == (2 if which == "config" else 3)
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot read {bad}: ")

    @pytest.mark.parametrize("params", ["[" * 50_000 + "]" * 50_000, '{"m": 1' + "0" * 5000 + "}"],
                             ids=["nested-50k-deep", "5000-digit-int"])
    def test_theory_undecodable_params_exit_code(self, params):
        result = CliRunner().invoke(main, ["theory", "sensitivity", "--params", params])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: cannot read --params: ")

    def test_unreadable_sweep_csv_exit_code(self, tmp_path):
        result = CliRunner().invoke(main, ["summarize", "--in", str(tmp_path), "--out", str(tmp_path / "s.json")])
        assert result.exit_code == 3
        assert result.output.startswith(f"error: cannot read {tmp_path}: ")

    @pytest.mark.parametrize("command", ["sweep", "summarize"])
    @pytest.mark.parametrize("kind", ["directory", "under-a-file"])
    def test_bad_out_path_exit_code(self, workspace, tmp_path, command, kind):
        _, _, config_path = workspace
        rows = tmp_path / "rows.csv"
        rows.write_text(CSV_HEADER + "\n")
        (tmp_path / "taken").mkdir()
        out = tmp_path / "taken" if kind == "directory" else rows / "out"
        args = ["--config", str(config_path)] if command == "sweep" else ["--in", str(rows)]
        result = CliRunner().invoke(main, [command, *args, "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_code(self, workspace, tmp_path, monkeypatch, workers):
        _, _, config_path = workspace
        monkeypatch.setenv("DPTREE_WORKERS", workers)
        out = tmp_path / "rows.csv"
        result = CliRunner().invoke(main, ["sweep", "--config", str(config_path), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == f"error: DPTREE_WORKERS must be at least 1, got {workers!r}\n"
        assert not out.exists()

    def test_console_entry_point(self):
        # The child finds the package where this process does, with or
        # without PYTHONPATH set.
        proc = subprocess.run(
            [sys.executable, "-m", "dptree.cli", "theory", "sensitivity",
             "--params", '{"criterion": "gini", "m": 100}'],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.2)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_column(heading: str) -> list[str]:
    """The first cell of each row of the table under `## heading` in the
    README, without its backticks."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]  # past the header
    return [row.split("|")[1].strip().strip("`") for row in rows]


class TestReadme:
    def test_key_table_is_every_config_key(self):
        keys = readme_column("Configuration")
        assert len(keys) == len(set(keys))
        assert set(keys) == set(experiments._CONFIG_KEYS) | {f"data.{key}" for key in experiments._DATA_KEYS}

    def test_exit_codes_are_the_clis(self):
        assert [int(code) for code in readme_column("Exit codes")] == [0] + sorted(cli.EXIT_CODES.values())


def boosting_oracle(error, gamma, slowdown):
    g, t = 1.0, 1
    while g > error:
        g -= gamma**2 * g / (slowdown * t * math.log2(2 / g))
        t += 1
    return t
