"""Tests of the benchmark itself: tracing, metric names and a smoke run.

Run from the root of the repository: python3 -m pytest bench/tests
"""

import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import harness
from dptree import Criterion, EntityPool, PrivacyLedger, RandomSource
from dptree.data_io import build_splitting_class, synthetic_tree_dataset
from tracing import LAYERS, Tracer, traced

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKES = [
    harness.Workload("smoke-single-rnm", "single-rnm", 1500, 8, zero_noise_check=True),
    harness.Workload("smoke-local-rnm", "local-rnm", 1500, 8, entities=4),
    harness.Workload("smoke-noisy-counts", "noisy-counts", 1500, 8, entities=4, zero_noise_check=True),
]


def _bindings():
    """Every attribute of every dptree module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "dptree" or name.startswith("dptree."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if inspect.isclass(value):
                    for member, raw in vars(value).items():
                        out[(name, attr, member)] = raw
    return out


def test_wrapper_patches_every_binding_and_restores_it():
    tree_learning = importlib.import_module("dptree.tree_learning")
    split_strategies = importlib.import_module("dptree.split_strategies")
    dp_core = importlib.import_module("dptree.dp_core")
    dp_topdown = importlib.import_module("dptree.dp_topdown")
    experiments = importlib.import_module("dptree.experiments")
    before = _bindings()
    originals = {name: getattr(dp_core, name) for name in ("sample_laplace", "report_noisy_max")}
    with traced(Tracer()):
        kernel = tree_learning.split_count_tables
        assert kernel is not before[("dptree.tree_learning", "split_count_tables")]
        assert split_strategies.split_count_tables is kernel
        for name, original in originals.items():
            for module in (dp_core, dp_topdown, split_strategies):
                assert getattr(module, name) is not original
        assert experiments.dp_topdown is not before[("dptree.dp_topdown", "dp_topdown")]
        assert split_strategies.EntityPool.__dict__["from_shards"] is not before[
            ("dptree.split_strategies", "EntityPool", "from_shards")]
        assert _bindings() != before
    assert _bindings() == before


def test_wrapper_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(KeyError):
        with traced(Tracer()):
            raise KeyError("boom")
    assert _bindings() == before


def test_every_layer_names_a_real_attribute():
    for module_name, names in LAYERS.items():
        module = importlib.import_module("dptree." + module_name)
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module_name}.{name}"


def test_self_time_subtracts_nested_spans():
    dataset, _, schema = synthetic_tree_dataset(
        3000, RandomSource(5), depth=3, label_noise=0.05, thresholds=31)
    splits = build_splitting_class(schema)
    halves = [dataset.subset(np.arange(0, 1500)), dataset.subset(np.arange(1500, 3000))]
    pool = EntityPool.from_shards(halves, RandomSource(6), splits, Criterion.ENTROPY)
    path = ((splits[3], 1), (splits[40], 0))
    tracer = Tracer()
    with traced(tracer):
        pool.ask_all(PrivacyLedger(8), "joint_histogram", path, Fraction(1), 1, 7, splits=splits)

    handle = "split_strategies.Entity.handle"
    children = ("split_strategies.Entity.leaf_rows", "tree_learning.split_count_tables",
                "dp_core.sample_laplace", "dp_core.PrivacyLedger.charge")
    assert tracer.counts[handle + ".calls"] == 2
    for child in children:
        assert tracer.counts[child + ".calls"] == 2
        assert tracer.total_s[child] > 0.0
    inner = sum(tracer.total_s[child] for child in children)
    assert tracer.self_s[handle] == pytest.approx(tracer.total_s[handle] - inner, rel=1e-9, abs=1e-12)
    assert 0.0 < tracer.self_s[handle] < tracer.total_s[handle]
    send = "split_strategies.LocalTransport.send"
    assert tracer.self_s[send] == pytest.approx(
        tracer.total_s[send] - tracer.total_s[handle], rel=1e-9, abs=1e-12)
    assert tracer.counts[send + ".messages"] == 4
    assert tracer.counts["split_strategies.Entity.leaf_rows.path_splits"] == 4
    assert tracer.counts["dp_core.sample_laplace.draws"] == 2 * len(splits) * 2 * 2


def test_benchmark_json_workloads_exist():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names and set(names) <= set(harness.WORKLOADS)


@pytest.mark.parametrize("trace, section, names", [
    (False, "end_to_end", harness.END_TO_END),
    (True, "per_layer", harness.LAYER_METRICS),
])
def test_printed_metric_names_match_benchmark_json(tmp_path, trace, section, names):
    declared = [(m["name"], m["unit"]) for m in SPEC[section]]
    assert declared == list(names)
    outcome = harness.run_workload(SMOKES[2], 1, 0.0, trace, tmp_path)
    lines, result = harness.report(outcome, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == declared
    for name, _ in declared:
        assert any(line.startswith(name + " ") for line in lines), name
    assert any(line.startswith("fail_rate ") for line in lines)


@pytest.mark.parametrize("workload", SMOKES, ids=lambda w: w.name)
def test_smoke_workload_runs_end_to_end(tmp_path, workload):
    outcome = harness.run_workload(workload, 3, 0.0, False, tmp_path)
    # MIN_CYCLES timed cycles, one repeat, and two for the zero-noise check.
    assert outcome.attempted == harness.MIN_CYCLES + 1 + 2 * workload.zero_noise_check
    assert outcome.failed == 0, outcome.problems
    _, result = harness.report(outcome, False)
    assert result["correct"] is True
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0.0, name
    assert list(tmp_path.iterdir()) == []


def test_traced_counts_repeat_exactly(tmp_path):
    runs = [harness.run_workload(SMOKES[1], 4, 0.0, True, tmp_path) for _ in range(2)]
    for outcome in runs:
        assert outcome.failed == 0, outcome.problems  # traced == untraced fingerprints
    counts = [{name: value for name, value in outcome.layers.items()
               if not name.endswith(("self_s", "overhead_ratio"))} for outcome in runs]
    assert counts[0] == counts[1]
    assert counts[0]["split_strategies.LocalTransport.send.messages"] > 0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
