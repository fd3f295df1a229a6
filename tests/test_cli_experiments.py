import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dptree.cli import main
from dptree.data_io import save_schema, synthetic_tree_dataset, write_csv
from dptree.dp_core import RandomSource
from dptree.experiments import (
    CSV_HEADER,
    ConfigError,
    config_from_dict,
    derive_seed,
    load_experiment_config,
    run_single,
    run_sweep,
    summarize,
)


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
        ],
    )
    def test_invalid_configs_rejected(self, workspace, patch):
        _, config, _ = workspace
        bad = {**config, **patch}
        with pytest.raises(ConfigError):
            config_from_dict(bad)

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

    def test_train_fraction_subsamples(self, workspace):
        _, config, _ = workspace
        cfg = config_from_dict({**config, "train_fractions": [0.2], "algorithm": "baseline"})
        row = run_single(cfg, 0, 0, 0, 0)
        assert row.train_fraction == 0.2


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

    def test_ledger_cost_audit_across_sweep(self, workspace):
        tmp_path, config, _ = workspace
        cfg = config_from_dict(config)
        out = run_sweep(cfg, tmp_path / "audit.csv")
        for record in read_rows(out):
            assert float(record["ledger_cost"]) <= float(record["alpha"])

    def test_workers_env_parallel_matches_serial(self, workspace, monkeypatch):
        tmp_path, config, _ = workspace
        cfg = config_from_dict(config)
        serial = run_sweep(cfg, tmp_path / "serial.csv").read_text()
        monkeypatch.setenv("DPTREE_WORKERS", "2")
        parallel = run_sweep(cfg, tmp_path / "parallel.csv").read_text()
        assert strip_wall(serial) == strip_wall(parallel)


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
        assert json.loads(result.output)["value"] == pytest.approx(0.060546875)

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

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope.json", "data": {}}))
        result = CliRunner().invoke(main, ["train", "--config", str(bad)])
        assert result.exit_code == 2

    def test_data_error_exit_code(self, workspace, tmp_path):
        workspace_path, config, _ = workspace
        broken = dict(config)
        broken["data"] = {"csv": str(tmp_path / "missing.csv"), "ratio": [9, 1]}
        config_path = tmp_path / "broken.json"
        config_path.write_text(json.dumps(broken))
        result = CliRunner().invoke(main, ["train", "--config", str(config_path)])
        assert result.exit_code == 3

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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dptree.cli", "theory", "sensitivity",
             "--params", '{"criterion": "gini", "m": 100}'],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.2)


def boosting_oracle(error, gamma, slowdown):
    g, t = 1.0, 1
    while g > error:
        g -= gamma**2 * g / (slowdown * t * math.log2(2 / g))
        t += 1
    return t
