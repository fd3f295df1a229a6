"""Command-line front end: single training runs, sweeps, theory calculators,
and sweep summaries.

Each failure a command reports has one exception type and one exit code,
in `EXIT_CODES`: 2 for a bad setting, config or parameter
(InvalidParameterError), 3 for bad data (DataError), and 4 when a ledger
charge would take the run over alpha (BudgetExceededError). 0 is success.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from dataclasses import asdict

import click

from .dp_core import BudgetExceededError, InvalidParameterError
from .data_io import DataError, _finite, _int, _text, read_json, read_object
from .experiments import (
    load_experiment_config,
    open_output,
    resolve_output_path,
    run_single,
    run_sweep,
    summarize,
)
from .theory import (
    boosting_recurrence,
    dataset_requirement,
    noisycounts_sample_bound,
    rnm_sample_bound,
    sensitivity_bound,
)
from .tree_learning import Criterion

EXIT_CODES = {InvalidParameterError: 2, DataError: 3, BudgetExceededError: 4}


def _guarded(fn):
    try:
        return fn()
    except tuple(EXIT_CODES) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CODES[type(exc)])


@click.group()
def main():
    """Differentially private top-down decision trees."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--zero-noise", "exact", is_flag=True, help="Exact mechanisms; budget still charged.")
@click.option("--seed", type=int, default=None, help="Override the config's base seed.")
def train(config_path, exact, seed):
    """Run a single seeded training cycle on the first grid point."""

    def body():
        config = load_experiment_config(config_path)
        if seed is not None:
            config.seed = seed
        if exact:
            config.zero_noise = True
        row = run_single(config, 0, 0, 0, 0)
        record = {**asdict(row), "test_acc": None if math.isnan(row.test_acc) else row.test_acc}
        click.echo(json.dumps(record, sort_keys=True, allow_nan=False))

    _guarded(body)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--resume", is_flag=True, help="Skip rows already present in --out.")
def sweep(config_path, out_path, resume):
    """Run the full (alpha x lpf x train-fraction) x runs grid to CSV."""

    def body():
        config = load_experiment_config(config_path)
        written = run_sweep(config, out_path, resume=resume)
        click.echo(str(written))

    _guarded(body)


@main.command("summarize")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def summarize_cmd(in_path, out_path):
    """Aggregate a sweep CSV into per-cell means and standard errors."""

    def body():
        summary = summarize(in_path)
        out = resolve_output_path(out_path)
        with open_output(out) as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        click.echo(str(out))

    _guarded(body)


# Each subcommand's calculator and the cast of each of its parameters, keyed
# by the calculator's own parameter names. A parameter that the calculator
# gives no default is required.
THEORY = {
    "sensitivity": (sensitivity_bound, {"criterion": lambda v: Criterion.from_name(_text(v)), "m": _int}),
    "rnm-bound": (rnm_sample_bound, {"zeta": _finite, "alpha": _finite, "delta": _finite, "h_size": _int}),
    "noisycounts-bound": (
        noisycounts_sample_bound,
        {"zeta": _finite, "alpha": _finite, "delta": _finite, "k": _int, "h_size": _int},
    ),
    "recurrence": (boosting_recurrence, {"error": _finite, "gamma": _finite, "slowdown": _finite}),
    "dataset-requirement": (
        dataset_requirement,
        {"gamma": _finite, "error": _finite, "delta": _finite, "max_nodes": _int, "alpha": _finite,
         "h_size": _int, "entities": _int, "schedule": _text, "splitter": _text},
    ),
}


@main.command()
@click.argument("subcommand", type=click.Choice(list(THEORY)))
@click.option("--params", "params_json", required=True, help="JSON object of parameters.")
def theory(subcommand, params_json):
    """Evaluate one of the analysis calculators; echoes inputs and output."""

    def body():
        params = read_json("--params", InvalidParameterError, text=params_json)
        calculator, casts = THEORY[subcommand]
        parameters = inspect.signature(calculator).parameters.values()
        required = [p.name for p in parameters if p.default is p.empty]
        result = calculator(**read_object(params, casts, "--params", required, InvalidParameterError))
        terms = result if isinstance(result, dict) else {"value": result}
        click.echo(json.dumps({"inputs": params, **terms}, sort_keys=True))

    _guarded(body)


if __name__ == "__main__":
    main()
