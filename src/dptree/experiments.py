"""Configuration-driven experiment harness: seeded single runs, grid sweeps
over (alpha, leaf-privacy-fraction, train-fraction) x repeats, streaming CSV
output, and a summarizer producing per-cell means and standard errors.

Per-run seeds are hashes of (base seed, cell indices, run index), so any cell
is reproducible in isolation and runs can execute in any worker layout; rows
are always written in grid order.

A config's settings are resolved once, when it is made, through the
learner's own types (`Criterion`, and one `DPTopDownConfig` per (alpha,
lpf) cell, which checks the budget schedule's name), and every run reads
what they made.
A sweep reads its data before it writes, so a bad setting or input fails
before any row file is touched.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import astuple, dataclass, field, replace
from itertools import islice, product
from pathlib import Path

import numpy as np

from .dp_core import InvalidParameterError, RandomSource, zero_noise, zero_noise_enabled
from .data_io import (
    DataError,
    _csv_rows,
    _finite,
    _int,
    _items,
    _json_type,
    _object,
    _text,
    build_splitting_class,
    load_csv,
    load_schema,
    parse_number,
    partition,
    read_json,
    read_object,
    train_test_split,
)
from .dp_topdown import DPTopDownConfig, dp_topdown
from .split_strategies import (
    EntityPool,
    ExactStrategy,
    LocalRNMSplitter,
    NoisyCountsSplitter,
    SingleMachineRNMSplitter,
    train_accuracy,
)
from .tree_learning import Criterion, SplitPlan, tree_error

ALGORITHMS = ("baseline", "single-rnm", "noisy-counts", "local-rnm")
DEFAULT_ALPHAS = [2.0**e for e in range(-3, 10)]

OUTPUT_DIR_ENV = "DPTREE_OUTPUT_DIR"
WORKERS_ENV = "DPTREE_WORKERS"


@dataclass
class ExperimentConfig:
    schema_path: str
    train_path: str | None = None
    test_path: str | None = None
    csv_path: str | None = None
    ratio: tuple = (9, 1)
    split_seed: int = 0
    algorithm: str = "single-rnm"
    alphas: list = field(default_factory=lambda: list(DEFAULT_ALPHAS))
    lpfs: list = field(default_factory=lambda: [0.5])
    train_fractions: list = field(default_factory=lambda: [1.0])
    entities: int = 4
    max_nodes: int = 512
    error: float = 0.1
    criterion: str = "entropy"
    schedule: str = "decay"
    min_gain: float = 0.01
    runs: int = 100
    seed: int = 0
    zero_noise: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidParameterError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        # Refused here, as the config file's casts refuse them, not later in a run.
        for name in ("alphas", "lpfs", "train_fractions"):
            if not isinstance(getattr(self, name), (list, tuple)) or not getattr(self, name):
                raise InvalidParameterError(f"{name} must be a nonempty list, got {getattr(self, name)!r}")
        for name, least in (("runs", 1), ("entities", 1), ("split_seed", 0), ("seed", None)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or (least is not None and value < least):
                bound = "" if least is None else f" >= {least}"
                raise InvalidParameterError(f"{name} must be an integer{bound}, got {value!r}")
        read_object({name: getattr(self, name) for name in _FIELD_CASTS}, _FIELD_CASTS, "config",
                    error=InvalidParameterError)
        parts = list(self.ratio) if isinstance(self.ratio, (tuple, list)) else [self.ratio]
        if len(parts) != 2 or not all(isinstance(part, int) and not isinstance(part, bool) for part in parts):
            raise InvalidParameterError(f"data.ratio must be two integers, got {parts}")
        self.ratio = tuple(parts)  # a part of the data cache's key
        if (self.csv_path is None) == (self.train_path is None):
            raise InvalidParameterError("provide either data.csv (+ratio) or data.train/data.test")
        if self.train_path is not None and self.test_path is None:
            raise InvalidParameterError("data.train requires data.test")
        for fraction in self.train_fractions:
            if not 0.0 < fraction <= 1.0:
                raise InvalidParameterError(f"train fractions must lie in (0, 1], got {fraction}")
        # The learner's own types check the criterion, the schedule and each
        # (alpha, lpf) cell once, here, for every run to read. They are not
        # fields, so `dataclasses.replace` makes them again.
        self.resolved_criterion = Criterion.from_name(self.criterion)
        self.learner_configs = [
            [DPTopDownConfig(alpha, self.max_nodes, self.error, lpf, self.schedule, self.min_gain)
             for lpf in self.lpfs]
            for alpha in self.alphas
        ]
        if self.resolved_criterion is Criterion.ROOT_GINI and self.algorithm in ("single-rnm", "local-rnm"):
            # RNM's noise scale needs a sensitivity bound, and root Gini has
            # no proven one; count-noised and exact learners keep it.
            raise InvalidParameterError(f"criterion 'root-gini' cannot be used with {self.algorithm!r}")


_flag = _json_type(bool, "true or false")


def _floats(value) -> list:
    return [_finite(item) for item in _items(value)]


# The cast of each config key's JSON value. Absent keys are not passed, so
# the field defaults of ExperimentConfig are the only ones. The "data"
# section is read with _DATA_KEYS in turn.
_CONFIG_KEYS = {
    "schema": _text,
    "data": _object,
    "algorithm": _text,
    "alphas": _floats,
    "lpfs": _floats,
    "train_fractions": _floats,
    "entities": _int,
    "max_nodes": _int,
    "error": _finite,
    "criterion": _text,
    "schedule": _text,
    "min_gain": _finite,
    "runs": _int,
    "seed": _int,
    "zero_noise": _flag,
}
_DATA_KEYS = {"train": _text, "test": _text, "csv": _text, "ratio": tuple, "split_seed": _int}
# Keys whose ExperimentConfig field has another name.
_FIELD_OF = {"schema": "schema_path", "train": "train_path", "test": "test_path", "csv": "csv_path"}
# The casts of the fields that neither ExperimentConfig's bounds nor the
# learner's own config check, so that a config made from Python refuses
# what a config file's casts refuse.
_FIELD_CASTS = {
    "schema_path": _text,
    **dict.fromkeys(("train_path", "test_path", "csv_path"), lambda path: path if path is None else _text(path)),
    "train_fractions": lambda fractions: [_finite(fraction) for fraction in fractions],
    "zero_noise": _flag,
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """ExperimentConfig from a parsed JSON config, or InvalidParameterError."""
    fields = read_object(doc, _CONFIG_KEYS, "config", ("schema",), InvalidParameterError)
    fields.update(read_object(fields.pop("data", {}), _DATA_KEYS, "config data", (), InvalidParameterError))
    return ExperimentConfig(**{_FIELD_OF.get(key, key): value for key, value in fields.items()})


def load_experiment_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, InvalidParameterError))


def derive_seed(base_seed: int, *indices) -> int:
    """Stable 63-bit per-run seed from the base seed and cell coordinates."""
    text = ":".join(str(part) for part in (base_seed, *indices))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class ResultRow:
    algorithm: str
    alpha: float
    lpf: float
    train_fraction: float
    run: int
    seed: int
    train_acc: float
    test_acc: float
    depth: int
    nodes: int
    ledger_cost: float
    wall_ms: float

    def to_csv(self) -> str:
        return ",".join(v if isinstance(v, str) else repr(v) for v in astuple(self))


# The sweep CSV's columns: the fields of ResultRow, each with its type.
_COLUMNS = typing.get_type_hints(ResultRow)
CSV_HEADER = ",".join(_COLUMNS)


# The data of the most recent data key only: a sweep reads one dataset for all
# its runs, and holding every dataset a process ever read would grow without
# bound.
_data_cache: dict = {}


def prepare_data(config: ExperimentConfig):
    """(train, test), cached for the latest config paths, binned against one
    plan of the schema's splitting class (`SplitPlan`), which is public and
    fixed before any data is read: each run slices the codes of its rows and
    none bins or plans again. `load_csv` bins a file block by block as it
    reads it, and a single CSV is then split by slicing."""
    key = (config.schema_path, config.train_path, config.test_path, config.csv_path,
           config.ratio, config.split_seed)
    if key not in _data_cache:
        _data_cache.clear()
        schema = load_schema(config.schema_path)
        plan = SplitPlan(build_splitting_class(schema))
        if config.csv_path is not None:
            full = load_csv(config.csv_path, schema, plan)
            data = train_test_split(full, config.ratio, RandomSource(config.split_seed, ("split",)))
        else:
            data = tuple(load_csv(path, schema, plan) for path in (config.train_path, config.test_path))
        if not data[0].n:
            raise DataError("the training data has no rows")
        _data_cache[key] = data
    return _data_cache[key]


def run_single(config: ExperimentConfig, alpha_i: int, lpf_i: int, fraction_i: int, run_i: int) -> ResultRow:
    """One seeded train/evaluate cycle for one grid cell, on row slices of
    the prepared binnings; a distributed pool labels each row with its
    holder (`partition`) and copies no row. Training accuracy is read from
    the strategy's pool, which is then released; only the test rows are
    routed, on their bin codes. The learner runs under zero noise if the
    config asks for it, and otherwise under the caller's setting."""
    train_full, test = prepare_data(config)
    task = _task_key(config, alpha_i, lpf_i, fraction_i, run_i)
    _, _, _, fraction, _, seed = task
    source_rng = RandomSource(seed)

    train = train_full
    if fraction < 1.0:
        size = max(1, int(train_full.n * fraction))
        rows = np.sort(source_rng.substream("subsample").choice(train_full.n, size=size, replace=False))
        train = train_full.subset(rows)

    criterion = config.resolved_criterion
    started = time.perf_counter()
    if config.algorithm == "baseline":
        # The same loop, pruning and weight filter with exact answers, so
        # large-alpha private runs converge to it like for like.
        strategy = ExactStrategy(train, criterion)
    elif config.algorithm == "single-rnm":
        strategy = SingleMachineRNMSplitter(train, criterion, source_rng.substream("mechanisms"))
    else:
        maker = NoisyCountsSplitter if config.algorithm == "noisy-counts" else LocalRNMSplitter
        strategy = maker(EntityPool(train, criterion, config.entities,
                                    partition(train.n, config.entities, source_rng.substream("partition")),
                                    source_rng.substream("entities")))
    with zero_noise(config.zero_noise or zero_noise_enabled()):
        tree, _, stats = dp_topdown(strategy, config.learner_configs[alpha_i][lpf_i])
    wall_ms = (time.perf_counter() - started) * 1000.0
    train_acc = train_accuracy(tree, strategy.pool)
    del strategy, train
    return ResultRow(
        *task,
        train_acc=train_acc,
        test_acc=1.0 - tree_error(tree, test) if test.n else float("nan"),
        depth=tree.depth,
        nodes=tree.internal_count,
        ledger_cost=stats.ledger_effective_cost,
        wall_ms=wall_ms,
    )


def resolve_output_path(path) -> Path:
    base = os.environ.get(OUTPUT_DIR_ENV)
    path = Path(path)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def open_output(path: Path, mode: str = "w"):
    """Open a resolved output path as UTF-8 text, making its parent
    directories. A path that cannot be created or opened, such as a
    directory or a path under a file, raises InvalidParameterError naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc}")


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise InvalidParameterError(f"{WORKERS_ENV} must be an integer, got {raw!r}")
    if workers < 1:
        raise InvalidParameterError(f"{WORKERS_ENV} must be at least 1, got {raw!r}")
    return workers


def run_sweep(config: ExperimentConfig, out_path, resume: bool = False) -> Path:
    """Execute the full grid x runs, streaming one CSV row per run.

    Rows appear in deterministic grid order regardless of worker count, and
    each row is flushed as written, so an interrupted sweep can resume by
    skipping the rows already on disk. Resuming reads every row it skips,
    as `summarize` does, and raises DataError naming the first one that is
    not the row of this config's task in its place. Workers get the config
    itself, and each run takes its zero-noise setting from it (`run_single`).

    The config's settings were checked when it was made. The data is read
    and split, and a resumed file's rows checked, before `out_path` is
    opened, so a sweep refused for its config (InvalidParameterError), its
    data or its existing rows (DataError) leaves the file as it was.

    A baseline run draws no noise, and at train fraction 1 it subsamples
    nothing, so the first pending task of such a fraction learns the tree
    of every alpha, lpf and run, and each row reports it under its task.
    """
    workers = worker_count()
    out_path = resolve_output_path(out_path)
    # The (alpha, lpf, train fraction, run) indices of every run, in grid order.
    sizes = (len(config.alphas), len(config.lpfs), len(config.train_fractions), config.runs)
    tasks = list(product(*map(range, sizes)))

    prepare_data(config)
    done = 0
    if resume and out_path.is_file():
        try:
            text = out_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {out_path}: {exc}")
        header = text.partition("\n")[0]
        if header != CSV_HEADER and not CSV_HEADER.startswith(text):
            raise DataError(f"{out_path}: existing file has a different header")
        # A last row without its newline was torn by an interrupted write; it
        # is not read, and is cut off once the rows before it are checked, so
        # that the resumed rows start on a line of their own.
        complete = text[: text.rfind("\n") + 1]
        if complete:
            with closing(_result_rows(out_path)) as rows:
                for done, (line, record) in enumerate(islice(rows, complete.count("\n") - 1), start=1):
                    if done > len(tasks):
                        raise DataError(f"{out_path}:{line}: this sweep has only {len(tasks)} rows")
                    found = tuple(record[name] for name in _TASK_COLUMNS)
                    expected = _task_key(config, *tasks[done - 1])
                    if found != expected:
                        raise DataError(f"{out_path}:{line}: found the row of {found}, "
                                        f"but this sweep's row {done} is that of {expected}")
        if complete != text:
            os.truncate(out_path, len(complete.encode("utf-8")))
    pending = tasks[done:]

    mode = "a" if resume and done else "w"
    with open_output(out_path, mode) as fh, ExitStack() as stack:
        if mode == "w":
            fh.write(CSV_HEADER + "\n")
            fh.flush()
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        shared = {i for i, fraction in enumerate(config.train_fractions)
                  if fraction == 1.0 and config.algorithm == "baseline"}
        firsts = {task[2]: task for task in reversed(pending)}  # fraction index -> its first pending task
        learning = [task for task in pending if task[2] not in shared or task is firsts[task[2]]]
        # run_single's config, then its alpha, lpf, fraction and run indices.
        rows, learned = mapper(run_single, [config] * len(learning), *zip(*learning)), {}
        for task in pending:
            if task[2] in shared and task is not firsts[task[2]]:
                row = replace(learned[task[2]], **dict(zip(_TASK_COLUMNS, _task_key(config, *task))))
            else:
                row = learned[task[2]] = next(rows)
            fh.write(row.to_csv() + "\n")
            fh.flush()
    return out_path


# The columns that say which task of a sweep a row reports.
_TASK_COLUMNS = ("algorithm", "alpha", "lpf", "train_fraction", "run", "seed")


def _task_key(config: ExperimentConfig, alpha_i: int, lpf_i: int, fraction_i: int, run_i: int) -> tuple:
    """The `_TASK_COLUMNS` of the row that `run_single` writes for a task."""
    return (config.algorithm, config.alphas[alpha_i], config.lpfs[lpf_i],
            config.train_fractions[fraction_i], run_i,
            derive_seed(config.seed, alpha_i, lpf_i, fraction_i, run_i))


def _result_rows(csv_path):
    """(line number, record) for each row of a sweep CSV, a record mapping
    each column to its value. A file that cannot be read raises DataError,
    and so does a header other than the sweep's, a row with too few or too
    many cells, a number cell that `parse_number` refuses or that is not
    finite but a test accuracy's NaN, or a non-UTF-8 byte, naming its line."""
    header = list(_COLUMNS)
    try:
        fh = open(csv_path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {csv_path}: {exc}")
    with fh:
        rows = _csv_rows(csv_path, fh)
        found = next(rows, None)
        if found != header:
            raise DataError(f"{csv_path}: unexpected header {found}")
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{csv_path}:{line}: expected {len(header)} columns, got {len(row)}; "
                    "if an interrupted sweep tore its last row, `dptree sweep --resume` rewrites it"
                )
            record = {}
            for (name, kind), cell in zip(_COLUMNS.items(), row):
                try:
                    record[name] = cell if kind is str else parse_number(cell, kind)
                except ValueError:
                    raise DataError(f"{csv_path}:{line}: cannot parse {cell!r} as a number for {name!r}")
                no_test_rows = name == "test_acc" and math.isnan(record[name])
                if kind is float and not (math.isfinite(record[name]) or no_test_rows):
                    raise DataError(f"{csv_path}:{line}: {name!r} must be a finite number, got {cell!r}")
            yield line, record


def summarize(csv_path) -> dict:
    """Per-cell means and standard errors of the mean (std / sqrt(runs)),
    in the numeric order of (algorithm, alpha, lpf, train fraction), over
    the rows `_result_rows` reads; it raises DataError on what that refuses.
    """
    cells: dict = {}
    for _, record in _result_rows(csv_path):
        key = (record["algorithm"], record["alpha"], record["lpf"], record["train_fraction"])
        cells.setdefault(key, []).append(record)

    def mean_sem(values) -> tuple:
        if math.isnan(sum(values)):
            return None, None  # the test accuracy of runs with no test rows: JSON null
        sem = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        return float(np.mean(values)), sem

    summary = []
    for (algorithm, alpha, lpf, fraction), records in sorted(cells.items()):
        train_mean, train_sem = mean_sem([r["train_acc"] for r in records])
        test_mean, test_sem = mean_sem([r["test_acc"] for r in records])
        summary.append(
            {
                "algorithm": algorithm,
                "alpha": alpha,
                "lpf": lpf,
                "train_fraction": fraction,
                "runs": len(records),
                "train_acc_mean": train_mean,
                "train_acc_sem": train_sem,
                "test_acc_mean": test_mean,
                "test_acc_sem": test_sem,
                "depth_mean": float(np.mean([r["depth"] for r in records])),
                "nodes_mean": float(np.mean([r["nodes"] for r in records])),
                "ledger_cost_max": max(r["ledger_cost"] for r in records),
            }
        )
    return {"cells": summary}
