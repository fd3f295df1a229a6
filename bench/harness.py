"""Workloads, cycles and correctness checks of the dptree benchmark.

A run generates one workload's data file, prepares it cold, then makes seeded
train-and-evaluate cycles through the public `experiments.run_single`, the
path that `dptree train` and `dptree sweep` take. Load is a closed loop from
this one process: one cycle at a time, no process pool, until the run's time
is up. A failed cycle or check counts toward `failed` and the run goes on.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from dptree import experiments
from dptree.dp_core import zero_noise

from tracing import Tracer, traced

FIXTURES = Path(__file__).resolve().parent / "fixtures.py"

ALPHA = 8.0
# Every run makes at least MIN_CYCLES cycles. `test_acc` and the traced work
# counts cover exactly these, so both are exact for a seed however many more
# cycles the time allows.
MIN_CYCLES = 5
# Set-up is repeated and its median reported. Host speed drifts over seconds,
# so the repeats are spread over the run: one follows a cycle whenever set-up
# has so far taken less than SETUP_SHARE of the cycles' time.
MIN_SETUPS = 3
SETUP_SHARE = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    rows: int
    max_nodes: int
    entities: int = 1
    # Check (c): under zero noise the cycle equals the non-private baseline.
    zero_noise_check: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Count-table kernel and per-split leaf copies dominate; no entity layer.
        Workload("single-rnm-200k", "single-rnm", 200_000, 512, zero_noise_check=True),
        # Entities replaying each leaf's root path dominate.
        Workload("local-rnm-k8", "local-rnm", 200_000, 64, entities=8),
        # Many tiny shards: per-message cost, Fraction ledger charges, noise
        # draws. Runnable by hand but not in BENCHMARK.json: its cycle times
        # spread too widely between runs on a 2-core host (see README.md).
        Workload("noisy-counts-k32", "noisy-counts", 20_000, 128, entities=32, zero_noise_check=True),
    )
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("test_acc", "fraction"), ("peak_rss_mb", "MiB"))

# Per-layer metrics, in the order they are printed. Counts and self times are
# per cycle, except the set-up layers below, which are per cold set-up.
LAYER_METRICS = (
    ("tree_learning.split_count_tables.calls", "count"),
    ("tree_learning.split_count_tables.rows", "count"),
    ("tree_learning.split_count_tables.self_s", "s"),
    ("tree_learning.gain_from_counts.calls", "count"),
    ("tree_learning.gain_from_counts.self_s", "s"),
    ("tree_learning.LabeledDataset.subset.calls", "count"),
    ("tree_learning.LabeledDataset.subset.rows", "count"),
    ("tree_learning.LabeledDataset.subset.self_s", "s"),
    ("tree_learning.DecisionTree.predict.rows", "count"),
    ("tree_learning.DecisionTree.predict.self_s", "s"),
    ("split_strategies.Entity.leaf_rows.calls", "count"),
    ("split_strategies.Entity.leaf_rows.path_splits", "count"),
    ("split_strategies.Entity.leaf_rows.self_s", "s"),
    ("split_strategies.Entity.handle.calls", "count"),
    ("split_strategies.Entity.handle.self_s", "s"),
    ("split_strategies.LocalTransport.send.messages", "count"),
    ("split_strategies.LocalTransport.send.bytes", "B"),
    ("split_strategies.LocalTransport.send.self_s", "s"),
    ("split_strategies.noisy_counts_split.self_s", "s"),
    ("split_strategies.local_rnm_split.self_s", "s"),
    ("split_strategies.SingleMachineRNMSplitter.split.self_s", "s"),
    ("split_strategies.local_fallbacks", "count"),
    ("dp_core.sample_laplace.calls", "count"),
    ("dp_core.sample_laplace.draws", "count"),
    ("dp_core.sample_laplace.self_s", "s"),
    ("dp_core.report_noisy_max.calls", "count"),
    ("dp_core.report_noisy_max.self_s", "s"),
    ("dp_core.PrivacyLedger.charge.calls", "count"),
    ("dp_core.PrivacyLedger.charge.self_s", "s"),
    ("dp_core.PrivacyLedger.effective_cost.calls", "count"),
    ("dp_core.PrivacyLedger.effective_cost.self_s", "s"),
    ("dp_core.ledger.entries", "count"),
    ("dp_core.ledger.cost_over_alpha", "fraction"),
    ("dp_topdown.dp_topdown.self_s", "s"),
    ("dp_topdown.estimate_weight.calls", "count"),
    ("dp_topdown.estimate_weight.self_s", "s"),
    ("dp_topdown.label_leaves.self_s", "s"),
    ("dp_topdown.splits_scored", "count"),
    ("dp_topdown.children_pushed", "count"),
    ("dp_topdown.push_ratio", "fraction"),
    ("dp_topdown.degenerate_splits", "count"),
    ("data_io.load_csv.rows", "count"),
    ("data_io.load_csv.self_s", "s"),
    ("data_io.load_schema.self_s", "s"),
    ("data_io.train_test_split.self_s", "s"),
    ("data_io.build_splitting_class.self_s", "s"),
    ("data_io.partition.self_s", "s"),
    ("split_strategies.EntityPool.from_shards.self_s", "s"),
    ("experiments.run_single.self_s", "s"),
    ("experiments.prepare_data.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

SETUP_LAYERS = {
    "data_io.load_csv",
    "data_io.load_schema",
    "data_io.train_test_split",
    "data_io.build_splitting_class",
    "experiments.prepare_data",
}


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)  # of the first MIN_CYCLES cycles
    attempted: int = 0
    failed_cycles: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)  # traced runs: metric -> value

    @property
    def failed(self) -> int:
        return len(self.failed_cycles)

    def fail(self, attempt: int, problem: str) -> None:
        self.failed_cycles.add(attempt)
        self.problems.append(problem)


def fingerprint(row) -> tuple:
    return (row.train_acc, row.test_acc, row.depth, row.nodes, row.ledger_cost)


def _clear_data_cache() -> None:
    # prepare_data memoizes per config; set-up is measured cold. The cache is
    # slated to be bounded or dropped, so its absence is not an error.
    cache = getattr(experiments, "_data_cache", None)
    if cache is not None:
        cache.clear()


def _cycle(config, run_i: int, outcome: Outcome):
    """One `run_single` cycle: (attempt number, row or None, seconds)."""
    attempt = outcome.attempted
    outcome.attempted += 1
    start = perf_counter()
    try:
        row = experiments.run_single(config, 0, 0, 0, run_i)
    except Exception:  # counted as a failed cycle; the run goes on
        outcome.fail(attempt, f"cycle {run_i} raised:\n{traceback.format_exc()}")
        return attempt, None, 0.0
    seconds = perf_counter() - start
    if not row.ledger_cost <= ALPHA:
        outcome.fail(attempt, f"cycle {run_i}: ledger_cost {row.ledger_cost!r} > alpha {ALPHA}")
    return attempt, row, seconds


def _same_seed_check(first, second, attempt: int, outcome: Outcome) -> None:
    """Check (b): the same seed twice gives the same result."""
    if first is not None and second is not None and fingerprint(first) != fingerprint(second):
        outcome.fail(attempt, f"run {second.run}: {fingerprint(second)} != {fingerprint(first)}")


def _zero_noise_check(config, outcome: Outcome) -> None:
    """Check (c): under zero noise the cycle equals the non-private baseline."""
    with zero_noise():
        _, private, _ = _cycle(config, 0, outcome)
    attempt, baseline, _ = _cycle(dataclasses.replace(config, algorithm="baseline"), 0, outcome)
    if private is not None and baseline is not None and fingerprint(private)[:4] != fingerprint(baseline)[:4]:
        outcome.fail(attempt, f"zero noise {fingerprint(private)[:4]} != baseline {fingerprint(baseline)[:4]}")


def _cold_setup(config, outcome: Outcome) -> None:
    _clear_data_cache()
    start = perf_counter()
    experiments.prepare_data(config)
    outcome.setup_s.append(perf_counter() - start)


def _timed_run(config, seconds: float, outcome: Outcome) -> None:
    _cold_setup(config, outcome)
    first = None
    start = perf_counter()
    run_i = 0
    while run_i < MIN_CYCLES or perf_counter() - start < seconds:
        _, row, elapsed = _cycle(config, run_i, outcome)
        if row is not None:
            outcome.run_s.append(elapsed)
            if run_i < MIN_CYCLES:
                outcome.test_acc.append(row.test_acc)
        if run_i == 0:
            first = row
        run_i += 1
        if sum(outcome.setup_s) < SETUP_SHARE * sum(outcome.run_s):
            _cold_setup(config, outcome)
    while len(outcome.setup_s) < MIN_SETUPS:
        _cold_setup(config, outcome)
    # The repeat of cycle 0 is a cycle like the others, so it is timed too.
    attempt, again, elapsed = _cycle(config, 0, outcome)
    if again is not None:
        outcome.run_s.append(elapsed)
    _same_seed_check(first, again, attempt, outcome)


def _traced_run(config, seconds: float, outcome: Outcome) -> None:
    """Pairs of one untraced and one traced cycle with the same seed, in
    alternating order, for the per-layer metrics and the tracing overhead."""
    setup_tracer = Tracer()
    _clear_data_cache()
    with traced(setup_tracer):
        experiments.prepare_data(config)

    cycle_tracer = Tracer()
    counts = Counter()
    plain_s, traced_s = [], []
    start = perf_counter()
    run_i = 0
    while run_i < MIN_CYCLES or perf_counter() - start < seconds:
        rows = {}
        for tracing in (False, True) if run_i % 2 == 0 else (True, False):
            if tracing:
                with traced(cycle_tracer):
                    attempt, rows[tracing], elapsed = _cycle(config, run_i, outcome)
            else:
                _, rows[tracing], elapsed = _cycle(config, run_i, outcome)
            if rows[tracing] is not None:
                (traced_s if tracing else plain_s).append(elapsed)
        _same_seed_check(rows[False], rows[True], attempt, outcome)
        run_i += 1
        if run_i == MIN_CYCLES:
            counts = Counter(cycle_tracer.counts)
    outcome.run_s = traced_s

    for name, _ in LAYER_METRICS:
        span, _, measure = name.rpartition(".")
        if name == "trace.overhead_ratio":
            value = statistics.median(traced_s) / statistics.median(plain_s)
        elif name == "dp_topdown.push_ratio":
            scored = counts["dp_topdown.splits_scored"]
            value = counts["dp_topdown.children_pushed"] / scored if scored else 0.0
        elif span in SETUP_LAYERS:  # one cold set-up
            value = setup_tracer.self_s[span] if measure == "self_s" else setup_tracer.counts[name]
        elif measure == "self_s":
            value = cycle_tracer.self_s[span] / run_i
        else:
            value = counts[name] / MIN_CYCLES
        outcome.layers[name] = value


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work_dir) -> Outcome:
    """Run one workload for `seconds` and return what it measured."""
    outcome = Outcome()
    Path(work_dir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir, prefix="fixture-") as data_dir:
        subprocess.run(
            [sys.executable, str(FIXTURES), str(workload.rows), str(seed), data_dir],
            check=True, timeout=120,
        )
        config = experiments.ExperimentConfig(
            schema_path=str(Path(data_dir) / "schema.json"),
            csv_path=str(Path(data_dir) / "data.csv"),
            algorithm=workload.algorithm,
            alphas=[ALPHA],
            entities=workload.entities,
            max_nodes=workload.max_nodes,
            seed=seed,
        )
        (_traced_run if trace else _timed_run)(config, seconds, outcome)
        if workload.zero_noise_check:
            _zero_noise_check(config, outcome)
        _clear_data_cache()
    if not outcome.run_s:
        raise RuntimeError("no cycle completed:\n" + "\n".join(outcome.problems))
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome


def report(outcome: Outcome, trace: bool):
    """(lines for a reader, the result object) of one run.

    The result carries every end-to-end metric without tracing and every
    per-layer metric with it. `fail_rate` is printed but is not a metric:
    it is 0 on a correct run, and `failed` / `attempted` carry it.
    """
    lines, metrics = [], {}
    if trace:
        for name, unit in LAYER_METRICS:
            value = outcome.layers[name]
            lines.append(f"{name:56s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        lines.append(f"per cycle over the first {MIN_CYCLES} traced cycles for counts and all "
                     f"{len(outcome.run_s)} for self times; set-up layers per cold set-up")
    else:
        summaries = {
            "setup_s": (statistics.median(outcome.setup_s), f"median of {len(outcome.setup_s)} cold set-ups"),
            "run_s": (statistics.median(outcome.run_s), f"median of {len(outcome.run_s)} cycles"),
            "test_acc": (statistics.fmean(outcome.test_acc), f"mean of the first {len(outcome.test_acc)} cycles"),
            "peak_rss_mb": (outcome.peak_rss_mb, "peak resident memory of this process"),
        }
        for name, unit in END_TO_END:
            value, summary = summaries[name]
            lines.append(f"{name:12s} {value:12.6g} {unit:9s} {summary}")
            metrics[name] = {"value": value, "unit": unit}
    lines.append(f"{'fail_rate':12s} {outcome.failed / outcome.attempted:12.6g} {'fraction':9s} "
                 f"{outcome.failed} of {outcome.attempted} cycles failed")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return lines, result
