"""Per-layer tracing for the benchmark, done from outside the program.

`traced(tracer)` replaces the layer functions of `dptree` listed in `LAYERS`
with timing wrappers and puts every original back on exit. A plain function
is patched in every `dptree` module namespace that binds it (for example
`split_count_tables` in both `tree_learning` and `split_strategies`), and a
method is patched once on its class. Each span is recorded under the name of
its defining module, e.g. `tree_learning.split_count_tables`.

A span's self time is its duration minus the durations of the spans it
caused, which the wrappers track with one stack (the learner runs on a single
thread). Spans are aggregated as they close: the tracer keeps totals per
name, not a list of spans.

`SplitFunction.evaluate` and `SplitFunction.column` are deliberately not
wrapped: they run more than 100k times per cycle, so wrapping them would
mostly measure the tracer. `Entity.leaf_rows.path_splits` counts that work.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _rows(n):
    """Count hook that adds `n(args, result)` to `<span>.rows`."""

    def hook(counts, span, args, kwargs, result):
        counts[span + ".rows"] += n(args, result)

    return hook


def _path_splits(counts, span, args, kwargs, result):
    counts[span + ".path_splits"] += len(args[1])


def _send(counts, span, args, kwargs, result):
    # One query and one response per send, as in the transport's own log.
    counts[span + ".messages"] += 2
    counts[span + ".bytes"] += sum(
        value.nbytes if isinstance(value, np.ndarray) else 8 for value in result.payload.values()
    )
    if result.payload.get("fallback") is True:
        counts["split_strategies.local_fallbacks"] += 1


def _draws(counts, span, args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    counts[span + ".draws"] += 1 if size is None else int(np.prod(size))


def _scored(counts, span, args, kwargs, result):
    counts["dp_topdown.splits_scored"] += 1


def _learner_result(counts, span, args, kwargs, result):
    _, ledger, stats = result
    counts["dp_core.ledger.entries"] += len(ledger.entries)
    # From the stats, not a fresh effective_cost() call, which would be traced.
    counts["dp_core.ledger.cost_over_alpha"] += stats.ledger_effective_cost / float(ledger.alpha)
    counts["dp_topdown.children_pushed"] += len(stats.pushed_weights)
    counts["dp_topdown.degenerate_splits"] += stats.degenerate_splits


# Defining module -> traced names ("Class.method" for methods), each with the
# hook that records its work counts, or None when calls and time suffice.
LAYERS = {
    "tree_learning": {
        "split_count_tables": _rows(lambda args, result: len(args[1])),
        "gain_from_counts": None,
        "LabeledDataset.subset": _rows(lambda args, result: result.n),
        "DecisionTree.predict": _rows(lambda args, result: len(args[1])),
    },
    "split_strategies": {
        "Entity.leaf_rows": _path_splits,
        "Entity.handle": None,
        "LocalTransport.send": _send,
        "EntityPool.from_shards": None,
        "noisy_counts_split": None,
        "local_rnm_split": None,
        "SingleMachineRNMSplitter.split": _scored,
        "NoisyCountsSplitter.split": _scored,
        "LocalRNMSplitter.split": _scored,
    },
    "dp_core": {
        "sample_laplace": _draws,
        "report_noisy_max": None,
        "PrivacyLedger.charge": None,
        "PrivacyLedger.effective_cost": None,
    },
    "dp_topdown": {
        "dp_topdown": _learner_result,
        "estimate_weight": None,
        "label_leaves": None,
    },
    "data_io": {
        "load_schema": None,
        "load_csv": _rows(lambda args, result: result.n),
        "train_test_split": None,
        "build_splitting_class": None,
        "partition": None,
    },
    "experiments": {
        "run_single": None,
        "prepare_data": None,
    },
}


class Tracer:
    """Totals per span name: `counts[<span>.calls]` and any work counts the
    hooks add, plus inclusive (`total_s`) and self (`self_s`) seconds."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self._children: list[float] = []  # child seconds of each open span

    def wrap(self, span: str, fn, hook=None):
        children = self._children

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                self.counts[span + ".calls"] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - inner
            if hook is not None:
                hook(self.counts, span, args, kwargs, result)
            return result

        return traced_call


def _dptree_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "dptree" or name.startswith("dptree.")]


@contextmanager
def traced(tracer: Tracer):
    """Patch every layer in `LAYERS` to record into `tracer`; restore on exit."""
    patched = []  # (owner, attribute, original) in patch order
    try:
        for module_name, names in LAYERS.items():
            # sys.modules, not attribute access: the package rebinds
            # `dptree.dp_topdown` to the function of that name.
            module = importlib.import_module("dptree." + module_name)
            for name, hook in names.items():
                span = f"{module_name}.{name}"
                if "." in name:
                    class_name, attribute = name.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attribute]
                    if isinstance(original, classmethod):
                        wrapper = classmethod(tracer.wrap(span, original.__func__, hook))
                    else:
                        wrapper = tracer.wrap(span, original, hook)
                    setattr(owner, attribute, wrapper)
                    patched.append((owner, attribute, original))
                    continue
                original = getattr(module, name)
                wrapper = tracer.wrap(span, original, hook)
                for namespace in _dptree_modules():
                    if namespace.__dict__.get(name) is original:
                        setattr(namespace, name, wrapper)
                        patched.append((namespace, name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
