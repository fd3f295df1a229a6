"""Pinned outputs of every learner on two small synthetic datasets: one
with two labels and one with twelve, whose label sums run through numpy's
pairwise reduction (eight or more terms).

`pinned_outputs.json` holds, for each dataset and algorithm at one alpha,
with noise and under `zero_noise()`, on the whole training set and on a
seeded half of it, the learned tree's JSON, the ledger entries and the
result row without `wall_ms`. For the two distributed algorithms it also
holds, under the same key prefixed "messages: ", the SHA-256 of the JSON
list of `[entity, query kind, payload]` over every message the entities
answer, in send order. The noisy private runs are checked to make both
kinds of cut: one that separates rows and one that sends every row of the
leaf to one side. A change that must not alter what a run
outputs (a speed-up, a refactor) keeps this test passing unchanged. Only a
change meant to alter outputs regenerates the file, from the root of the
repository:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import dataclasses
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from dptree import experiments, split_strategies
from dptree.data_io import (
    BlockSpec,
    ContinuousFeature,
    DataSchema,
    SplittingSpec,
    save_schema,
    synthetic_tree_dataset,
    write_csv,
)
from dptree.dp_core import RandomSource, zero_noise
from dptree.tree_learning import LabeledDataset

GOLDEN = Path(__file__).with_name("pinned_outputs.json")
ALPHA = 4.0
MANY_LABELS = 12  # the key prefix of the many-class runs is "12 labels: "


def _config(data_dir: Path, dataset, schema) -> experiments.ExperimentConfig:
    write_csv(dataset, schema, data_dir / "data.csv")
    save_schema(schema, data_dir / "schema.json")
    return experiments.ExperimentConfig(
        schema_path=str(data_dir / "schema.json"), csv_path=str(data_dir / "data.csv"),
        alphas=[ALPHA], train_fractions=[1.0, 0.5], entities=4, max_nodes=24, runs=1, seed=3)


def write_data(data_dir: Path) -> experiments.ExperimentConfig:
    """3,000 rows over three features, 15 thresholds each, plus three
    block-average splits on the mean of features 0 and 2."""
    dataset, _, schema = synthetic_tree_dataset(
        3000, RandomSource(11), depth=3, label_noise=0.1, thresholds=15)
    schema.splits.blocks = [BlockSpec(columns=(0, 2), thresholds=(0.35, 0.5, 0.65))]
    return _config(data_dir, dataset, schema)


def write_many_class_data(data_dir: Path) -> experiments.ExperimentConfig:
    """3,000 rows over three features, 15 thresholds each, labeled by the
    cell of a 4 x 3 grid over features 0 and 1, with a tenth of the labels
    redrawn uniformly from all twelve."""
    rng = RandomSource(12)
    features = rng.uniform(size=(3000, 3))
    labels = np.floor(features[:, 0] * 4) + 4 * np.floor(features[:, 1] * 3)
    redrawn = rng.uniform(size=3000) < 0.1
    labels = np.where(redrawn, rng.integers(0, MANY_LABELS, size=3000), labels).astype(np.int64)
    schema = DataSchema(
        features=[ContinuousFeature(f"x{j}", 0.0, 1.0) for j in range(3)], label_name="y",
        label_values=tuple(str(label) for label in range(MANY_LABELS)),
        splits=SplittingSpec(default_thresholds=15))
    return _config(data_dir, LabeledDataset(features, labels, MANY_LABELS), schema)


def recording(learner, results: list):
    """`learner` that also appends each result it returns to `results`."""
    def run(*args, **kwargs):
        results.append(learner(*args, **kwargs))
        return results[-1]
    return run


def recording_sends(sends: list):
    """`LocalTransport.send` that also appends `[entity, query kind,
    payload]` to `sends`, every payload value as a JSON-able list or
    number."""
    send = split_strategies.LocalTransport.send

    def run(transport, entity, query, ledger):
        response = send(transport, entity, query, ledger)
        payload = {key: np.asarray(value).tolist() for key, value in response.payload.items()}
        sends.append([entity.entity_id, query.kind, payload])
        return response
    return run


def recording_cuts(cuts: list):
    """`EntityPool._cut` that also appends to `cuts` whether the cut
    separated no rows, so that one child is the parent's own record."""
    cut = split_strategies.EntityPool._cut

    def run(pool, path, parent):
        child = cut(pool, path, parent)
        index, side = path[-1]
        cuts.append(parent is child or parent is pool._leaves[path[:-1] + ((index, 1 - side),)])
        return child
    return run


def run_outputs(config: experiments.ExperimentConfig, cuts: dict | None = None) -> dict:
    """Tree, ledger entries and result row of every algorithm, with noise
    and under zero noise, for each train fraction, as JSON-able values, and
    the digest of every distributed run's messages. With `cuts`, it also
    maps each run's key to its cuts, each True when it separated no rows."""
    outputs = {}
    for algorithm in experiments.ALGORITHMS:
        for noise, fraction_i in itertools.product((True, False), range(len(config.train_fractions))):
            learned, sends, made = [], [], []
            with mock.patch.object(experiments, "dp_topdown", recording(experiments.dp_topdown, learned)), \
                    mock.patch.object(split_strategies.LocalTransport, "send", recording_sends(sends)), \
                    mock.patch.object(split_strategies.EntityPool, "_cut", recording_cuts(made)), \
                    zero_noise(not noise):
                row = experiments.run_single(dataclasses.replace(config, algorithm=algorithm), 0, 0, fraction_i, 0)
            ((tree, ledger, _),) = learned
            fraction = config.train_fractions[fraction_i]
            key = f"{algorithm} {'noise' if noise else 'zero-noise'}"
            key = key if fraction == 1.0 else f"fraction {fraction}: {key}"
            if cuts is not None:
                cuts[key] = made
            if sends:
                outputs[f"messages: {key}"] = hashlib.sha256(json.dumps(sends).encode()).hexdigest()
            outputs[key] = {
                "tree": tree.to_dict(),
                "ledger": [
                    [e.scope.entity, e.scope.purpose, e.scope.depth, e.scope.leaf, str(e.budget)]
                    for e in ledger.entries
                ],
                "row": {k: v for k, v in dataclasses.asdict(row).items() if k != "wall_ms"},
            }
    experiments._data_cache.clear()
    return json.loads(json.dumps(outputs))


def all_outputs(data_dir: Path, cuts: dict | None = None) -> dict:
    """`run_outputs` of both datasets; the many-class keys are prefixed,
    in `cuts` too."""
    (data_dir / "two").mkdir()
    (data_dir / "many").mkdir()
    many_cuts = None if cuts is None else {}
    outputs = run_outputs(write_data(data_dir / "two"), cuts)
    many = run_outputs(write_many_class_data(data_dir / "many"), many_cuts)
    outputs.update((f"{MANY_LABELS} labels: {key}", value) for key, value in many.items())
    if cuts is not None:
        cuts.update((f"{MANY_LABELS} labels: {key}", value) for key, value in many_cuts.items())
    return outputs


def test_outputs_equal_the_pinned_ones(tmp_path):
    cuts = {}
    outputs = all_outputs(tmp_path, cuts)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(outputs) == sorted(golden)
    for key, expected in golden.items():
        assert outputs[key] == expected, key
    # The pinned runs are not trivial: every tree splits, every private run
    # charges, the baseline charges nothing, and exactly the distributed
    # runs send messages.
    runs = {key: out for key, out in outputs.items() if "messages: " not in key}
    assert all(len(out["tree"]["nodes"]) > 5 for out in runs.values())
    for key, out in runs.items():
        assert bool(out["ledger"]) != ("baseline" in key), key
    senders = {key.replace("messages: ", "") for key in outputs if "messages: " in key}
    assert senders == {key for key in runs if "noisy-counts" in key or "local-rnm" in key}
    # The noisy private runs make cuts that separate no rows, so the pinned
    # outputs cover that branch of the pool as well as the other.
    for prefix in ("", f"{MANY_LABELS} labels: "):
        for algorithm in ("single-rnm", "noisy-counts", "local-rnm"):
            made = cuts[f"{prefix}{algorithm} noise"] + cuts[f"{prefix}fraction 0.5: {algorithm} noise"]
            assert 0 < sum(made) < len(made), prefix + algorithm


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as data_dir:
        pinned = all_outputs(Path(data_dir))
    lines = (f"{json.dumps(key)}: {json.dumps(pinned[key], sort_keys=True)}" for key in sorted(pinned))
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(pinned)} entries to {GOLDEN}", file=sys.stderr)
