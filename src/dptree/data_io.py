"""Dataset ingestion and preparation: schema-driven CSV loading with one-hot
encoding, splitting-class construction from declared (public) feature ranges,
train/test splitting, and uniform random partitioning across simulated data
holders.

Thresholds always come from schema-declared ranges, never from data minima or
maxima: data-derived thresholds would leak outside the privacy accounting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .dp_core import InvalidParameterError, RandomSource
from .tree_learning import LabeledDataset, SplitFunction


class DataError(ValueError):
    """A data file failed to parse or violated its schema."""


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousFeature:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidParameterError(f"feature {self.name}: need lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class CategoricalFeature:
    name: str
    values: tuple

    def __post_init__(self):
        if len(self.values) < 1:
            raise InvalidParameterError(f"feature {self.name}: needs at least one value")


@dataclass(frozen=True)
class BlockSpec:
    """Block-average splits: thresholds on the mean of a set of columns."""

    columns: tuple
    thresholds: tuple

    def __post_init__(self):
        if len(self.columns) == 0 or len(self.thresholds) == 0:
            raise InvalidParameterError("block spec needs columns and thresholds")


@dataclass
class SplittingSpec:
    """How to build the splitting class H from a schema.

    Continuous features get `default_thresholds` evenly spaced thresholds
    (endpoints excluded), overridable per feature; one-hot columns always get
    a single threshold at 0.5. Optional block entries add block-average
    splits over encoded column indices.
    """

    default_thresholds: int = 10
    per_feature: dict = field(default_factory=dict)
    blocks: list = field(default_factory=list)


@dataclass
class DataSchema:
    features: list
    label_name: str
    label_values: tuple
    splits: SplittingSpec = field(default_factory=SplittingSpec)

    def __post_init__(self):
        self.label_values = tuple(str(v) for v in self.label_values)
        if len(self.label_values) < 2:
            raise InvalidParameterError("label set must declare at least two values")
        names = [f.name for f in self.features] + [self.label_name]
        if len(set(names)) != len(names):
            raise InvalidParameterError("duplicate column names in schema")

    @property
    def n_classes(self) -> int:
        return len(self.label_values)

    def encoded_columns(self) -> list[str]:
        """Names of the feature-matrix columns after one-hot expansion."""
        out = []
        for feat in self.features:
            if isinstance(feat, ContinuousFeature):
                out.append(feat.name)
            else:
                out.extend(f"{feat.name}={value}" for value in feat.values)
        return out

    @property
    def n_encoded(self) -> int:
        return len(self.encoded_columns())


def schema_from_dict(doc: dict) -> DataSchema:
    features = []
    for item in doc["features"]:
        kind = item.get("kind", "continuous")
        if kind == "continuous":
            features.append(ContinuousFeature(item["name"], float(item["min"]), float(item["max"])))
        elif kind == "categorical":
            features.append(CategoricalFeature(item["name"], tuple(str(v) for v in item["values"])))
        else:
            raise DataError(f"unknown feature kind {kind!r} for {item.get('name')!r}")
    splits_doc = doc.get("splits", {})
    splits = SplittingSpec(
        default_thresholds=int(splits_doc.get("default_thresholds", 10)),
        per_feature={str(k): int(v) for k, v in splits_doc.get("per_feature", {}).items()},
        blocks=[
            BlockSpec(tuple(int(c) for c in b["columns"]), tuple(float(t) for t in b["thresholds"]))
            for b in splits_doc.get("blocks", [])
        ],
    )
    label = doc["label"]
    return DataSchema(features, label["name"], tuple(label["values"]), splits)


def load_schema(path) -> DataSchema:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return schema_from_dict(json.load(fh))
    except OSError as exc:
        raise DataError(f"cannot read schema {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}")


def schema_to_dict(schema: DataSchema) -> dict:
    features = []
    for feat in schema.features:
        if isinstance(feat, ContinuousFeature):
            features.append({"name": feat.name, "kind": "continuous", "min": feat.lo, "max": feat.hi})
        else:
            features.append({"name": feat.name, "kind": "categorical", "values": list(feat.values)})
    return {
        "features": features,
        "label": {"name": schema.label_name, "values": list(schema.label_values)},
        "splits": {
            "default_thresholds": schema.splits.default_thresholds,
            "per_feature": dict(schema.splits.per_feature),
            "blocks": [
                {"columns": list(b.columns), "thresholds": list(b.thresholds)}
                for b in schema.splits.blocks
            ],
        },
    }


def save_schema(schema: DataSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(schema), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def load_csv(path, schema: DataSchema) -> LabeledDataset:
    """Parse a comma-separated, UTF-8, headered file against a schema.

    Categorical features one-hot expand (one 0/1 column per declared value);
    labels map to indices into the declared label set; row order is kept.
    Any missing column, row of the wrong width, unparseable cell,
    out-of-range value, or undeclared category fails with the offending row
    number.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        positions = {}
        for column in [f.name for f in schema.features] + [schema.label_name]:
            if column not in header:
                raise DataError(f"{path}: missing column {column!r}")
            positions[column] = header.index(column)

        rows, labels = [], []
        label_index = {v: i for i, v in enumerate(schema.label_values)}
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{row_number}: expected {len(header)} columns, got {len(row)}"
                )
            encoded = []
            for feat in schema.features:
                cell = row[positions[feat.name]]
                if isinstance(feat, ContinuousFeature):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}:{row_number}: cannot parse {cell!r} as a number for {feat.name!r}"
                        )
                    if not feat.lo <= value <= feat.hi:
                        raise DataError(
                            f"{path}:{row_number}: {feat.name}={value} outside declared "
                            f"range [{feat.lo}, {feat.hi}]"
                        )
                    encoded.append(value)
                else:
                    if cell not in feat.values:
                        raise DataError(
                            f"{path}:{row_number}: {cell!r} not a declared value of {feat.name!r}"
                        )
                    encoded.extend(1.0 if cell == v else 0.0 for v in feat.values)
            label_cell = row[positions[schema.label_name]]
            if label_cell not in label_index:
                raise DataError(f"{path}:{row_number}: label {label_cell!r} not in declared label set")
            rows.append(encoded)
            labels.append(label_index[label_cell])

    features = np.array(rows, dtype=float) if rows else np.empty((0, schema.n_encoded))
    return LabeledDataset(features, np.array(labels, dtype=np.int64), schema.n_classes)


def write_csv(dataset: LabeledDataset, schema: DataSchema, path) -> None:
    """Inverse of load_csv for schema-conformant datasets (used for
    round-trips and for materializing synthetic data)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in schema.features] + [schema.label_name])
        for i in range(dataset.n):
            row, col = [], 0
            for feat in schema.features:
                if isinstance(feat, ContinuousFeature):
                    row.append(repr(float(dataset.features[i, col])))
                    col += 1
                else:
                    hot = np.argmax(dataset.features[i, col : col + len(feat.values)])
                    row.append(feat.values[int(hot)])
                    col += len(feat.values)
            row.append(schema.label_values[int(dataset.labels[i])])
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Splitting class
# ---------------------------------------------------------------------------


def build_splitting_class(schema: DataSchema) -> list[SplitFunction]:
    """Deterministic splitting class H from a schema: feature-major order,
    thresholds ascending; block-average entries follow in spec order.

    Continuous thresholds are t_r = lo + r (hi - lo) / (T + 1) for r = 1..T,
    evenly spaced and excluding endpoints; every one-hot column gets the
    single threshold 0.5. Built from declared ranges alone, before any data
    is read.
    """
    splits: list[SplitFunction] = []
    column = 0
    for feat in schema.features:
        if isinstance(feat, ContinuousFeature):
            count = schema.splits.per_feature.get(feat.name, schema.splits.default_thresholds)
            if count <= 0:
                raise InvalidParameterError(
                    f"feature {feat.name!r}: threshold count must be positive, got {count}"
                )
            for r in range(1, count + 1):
                threshold = feat.lo + r * (feat.hi - feat.lo) / (count + 1)
                splits.append(SplitFunction(threshold=threshold, feature=column, hid=len(splits)))
            column += 1
        else:
            for _ in feat.values:
                splits.append(SplitFunction(threshold=0.5, feature=column, hid=len(splits)))
                column += 1
    for block in schema.splits.blocks:
        for threshold in block.thresholds:
            splits.append(SplitFunction(threshold=threshold, block=block.columns, hid=len(splits)))
    return splits


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def partition(dataset: LabeledDataset, k: int, rng: RandomSource) -> list[LabeledDataset]:
    """Divide the rows among k data holders, each row to a uniformly drawn
    holder (shard-size variance is intended). The shards are disjoint and
    their union is the dataset; a shard is empty when no row drew it."""
    if k < 1:
        raise InvalidParameterError(f"entity count k must be >= 1, got {k}")
    assignment = np.asarray(rng.integers(0, k, size=dataset.n))
    return [dataset.subset(np.flatnonzero(assignment == i)) for i in range(k)]


def train_test_split(dataset: LabeledDataset, ratio: tuple, rng: RandomSource):
    """Seeded shuffle then a prefix cut at n * train / (train + test)."""
    train_part, test_part = int(ratio[0]), int(ratio[1])
    if train_part <= 0 or test_part < 0:
        raise InvalidParameterError(f"ratio parts must be positive, got {ratio}")
    order = np.asarray(rng.permutation(dataset.n))
    n_train = dataset.n * train_part // (train_part + test_part)
    return dataset.subset(order[:n_train]), dataset.subset(order[n_train:])


# ---------------------------------------------------------------------------
# Synthetic benchmark data
# ---------------------------------------------------------------------------


def synthetic_schema(n_features: int = 3, thresholds: int = 7) -> DataSchema:
    return DataSchema(
        features=[ContinuousFeature(f"x{j}", 0.0, 1.0) for j in range(n_features)],
        label_name="y",
        label_values=("0", "1"),
        splits=SplittingSpec(default_thresholds=thresholds),
    )


def _truth_tree(depth: int) -> "object":
    """A fixed threshold tree over grid thresholds whose labels give every
    level positive split gain, so greedy learners can recover it."""
    from .tree_learning import DecisionTree

    tree = DecisionTree()
    if depth == 2:
        left, right = tree.split_leaf(tree.root, SplitFunction(threshold=0.5, feature=0))
        ll, lr = tree.split_leaf(left, SplitFunction(threshold=0.25, feature=1))
        rl, rr = tree.split_leaf(right, SplitFunction(threshold=0.75, feature=1))
        for leaf, label in ((ll, 1), (lr, 0), (rl, 1), (rr, 0)):
            leaf.label = label
        return tree
    if depth == 3:
        left, right = tree.split_leaf(tree.root, SplitFunction(threshold=0.5, feature=0))
        ll, lr = tree.split_leaf(left, SplitFunction(threshold=0.25, feature=1))
        rl, rr = tree.split_leaf(right, SplitFunction(threshold=0.75, feature=1))
        a, b = tree.split_leaf(ll, SplitFunction(threshold=0.5, feature=2))
        c, d = tree.split_leaf(lr, SplitFunction(threshold=0.25, feature=2))
        e, f = tree.split_leaf(rl, SplitFunction(threshold=0.75, feature=2))
        g, h = tree.split_leaf(rr, SplitFunction(threshold=0.5, feature=2))
        for leaf, label in ((a, 1), (b, 0), (c, 1), (d, 0), (e, 1), (f, 0), (g, 1), (h, 0)):
            leaf.label = label
        return tree
    raise InvalidParameterError(f"no built-in truth tree of depth {depth}")


def synthetic_tree_dataset(
    n: int,
    rng: RandomSource,
    depth: int = 2,
    label_noise: float = 0.0,
    thresholds: int = 7,
):
    """Uniform features labeled by a hidden threshold tree whose thresholds
    lie on the splitting-class grid. Returns (dataset, truth tree, schema)."""
    n_features = max(depth, 2)
    schema = synthetic_schema(n_features=n_features, thresholds=thresholds)
    truth = _truth_tree(depth)
    features = rng.uniform(size=(n, n_features))
    labels = truth.predict(features)
    if label_noise > 0.0:
        flips = rng.uniform(size=n) < label_noise
        labels = np.where(flips, 1 - labels, labels)
    return LabeledDataset(features, labels.astype(np.int64), 2), truth, schema
