"""Dataset ingestion and preparation: schema-driven CSV loading with one-hot
encoding, splitting-class construction from declared (public) feature ranges,
train/test splitting, and dealing rows uniformly at random to simulated data
holders.

Each input format has one reader, and each fails closed. A JSON object, of a
schema or of a config or theory parameters, is decoded by `read_json` and
read by `read_object`, which refuses a key its table does not list. A CSV
file is read once, as text, in blocks of lines: each block is checked as
text and parsed by one vectorized pass, and `load_csv` bins it as it is
read; see `csv_blocks` for the number grammar (`parse_number`, which the
sweep CSV shares) and the constructs it refuses.

Thresholds always come from schema-declared ranges, never from data minima or
maxima: data-derived thresholds would leak outside the privacy accounting.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .dp_core import InvalidParameterError, RandomSource
from .tree_learning import BinnedFeatures, DecisionTree, LabeledDataset, SplitFunction, SplitPlan


class DataError(ValueError):
    """A data file failed to parse or violated its schema."""


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def _declared_values(values, owner: str) -> tuple:
    """Declared values as text, as cells are matched. A string, which would
    declare its characters, is refused, and so are duplicates and a NUL,
    which numpy strings drop from the end of a cell."""
    if isinstance(values, str):
        raise InvalidParameterError(f"{owner}: values must be a sequence, not the string {values!r}")
    values = tuple(str(v) for v in values)
    if len(set(values)) != len(values):
        raise InvalidParameterError(f"{owner}: duplicate values in {values}")
    if any("\0" in v for v in values):
        raise InvalidParameterError(f"{owner}: a declared value holds a NUL: {values}")
    return values


@dataclass(frozen=True)
class ContinuousFeature:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        read_object({"min": self.lo, "max": self.hi}, dict.fromkeys(("min", "max"), _number),
                    f"feature {self.name}", error=InvalidParameterError)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise InvalidParameterError(f"feature {self.name}: need finite lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class CategoricalFeature:
    name: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", _declared_values(self.values, f"feature {self.name}"))
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
    (endpoints excluded), overridable per continuous feature by name in
    `per_feature`; one-hot columns always get
    a single threshold at 0.5. Optional block entries add block-average
    splits over encoded column indices.
    """

    default_thresholds: int = 10
    per_feature: dict = field(default_factory=dict)
    blocks: list = field(default_factory=list)

    def __post_init__(self):
        for name, count in [("default_thresholds", self.default_thresholds), *self.per_feature.items()]:
            try:
                _int(count)
            except TypeError as exc:
                raise InvalidParameterError(f"threshold count of {name!r}: {exc}") from None
            if count <= 0:
                raise InvalidParameterError(f"threshold count of {name!r} must be positive, got {count}")


@dataclass
class DataSchema:
    features: list
    label_name: str
    label_values: tuple
    splits: SplittingSpec = field(default_factory=SplittingSpec)

    def __post_init__(self):
        self.label_values = _declared_values(self.label_values, "label set")
        if len(self.label_values) < 2:
            raise InvalidParameterError("label set must declare at least two values")
        if not self.features:
            # Its splitting class would be empty: no tree could split.
            raise InvalidParameterError("schema must declare at least one feature")
        names = [f.name for f in self.features] + [self.label_name]
        if len(set(names)) != len(names):
            raise InvalidParameterError("duplicate column names in schema")
        continuous = {f.name for f in self.features if isinstance(f, ContinuousFeature)}
        for name in self.splits.per_feature:
            if name not in continuous:
                raise InvalidParameterError(
                    f"splits.per_feature names {name!r}, which is not a continuous feature")
        for block in self.splits.blocks:
            if not all(0 <= column < self.n_encoded for column in block.columns):
                raise InvalidParameterError(
                    f"block columns {list(block.columns)} must index the {self.n_encoded} encoded columns")

    @property
    def n_classes(self) -> int:
        return len(self.label_values)

    @property
    def n_encoded(self) -> int:
        """Columns of the feature matrix: one per continuous feature, one
        per value of a categorical feature (one-hot)."""
        return sum(1 if isinstance(feat, ContinuousFeature) else len(feat.values) for feat in self.features)


def _int(value) -> int:
    # JSON true and 6.9 are not integers; int() would make them 1 and 6.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    # JSON true and "1.5" are not numbers; float() would make them 1.0 and 1.5.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _finite(value) -> float:
    # JSON NaN and Infinity parse as floats.
    number = _number(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _json_type(kind: type, what: str):
    """The cast that passes a JSON value of type `kind` and refuses any other."""

    def cast(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return cast


_text = _json_type(str, "a string")
_items = _json_type(list, "a list")
_object = _json_type(dict, "a JSON object")


def read_json(source, error: type, text: str | None = None):
    """The JSON value of the file at `source`, or of `text` when given, which
    `source` then names. A file that cannot be read, a byte that is not
    UTF-8, invalid JSON, an integer past `sys.get_int_max_str_digits()`
    digits or nesting too deep to decode raises `error` naming `source`."""
    try:
        if text is None:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    # ValueError covers UnicodeDecodeError and json.JSONDecodeError.
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {source}: {exc}")


def read_object(doc, casts: dict, where: str, required=(), error: type = DataError) -> dict:
    """{key: casts[key](value)} for each key of one JSON object `doc`.

    A non-object, a key `casts` does not list, a missing key of `required`,
    or a value its cast refuses raises `error`, which names `where` and the
    key. Absent optional keys are left out, so the caller's defaults apply.
    """
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise error(f"{where} is missing required key {key!r}")
    fields = {}
    for key, value in doc.items():
        if key not in casts:
            raise error(f"{where} has unknown key {key!r}")
        try:
            fields[key] = casts[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{where} key {key!r} has a bad value: {exc}")
    return fields


# Feature kind -> (cast of each key, the feature from the cast values).
# Not _finite for the range: the feature's own check rejects a NaN or an
# infinite bound.
_FEATURE_KINDS = {
    "continuous": (
        {"name": _text, "kind": _text, "min": _number, "max": _number},
        lambda f: ContinuousFeature(f["name"], f["min"], f["max"]),
    ),
    "categorical": (
        {"name": _text, "kind": _text, "values": _items},
        lambda f: CategoricalFeature(f["name"], tuple(f["values"])),
    ),
}
_ANY_FEATURE = {key: cast for casts, _ in _FEATURE_KINDS.values() for key, cast in casts.items()}
_SCHEMA_KEYS = {"features": _items, "label": _object, "splits": _object}
_LABEL_KEYS = {"name": _text, "values": _items}
_SPLITS_KEYS = {"default_thresholds": _int, "per_feature": _object, "blocks": _items}
_BLOCK_KEYS = {
    "columns": lambda v: tuple(_int(c) for c in _items(v)),
    "thresholds": lambda v: tuple(_finite(t) for t in _items(v)),
}


def schema_from_dict(doc: dict) -> DataSchema:
    """DataSchema from a parsed JSON schema. A non-object, an unknown or
    missing key, or a value of the wrong type raises DataError; a value the
    schema's own checks reject raises InvalidParameterError."""
    top = read_object(doc, _SCHEMA_KEYS, "schema", ("features", "label"))
    features = []
    for i, item in enumerate(top["features"]):
        where = f"schema feature {i}"
        kind = read_object(item, _ANY_FEATURE, where).get("kind", "continuous")
        if kind not in _FEATURE_KINDS:
            raise DataError(f"{where} has unknown kind {kind!r}")
        casts, build = _FEATURE_KINDS[kind]
        features.append(build(read_object(item, casts, where, [key for key in casts if key != "kind"])))
    splits = read_object(top.get("splits", {}), _SPLITS_KEYS, "schema splits")
    # Any name may key a count; DataSchema checks that it names a continuous feature.
    counts = splits.get("per_feature", {})
    splits["per_feature"] = read_object(counts, dict.fromkeys(counts, _int), "schema splits.per_feature")
    splits["blocks"] = [
        BlockSpec(**read_object(block, _BLOCK_KEYS, f"schema block {j}", _BLOCK_KEYS))
        for j, block in enumerate(splits.get("blocks", []))
    ]
    label = read_object(top["label"], _LABEL_KEYS, "schema label", _LABEL_KEYS)
    return DataSchema(features, label["name"], tuple(label["values"]), SplittingSpec(**splits))


def load_schema(path) -> DataSchema:
    """Schema from a JSON file. Every bad file, whether unreadable, invalid
    JSON, malformed or rejected by the schema's own checks, raises
    DataError."""
    doc = read_json(path, DataError)
    try:
        return schema_from_dict(doc)
    except (DataError, InvalidParameterError) as exc:
        raise DataError(f"{path}: {exc}")


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


def load_csv(path, schema: DataSchema, plan: SplitPlan) -> BinnedFeatures:
    """The rows of a file of `schema`, binned against a plan of its splitting
    class: each block of `csv_blocks` is binned as it is read and the
    binnings are joined, so no float matrix or parsed table of all rows is
    ever held. Row order is kept; every failure is a DataError."""
    return BinnedFeatures.concatenated([plan.bin(block) for block in csv_blocks(path, schema)])


def csv_blocks(path, schema: DataSchema):
    """A comma-separated, UTF-8, headered file of `schema` as datasets of at
    most `_BLOCK_ROWS` rows each, in file order; one empty block if it has
    no rows. Categorical features one-hot expand (one 0/1 column per
    declared value); labels map to indices into the declared label set.

    The file is read once, as text. Each block is its next lines, checked
    as text, parsed by one `np.loadtxt` call into one row per line and
    checked by array operations. Every record is one line ending in '\\n',
    '\\r\\n', '\\r' or the end of the file; cells may be quoted as
    `csv.writer` quotes them. A number is what `parse_number` reads: `1_0`
    and `\\u0661` do not parse.

    Every failure is a DataError. A missing column, a row of the wrong
    width, an unparseable cell, an out-of-range value or an undeclared
    category names the first row that has one; a byte that is not UTF-8 or
    a cell over the csv field size limit names its line. A file that has
    none of these but holds a line break inside quotes, a NUL or
    \\x1c-\\x1f byte, or a line over the csv field size limit is refused
    as a whole, maybe after some blocks are yielded.
    """
    for block in _checked_blocks(path, schema):
        if block is None:
            _refuse(path, schema)
        yield block


# Characters that np.loadtxt reads differently from csv.reader: a string
# cell drops its trailing NULs, and numpy's float parser skips \x1c-\x1f as
# whitespace. Each is one byte in UTF-8.
_UNSAFE_CHARACTERS = "\0\x1c\x1d\x1e\x1f"
_BLOCK_ROWS = 1 << 12  # lines read, checked and parsed at a time; their strs are the largest transient


def parse_number(cell: str, cast: type = float):
    """`cast(cell)`, float or int, under the number grammar of `np.loadtxt`:
    float()'s or int()'s, less underscores and non-ASCII characters inside
    the whitespace around the number, so `1_0` and `\\u0661` raise
    ValueError."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"not a number: {cell!r}")
    return cast(cell)


def _text_dtype(values) -> str:
    # One character more than the longest declared value: a longer cell is
    # cut to this width and still matches no declared value.
    return f"U{max(len(v) for v in values) + 1}"


def _readable(lines) -> bool:
    """Whether no line is over the csv field size limit, holds an unsafe
    character or ends inside quotes, which, as a line holds no line break
    but its own end, is when its last csv cell ends in a line break."""
    text = "".join(lines)
    if max(map(len, lines)) > csv.field_size_limit() or any(c in text for c in _UNSAFE_CHARACTERS):
        return False
    quoted = [line for line in lines if '"' in line] if '"' in text else []
    return not any(next(csv.reader([line]))[-1].endswith(("\n", "\r")) for line in quoted)


def _next_table(fh, dtype):
    """The next `_BLOCK_ROWS` lines of the file as one table, empty at the
    end of the file; None if they are not `_readable` or a line gives no
    row (loadtxt skips a blank line, and warns when it reads no rows)."""
    lines = list(itertools.islice(fh, _BLOCK_ROWS))
    if not lines or not _readable(lines):
        return None if lines else np.zeros(0, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    return table if len(table) == len(lines) else None


def _checked_blocks(path, schema: DataSchema):
    """The blocks of `csv_blocks`, or None at the first failed check, where
    the caller stops. One text handle reads the file once."""
    kinds = {schema.label_name: _text_dtype(schema.label_values)}
    for feat in schema.features:
        kinds[feat.name] = "f8" if isinstance(feat, ContinuousFeature) else _text_dtype(feat.values)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            line = next(fh, "")
            header = next(csv.reader([line]), None)
            if not _readable([line]) or header is None or any(name not in header for name in kinds):
                yield None
                return
            field_of = {name: f"c{header.index(name)}" for name in kinds}
            # Every header column is parsed, so a row of another width fails.
            dtype = {f"c{i}": "U1" for i in range(len(header))}
            dtype.update((field_of[name], kind) for name, kind in kinds.items())
            dtype = list(dtype.items())
            # A file of just the header gives one empty block.
            first = True
            while (table := _next_table(fh, dtype)) is None or len(table) or first:
                yield None if table is None else _checked_block(table, field_of, schema)
                first = False
    except (OSError, ValueError, UserWarning, csv.Error):
        yield None


def _checked_block(table, field_of: dict, schema: DataSchema) -> LabeledDataset | None:
    """The dataset of one parsed block, or None if a cell is out of range or
    not a declared value."""
    features = np.empty((len(table), schema.n_encoded))
    col = 0
    for feat in schema.features:
        if isinstance(feat, ContinuousFeature):
            values = table[field_of[feat.name]]
            if not ((values >= feat.lo) & (values <= feat.hi)).all():
                return None
            features[:, col] = values
            col += 1
        else:
            hot = np.stack([table[field_of[feat.name]] == value for value in feat.values], axis=1)
            if not hot.any(axis=1).all():
                return None
            features[:, col : col + len(feat.values)] = hot
            col += len(feat.values)
    labels = np.full(len(table), -1, dtype=np.int64)
    label_cells = table[field_of[schema.label_name]]
    for i, value in enumerate(schema.label_values):
        labels[label_cells == value] = i
    if (labels < 0).any():
        return None
    return LabeledDataset(features, labels, schema.n_classes)


def _undecodable_line(path) -> int:
    """Line number of the first byte of the file that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    # One more byte that is not a line break puts the count on its line.
    return len((data + b"x").splitlines())


def _csv_rows(path, fh):
    """The csv rows of an open file. A byte that is not UTF-8, or a cell over
    `csv.field_size_limit()`, raises DataError naming its line."""
    reader = csv.reader(fh)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start : exc.start + 1]
            raise DataError(f"{path}:{_undecodable_line(path)}: byte {byte!r} is not UTF-8")
        yield row


def _refuse(path, schema: DataSchema) -> NoReturn:
    """The DataError for a file the vectorized pass refused: scans the rows
    and names the first bad one, or, if every row passes, what the pass
    cannot read."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    with fh:
        reader = _csv_rows(path, fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        positions = {}
        for column in [f.name for f in schema.features] + [schema.label_name]:
            if column not in header:
                raise DataError(f"{path}: missing column {column!r}")
            positions[column] = header.index(column)
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{row_number}: expected {len(header)} columns, got {len(row)}")
            for feat in schema.features:
                cell = row[positions[feat.name]]
                if isinstance(feat, CategoricalFeature):
                    if cell not in feat.values:
                        raise DataError(f"{path}:{row_number}: {cell!r} not a declared value of {feat.name!r}")
                    continue
                try:
                    value = parse_number(cell)
                except ValueError:
                    raise DataError(f"{path}:{row_number}: cannot parse {cell!r} as a number for {feat.name!r}")
                if not feat.lo <= value <= feat.hi:
                    raise DataError(
                        f"{path}:{row_number}: {feat.name}={value} outside declared range [{feat.lo}, {feat.hi}]"
                    )
            label = row[positions[schema.label_name]]
            if label not in schema.label_values:
                raise DataError(f"{path}:{row_number}: label {label!r} not in declared label set")
    raise DataError(
        f"{path}: cannot read a line break inside quotes, a NUL or \\x1c-\\x1f byte, "
        f"or a line longer than the csv field size limit of {csv.field_size_limit()}"
    )


def write_csv(dataset: LabeledDataset, schema: DataSchema, path) -> None:
    """Inverse of `csv_blocks` for schema-conformant datasets (used for
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
            for r in range(1, count + 1):
                threshold = feat.lo + r * (feat.hi - feat.lo) / (count + 1)
                splits.append(SplitFunction(threshold=threshold, feature=column))
            column += 1
        else:
            for _ in feat.values:
                splits.append(SplitFunction(threshold=0.5, feature=column))
                column += 1
    for block in schema.splits.blocks:
        for threshold in block.thresholds:
            splits.append(SplitFunction(threshold=threshold, block=block.columns))
    return splits


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def partition(n: int, k: int, rng: RandomSource) -> np.ndarray:
    """The holder of each of n rows among k data holders: one uniform draw
    per row, so shard sizes vary and a holder may get no row. The holders
    are in the smallest unsigned dtype that holds k - 1."""
    if k < 1:
        raise InvalidParameterError(f"entity count k must be >= 1, got {k}")
    return rng.integers(0, k, size=n).astype(np.min_scalar_type(k - 1))


def train_test_split(dataset, ratio: tuple, rng: RandomSource):
    """Seeded shuffle then a prefix cut at n * train / (train + test).

    `dataset` is anything with a row count `n` and `subset(rows)`: a
    `LabeledDataset`, or its `BinnedFeatures`. Either way a row lands in the
    same part."""
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


# The truth trees' thresholds, level by level: level d splits every node of
# depth d on feature d, left to right. Each tree is a prefix of the deepest.
_TRUTH_LEVELS = ((0.5,), (0.25, 0.75), (0.5, 0.25, 0.75, 0.5))


def _truth_tree(depth: int) -> DecisionTree:
    """A fixed threshold tree over grid thresholds whose alternating leaf
    labels give every level positive split gain, so greedy learners can
    recover it. Its plan lists one split per inner node, in node id order."""
    if depth not in (2, 3):
        raise InvalidParameterError(f"no built-in truth tree of depth {depth}")
    tree = DecisionTree(SplitPlan([SplitFunction(threshold=threshold, feature=feature)
                                   for feature, thresholds in enumerate(_TRUTH_LEVELS[:depth])
                                   for threshold in thresholds]))
    level = [tree.root]
    for _ in range(depth):
        level = [child for node in level for child in tree.split_leaf(node, node.node_id)]
    for i, leaf in enumerate(level):
        leaf.label = 1 - i % 2
    return tree


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
