"""Non-private decision tree core: splitting criteria, split gain, the
binned count-table kernel shared by every learner, the potential upper bound,
tree construction/routing/prediction, and the greedy top-down baseline
learner.

The baseline learner shares its control flow (priority queue, gain pruning,
optional weight filter) with the private learner so that zero-noise runs of
the private algorithm are node-identical to it.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dp_core import InvalidParameterError


class UnlabeledTreeError(RuntimeError):
    """predict() reached a leaf that was never labeled."""


class Criterion(Enum):
    ENTROPY = "entropy"
    GINI = "gini"
    ROOT_GINI = "root-gini"

    @classmethod
    def from_name(cls, name: str) -> "Criterion":
        for member in cls:
            if member.value == name:
                return member
        raise InvalidParameterError(f"unknown criterion {name!r}")


# ---------------------------------------------------------------------------
# Splitting criteria
# ---------------------------------------------------------------------------


def distribution_value(criterion: Criterion, p: np.ndarray) -> np.ndarray:
    """Criterion value of label distributions p with shape (..., K).

    Rows are probability vectors; all-zero rows (empty leaves) score 0. The
    two-class case reduces to the scalar forms: entropy -q lg q -(1-q) lg(1-q),
    Gini 4q(1-q), root Gini 2 sqrt(q(1-q)). Multiclass values are normalized
    so a uniform distribution scores 1 and a point mass scores 0.
    """
    p = np.asarray(p, dtype=float)
    k = p.shape[-1]
    if k < 2:
        return np.zeros(p.shape[:-1])
    if criterion is Criterion.ENTROPY:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
        return -terms.sum(axis=-1) / math.log2(k)
    gini = (1.0 - np.square(p).sum(axis=-1)) * (k / (k - 1.0))
    gini = np.clip(gini, 0.0, None)
    if criterion is Criterion.GINI:
        return gini
    if criterion is Criterion.ROOT_GINI:
        return np.sqrt(gini)
    raise InvalidParameterError(f"unknown criterion {criterion!r}")


def criterion_value(criterion: Criterion, q) -> float:
    """Criterion value at a binary class-1 fraction q in [0, 1]."""
    q = float(q)
    if not (-1e-9 <= q <= 1.0 + 1e-9):
        raise InvalidParameterError(f"q must lie in [0, 1], got {q}")
    q = min(max(q, 0.0), 1.0)
    return float(distribution_value(criterion, np.array([1.0 - q, q])))


def gain_from_counts(cells: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Split gain J from joint label-by-side count tables, shape (..., K, 2).

    J = G(parent) - sum_b (n_b / n) G(child_b) with distribution-valued
    arguments. Counts may be real-valued (noised); callers sanitize first.
    Tables with zero total (degenerate leaves) score 0. Concavity of G makes
    J >= 0 for any valid table; tiny negative float residue is clamped.
    """
    cells = np.asarray(cells, dtype=float)
    n_y = cells.sum(axis=-1)
    n_b = cells.sum(axis=-2)
    n = n_y.sum(axis=-1)
    safe_n = np.where(n > 0.0, n, 1.0)
    safe_nb = np.where(n_b > 0.0, n_b, 1.0)
    parent = distribution_value(criterion, n_y / safe_n[..., None])
    children = distribution_value(
        criterion, np.moveaxis(cells, -1, -2) / safe_nb[..., None]
    )  # (..., 2)
    gain = parent - ((n_b / safe_n[..., None]) * children).sum(axis=-1)
    return np.where(n > 0.0, np.clip(gain, 0.0, None), 0.0)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass
class LabeledDataset:
    """Feature matrix plus labels drawn from a finite, publicly declared set.

    Labels are stored as indices 0..n_classes-1; the schema (when present)
    maps them back to names and carries the declared feature ranges.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    schema: object = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InvalidParameterError("features must be a 2-d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise InvalidParameterError("labels must have one entry per feature row")
        if not np.isfinite(self.features).all():
            # A NaN compares false against every threshold, so no split
            # could route and count it consistently.
            raise InvalidParameterError("features must be finite")
        if self.n_classes < 1:
            raise InvalidParameterError("n_classes must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise InvalidParameterError("labels must lie in [0, n_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.n_classes, self.schema)

    def label_counts(self, indices=None) -> np.ndarray:
        labels = self.labels if indices is None else self.labels[indices]
        return np.bincount(labels, minlength=self.n_classes).astype(float)


@dataclass(frozen=True)
class SplitFunction:
    """Binary predicate over feature vectors: 0 iff the tested value <= threshold.

    Tests either one feature (threshold split) or the mean of a feature block
    (block-average split). `hid` is the index in the splitting class H it was
    generated from; it is bookkeeping only and excluded from equality.
    """

    threshold: float
    feature: int | None = None
    block: tuple[int, ...] | None = None
    hid: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.feature is None) == (self.block is None):
            raise InvalidParameterError("exactly one of feature/block must be set")
        if self.block is not None and len(self.block) == 0:
            raise InvalidParameterError("block must be nonempty")

    def column(self, X: np.ndarray, rows=None) -> np.ndarray:
        if self.feature is not None:
            col = X[:, self.feature] if rows is None else X[rows, self.feature]
        else:
            block = list(self.block)
            col = X[:, block].mean(axis=1) if rows is None else X[np.ix_(rows, block)].mean(axis=1)
        return col

    def evaluate(self, X: np.ndarray, rows=None) -> np.ndarray:
        """Side (0 or 1) for each row."""
        return (self.column(X, rows) > self.threshold).astype(np.int8)

    def column_key(self):
        return ("f", self.feature) if self.feature is not None else ("b", self.block)


@dataclass
class LeafCounts:
    """Joint label-by-side counts for one candidate split at one leaf.

    Cells have shape (n_classes, 2) and may be real-valued once noised.
    Marginals are always derived by summation so that sanitized tables stay
    internally consistent.
    """

    cells: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=float)
        if self.cells.ndim != 2 or self.cells.shape[1] != 2:
            raise InvalidParameterError("cells must have shape (n_classes, 2)")

    @classmethod
    def from_split(cls, labels: np.ndarray, sides: np.ndarray, n_classes: int) -> "LeafCounts":
        cells = np.zeros((n_classes, 2))
        np.add.at(cells, (labels, sides), 1.0)
        return cls(cells)

    @property
    def total(self) -> float:
        return float(self.cells.sum())

    @property
    def label_totals(self) -> np.ndarray:
        return self.cells.sum(axis=1)

    @property
    def side_totals(self) -> np.ndarray:
        return self.cells.sum(axis=0)

    @property
    def is_degenerate(self) -> bool:
        return self.total <= 0.0

    def sanitized(self) -> "LeafCounts":
        """Clamp noised cells to >= 0; marginals are recomputed by summation."""
        return LeafCounts(np.clip(self.cells, 0.0, None))


def split_gain(counts: LeafCounts, criterion: Criterion) -> float:
    """Split gain J for one count table; degenerate (all-zero) tables give 0."""
    return float(gain_from_counts(counts.cells, criterion))


# ---------------------------------------------------------------------------
# Vectorized per-leaf split scoring
# ---------------------------------------------------------------------------


class BinnedFeatures:
    """Every distinct split column of a dataset, cut once against the sorted
    distinct thresholds that the splitting class tests on it.

    A value x in a column with sorted thresholds t_0 < ... < t_{T-1} gets the
    code j = #{t_i < x}, so x <= t_j exactly when code <= j: the left side of
    the j-th threshold is bins 0..j. Thresholds are public and fixed before
    any data is read, so the binning can be done once per dataset. Codes use
    the smallest unsigned dtype that holds T.
    """

    def __init__(self, dataset: LabeledDataset, splits):
        self.labels = dataset.labels
        self.n_classes = dataset.n_classes
        by_column: dict = {}
        for split in splits:
            by_column.setdefault(split.column_key(), []).append(split)
        self.columns: dict = {}  # column key -> (sorted distinct thresholds, codes)
        for key, group in by_column.items():
            grid = np.unique([split.threshold for split in group])
            if not np.isfinite(grid).all():
                raise InvalidParameterError(f"split thresholds on column {key} must be finite")
            codes = np.searchsorted(grid, group[0].column(dataset.features), side="left")
            self.columns[key] = (grid, codes.astype(np.min_scalar_type(grid.size)))


def split_count_tables(binned: BinnedFeatures, rows, splits) -> np.ndarray:
    """Joint count tables, shape (len(splits), n_classes, 2), over the given
    rows of a binned dataset.

    Splits sharing a column share one bincount over (code, label) pairs and
    one cumulative sum over the bins, so a T-threshold column costs
    O(len(rows) + T K). A split that is not in the binned class raises
    InvalidParameterError rather than being counted against the wrong bins.
    """
    k = binned.n_classes
    tables = np.zeros((len(splits), k, 2))
    groups: dict = {}
    for i, split in enumerate(splits):
        groups.setdefault(split.column_key(), []).append(i)
    labels = binned.labels[rows]
    for key, idx in groups.items():
        if key not in binned.columns:
            raise InvalidParameterError(f"no binned column {key} for split {splits[idx[0]]}")
        grid, codes = binned.columns[key]
        wanted = np.array([splits[i].threshold for i in idx])
        pos = np.minimum(np.searchsorted(grid, wanted), grid.size - 1)
        if not np.array_equal(grid[pos], wanted):
            raise InvalidParameterError(f"a split threshold on column {key} is not in the binned class")
        if labels.size == 0:
            continue
        counts = np.bincount(codes[rows].astype(np.intp) * k + labels, minlength=(grid.size + 1) * k)
        cum = np.cumsum(counts.reshape(grid.size + 1, k), axis=0)
        left = cum[pos]
        tables[idx, :, 0] = left
        tables[idx, :, 1] = cum[-1] - left
    return tables


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ("node_id", "depth", "split", "left", "right", "label")

    def __init__(self, node_id: int, depth: int):
        self.node_id = node_id
        self.depth = depth
        self.split: SplitFunction | None = None
        self.left: Node | None = None
        self.right: Node | None = None
        self.label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


class DecisionTree:
    """Binary tree of split functions with labeled leaves.

    The root is at depth 0; children of a node at depth d are at d + 1, so
    the first split's children sit at depth 1 for budgeting purposes.
    """

    def __init__(self):
        self._next_id = 0
        self.root = self._new_node(depth=0)

    def _new_node(self, depth: int) -> Node:
        node = Node(self._next_id, depth)
        self._next_id += 1
        return node

    def split_leaf(self, leaf: Node, split: SplitFunction) -> tuple[Node, Node]:
        if not leaf.is_leaf:
            raise InvalidParameterError(f"node {leaf.node_id} is already split")
        leaf.split = split
        leaf.label = None
        leaf.left = self._new_node(leaf.depth + 1)
        leaf.right = self._new_node(leaf.depth + 1)
        return leaf.left, leaf.right

    def nodes(self) -> list[Node]:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.extend((node.right, node.left))
        return sorted(out, key=lambda nd: nd.node_id)

    def leaves(self) -> list[Node]:
        return [node for node in self.nodes() if node.is_leaf]

    @property
    def internal_count(self) -> int:
        return sum(1 for node in self.nodes() if not node.is_leaf)

    @property
    def depth(self) -> int:
        return max(node.depth for node in self.nodes())

    def route(self, x: np.ndarray) -> Node:
        """Leaf reached by a single feature vector."""
        node = self.root
        x = np.asarray(x, dtype=float).reshape(1, -1)
        while not node.is_leaf:
            node = node.right if node.split.evaluate(x)[0] else node.left
        return node

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id for every row of X."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.node_id
                continue
            sides = node.split.evaluate(X, rows)
            stack.append((node.left, rows[sides == 0]))
            stack.append((node.right, rows[sides == 1]))
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        label_of = np.full(self._next_id, -1, dtype=np.int64)  # indexed by node id
        for leaf in self.leaves():
            if leaf.label is not None:
                label_of[leaf.node_id] = leaf.label
        labels = label_of[self.assign(X)]
        if labels.size and labels.min() < 0:
            raise UnlabeledTreeError("prediction reached an unlabeled leaf")
        return labels

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        records = []
        for node in self.nodes():
            if node.is_leaf:
                records.append(
                    {"id": node.node_id, "kind": "leaf", "depth": node.depth, "label": node.label}
                )
            else:
                record = {
                    "id": node.node_id,
                    "kind": "split",
                    "depth": node.depth,
                    "threshold": node.split.threshold,
                    "children": [node.left.node_id, node.right.node_id],
                }
                if node.split.feature is not None:
                    record["feature"] = node.split.feature
                else:
                    record["block"] = list(node.split.block)
                records.append(record)
        return {"root": self.root.node_id, "nodes": records}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTree":
        nodes = {}
        for record in doc["nodes"]:
            node = Node(record["id"], record["depth"])
            if record["kind"] == "leaf":
                node.label = record["label"]
            else:
                if "feature" in record:
                    node.split = SplitFunction(threshold=record["threshold"], feature=record["feature"])
                else:
                    node.split = SplitFunction(threshold=record["threshold"], block=tuple(record["block"]))
            nodes[record["id"]] = node
        for record in doc["nodes"]:
            if record["kind"] == "split":
                left, right = record["children"]
                nodes[record["id"]].left = nodes[left]
                nodes[record["id"]].right = nodes[right]
        tree = cls.__new__(cls)
        tree.root = nodes[doc["root"]]
        tree._next_id = max(nodes) + 1
        return tree

    @classmethod
    def from_json(cls, text: str) -> "DecisionTree":
        return cls.from_dict(json.loads(text))


def tree_error(tree: DecisionTree, dataset: LabeledDataset) -> float:
    """Fraction of dataset rows the (fully labeled) tree misclassifies."""
    if dataset.n == 0:
        raise InvalidParameterError("cannot evaluate error on an empty dataset")
    return float(np.mean(tree.predict(dataset.features) != dataset.labels))


def potential(tree: DecisionTree, dataset: LabeledDataset, criterion: Criterion) -> float:
    """Weighted criterion value over leaves: an upper bound on the training
    error of the majority-labeled tree."""
    if dataset.n == 0:
        raise InvalidParameterError("cannot evaluate potential on an empty dataset")
    leaf_ids = tree.assign(dataset.features)
    value = 0.0
    for leaf in tree.leaves():
        rows = leaf_ids == leaf.node_id
        n_leaf = int(rows.sum())
        if n_leaf == 0:
            continue
        p = np.bincount(dataset.labels[rows], minlength=dataset.n_classes) / n_leaf
        value += (n_leaf / dataset.n) * float(distribution_value(criterion, p))
    return value


# ---------------------------------------------------------------------------
# Greedy top-down learner (non-private baseline)
# ---------------------------------------------------------------------------


class MaxQueue:
    """Max-priority queue with FIFO tie-breaking (deterministic)."""

    def __init__(self):
        self._heap = []
        self._counter = 0

    def push(self, priority: float, item) -> None:
        heapq.heappush(self._heap, (-float(priority), self._counter, item))
        self._counter += 1

    def pop(self):
        neg, _, item = heapq.heappop(self._heap)
        return -neg, item

    def __len__(self):
        return len(self._heap)


def majority_label(counts: np.ndarray) -> int:
    """Most common label; ties and empty leaves go to the lowest index."""
    return int(np.argmax(counts))


def topdown_nonprivate(
    dataset: LabeledDataset,
    splits,
    max_nodes: int,
    criterion: Criterion,
    min_gain: float = 0.01,
    min_weight: float = 0.0,
) -> DecisionTree:
    """Greedy top-down tree induction.

    Repeatedly pops the leaf/split pair with the largest potential decrease
    w(leaf) * J(leaf, h) and splits it, for at most max_nodes iterations.
    Children are queued only when their best gain exceeds min_gain and their
    weight is at least min_weight (the weight filter of the private learner;
    0 disables it). Leaves get exact majority labels. Deterministic given the
    dataset and the ordering of the splitting class.
    """
    if len(splits) == 0:
        raise InvalidParameterError("splitting class must be nonempty")
    if max_nodes < 1:
        raise InvalidParameterError("max_nodes must be >= 1")
    if dataset.n == 0:
        raise InvalidParameterError("cannot learn from an empty dataset")

    X, k = dataset.features, dataset.n_classes
    binned = BinnedFeatures(dataset, splits)
    tree = DecisionTree()
    members = {tree.root.node_id: np.arange(dataset.n)}
    queue = MaxQueue()

    gains = gain_from_counts(split_count_tables(binned, members[tree.root.node_id], splits), criterion)
    best = int(np.argmax(gains))
    if 1.0 >= min_weight and gains[best] > min_gain:
        queue.push(float(gains[best]), (tree.root, splits[best]))

    for _ in range(max_nodes):
        if not len(queue):
            break
        _, (leaf, split) = queue.pop()
        rows = members.pop(leaf.node_id)
        sides = split.evaluate(X, rows)
        left, right = tree.split_leaf(leaf, split)
        for child, child_rows in ((left, rows[sides == 0]), (right, rows[sides == 1])):
            members[child.node_id] = child_rows
            weight = child_rows.size / dataset.n
            gains = gain_from_counts(split_count_tables(binned, child_rows, splits), criterion)
            best = int(np.argmax(gains))
            if weight >= min_weight and gains[best] > min_gain:
                queue.push(weight * float(gains[best]), (child, splits[best]))

    for leaf in tree.leaves():
        rows = members.get(leaf.node_id)
        counts = dataset.label_counts(rows) if rows is not None else np.zeros(k)
        leaf.label = majority_label(counts)
    return tree
