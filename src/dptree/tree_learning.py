"""Decision tree core shared by every learner: the split gain of whole
stacks of count tables under the splitting criteria (`gain_from_counts`,
label-major), datasets binned once against the splitting class with the
count-table kernel over them (`BinnedFeatures` and `split_count_tables`),
and the tree itself with its construction, routing
of float or binned rows, `to_dict` record and error on binned rows
(`tree_error`). The learner is `dp_topdown`; the non-private baseline is
that learner run with exact answers (`split_strategies.ExactStrategy`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dp_core import InvalidParameterError


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


# numpy sums along a contiguous axis of 8 or more terms pairwise, in blocks
# of 8; a shorter axis, and a sum across the rows of an array, it adds term
# by term.
PAIRWISE_MIN = 8


def _label_terms(criterion: Criterion, p: np.ndarray) -> np.ndarray:
    """Per-label terms of the criterion value G of label distributions p:
    p lg p for entropy (0 where p = 0), p^2 for the two Ginis."""
    if criterion is Criterion.ENTROPY:
        return p * np.log2(np.where(p > 0.0, p, 1.0))
    return np.square(p)


def _from_label_sums(criterion: Criterion, sums: np.ndarray, k: int) -> np.ndarray:
    """G from the sums of `_label_terms` over K >= 2 labels, normalized so a
    uniform distribution scores 1 and a point mass 0: entropy -sum / lg K,
    Gini (1 - sum) K / (K - 1), root Gini its square root. With two labels
    these are -q lg q - (1-q) lg(1-q), 4q(1-q) and 2 sqrt(q(1-q))."""
    if criterion is Criterion.ENTROPY:
        return -sums / math.log2(k)
    gini = np.maximum((1.0 - sums) * (k / (k - 1.0)), 0.0)
    if criterion is Criterion.GINI:
        return gini
    if criterion is Criterion.ROOT_GINI:
        return np.sqrt(gini)
    raise InvalidParameterError(f"unknown criterion {criterion!r}")


def gain_from_counts(cells: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Split gain J from joint label-by-side count tables, shape (..., K, 2).

    J = G(parent) - sum_b (n_b / n) G(child_b) with distribution-valued
    arguments. Counts may be real-valued (noised); callers sanitize first.
    Tables with zero total (degenerate leaves) score 0. Concavity of G makes
    J >= 0 for any valid table; tiny negative float residue is clamped.

    Layout: the tables are moved once to a label-major (K, 2, N) copy, N
    the number of tables, so each sum over sides or labels adds whole rows
    of N splits instead of reducing many short axes. Summation rule: every
    sum keeps the order that reductions over the (..., K, 2) layout give, so
    gains are bit-identical to that form (`tests/oracle.py`) for every K.
    Sums over the two sides and the children's sums over labels run term by
    term, as numpy sums across rows. The total n and the parent's sum over
    labels ran along a contiguous label axis, which numpy sums pairwise once
    K >= PAIRWISE_MIN; for such K numpy sums them on a contiguous (N, K)
    copy.
    """
    cells = np.asarray(cells, dtype=float)
    *lead, k, _ = cells.shape
    tables = cells.reshape(-1, k, 2).transpose(1, 2, 0).copy()
    n_y = tables[:, 0] + tables[:, 1]
    n_b = tables.sum(axis=0)
    n = n_y.sum(axis=0) if k < PAIRWISE_MIN else np.ascontiguousarray(n_y.T).sum(axis=-1)
    safe_n = np.where(n > 0.0, n, 1.0)
    if k < 2:
        gain = np.zeros(n.shape)
    else:
        # Label distributions of the parent and both children: (K, 3, N).
        p = np.empty((k, 3, n.size))
        np.divide(n_y, safe_n, out=p[:, 0])
        np.divide(tables, np.where(n_b > 0.0, n_b, 1.0), out=p[:, 1:])
        terms = _label_terms(criterion, p)
        sums = terms.sum(axis=0)
        if k >= PAIRWISE_MIN:
            sums[0] = np.ascontiguousarray(terms[:, 0].T).sum(axis=-1)
        values = _from_label_sums(criterion, sums, k)
        w = n_b / safe_n
        gain = values[0] - (w[0] * values[1] + w[1] * values[2])
    return np.where(n > 0.0, np.maximum(gain, 0.0), 0.0).reshape(lead)


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass
class LabeledDataset:
    """Feature matrix plus labels drawn from a finite, publicly declared set.

    Labels are stored as indices 0..n_classes-1 into the declared label set.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

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

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.n_classes)


@dataclass(frozen=True)
class SplitFunction:
    """Binary predicate over feature vectors: 0 iff the tested value <= threshold.

    Tests either one feature (threshold split) or the mean of a feature block
    (block-average split). A split's index in the splitting class H is its
    position in the class; the split itself holds only what it tests.

    Splits key the leaf-row caches through (split, side) paths, so the hash
    is computed once; pickling rebuilds it, since hash(None) varies between
    processes.
    """

    threshold: float
    feature: int | None = None
    block: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.feature is None) == (self.block is None):
            raise InvalidParameterError("exactly one of feature/block must be set")
        if self.block is not None and len(self.block) == 0:
            raise InvalidParameterError("block must be nonempty")
        object.__setattr__(self, "_hash", hash((self.threshold, self.feature, self.block)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return SplitFunction, (self.threshold, self.feature, self.block)

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


# ---------------------------------------------------------------------------
# Vectorized per-leaf split scoring
# ---------------------------------------------------------------------------


def position_dtype(n: int) -> np.dtype:
    """Dtype of positions into n rows: int32 below 2^31 rows, else intp."""
    return np.dtype(np.int32 if n < 2**31 else np.intp)


class BinnedFeatures:
    """A dataset's rows as bin codes: every distinct split column cut once
    against the sorted distinct thresholds that the splitting class tests on
    it, and every split of the class planned once as a row of one stacked
    count array. Labels and the row count come with the codes, so this is
    all a learner or an evaluation reads of its rows.

    A value x in a column with sorted thresholds t_0 < ... < t_{T-1} gets the
    code j = #{t_i < x}, so x <= t_j exactly when code <= j: the left side of
    the j-th threshold is bins 0..j. Thresholds are public and fixed before
    any data is read, so a dataset is binned once, when it is prepared, and
    `subset(rows)` slices out the binning of some of its rows with no
    search. Codes use the smallest unsigned dtype that holds T.

    `cumulative(rows)` stacks each column's cumulative label counts over the
    given rows into one array of shape (sum over columns of (T + 1), K): row j
    of a column's block counts the labels of codes 0..j, and its last row all
    of them, which the plan records as each split's left and total rows.
    Counts are exact integers in the smallest unsigned dtype that holds the
    row count. Each column is counted with one bincount of its keys (code *
    K + label), which are made when the binning is first counted.

    `goes_right` and `cumulative` gather with `take` at `position_dtype` row
    positions: `take` casts int32 ones to intp in one copy, in about half the
    time of indexing's buffered cast. `concatenated` lays binnings of one
    class end to end under new labels, which is how a pool of data holders
    (`split_strategies.EntityPool`) tells its holders apart.
    """

    def __init__(self, dataset: LabeledDataset, splits):
        k = self.n_classes = dataset.n_classes
        labels = dataset.labels.astype(np.min_scalar_type(k - 1))
        by_column: dict = {}
        for split in splits:
            by_column.setdefault(split.column_key(), []).append(split)
        codes = []  # per column, in the order of first appearance in `splits`
        self._blocks = []  # (first stacked row, end row) per column
        self._plan: dict = {}  # split -> (column, grid position, left row, total row)
        size = 0
        for key, group in by_column.items():
            grid = np.unique([split.threshold for split in group])
            if not np.isfinite(grid).all():
                raise InvalidParameterError(f"split thresholds on column {key} must be finite")
            column = np.searchsorted(grid, group[0].column(dataset.features), side="left")
            codes.append(column.astype(np.min_scalar_type(grid.size)))
            self._blocks.append((size, size + grid.size + 1))
            positions = np.searchsorted(grid, [split.threshold for split in group]).tolist()
            for split, pos in zip(group, positions):
                self._plan[split] = (len(codes) - 1, pos, size + pos, size + grid.size)
            size += grid.size + 1
        self._size = size
        self.splits = tuple(splits)
        self._class_rows = self._lookup(self.splits)
        # The last candidate tuple looked up and its rows (`plan`), one list
        # that every slice of this binning shares.
        self._memo = [(), self._lookup(())]
        self._set_rows(labels, codes)

    def _set_rows(self, labels: np.ndarray, codes: list) -> None:
        self.labels = labels
        self.codes = codes
        self.count_dtype = np.min_scalar_type(labels.size)
        self._keys = None

    @property
    def n(self) -> int:
        return self.labels.size

    def subset(self, rows) -> "BinnedFeatures":
        """The binning of the given rows, equal to binning those rows of the
        dataset afresh against the same class. A slice gives views of this
        binning's codes and labels, not copies."""
        out = copy.copy(self)
        out._set_rows(self.labels[rows], [column[rows] for column in self.codes])
        return out

    @staticmethod
    def concatenated(shards, labels: np.ndarray, n_classes: int) -> "BinnedFeatures":
        """The rows of binnings of one class, shard after shard, as one
        binning whose labels are `labels`, indices into `n_classes` labels."""
        out = copy.copy(shards[0])
        out.n_classes = n_classes
        out._set_rows(labels, [np.concatenate(columns) for columns in zip(*(shard.codes for shard in shards))])
        return out

    def _count_keys(self) -> list:
        """Per column, the key (code, label) of every row that one bincount
        counts; made on first use and kept."""
        if self._keys is None:
            k = self.n_classes
            self._keys = []
            for column, (start, stop) in zip(self.codes, self._blocks):
                keys = column.astype(np.min_scalar_type((stop - start) * k - 1))
                keys *= k
                keys += self.labels
                self._keys.append(keys)
        return self._keys

    @property
    def total_row(self) -> int:
        """Row of the stacked cumulative counts that counts every label of
        the counted rows: the last row of the first column's block."""
        if not self._blocks:
            raise InvalidParameterError("an empty splitting class stacks no counts")
        return self._blocks[0][1] - 1

    def plan(self, splits) -> np.ndarray:
        """(left row, total row) in the stacked counts for each split, shape
        (len(splits), 2). A split outside the binned class raises
        InvalidParameterError rather than being counted against the wrong
        bins.

        The class itself, a tuple, is answered by identity without lookups.
        So is the tuple last looked up: a tuple cannot change, so k holders
        asked about one query's candidates resolve them once."""
        memo = self._memo
        if splits is memo[0]:
            return memo[1]
        if splits is self.splits:
            return self._class_rows
        rows = self._lookup(splits)
        if isinstance(splits, tuple):
            memo[:] = splits, rows
        return rows

    def _lookup(self, splits) -> np.ndarray:
        return np.array([self._planned(split)[2:] for split in splits], dtype=np.intp).reshape(-1, 2)

    def _planned(self, split) -> tuple:
        try:
            return self._plan[split]
        except KeyError:
            raise InvalidParameterError(f"split {split} is not in the binned class") from None

    def cumulative(self, rows) -> np.ndarray:
        """Stacked cumulative label counts of the given rows, shape (rows of
        the stack, K): one bincount over (code, label) keys and one
        cumulative sum per column."""
        k = self.n_classes
        cum = np.empty((self._size, k), dtype=self.count_dtype)
        for (start, stop), keys in zip(self._blocks, self._count_keys()):
            counts = np.bincount(keys.take(rows), minlength=(stop - start) * k)
            cum[start:stop] = np.cumsum(counts.reshape(stop - start, k), axis=0)
        return cum

    def left_size(self, split, counts) -> int:
        """Rows on side 0 of a split of the class among the rows whose
        cumulative counts are `counts`: the sum of the split's left row."""
        return int(counts[self._planned(split)[2]].sum())

    def goes_right(self, split, rows) -> np.ndarray:
        """Mask of the rows on side 1 of a split of the class: code > j is
        value > t_j, so this equals `split.evaluate(X, rows) == 1` on the
        float rows that were binned."""
        column, pos, _, _ = self._planned(split)
        return self.codes[column].take(rows) > pos


def split_count_tables(binned: BinnedFeatures, rows, splits, cumulative=None) -> np.ndarray:
    """Joint count tables, shape (len(splits), K, 2), over the given rows of
    a binned dataset: one gather of each split's planned rows from
    `cumulative`, counts of the stack's layout with K label columns, such as
    `binned.cumulative(rows)` or a pool's view of one holder's counts.
    Without it the rows are counted here, in O(len(rows) + T K) per column.
    A split that is not in the binned class raises InvalidParameterError.
    """
    at = binned.plan(splits)
    cum = binned.cumulative(rows) if cumulative is None else cumulative
    left = cum[at[:, 0]]
    tables = np.empty(left.shape + (2,))
    tables[..., 0] = left
    tables[..., 1] = cum[at[:, 1]] - left
    return tables


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


class Node:
    """One node of a `DecisionTree`, and the learner's handle on it while it
    is a leaf: its id, its depth and its (split, side) path from the root are
    public, and the path is all a strategy needs to find the leaf's rows."""

    __slots__ = ("node_id", "depth", "path", "split", "left", "right", "label")

    def __init__(self, node_id: int, depth: int, path: tuple = ()):
        self.node_id = node_id
        self.depth = depth
        self.path = path
        self.split: SplitFunction | None = None
        self.left: Node | None = None
        self.right: Node | None = None
        self.label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def budget_depth(self) -> int:
        """Depth the leaf's charges are budgeted under; the root's split is
        funded by depth 1."""
        return max(self.depth, 1)


class DecisionTree:
    """Binary tree of split functions with labeled leaves.

    The root is at depth 0; children of a node at depth d are at d + 1, so
    the first split's children sit at depth 1 for budgeting purposes. Nodes
    are numbered in the order they are made, and the tree keeps them in a
    list in that order, so a node's id is its index.
    """

    def __init__(self):
        self.root = Node(0, 0)
        self._nodes = [self.root]

    def split_leaf(self, leaf: Node, split: SplitFunction) -> tuple[Node, Node]:
        if not leaf.is_leaf:
            raise InvalidParameterError(f"node {leaf.node_id} is already split")
        leaf.split = split
        leaf.label = None
        for side in (0, 1):
            self._nodes.append(Node(len(self._nodes), leaf.depth + 1, leaf.path + ((split, side),)))
        leaf.left, leaf.right = self._nodes[-2:]
        return leaf.left, leaf.right

    def leaves(self) -> list[Node]:
        return [node for node in self._nodes if node.is_leaf]

    @property
    def internal_count(self) -> int:
        return (len(self._nodes) - 1) // 2  # each split adds two nodes

    @property
    def depth(self) -> int:
        return max(node.depth for node in self._nodes)

    def assign(self, n: int, goes_right) -> np.ndarray:
        """Leaf node id for each of n rows. `goes_right(split, rows)` is the
        mask of the given rows on side 1 of a split of the tree: on float
        rows `split.evaluate(X, rows) == 1`, on binned rows
        `BinnedFeatures.goes_right`."""
        out = np.empty(n, dtype=np.int64)
        stack = [(self.root, np.arange(n, dtype=position_dtype(n)))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.node_id
                continue
            right = goes_right(node.split, rows)
            stack.append((node.left, np.compress(~right, rows)))
            stack.append((node.right, np.compress(right, rows)))
        return out

    def classify(self, n: int, goes_right) -> np.ndarray:
        """Label of each of n rows, routed as in `assign`. A row that
        reaches an unlabeled leaf raises InvalidParameterError."""
        label_of = np.full(len(self._nodes), -1, dtype=np.int64)  # indexed by node id
        for leaf in self.leaves():
            if leaf.label is not None:
                label_of[leaf.node_id] = leaf.label
        labels = label_of[self.assign(n, goes_right)]
        if labels.size and labels.min() < 0:
            raise InvalidParameterError("prediction reached an unlabeled leaf")
        return labels

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Label of each row of the float feature matrix X."""
        X = np.asarray(X, dtype=float)
        return self.classify(X.shape[0], lambda split, rows: split.evaluate(X, rows) == 1)

    def to_dict(self) -> dict:
        """JSON-able node records, in node id order."""
        records = []
        for node in self._nodes:
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


def tree_error(tree: DecisionTree, binned: BinnedFeatures) -> float:
    """Fraction of the binned rows that the (fully labeled) tree misclassifies.

    Rows are routed on their bin codes (`BinnedFeatures.goes_right`), which
    is exact, so this equals the error of `tree.predict` on the float rows
    that were binned, for any tree over splits of the binned class."""
    if binned.n == 0:
        raise InvalidParameterError("cannot evaluate error on an empty dataset")
    return float(np.mean(tree.classify(binned.n, binned.goes_right) != binned.labels))
