"""Decision tree core shared by every learner: the split gain of whole stacks of
count tables under the splitting criteria (`gain_from_counts`, label-major),
the splitting class planned once (`SplitPlan`), datasets binned against that
plan with the count-table kernel over them (`BinnedFeatures` and
`split_count_tables`), and the tree itself with its construction, routing of
float or binned rows, `to_dict` record and error on binned rows
(`tree_error`), whose paths are tuples of (plan index, side) pairs. The
learner is `dp_topdown`; the non-private baseline is that learner run with
exact answers (`split_strategies.ExactStrategy`).
"""

from __future__ import annotations

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
    """

    threshold: float
    feature: int | None = None
    block: tuple[int, ...] | None = None

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


# ---------------------------------------------------------------------------
# Vectorized per-leaf split scoring
# ---------------------------------------------------------------------------


def position_dtype(n: int) -> np.dtype:
    """Dtype of positions into n rows: int32 below 2^31 rows, else intp."""
    return np.dtype(np.int32 if n < 2**31 else np.intp)


class SplitPlan:
    """How each split of a splitting class H maps to bins and to rows of one
    stacked count array, worked out once from H, which is public and fixed
    before any data is read; every binning against H shares it.

    The splits on one column (a feature, or a block's mean) cut it at its
    grid, their sorted distinct thresholds t_0 < ... < t_{T-1}. A value x
    gets the code j = #{t_i < x}, so x <= t_j exactly when code <= j. Each
    column, in the order of first appearance in H, owns a block of T + 1
    stack rows: row j counts the labels of codes 0..j, the last row all.
    Split h, its index in H, reads column `column_of[h]` at grid position
    `position_of[h]`, and `stack_rows[h]` is its (left row, total row). A
    candidate set is an array of indices. An empty class, or a threshold
    that is not finite, is refused when the plan is made.
    """

    def __init__(self, splits):
        self.splits = tuple(splits)
        if not self.splits:
            raise InvalidParameterError("splitting class must be nonempty")
        by_column: dict = {}
        for h, split in enumerate(self.splits):
            by_column.setdefault((split.feature, split.block), []).append(h)
        self.column_of, self.position_of = np.empty((2, len(self.splits)), dtype=np.intp)
        self.grids, self.blocks, self._readers = [], [], []  # per column
        size = 0
        for column, (key, members) in enumerate(by_column.items()):
            thresholds = [self.splits[h].threshold for h in members]
            grid = np.unique(thresholds)
            if not np.isfinite(grid).all():
                raise InvalidParameterError(f"split thresholds on column {key} must be finite")
            self.column_of[members] = column
            self.position_of[members] = np.searchsorted(grid, thresholds)
            self.grids.append(grid)
            self.blocks.append((size, size + grid.size + 1))
            self._readers.append(self.splits[members[0]])
            size += grid.size + 1
        self.size = size
        starts, stops = np.array(self.blocks).T
        self.stack_rows = np.stack([starts[self.column_of] + self.position_of, stops[self.column_of] - 1], axis=1)
        # The stack row that counts every label: the last of the first block.
        self.total_row = self.blocks[0][1] - 1
        self.indices = np.arange(len(self.splits))  # the whole class as candidates
        self._index = {split: h for h, split in enumerate(self.splits)}

    def index_of(self, splits) -> np.ndarray:
        """The indices of splits of the class; any other split raises
        InvalidParameterError rather than be counted in the wrong bins."""
        try:
            return np.array([self._index[split] for split in splits], dtype=np.intp)
        except KeyError as missing:
            raise InvalidParameterError(f"split {missing.args[0]} is not in the splitting class") from None

    def bin(self, dataset: LabeledDataset) -> "BinnedFeatures":
        """The rows of a dataset as codes against this plan: each column cut
        once at its grid, in the smallest unsigned dtype that holds it."""
        codes = [np.searchsorted(grid, reader.column(dataset.features), side="left")
                 .astype(np.min_scalar_type(grid.size)) for grid, reader in zip(self.grids, self._readers)]
        labels = dataset.labels.astype(np.min_scalar_type(dataset.n_classes - 1))
        return BinnedFeatures(self, labels, codes, dataset.n_classes)


class BinnedFeatures:
    """Rows as bin codes against a `SplitPlan`, one code array per column of
    the plan, with their labels, indices into `n_classes` labels: all that a
    learner or an evaluation reads of its rows. `subset(rows)` slices out
    some rows with no search, and `concatenated` joins binnings of one plan,
    as `data_io.load_csv` joins the binnings of its blocks.

    `cumulative(rows)` stacks each column's cumulative label counts over the
    given rows in the plan's layout, shape (`plan.size`, K), as exact
    integers in the smallest unsigned dtype that holds the row count: one
    bincount per column of its keys (code * K + label), made when the
    binning is first counted.

    `goes_right` and `cumulative` gather with `take` at `position_dtype` row
    positions: `take` casts int32 ones to intp in one copy, in about half the
    time of indexing's buffered cast.
    """

    def __init__(self, plan: SplitPlan, labels: np.ndarray, codes: list, n_classes: int):
        self.plan, self.labels, self.codes, self.n_classes = plan, labels, codes, n_classes
        self.count_dtype = np.min_scalar_type(labels.size)
        self._keys = None

    @property
    def n(self) -> int:
        return self.labels.size

    def subset(self, rows) -> "BinnedFeatures":
        """The binning of the given rows, equal to binning those rows of the
        dataset afresh against the same plan. A slice gives views of this
        binning's codes and labels, not copies."""
        return BinnedFeatures(self.plan, self.labels[rows], [column[rows] for column in self.codes], self.n_classes)

    @staticmethod
    def concatenated(parts) -> "BinnedFeatures":
        """The rows of binnings of one plan and label set, part after part."""
        codes = [np.concatenate(columns) for columns in zip(*(part.codes for part in parts))]
        labels = np.concatenate([part.labels for part in parts])
        return BinnedFeatures(parts[0].plan, labels, codes, parts[0].n_classes)

    def _count_keys(self) -> list:
        """Per column, the key (code, label) of every row that one bincount
        counts; made on first use and kept."""
        if self._keys is None:
            k = self.n_classes
            self._keys = []
            for column, (start, stop) in zip(self.codes, self.plan.blocks):
                keys = column.astype(np.min_scalar_type((stop - start) * k - 1))
                keys *= k
                keys += self.labels
                self._keys.append(keys)
        return self._keys

    def cumulative(self, rows) -> np.ndarray:
        """Stacked cumulative label counts of the given rows, shape (rows of
        the stack, K): one bincount over (code, label) keys and one
        cumulative sum per column."""
        k = self.n_classes
        cum = np.empty((self.plan.size, k), dtype=self.count_dtype)
        for (start, stop), keys in zip(self.plan.blocks, self._count_keys()):
            counts = np.bincount(keys.take(rows), minlength=(stop - start) * k)
            cum[start:stop] = np.cumsum(counts.reshape(stop - start, k), axis=0)
        return cum

    def goes_right(self, index: int, rows) -> np.ndarray:
        """Mask of the rows on side 1 of the plan's split `index`: code > j
        is value > t_j, so this equals `split.evaluate(X, rows) == 1` on the
        float rows that were binned."""
        # A Python int compares in the codes' own dtype.
        return self.codes[self.plan.column_of[index]].take(rows) > int(self.plan.position_of[index])


def split_count_tables(binned: BinnedFeatures, rows, candidates, cumulative=None) -> np.ndarray:
    """Joint count tables, shape (len(candidates), K, 2), over the given
    rows of a binned dataset: one gather of the stack rows of each candidate,
    an array of plan indices, from `cumulative`, counts in the plan's layout
    such as `binned.cumulative(rows)` or a pool's view of one holder's
    counts. Without it the rows are counted here."""
    at = binned.plan.stack_rows[candidates]
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
    is a leaf: its id, its depth and its (plan index, side) path from the
    root are public, and the path is all a strategy needs to find the leaf's
    rows. An inner node holds its split's plan index."""

    __slots__ = ("node_id", "depth", "path", "split_index", "left", "right", "label")

    def __init__(self, node_id: int, depth: int, path: tuple = ()):
        self.node_id = node_id
        self.depth = depth
        self.path = path
        self.split_index: int | None = None
        self.left: Node | None = None
        self.right: Node | None = None
        self.label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split_index is None

    @property
    def budget_depth(self) -> int:
        """Depth the leaf's charges are budgeted under; the root's split is
        funded by depth 1."""
        return max(self.depth, 1)


class DecisionTree:
    """Binary tree with labeled leaves over the splits of a `SplitPlan`,
    each named by its plan index; `predict` and `to_dict` read the splits.

    The root is at depth 0; children of a node at depth d are at d + 1, so
    the first split's children sit at depth 1 for budgeting purposes. Nodes
    are numbered in the order they are made, and the tree keeps them in a
    list in that order, so a node's id is its index.
    """

    def __init__(self, plan: SplitPlan):
        self.plan = plan
        self.root = Node(0, 0)
        self._nodes = [self.root]

    def split_leaf(self, leaf: Node, index: int) -> tuple[Node, Node]:
        if not leaf.is_leaf:
            raise InvalidParameterError(f"node {leaf.node_id} is already split")
        leaf.split_index = index
        leaf.label = None
        for side in (0, 1):
            self._nodes.append(Node(len(self._nodes), leaf.depth + 1, leaf.path + ((index, side),)))
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
        """Leaf node id for each of n rows. `goes_right(index, rows)` is the
        mask of the given rows on side 1 of the plan's split `index`: on
        float rows `plan.splits[index].evaluate(X, rows) == 1`, on binned
        rows `BinnedFeatures.goes_right`."""
        out = np.empty(n, dtype=np.int64)
        stack = [(self.root, np.arange(n, dtype=position_dtype(n)))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.node_id
                continue
            right = goes_right(node.split_index, rows)
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
        return self.classify(X.shape[0], lambda index, rows: self.plan.splits[index].evaluate(X, rows) == 1)

    def to_dict(self) -> dict:
        """JSON-able node records, in node id order."""
        records = []
        for node in self._nodes:
            if node.is_leaf:
                records.append(
                    {"id": node.node_id, "kind": "leaf", "depth": node.depth, "label": node.label}
                )
            else:
                split = self.plan.splits[node.split_index]
                record = {
                    "id": node.node_id,
                    "kind": "split",
                    "depth": node.depth,
                    "threshold": split.threshold,
                    "children": [node.left.node_id, node.right.node_id],
                }
                if split.feature is not None:
                    record["feature"] = split.feature
                else:
                    record["block"] = list(split.block)
                records.append(record)
        return {"root": self.root.node_id, "nodes": records}


def tree_error(tree: DecisionTree, binned: BinnedFeatures) -> float:
    """Fraction of the binned rows that the (fully labeled) tree misclassifies.

    Rows are routed on their bin codes (`BinnedFeatures.goes_right`), which
    is exact, so this equals the error of `tree.predict` on the float rows
    that were binned. A binning against other splits than the tree's plan is
    refused, as an index names a split only within its plan."""
    if binned.n == 0:
        raise InvalidParameterError("cannot evaluate error on an empty dataset")
    if binned.plan.splits != tree.plan.splits:
        raise InvalidParameterError("the rows are binned against other splits than the tree's plan")
    return float(np.mean(tree.classify(binned.n, binned.goes_right) != binned.labels))
