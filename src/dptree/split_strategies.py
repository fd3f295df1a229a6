"""Strategies for the DP-TopDown loop: the exact non-private baseline,
single-machine RNM, distributed NoisyCounts and distributed LocalRNM, plus
the simulated data holders and the message layer they share.

Each strategy answers the loop's queries about a leaf, its tree node
(`tree_learning.Node`, whose public (plan index, side) path locates the
leaf's rows; see `dp_topdown`): `split` and `weight`, and `labels` of all
final leaves at once; it sets `pool` when it is made, whose binning's row
count `pool.binned.n` is the public |S|. `ExactStrategy` answers exactly,
with no noise and no charges; `SingleMachineRNMSplitter` answers privately:
RNM for splits, the Laplace weight estimate for weights and one RNM release
for the labels of every leaf, each from its own substream, all charged under
the global ledger scope. The two distributed strategies ask the k holders
through the transport and share `weight` (summed noisy counts) and `labels`
(per leaf, the argmax of summed noisy label counts); they differ in `split`.
A message is a `Query` to one entity through `LocalTransport.send`, and its
`Response` holds only noisy aggregates.

An `EntityPool` owns one binning of the run's rows, whose labels also name
each row's holder, and one record per live leaf: its rows' 32-bit positions in
that binning and their cumulative counts, whose k K label columns count each
holder's rows apart, so a leaf is cut, counted and scored once for all k
holders; a candidate set is an array of indices into the binning's `SplitPlan`.
Each `Entity` is the pool's view of one holder: it reads only its own rows and
label columns of a record, draws noise from its own stream and charges its own
ledger scope. Counts are exact integers, so every answer, draw and charge is
what a stateless replay of the holder's shard would give. The single machine
and the baseline are a pool of one holder. After learning, the final leaves'
records give the training accuracy without routing a row (`train_accuracy`).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dp_core import (
    GLOBAL_SCOPE,
    DegenerateLeafError,
    InvalidParameterError,
    PrivacyLedger,
    RandomSource,
    Scope,
    report_noisy_max,
    sample_laplace,
)
from .dp_topdown import estimate_weight, rnm_labels
from .tree_learning import (
    BinnedFeatures,
    Criterion,
    DecisionTree,
    LabeledDataset,
    Node,
    SplitFunction,
    SplitPlan,
    gain_from_counts,
    position_dtype,
    split_count_tables,
)

MIN_LEAF_ROWS = 3  # sensitivity bounds assume 1/m <= 1/e, i.e. m >= 3


def noisy_counts_cell_scale(n_candidates: int, budget) -> float:
    """Per-cell Laplace scale for publishing n_candidates joint histograms
    under one per-entity budget: 3 |H'| / budget."""
    return 3.0 * n_candidates / float(budget)


def distributed_label_scale(n_classes: int, budget) -> float:
    """Per-label Laplace scale for distributed leaf labeling: doubled
    relative to the single-machine RNM labeling scale 2/budget, generalized
    over the label count."""
    return 2.0 * n_classes / float(budget)


def rnm_score_sensitivity(criterion: Criterion, m: int) -> float:
    """Upper bound on the sensitivity of the gain scores fed to RNM.

    Entropy uses 10 lg(m)/m; Gini 20/m. Valid for m >= 3. Root Gini has no
    proven bound (its gains move by about 2/sqrt(m) when one row changes),
    so it raises InvalidParameterError rather than under-noise a split.
    """
    if criterion is Criterion.ROOT_GINI:
        raise InvalidParameterError("root-gini has no proven RNM sensitivity bound")
    if m < MIN_LEAF_ROWS:
        raise DegenerateLeafError(f"leaf has {m} rows; need >= {MIN_LEAF_ROWS}")
    if criterion is Criterion.ENTROPY:
        return 10.0 * math.log2(m) / m
    if criterion is Criterion.GINI:
        return 20.0 / m
    raise InvalidParameterError(f"unknown criterion {criterion!r}")


# ---------------------------------------------------------------------------
# Entities and the coordinator/entity message boundary
# ---------------------------------------------------------------------------


@dataclass
class Query:
    kind: str  # "joint_histogram" | "local_best_split" | "leaf_count" | "label_counts"
    path: tuple
    budget: Fraction
    depth: int | None
    leaf_id: int | None
    candidates: np.ndarray | None = None  # plan indices, for a "joint_histogram" query
    # Worked out once per query (`EntityPool.ask_all`): the Laplace scale of
    # each noised count (None for RNM, whose scale depends on the holder's
    # leaf size) and the budget of each charge an entity records.
    scale: float | None = None
    charge: Fraction | None = None


@dataclass
class Response:
    payload: dict


class Entity:
    """One data holder, as its pool's view of holder `entity_id`: it reads
    only that holder's rows and counts of the pool's leaf records, draws
    noise from its own stream and records its charges under its own ledger
    scope."""

    def __init__(self, entity_id: int, pool: "EntityPool", rng: RandomSource | None):
        self.entity_id = entity_id
        # The pool owns its entities; a strong reference back would leave a
        # finished pool and its rows to the cycle collector.
        self.pool = weakref.proxy(pool)
        self.rng = rng

    def leaf_rows(self, path: tuple) -> tuple:
        """This holder's `(rows, counts)` of the leaf at `path`, a tuple of
        (plan index, side) pairs: the 32-bit pool positions of its rows that
        follow the path, and their cumulative counts, shape (rows of the
        stack, K). Both are views of the pool's record."""
        pool = self.pool
        leaf = pool.leaf(path)
        if pool.k == 1:  # the whole record, without working out bounds
            return leaf.rows, leaf.counts
        bounds, i = pool.bounds(leaf), self.entity_id
        return leaf.rows[bounds[i]:bounds[i + 1]], leaf.counts.reshape(-1, pool.k, pool.n_classes)[:, i]

    def label_counts(self, counts) -> np.ndarray:
        """Exact label counts of a leaf whose cumulative counts are `counts`:
        the row that counts every label."""
        return counts[self.pool.plan.total_row].astype(float)

    def gains(self, path: tuple) -> np.ndarray:
        """Exact gains of the full splitting class on this holder's rows of
        the leaf at `path`: its row of the gains the pool works out once for
        all holders."""
        pool = self.pool
        return pool.gains(pool.leaf(path))[self.entity_id]

    def rnm_split(self, path, m: int, budget, rng: RandomSource):
        """Report Noisy Max over `gains(path)` of a leaf of m rows: (index,
        noisy gain). Raises DegenerateLeafError on fewer than MIN_LEAF_ROWS
        rows."""
        sensitivity = rnm_score_sensitivity(self.pool.criterion, m)
        return report_noisy_max(self.gains(path), sensitivity, float(budget), rng)

    def _scope(self, purpose: str, query: Query) -> Scope:
        return Scope(self.entity_id, purpose, depth=query.depth, leaf=query.leaf_id)

    def handle(self, query: Query, ledger: PrivacyLedger) -> Response:
        rows, counts = self.leaf_rows(query.path)
        if query.kind == "leaf_count":
            noisy = float(rows.size) + sample_laplace(query.scale, self.rng)
            ledger.charge(self._scope("weight", query), query.charge)
            return Response({"count": noisy})

        if query.kind == "label_counts":
            k = self.pool.n_classes
            noisy = self.label_counts(counts) + sample_laplace(query.scale, self.rng, size=k)
            scope = self._scope("label", query)
            for _ in range(k):
                ledger.charge(scope, query.charge)
            return Response({"counts": noisy})

        if query.kind == "joint_histogram":
            tables = split_count_tables(self.pool.binned, rows, query.candidates, counts)
            noisy = tables + sample_laplace(query.scale, self.rng, size=tables.shape)
            ledger.charge(self._scope("split", query), query.charge)
            return Response({"cells": noisy})

        if query.kind == "local_best_split":
            if rows.size < MIN_LEAF_ROWS:
                # Too few rows for the sensitivity bound; answer with a
                # uniformly random candidate. The branch itself is
                # data-dependent, so the budget is charged regardless.
                hid = int(self.rng.integers(0, len(self.pool.plan.splits)))
                ledger.charge(self._scope("split", query), query.charge)
                return Response({"hid": hid, "fallback": True})
            # Only the winning index is published, the noisy score is dropped.
            hid, _ = self.rnm_split(query.path, rows.size, query.budget, self.rng)
            ledger.charge(self._scope("split", query), query.charge)
            return Response({"hid": hid, "fallback": False})

        raise InvalidParameterError(f"unknown query kind {query.kind!r}")


class LocalTransport:
    """In-process coordinator/entity boundary: send(Query) -> Response, a
    pass-through to `Entity.handle`. It is kept as its own layer so that the
    bench can time every message and tests can substitute a recording
    transport (`pool.transport = ...`), until the message layer folds into
    the strategies (ROADMAP item 11(c))."""

    def send(self, entity: Entity, query: Query, ledger: PrivacyLedger) -> Response:
        return entity.handle(query, ledger)


class EntityPool:
    """The k data holders of a run, the only owner of their rows, and the
    transport that asks them.

    The pool is one binning and the holder of each of its rows. With k > 1
    its binning shares the given binning's codes and relabels holder i's
    label y as i K + y, so one count of any rows, shape (rows of the stack,
    k K), holds holder i's counts as the view `reshape(-1, k, K)[:, i]`. One
    record per live leaf, keyed by its (plan index, side) path, holds the
    leaf's rows (positions in the binning, of `position_dtype`, holder by holder and in
    row order within a holder), their counts and, once asked for, each
    holder's bounds in the rows and every holder's gains. A split's children
    are cut from their evicted parent's record. If its counts say the split
    sends none or all of its rows left, the full child is that record and
    the empty child the pool's one read-only empty record, which holds
    nothing of the parent. Otherwise one code comparison and `np.compress`
    split the rows, and only the smaller child is counted: the larger one's
    counts are the parent's minus those. Any other miss replays the path
    from the root. In the learner's query order the live leaves partition
    the rows, so the pool holds each row once, in 4 bytes.

    Entity i draws from the substream ("entity", i) of `rng`; with `rng`
    None, as on the single machine, whose strategies draw for it, none does.
    """

    def __init__(self, binned: BinnedFeatures, criterion: Criterion, k: int = 1, holders=None,
                 rng: RandomSource | None = None):
        # Entities answer split ids into this plan's class.
        self.plan, self.criterion = binned.plan, criterion
        self.k, self.n_classes = k, binned.n_classes
        if k > 1:
            labels = holders.astype(np.min_scalar_type(k * self.n_classes - 1)) * self.n_classes + binned.labels
            binned = BinnedFeatures(self.plan, labels, binned.codes, k * self.n_classes)
        self.binned = binned
        self.transport = LocalTransport()
        self.entities = [Entity(i, self, None if rng is None else rng.substream("entity", i))
                         for i in range(self.k)]
        self._leaves: dict = {}  # live leaf path -> _Leaf
        none = np.arange(0, dtype=position_dtype(self.binned.n))
        self._empty = _Leaf(none, self.binned.cumulative(none))  # every empty leaf's record
        self._empty.counts.flags.writeable = False
        self._last = (None, None)  # the path object last asked about, and its leaf

    @classmethod
    def from_shards(cls, shards, rng: RandomSource, splits, criterion: Criterion) -> "EntityPool":
        """The pool of `LabeledDataset` shards of one label set, shard i
        held by holder i: the shards are joined and binned once, against a
        plan of the splitting class `splits`."""
        n_classes = {shard.n_classes for shard in shards}
        if len(n_classes) != 1:
            raise InvalidParameterError("a pool needs shards of one label set")
        features = np.concatenate([shard.features for shard in shards])
        joined = LabeledDataset(features, np.concatenate([shard.labels for shard in shards]), *n_classes)
        holders = np.repeat(np.arange(len(shards)), [shard.n for shard in shards])
        return cls(SplitPlan(splits).bin(joined), criterion, len(shards), holders, rng)

    def ask_all(self, ledger: PrivacyLedger, kind: str, path, budget, depth, leaf_id,
                splits=None) -> list[Response]:
        """Ask every entity one query about the leaf at `path`. Split objects
        enter the pool only here: a (split, side) path or split candidates are
        named by plan index once per query; an index outside the class raises."""
        path = tuple(path)
        if any(isinstance(split, SplitFunction) for split, _ in path):
            on_path, sides = zip(*path)
            path = tuple(zip(self.plan.index_of(on_path).tolist(), sides))
        if splits is not None and not isinstance(splits, np.ndarray):
            splits = self.plan.index_of(splits)
        named = [h for h, _ in path] + ([] if splits is None else [splits.min(initial=0), splits.max(initial=0)])
        if not all(0 <= h < len(self.plan.splits) for h in named):
            raise InvalidParameterError("a path or a candidate names an index outside the splitting class")
        budget = budget if isinstance(budget, Fraction) else Fraction(budget)
        query = Query(kind, path, budget, depth, leaf_id, splits, charge=budget)
        if kind == "leaf_count":
            # Count sensitivity 1 at budget alpha_leaf/2 -> Lap(2/alpha_leaf).
            query.scale = 1.0 / float(budget)
        elif kind == "label_counts":
            # LM per label with the noise parameter doubled relative to the
            # single-machine RNM labeling scale 2/budget; the per-label
            # charge budget/(2K) keeps the leaf total at budget/2.
            query.scale = distributed_label_scale(self.n_classes, budget)
            query.charge = budget / (2 * self.n_classes)
        elif kind == "joint_histogram":
            # Per-cell Lap(3|H'|/alpha): cells of one histogram partition the
            # shard (parallel), histograms compose sequentially, so the |H'|
            # histograms cost alpha/3 in total.
            query.scale, query.charge = noisy_counts_cell_scale(len(query.candidates), budget), budget / 3
        return [self.transport.send(entity, query, ledger) for entity in self.entities]

    def leaf(self, path: tuple) -> "_Leaf":
        """The record of the leaf at `path`, a tuple of (plan index, side)
        pairs. It stays cached until the leaf is cut. The k holders of one
        query ask with one path object, which is answered without hashing
        the path again."""
        last_path, last = self._last
        if path is last_path:
            return last
        leaf = self._leaves.get(path)
        if leaf is None:
            parent = self._leaves.pop(path[:-1], None) if path else None
            leaf = self._replay(path) if parent is None else self._cut(path, parent)
        self._last = (path, leaf)
        return leaf

    def _cut(self, path: tuple, parent: "_Leaf") -> "_Leaf":
        """The leaf at `path`, cut with its sibling from their evicted parent."""
        index, side = path[-1]
        # Rows on side 0: the sum of the split's left stack row.
        left = int(parent.counts[self.plan.stack_rows[index, 0]].sum())
        if left in (0, parent.rows.size):
            # The split separates no rows: the full child is the parent.
            children = [parent, self._empty] if left else [self._empty, parent]
        else:
            right = self.binned.goes_right(index, parent.rows)
            children = [_Leaf(np.compress(~right, parent.rows), None),
                        _Leaf(np.compress(right, parent.rows), None)]
            # Count the smaller child; the larger one's counts are the
            # parent's minus those, computed in the evicted parent's array.
            small = int(children[1].rows.size < children[0].rows.size)
            children[small].counts = self.binned.cumulative(children[small].rows)
            parent.counts -= children[small].counts
            children[1 - small].counts = parent.counts
        self._leaves[path] = children[side]
        self._leaves[path[:-1] + ((index, 1 - side),)] = children[1 - side]
        return children[side]

    def _replay(self, path: tuple) -> "_Leaf":
        holder = self.binned.labels // self.n_classes
        rows = np.argsort(holder, kind="stable").astype(position_dtype(self.binned.n))
        for index, side in path:
            right = self.binned.goes_right(index, rows)
            rows = np.compress(right if side else ~right, rows)
        leaf = self._leaves[path] = _Leaf(rows, self.binned.cumulative(rows))
        return leaf

    def bounds(self, leaf: "_Leaf") -> list:
        """The k + 1 positions in `leaf.rows` where each holder's rows start,
        and the end: prefix sums of the holders' row counts, read off the
        stack row that counts every label."""
        if leaf.bounds is None:
            sizes = leaf.counts[self.plan.total_row].reshape(self.k, self.n_classes).sum(axis=1)
            leaf.bounds = [0] + np.cumsum(sizes).tolist()
        return leaf.bounds

    def gains(self, leaf: "_Leaf") -> np.ndarray:
        """Exact gains of the full splitting class on each holder's rows of
        the leaf, shape (k, |H|), from one gather of every holder's tables
        and one `gain_from_counts` call, worked out once per leaf."""
        if leaf.gains is None:
            tables = split_count_tables(self.binned, leaf.rows, self.plan.indices, leaf.counts)
            tables = tables.reshape(len(self.plan.indices), self.k, self.n_classes, 2).transpose(1, 0, 2, 3)
            leaf.gains = gain_from_counts(tables, self.criterion)
        return leaf.gains


class _Leaf:
    """One live leaf's record in an `EntityPool`. Its rows are an array of
    their own, never a view that would keep an evicted parent's alive."""

    __slots__ = ("rows", "counts", "bounds", "gains")

    def __init__(self, rows: np.ndarray, counts: np.ndarray):
        self.rows = rows
        self.counts = counts
        self.bounds = None
        self.gains = None


# ---------------------------------------------------------------------------
# Distributed PrivateSplit implementations
# ---------------------------------------------------------------------------


def noisy_counts_split(pool: EntityPool, leaf: Node, alpha, candidates, ledger: PrivacyLedger):
    """Each entity publishes per-split noisy joint histograms; the coordinator
    sums them, sanitizes, and picks the split with the largest estimated gain.

    Charges at most alpha per entity (alpha/3 under the joint-histogram-only
    accounting). The candidates are an array of plan indices; the chosen
    index and its estimated gain are returned, ties breaking to the first.
    """
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    if len(candidates) == 0:
        raise InvalidParameterError("candidate split set must be nonempty")
    responses = pool.ask_all(ledger, "joint_histogram", leaf.path, alpha, leaf.budget_depth,
                             leaf.node_id, splits=candidates)
    aggregated = np.sum([resp.payload["cells"] for resp in responses], axis=0)
    sanitized = np.clip(aggregated, 0.0, None)
    gains = gain_from_counts(sanitized, pool.criterion)
    index = int(np.argmax(gains))
    return int(candidates[index]), float(gains[index])


def local_rnm_split(pool: EntityPool, leaf: Node, alpha, ledger: PrivacyLedger):
    """Two-phase distributed split selection.

    Phase 1: each entity spends alpha/2 running RNM over the full splitting
    class on its own shard, publishing only its locally-best split id.
    Phase 2: NoisyCounts over those k candidates (duplicates retained, so the
    phase-2 noise scales with k, not |H|) with the remaining alpha/2. An
    entity with too few rows answers a random candidate and marks its
    response `"fallback": True`.
    """
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    half = Fraction(alpha) / 2
    responses = pool.ask_all(ledger, "local_best_split", leaf.path, half, leaf.budget_depth, leaf.node_id)
    candidates = np.array([resp.payload["hid"] for resp in responses], dtype=np.intp)
    return noisy_counts_split(pool, leaf, half, candidates, ledger)


# ---------------------------------------------------------------------------
# Strategies: the learner's private queries about one leaf
# ---------------------------------------------------------------------------


class ExactStrategy:
    """The non-private baseline: all data is a pool of one holder, and every
    query is answered exactly from its leaf records, with no noise and no
    charges.

    split() returns the plan index of largest exact gain (ties to the
    lowest) and that gain, weight() the exact fraction of rows in the leaf,
    and labels() each leaf's majority label (ties and empty leaves to the
    lowest index). Through `dp_topdown` this is the greedy top-down learner
    with the private learner's node cap, gain threshold and weight filter.
    """

    def __init__(self, binned: BinnedFeatures, criterion: Criterion):
        self.pool = EntityPool(binned, criterion)
        self.entity = self.pool.entities[0]

    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        gains = self.entity.gains(leaf.path)
        best = int(np.argmax(gains))
        return best, float(gains[best])

    def weight(self, leaf: Node, budget, ledger: PrivacyLedger) -> float:
        rows, _ = self.entity.leaf_rows(leaf.path)
        return rows.size / self.pool.binned.n

    def labels(self, leaves: list, budget, ledger: PrivacyLedger) -> list:
        return [int(np.argmax(self.entity.label_counts(self.entity.leaf_rows(leaf.path)[1])))
                for leaf in leaves]


class SingleMachineRNMSplitter:
    """All data on one machine: a pool of one holder, charged under the
    global ledger scope.

    split() runs Report Noisy Max over the exact gains of the full splitting
    class, returns (its plan index, the noisy gain) and charges the full alpha;
    a leaf with fewer than MIN_LEAF_ROWS rows raises DegenerateLeafError
    without a charge. weight() runs `estimate_weight` on the leaf's exact
    row count, and labels() `rnm_labels` on the exact label counts of all
    leaves at once. Splits, weights and labels each draw from their own
    substream of `rng`.
    """

    def __init__(self, binned: BinnedFeatures, criterion: Criterion, rng: RandomSource):
        self.pool = EntityPool(binned, criterion)
        self.entity = self.pool.entities[0]
        self._split_rng = rng.substream("split")
        self._weight_rng = rng.substream("weight")
        self._label_rng = rng.substream("label")

    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        rows, _ = self.entity.leaf_rows(leaf.path)
        index, noisy_gain = self.entity.rnm_split(leaf.path, rows.size, alpha, self._split_rng)
        ledger.charge(Scope(GLOBAL_SCOPE, "split", depth=leaf.budget_depth, leaf=leaf.node_id), alpha)
        return index, noisy_gain

    def weight(self, leaf: Node, budget, ledger: PrivacyLedger) -> float:
        scope = Scope(GLOBAL_SCOPE, "weight", depth=leaf.budget_depth, leaf=leaf.node_id)
        rows, _ = self.entity.leaf_rows(leaf.path)
        return estimate_weight(rows.size, self.pool.binned.n, budget, self._weight_rng, ledger, scope)

    def labels(self, leaves: list, budget, ledger: PrivacyLedger) -> list:
        counts = np.array([self.entity.label_counts(self.entity.leaf_rows(leaf.path)[1]) for leaf in leaves])
        scopes = [Scope(GLOBAL_SCOPE, "label", leaf=leaf.node_id) for leaf in leaves]
        return rnm_labels(counts, budget, self._label_rng, ledger, scopes)


class DistributedStrategy:
    """Weights and labels from the k entities of a pool. Subclasses add the
    split query over the pool's splitting class and criterion; the
    coordinator only ever sees noisy aggregates."""

    def __init__(self, pool: EntityPool):
        self.pool = pool

    def weight(self, leaf: Node, budget, ledger: PrivacyLedger) -> float:
        """Per-entity noisy counts (`budget` each, half the leaf's allowance,
        parallel across entities), summed and divided by the public |S|."""
        responses = self.pool.ask_all(ledger, "leaf_count", leaf.path, budget, leaf.budget_depth, leaf.node_id)
        return float(sum(resp.payload["count"] for resp in responses)) / self.pool.binned.n

    def labels(self, leaves: list, budget, ledger: PrivacyLedger) -> list:
        """Per leaf, one label-counts query to every entity and the argmax of
        the summed noisy counts; ties and empty leaves resolve to the lowest
        label index."""
        chosen = []
        for leaf in leaves:
            responses = self.pool.ask_all(ledger, "label_counts", leaf.path, budget, None, leaf.node_id)
            chosen.append(int(np.argmax(np.sum([resp.payload["counts"] for resp in responses], axis=0))))
        return chosen


class NoisyCountsSplitter(DistributedStrategy):
    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        return noisy_counts_split(self.pool, leaf, alpha, self.pool.plan.indices, ledger)


class LocalRNMSplitter(DistributedStrategy):
    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        return local_rnm_split(self.pool, leaf, alpha, ledger)


def train_accuracy(tree: DecisionTree, pool: EntityPool) -> float:
    """Accuracy of a tree learned through `pool` on the rows it holds,
    without routing a row: labeling asked about every final leaf, so each
    leaf's record is cached, and its label counts say how many of its rows
    carry the leaf's label, in the column of that label for every holder.
    It equals `1 - tree_error(tree, train)` bit for bit, `train` being the
    union of the holders' rows."""
    n, total, n_classes = pool.binned.n, pool.plan.total_row, pool.n_classes
    correct = sum(
        int(pool.leaf(leaf.path).counts[total, leaf.label::n_classes].sum()) for leaf in tree.leaves()
    )
    return 1.0 - (n - correct) / n
