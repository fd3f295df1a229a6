"""Strategies for the DP-TopDown loop: the exact non-private baseline,
single-machine RNM, distributed NoisyCounts and distributed LocalRNM, plus
the simulated entity/coordinator message layer they share.

A message is a `Query` to one entity through `LocalTransport.send`, and the
`Response` it gets holds only noisy aggregates; nothing is logged.

Each strategy answers the loop's queries about a leaf, which is its tree
node (`tree_learning.Node`: id, depth and public (split, side) path; see
`dp_topdown`): `split`, `weight` and `label`, and sets `store` and the
public row count `total_size` when it is made. On a single machine all
data is one `Entity` under the global ledger scope.
`ExactStrategy` answers from its exact rows with no noise and no charges.
`SingleMachineRNMSplitter` answers from the same rows privately: RNM for
splits and labels, the Laplace weight estimate for weights, each drawn from
its own substream. The two distributed strategies query k entities through
the transport and share `weight` (summed noisy counts) and `label` (argmax
of summed noisy label counts); they differ only in `split`.

Each entity is given its shard already binned (`BinnedFeatures`: bin codes,
labels and the row count, no float features), draws noise from its own
stream and records its budget charge against its own ledger scope; the
coordinator only ever sees noisy aggregates. A run bins its dataset once
when it is prepared and deals the entities row slices of that binning;
`EntityPool.from_shards` bins plain shards itself. The pool lays its
entities' shards end to end in one `LeafStore`, and the store keeps one
record per live leaf, keyed by the public leaf path: the leaf's rows and
their cumulative counts, one stack per entity, from which every count
table of the leaf is one gather. An entity reads only its own slice of a
record (`Entity.leaf_rows`): its rows and its counts. So a leaf's rows are
cut and counted once for all k entities, and the gains of the splitting
class once per leaf, and each entity's slice is what it would count from
its shard alone. The same record answers labels: a leaf's label counts are
the row of the counts that counts every label (`Entity.label_counts`), and
after learning, the final leaves' records give the training accuracy
without routing a row (`train_accuracy`). Counts are exact integers, so the
store releases nothing: it never leaves the entities, and every answer,
noise draw and charge is what a stateless replay would give. In the
learner's query order the live leaves partition the rows, so the store
holds each row once, for one learner run.
"""

from __future__ import annotations

import math
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
from .dp_topdown import estimate_weight, rnm_label
from .tree_learning import (
    BinnedFeatures,
    Criterion,
    DecisionTree,
    Node,
    gain_from_counts,
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
    splits: list | None = None  # the candidates of a "joint_histogram" query


@dataclass
class Response:
    payload: dict


class LeafStore:
    """The rows of k data holders as one binning in holder order
    (`BinnedFeatures.pooled`), with one record per live leaf: its rows, as
    store positions in holder order, their cumulative counts, one stack per
    holder (shape (k, rows of the stack, K)), and, once asked for, each
    holder's bounds in the rows and the gains of the splitting class.

    The children of a split are cut from the parent's rows with one code
    comparison; only the smaller child is counted, the larger one's counts
    are the parent's minus those, computed in the evicted parent's array,
    and the parent is evicted. Any other miss replays the path from the root
    and counts its rows. A single machine is the store of one holder, whose
    binning is the dataset's own.
    """

    def __init__(self, shards):
        self.binned = BinnedFeatures.pooled(shards)
        self.k = len(shards)
        self.offsets = np.cumsum([0] + [shard.n for shard in shards]).tolist()
        self._leaves: dict = {}  # live leaf path -> _Leaf
        self._last = (None, None)  # the path object last asked about, and its leaf

    def shard(self, index: int) -> BinnedFeatures:
        """Holder `index`'s rows of the store: views, not copies."""
        if self.k == 1:
            return self.binned
        return self.binned.subset(slice(self.offsets[index], self.offsets[index + 1]))

    def leaf(self, path: tuple) -> "_Leaf":
        """The record of the leaf at `path`, a (split, side) tuple of the
        splitting class. It stays cached until the leaf is cut. The k holders
        of one query ask with one path object, which is answered without
        hashing the path again."""
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
        split, side = path[-1]
        right = self.binned.goes_right(split, parent.rows)
        children = [_Leaf(parent.rows[~right], None), _Leaf(parent.rows[right], None)]
        # Count the smaller child; the larger one's counts are the parent's
        # minus those, computed in the evicted parent's array.
        small = int(children[1].rows.size < children[0].rows.size)
        children[small].counts = self._count(children[small].rows)
        parent.counts -= children[small].counts
        children[1 - small].counts = parent.counts
        self._leaves[path] = children[side]
        self._leaves[path[:-1] + ((split, 1 - side),)] = children[1 - side]
        return children[side]

    def _replay(self, path: tuple) -> "_Leaf":
        rows = np.arange(self.binned.n)
        for split, side in path:
            right = self.binned.goes_right(split, rows)
            rows = rows[right] if side else rows[~right]
        leaf = self._leaves[path] = _Leaf(rows, self._count(rows))
        return leaf

    def _count(self, rows) -> np.ndarray:
        counts = self.binned.cumulative(rows)
        return counts.reshape((self.k,) + counts.shape[-2:])

    def bounds(self, leaf: "_Leaf") -> list:
        """The k + 1 positions in `leaf.rows` where each holder's rows start,
        and the end: prefix sums of the holders' row counts, each the sum of
        the holder's label counts (its stack row that counts every label)."""
        if leaf.bounds is None:
            sizes = leaf.counts[:, self.binned.total_row].sum(axis=1)
            leaf.bounds = [0] + np.cumsum(sizes).tolist()
        return leaf.bounds

    def gains(self, leaf: "_Leaf", criterion: Criterion) -> np.ndarray:
        """Exact gains of the full splitting class for every holder's rows of
        the leaf, shape (k, |H|), worked out once per leaf."""
        if leaf.gains is None:
            tables = split_count_tables(self.binned, leaf.rows, self.binned.splits, leaf.counts)
            leaf.gains = gain_from_counts(tables, criterion)
        return leaf.gains


class _Leaf:
    """One live leaf's record in a `LeafStore`."""

    __slots__ = ("rows", "counts", "bounds", "gains")

    def __init__(self, rows: np.ndarray, counts: np.ndarray):
        self.rows = rows
        self.counts = counts
        self.bounds = None
        self.gains = None


class Entity:
    """One data holder: a disjoint shard, binned against the public
    splitting class, its own noise stream, and charges recorded under its
    own ledger scope. It reads only its own slice of the leaf store it is
    part of (`leaf_rows`). A new entity is the only holder of a store of its
    own; a pool gathers its entities into one store. The single machine is
    one entity with id GLOBAL_SCOPE."""

    def __init__(self, entity_id: int | None, binned: BinnedFeatures, rng: RandomSource | None,
                 criterion: Criterion):
        self.entity_id = entity_id
        self.rng = rng
        self.splits = binned.splits  # public, shared splitting class
        self.criterion = criterion
        self.join(LeafStore([binned]), 0)

    def join(self, store: LeafStore, index: int) -> None:
        """Read from now on from holder `index`'s slice of `store`."""
        self.store = store
        self.index = index
        self.binned = store.shard(index)

    def leaf_rows(self, path) -> tuple:
        """This entity's slice `(rows, counts)` of the leaf at `path`, a
        (split, side) sequence of the splitting class: the store positions of
        its shard rows that follow the path (the store offset of its shard
        plus their positions in the shard) and their cumulative counts
        (`BinnedFeatures.cumulative`)."""
        store = self.store
        leaf = store.leaf(tuple(path))
        if store.k == 1:
            return leaf.rows, leaf.counts[0]
        bounds = store.bounds(leaf)
        return leaf.rows[bounds[self.index]:bounds[self.index + 1]], leaf.counts[self.index]

    def label_counts(self, counts) -> np.ndarray:
        """Exact label counts of a leaf whose cumulative counts are `counts`:
        the row that counts every label."""
        return counts[self.binned.total_row].astype(float)

    def gains(self, path) -> np.ndarray:
        """Exact gains of the full splitting class on this entity's rows of
        the leaf at `path`: its row of the gains the store works out once for
        all holders."""
        store = self.store
        return store.gains(store.leaf(tuple(path)), self.criterion)[self.index]

    def rnm_split(self, path, m: int, budget, rng: RandomSource):
        """Report Noisy Max over `gains(path)` of a leaf of m rows: (index,
        noisy gain). Raises DegenerateLeafError on fewer than MIN_LEAF_ROWS
        rows."""
        sensitivity = rnm_score_sensitivity(self.criterion, m)
        return report_noisy_max(self.gains(path), sensitivity, float(budget), rng)

    def _scope(self, purpose: str, query: Query) -> Scope:
        return Scope(self.entity_id, purpose, depth=query.depth, leaf=query.leaf_id)

    def handle(self, query: Query, ledger: PrivacyLedger) -> Response:
        rows, counts = self.leaf_rows(query.path)
        if query.kind == "leaf_count":
            # Count sensitivity 1 at budget alpha_leaf/2 -> Lap(2/alpha_leaf).
            noisy = float(rows.size) + sample_laplace(1.0 / float(query.budget), self.rng)
            ledger.charge(self._scope("weight", query), query.budget)
            return Response({"count": noisy})

        if query.kind == "label_counts":
            k = self.binned.n_classes
            # LM per label with the noise parameter doubled relative to the
            # single-machine RNM labeling scale 2/budget; the per-label charge
            # budget/(2k) keeps the leaf total at budget/2.
            scale = distributed_label_scale(k, query.budget)
            noisy = self.label_counts(counts) + sample_laplace(scale, self.rng, size=k)
            per_label, scope = query.budget / (2 * k), self._scope("label", query)
            for _ in range(k):
                ledger.charge(scope, per_label)
            return Response({"counts": noisy})

        if query.kind == "joint_histogram":
            candidates = query.splits
            tables = split_count_tables(self.store.binned, rows, candidates, counts)
            # Per-cell Lap(3|H'|/alpha): cells of one histogram partition the
            # shard (parallel), histograms compose sequentially, so the |H'|
            # histograms cost alpha/3 in total.
            scale = noisy_counts_cell_scale(len(candidates), query.budget)
            noisy = tables + sample_laplace(scale, self.rng, size=tables.shape)
            ledger.charge(self._scope("split", query), query.budget / 3)
            return Response({"cells": noisy})

        if query.kind == "local_best_split":
            if rows.size < MIN_LEAF_ROWS:
                # Too few rows for the sensitivity bound; answer with a
                # uniformly random candidate. The branch itself is
                # data-dependent, so the budget is charged regardless.
                hid = int(self.rng.integers(0, len(self.splits)))
                ledger.charge(self._scope("split", query), query.budget)
                return Response({"hid": hid, "fallback": True})
            # Only the winning index is published, the noisy score is dropped.
            hid, _ = self.rnm_split(query.path, rows.size, query.budget, self.rng)
            ledger.charge(self._scope("split", query), query.budget)
            return Response({"hid": hid, "fallback": False})

        raise InvalidParameterError(f"unknown query kind {query.kind!r}")


class LocalTransport:
    """In-process coordinator/entity boundary: send(Query) -> Response, a
    pass-through to `Entity.handle`. It is kept as its own layer so that the
    bench can time every message and tests can substitute a recording
    transport (`pool.transport = ...`), until the message layer folds into
    the strategies (ROADMAP item 4(d))."""

    def send(self, entity: Entity, query: Query, ledger: PrivacyLedger) -> Response:
        return entity.handle(query, ledger)


class EntityPool:
    """The k simulated data holders, gathered into one leaf store, and the
    transport that asks them."""

    def __init__(self, entities: list[Entity]):
        if not entities:
            raise InvalidParameterError("need at least one entity")
        self.entities = sorted(entities, key=lambda e: e.entity_id)
        self.transport = LocalTransport()
        # Entities answer split ids into the splitting class they hold, so
        # the pool's strategies read theirs from the entities.
        self.splits = self.entities[0].splits
        self.criterion = self.entities[0].criterion
        if any(e.splits != self.splits or e.criterion is not self.criterion for e in self.entities):
            raise InvalidParameterError(
                "entities of one pool must share the splitting class and criterion")
        self.store = LeafStore([entity.binned for entity in self.entities])
        for index, entity in enumerate(self.entities):
            entity.join(self.store, index)

    @classmethod
    def from_binned(cls, shards, rng: RandomSource, criterion: Criterion) -> "EntityPool":
        """One entity per binned shard; entity i draws from the substream
        ("entity", i) of `rng`."""
        entities = [
            Entity(i, shard, rng.substream("entity", i), criterion)
            for i, shard in enumerate(shards)
        ]
        return cls(entities)

    @classmethod
    def from_shards(cls, shards, rng: RandomSource, splits, criterion: Criterion) -> "EntityPool":
        """`from_binned` over `LabeledDataset` shards, each binned here
        against the splitting class `splits`."""
        return cls.from_binned([BinnedFeatures(shard, splits) for shard in shards], rng, criterion)

    def ask_all(self, ledger: PrivacyLedger, kind: str, path, budget, depth, leaf_id,
                splits=None) -> list[Response]:
        path = tuple(path)
        if not isinstance(budget, Fraction):
            budget = Fraction(budget)
        # One tuple of candidates per query, which every entity's binning
        # plans once (`BinnedFeatures.plan`).
        query = Query(kind, path, budget, depth, leaf_id, None if splits is None else tuple(splits))
        return [self.transport.send(entity, query, ledger) for entity in self.entities]


# ---------------------------------------------------------------------------
# Distributed PrivateSplit implementations
# ---------------------------------------------------------------------------


def noisy_counts_split(pool: EntityPool, leaf: Node, alpha, candidates, ledger: PrivacyLedger):
    """Each entity publishes per-split noisy joint histograms; the coordinator
    sums them, sanitizes, and picks the split with the largest estimated gain.

    Charges at most alpha per entity (alpha/3 under the joint-histogram-only
    accounting). Ties break to the lowest candidate index.
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
    return candidates[index], float(gains[index])


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
    responses = pool.ask_all(ledger, "local_best_split", leaf.path, half, leaf.budget_depth,
                             leaf.node_id)
    candidates = [pool.splits[resp.payload["hid"]] for resp in responses]
    return noisy_counts_split(pool, leaf, half, candidates, ledger)


# ---------------------------------------------------------------------------
# Strategies: the learner's private queries about one leaf
# ---------------------------------------------------------------------------


class ExactStrategy:
    """The non-private baseline: all data is one entity under the global
    scope, and every query is answered exactly from its cached rows and
    counts, with no noise and no charges.

    split() returns the split of largest exact gain (ties to the lowest
    index) and that gain, weight() the exact fraction of rows in the leaf,
    and label() the majority label (ties and empty leaves to the lowest
    index). Through `dp_topdown` this is the greedy top-down learner with the
    private learner's node cap, gain threshold and weight filter.
    """

    def __init__(self, binned: BinnedFeatures, criterion: Criterion):
        if len(binned.splits) == 0:
            raise InvalidParameterError("splitting class must be nonempty")
        self.entity = Entity(GLOBAL_SCOPE, binned, None, criterion)
        self.store = self.entity.store
        self.total_size = binned.n

    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        gains = self.entity.gains(leaf.path)
        best = int(np.argmax(gains))
        return self.entity.splits[best], float(gains[best])

    def weight(self, leaf: Node, budget, ledger: PrivacyLedger) -> float:
        rows, _ = self.entity.leaf_rows(leaf.path)
        return rows.size / self.total_size

    def label(self, leaf: Node, budget, ledger: PrivacyLedger) -> int:
        _, counts = self.entity.leaf_rows(leaf.path)
        return int(np.argmax(self.entity.label_counts(counts)))


class SingleMachineRNMSplitter:
    """All data on one machine: a single entity under the global ledger scope.

    split() runs Report Noisy Max over the exact gains of the full splitting
    class, returns (chosen split, its noisy gain) and charges the full alpha;
    a leaf with fewer than MIN_LEAF_ROWS rows raises DegenerateLeafError
    without a charge. weight() and label() run `estimate_weight` and
    `rnm_label` on the leaf's exact counts. Splits, weights and labels each
    draw from their own substream of `rng`.
    """

    def __init__(self, binned: BinnedFeatures, criterion: Criterion, rng: RandomSource):
        self.entity = Entity(GLOBAL_SCOPE, binned, None, criterion)
        self.store = self.entity.store
        self.total_size = binned.n
        self._split_rng = rng.substream("split")
        self._weight_rng = rng.substream("weight")
        self._label_rng = rng.substream("label")

    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        rows, _ = self.entity.leaf_rows(leaf.path)
        index, noisy_gain = self.entity.rnm_split(leaf.path, rows.size, alpha, self._split_rng)
        ledger.charge(Scope(GLOBAL_SCOPE, "split", depth=leaf.budget_depth, leaf=leaf.node_id), alpha)
        return self.entity.splits[index], noisy_gain

    def weight(self, leaf: Node, budget, ledger: PrivacyLedger) -> float:
        scope = Scope(GLOBAL_SCOPE, "weight", depth=leaf.budget_depth, leaf=leaf.node_id)
        rows, _ = self.entity.leaf_rows(leaf.path)
        return estimate_weight(rows.size, self.total_size, budget, self._weight_rng, ledger, scope)

    def label(self, leaf: Node, budget, ledger: PrivacyLedger) -> int:
        _, counts = self.entity.leaf_rows(leaf.path)
        scope = Scope(GLOBAL_SCOPE, "label", leaf=leaf.node_id)
        return rnm_label(self.entity.label_counts(counts), budget, self._label_rng, ledger, scope)


class DistributedStrategy:
    """Weights and labels from the k entities of a pool. Subclasses add the
    split query over the pool's splitting class and criterion; the
    coordinator only ever sees noisy aggregates."""

    def __init__(self, pool: EntityPool):
        self.pool = pool
        self.store = pool.store
        # Shard sizes are treated as public metadata.
        self.total_size = sum(entity.binned.n for entity in pool.entities)

    def weight(self, leaf: Node, budget, ledger: PrivacyLedger) -> float:
        """Per-entity noisy counts (`budget` each, half the leaf's allowance,
        parallel across entities), summed and divided by the public |S|."""
        responses = self.pool.ask_all(ledger, "leaf_count", leaf.path, budget,
                                      leaf.budget_depth, leaf.node_id)
        return float(sum(resp.payload["count"] for resp in responses)) / self.total_size

    def label(self, leaf: Node, budget, ledger: PrivacyLedger) -> int:
        """Argmax of the summed per-entity noisy label counts; ties and empty
        leaves resolve to the lowest label index."""
        responses = self.pool.ask_all(ledger, "label_counts", leaf.path, budget, None, leaf.node_id)
        return int(np.argmax(np.sum([resp.payload["counts"] for resp in responses], axis=0)))


class NoisyCountsSplitter(DistributedStrategy):
    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        return noisy_counts_split(self.pool, leaf, alpha, self.pool.splits, ledger)


class LocalRNMSplitter(DistributedStrategy):
    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        return local_rnm_split(self.pool, leaf, alpha, ledger)


def train_accuracy(tree: DecisionTree, store: LeafStore) -> float:
    """Accuracy of a tree learned through `store` on the rows it holds,
    without routing a row: labeling asked about every final leaf, so each
    leaf's record is cached, and its label counts say how many of its rows
    carry the leaf's label. It equals `1 - tree_error(tree, train)` bit for
    bit, `train` being the union of the holders' rows."""
    n, total = store.binned.n, store.binned.total_row
    correct = sum(
        int(store.leaf(leaf.path).counts[:, total, leaf.label].sum()) for leaf in tree.leaves()
    )
    return 1.0 - (n - correct) / n
