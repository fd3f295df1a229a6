"""Strategies for the DP-TopDown loop: the exact non-private baseline,
single-machine RNM, distributed NoisyCounts and distributed LocalRNM, plus
the simulated entity/coordinator message layer they share.

A message is a `Query` to one entity through `LocalTransport.send`, and the
`Response` it gets holds only noisy aggregates; nothing is logged.

Each strategy answers the loop's queries about a leaf, which is its tree
node (`tree_learning.Node`: id, depth and public (split, side) path; see
`dp_topdown`): `split`, `weight` and `label`, and sets `entities`
and their public row count `total_size` when it is made. On a single
machine all data is one `Entity` under the global ledger scope.
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
when it is prepared and hands each entity a row slice of that binning;
`EntityPool.from_shards` bins plain shards itself. An entity's only state
besides its shard is a cache of its live leaves, keyed by the public leaf
path. Each leaf has one record, `(rows, counts)` (`Entity.leaf_rows`): its
rows and their cumulative counts (`BinnedFeatures.cumulative`), from which
every count table of the leaf is one gather. The children of a split are
cut from the parent's cached rows by comparing bin codes, only the smaller
child is counted, the larger one's counts are the parent's minus the
smaller's, and the parent is evicted; any other miss replays the path from
the root and counts its rows. The same record answers labels: a leaf's
label counts are the row of `counts` that counts every label
(`Entity.label_counts`), and after learning, the final leaves' records give
the training accuracy without routing a row (`train_accuracy`).
Counts are exact integers, so the cache releases nothing: it never leaves
the entity, and every answer, noise draw and charge is what a stateless
replay would give. In the learner's query order the live leaves partition
the shard, so the cache holds each shard row at most once, for as long as
the entity lives (one learner run).
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


class Entity:
    """One data holder: a disjoint shard, binned against the public
    splitting class, its own noise stream, and charges recorded under its
    own ledger scope. Only ever reads its own shard, through one cached
    record per live leaf (`leaf_rows`). The single machine is one entity
    with id GLOBAL_SCOPE."""

    def __init__(self, entity_id: int | None, binned: BinnedFeatures, rng: RandomSource | None,
                 criterion: Criterion):
        self.entity_id = entity_id
        self.binned = binned
        self.rng = rng
        self.splits = binned.splits  # public, shared splitting class
        self.criterion = criterion
        self._leaves: dict = {}  # live leaf path -> (its shard rows, their cumulative counts)

    def leaf_rows(self, path) -> tuple:
        """The record `(rows, counts)` of the leaf at `path`, a (split, side)
        sequence of the splitting class: the shard rows that follow the path
        and their cumulative counts (`BinnedFeatures.cumulative`). It stays
        cached until the leaf is cut."""
        path = tuple(path)
        leaf = self._leaves.get(path)
        if leaf is not None:
            return leaf
        parent = path[:-1]
        if path and parent in self._leaves:
            split, _ = path[-1]
            rows, counts = self._leaves.pop(parent)
            right = self.binned.goes_right(split, rows)
            children = (rows[~right], rows[right])
            # Count the smaller child; the larger one's counts are the
            # parent's minus those, computed in the evicted parent's array.
            small = int(children[1].size < children[0].size)
            small_counts = self.binned.cumulative(children[small])
            counts -= small_counts
            self._leaves[parent + ((split, small),)] = (children[small], small_counts)
            self._leaves[parent + ((split, 1 - small),)] = (children[1 - small], counts)
            return self._leaves[path]
        rows = np.arange(self.binned.n)
        for split, side in path:
            right = self.binned.goes_right(split, rows)
            rows = rows[right] if side else rows[~right]
        leaf = self._leaves[path] = (rows, self.binned.cumulative(rows))
        return leaf

    def label_counts(self, counts) -> np.ndarray:
        """Exact label counts of a leaf whose cumulative counts are `counts`:
        the row that counts every label."""
        return counts[self.binned.total_row].astype(float)

    def gains(self, rows, counts) -> np.ndarray:
        """Exact gains of the full splitting class on `rows`, whose
        cumulative counts are `counts`."""
        return gain_from_counts(split_count_tables(self.binned, rows, self.splits, counts), self.criterion)

    def rnm_split(self, rows, counts, budget, rng: RandomSource):
        """Report Noisy Max over `gains(rows, counts)`: (index, noisy gain).
        Raises DegenerateLeafError on fewer than MIN_LEAF_ROWS rows."""
        sensitivity = rnm_score_sensitivity(self.criterion, rows.size)
        return report_noisy_max(self.gains(rows, counts), sensitivity, float(budget), rng)

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
            per_label = query.budget / (2 * k)
            for _ in range(k):
                ledger.charge(self._scope("label", query), per_label)
            return Response({"counts": noisy})

        if query.kind == "joint_histogram":
            candidates = query.splits
            tables = split_count_tables(self.binned, rows, candidates, counts)
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
            hid, _ = self.rnm_split(rows, counts, query.budget, self.rng)
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
    """The k simulated data holders and the transport that asks them."""

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
        query = Query(kind, path, budget, depth, leaf_id, splits)
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
                             leaf.node_id, splits=list(candidates))
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
        self.entities = [self.entity]
        self.total_size = binned.n

    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        gains = self.entity.gains(*self.entity.leaf_rows(leaf.path))
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
        self.entities = [self.entity]
        self.total_size = binned.n
        self._split_rng = rng.substream("split")
        self._weight_rng = rng.substream("weight")
        self._label_rng = rng.substream("label")

    def split(self, leaf: Node, alpha, ledger: PrivacyLedger):
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        rows, counts = self.entity.leaf_rows(leaf.path)
        index, noisy_gain = self.entity.rnm_split(rows, counts, alpha, self._split_rng)
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
        self.entities = pool.entities
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


def train_accuracy(tree: DecisionTree, entities) -> float:
    """Accuracy of a tree learned through `entities` on the rows they hold,
    without routing a row: labeling asked every final leaf of every entity,
    so each leaf's rows are cached, and its label counts say how many of
    them carry the leaf's label. It equals `1 - tree_error(tree, train)` bit
    for bit, `train` being the union of the entities' rows."""
    n = sum(entity.binned.n for entity in entities)
    correct = sum(
        int(entity.label_counts(entity._leaves[leaf.path][1])[leaf.label])
        for leaf in tree.leaves()
        for entity in entities
    )
    return 1.0 - (n - correct) / n
