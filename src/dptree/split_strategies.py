"""PrivateSplit strategies: single-machine RNM, distributed NoisyCounts, and
distributed LocalRNM, plus the simulated entity/coordinator message layer and
the distributed weight and label-count queries.

Each entity draws noise from its own stream and records its budget charge
against its own ledger scope; the coordinator only ever sees noisy
aggregates. An entity's only state besides its shard is a cache of the rows
of its live leaves, keyed by the public leaf path. The children of a split
are cut from the parent's cached rows with one evaluate and the parent is
evicted; any other miss replays the path from the root. The cache releases
nothing: it never leaves the entity, and every answer, noise draw and charge
is what a stateless replay would give. In the learner's query order the live
leaves partition the shard, so the cache holds each shard row at most once,
for as long as the entity lives (one learner run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dp_core import (
    DegenerateLeafError,
    InvalidParameterError,
    ProtocolError,
    PrivacyLedger,
    RandomSource,
    Scope,
    report_noisy_max,
    sample_laplace,
)
from .tree_learning import (
    BinnedFeatures,
    Criterion,
    LabeledDataset,
    gain_from_counts,
    split_count_tables,
)

MIN_LEAF_ROWS = 3  # sensitivity bounds assume 1/m <= 1/e, i.e. m >= 3


@dataclass
class LeafRef:
    """Coordinator-side handle on one leaf during tree construction.

    `indices` binds the leaf to rows of a single-machine dataset; `path` is
    the (split, side) sequence from the root, which is what distributed
    entities use to recompute membership locally. `budget_depth` is the depth
    the charge is budgeted under; the root's split is funded by depth 1.
    """

    leaf_id: int
    depth: int
    budget_depth: int
    indices: np.ndarray | None = None
    path: tuple = ()


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

    Entropy uses 10 lg(m)/m; Gini 20/m; root Gini 10/m. Valid for m >= 3.
    """
    if m < MIN_LEAF_ROWS:
        raise DegenerateLeafError(f"leaf has {m} rows; need >= {MIN_LEAF_ROWS}")
    if criterion is Criterion.ENTROPY:
        return 10.0 * math.log2(m) / m
    if criterion is Criterion.GINI:
        return 20.0 / m
    if criterion is Criterion.ROOT_GINI:
        return 10.0 / m
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
    nonce: int
    params: dict = field(default_factory=dict)


@dataclass
class Response:
    entity_id: int
    nonce: int
    payload: dict


class Entity:
    """One data holder: a disjoint shard, its own noise stream, and charges
    recorded under its own ledger scope. Only ever reads its own shard."""

    def __init__(self, entity_id: int, shard: LabeledDataset, rng: RandomSource,
                 splits, criterion: Criterion):
        self.entity_id = entity_id
        self.shard = shard
        self.rng = rng
        self.splits = splits  # public, shared splitting class
        self.criterion = criterion
        self.binned = BinnedFeatures(shard, splits)
        self._rows: dict = {}  # live leaf path -> its shard rows

    def leaf_rows(self, path) -> np.ndarray:
        """Shard rows that follow `path`, a (split, side) sequence."""
        path = tuple(path)
        rows = self._rows.get(path)
        if rows is not None:
            return rows
        parent = path[:-1]
        if path and parent in self._rows:
            split, _ = path[-1]
            parent_rows = self._rows.pop(parent)
            sides = split.evaluate(self.shard.features, parent_rows)
            for side in (0, 1):
                self._rows[parent + ((split, side),)] = parent_rows[sides == side]
            return self._rows[path]
        rows = np.arange(self.shard.n)
        for split, side in path:
            sides = split.evaluate(self.shard.features, rows)
            rows = rows[sides == side]
        self._rows[path] = rows
        return rows

    def _scope(self, purpose: str, query: Query) -> Scope:
        return Scope(self.entity_id, purpose, depth=query.depth, leaf=query.leaf_id)

    def handle(self, query: Query, ledger: PrivacyLedger) -> Response:
        rows = self.leaf_rows(query.path)
        if query.kind == "leaf_count":
            # Count sensitivity 1 at budget alpha_leaf/2 -> Lap(2/alpha_leaf).
            noisy = float(rows.size) + sample_laplace(1.0 / float(query.budget), self.rng)
            ledger.charge(self._scope("weight", query), query.budget)
            return Response(self.entity_id, query.nonce, {"count": noisy})

        if query.kind == "label_counts":
            k = self.shard.n_classes
            counts = self.shard.label_counts(rows)
            # LM per label with the noise parameter doubled relative to the
            # single-machine RNM labeling scale 2/budget; the per-label charge
            # budget/(2k) keeps the leaf total at budget/2.
            scale = distributed_label_scale(k, query.budget)
            noisy = counts + sample_laplace(scale, self.rng, size=k)
            per_label = query.budget / (2 * k)
            for _ in range(k):
                ledger.charge(self._scope("label", query), per_label)
            return Response(self.entity_id, query.nonce, {"counts": noisy})

        if query.kind == "joint_histogram":
            candidates = query.params["splits"]
            tables = split_count_tables(self.binned, rows, candidates)
            # Per-cell Lap(3|H'|/alpha): cells of one histogram partition the
            # shard (parallel), histograms compose sequentially, so the |H'|
            # histograms cost alpha/3 in total.
            scale = noisy_counts_cell_scale(len(candidates), query.budget)
            noisy = tables + sample_laplace(scale, self.rng, size=tables.shape)
            ledger.charge(self._scope("split", query), query.budget / 3)
            return Response(self.entity_id, query.nonce, {"cells": noisy})

        if query.kind == "local_best_split":
            if rows.size < MIN_LEAF_ROWS:
                # Too few rows for the sensitivity bound; answer with a
                # uniformly random candidate. The branch itself is
                # data-dependent, so the budget is charged regardless.
                hid = int(self.rng.integers(0, len(self.splits)))
                ledger.charge(self._scope("split", query), query.budget)
                return Response(self.entity_id, query.nonce, {"hid": hid, "fallback": True})
            # RNM over the full splitting class on this shard's leaf rows;
            # only the winning index is published, the noisy score is dropped.
            gains = gain_from_counts(split_count_tables(self.binned, rows, self.splits), self.criterion)
            sensitivity = rnm_score_sensitivity(self.criterion, rows.size)
            hid, _ = report_noisy_max(gains, sensitivity, float(query.budget), self.rng)
            ledger.charge(self._scope("split", query), query.budget)
            return Response(self.entity_id, query.nonce, {"hid": hid, "fallback": False})

        raise InvalidParameterError(f"unknown query kind {query.kind!r}")


class LocalTransport:
    """In-process coordinator/entity boundary: send(Query) -> Response.

    Keeps a JSON-able message log for audits. A wire transport can replace
    this without touching strategy code. Entities marked failed raise
    ProtocolError, aborting the surrounding call (no partial aggregation).
    """

    def __init__(self, record_payloads: bool = False):
        self.record_payloads = record_payloads
        self.log: list[dict] = []
        self.failed: set[int] = set()

    @staticmethod
    def _summary(payload: dict) -> dict:
        out = {}
        for key, value in payload.items():
            if isinstance(value, np.ndarray):
                out[key] = {"shape": list(value.shape)}
            else:
                out[key] = {"value_type": type(value).__name__}
        return out

    def send(self, entity: Entity, query: Query, ledger: PrivacyLedger) -> Response:
        self.log.append(
            {
                "direction": "query",
                "entity": entity.entity_id,
                "kind": query.kind,
                "budget": float(query.budget),
                "payload_summary": {"path_len": len(query.path), **{
                    k: (len(v) if isinstance(v, (list, tuple)) else v) for k, v in query.params.items()
                }},
            }
        )
        if entity.entity_id in self.failed:
            raise ProtocolError(f"entity {entity.entity_id} failed to respond")
        response = entity.handle(query, ledger)
        record = {
            "direction": "response",
            "entity": entity.entity_id,
            "kind": query.kind,
            "budget": float(query.budget),
            "payload_summary": self._summary(response.payload),
        }
        if self.record_payloads:
            record["payload"] = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in response.payload.items()
            }
        self.log.append(record)
        return response


class EntityPool:
    """The k simulated data holders plus their shared transport."""

    def __init__(self, entities: list[Entity], transport: LocalTransport | None = None):
        if not entities:
            raise InvalidParameterError("need at least one entity")
        self.entities = sorted(entities, key=lambda e: e.entity_id)
        self.transport = transport if transport is not None else LocalTransport()
        self._nonce = 0

    @classmethod
    def from_shards(cls, shards, rng: RandomSource, splits, criterion: Criterion,
                    transport: LocalTransport | None = None) -> "EntityPool":
        entities = [
            Entity(i, shard, rng.substream("entity", i), splits, criterion)
            for i, shard in enumerate(shards)
        ]
        return cls(entities, transport)

    @property
    def k(self) -> int:
        return len(self.entities)

    @property
    def total_size(self) -> int:
        # Shard sizes are treated as public metadata.
        return sum(entity.shard.n for entity in self.entities)

    @property
    def n_classes(self) -> int:
        return self.entities[0].shard.n_classes

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce

    def ask_all(self, ledger: PrivacyLedger, kind: str, path, budget, depth, leaf_id,
                **params) -> list[Response]:
        responses = []
        for entity in self.entities:
            query = Query(kind, tuple(path), Fraction(budget), depth, leaf_id,
                          self.next_nonce(), dict(params))
            responses.append(self.transport.send(entity, query, ledger))
        return responses


# ---------------------------------------------------------------------------
# Distributed PrivateSplit implementations
# ---------------------------------------------------------------------------


def noisy_counts_split(
    pool: EntityPool,
    path,
    alpha,
    delta,
    criterion: Criterion,
    candidates,
    ledger: PrivacyLedger,
    depth: int | None = None,
    leaf_id: int | None = None,
):
    """Each entity publishes per-split noisy joint histograms; the coordinator
    sums them, sanitizes, and picks the split with the largest estimated gain.

    Charges at most alpha per entity (alpha/3 under the joint-histogram-only
    accounting). Ties break to the lowest candidate index.
    """
    del delta
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    if len(candidates) == 0:
        raise InvalidParameterError("candidate split set must be nonempty")
    responses = pool.ask_all(ledger, "joint_histogram", path, alpha, depth, leaf_id,
                             splits=list(candidates))
    aggregated = np.sum([resp.payload["cells"] for resp in responses], axis=0)
    sanitized = np.clip(aggregated, 0.0, None)
    gains = gain_from_counts(sanitized, criterion)
    index = int(np.argmax(gains))
    return candidates[index], float(gains[index])


def local_rnm_split(
    pool: EntityPool,
    path,
    alpha,
    delta,
    criterion: Criterion,
    splits,
    ledger: PrivacyLedger,
    depth: int | None = None,
    leaf_id: int | None = None,
    stats=None,
):
    """Two-phase distributed split selection.

    Phase 1: each entity spends alpha/2 running RNM over the full splitting
    class on its own shard, publishing only its locally-best split id.
    Phase 2: NoisyCounts over those k candidates (duplicates retained, so the
    phase-2 noise scales with k, not |H|) with the remaining alpha/2.
    """
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    half = Fraction(alpha) / 2
    responses = pool.ask_all(ledger, "local_best_split", path, half, depth, leaf_id)
    candidates = []
    for resp in responses:
        candidates.append(splits[resp.payload["hid"]])
        if resp.payload["fallback"] and stats is not None:
            stats.random_local_candidates += 1
    assert len(candidates) == pool.k
    return noisy_counts_split(pool, path, half, delta, criterion, candidates, ledger,
                              depth=depth, leaf_id=leaf_id)


def distributed_weight_estimate(
    pool: EntityPool,
    path,
    alpha_leaf,
    total_n: int,
    ledger: PrivacyLedger,
    depth: int | None = None,
    leaf_id: int | None = None,
) -> float:
    """Noisy leaf weight from per-entity noisy counts (budget alpha_leaf/2
    each, parallel across entities), summed and divided by the public |S|."""
    if total_n <= 0:
        raise InvalidParameterError("total dataset size must be positive")
    half = Fraction(alpha_leaf) / 2
    responses = pool.ask_all(ledger, "leaf_count", path, half, depth, leaf_id)
    return float(sum(resp.payload["count"] for resp in responses)) / total_n


def distributed_label_counts(
    pool: EntityPool,
    path,
    budget,
    ledger: PrivacyLedger,
    leaf_id: int | None = None,
) -> np.ndarray:
    """Summed per-entity noisy label counts for one leaf."""
    if budget <= 0:
        raise InvalidParameterError(f"budget must be positive, got {budget}")
    responses = pool.ask_all(ledger, "label_counts", path, Fraction(budget), None, leaf_id)
    return np.sum([resp.payload["counts"] for resp in responses], axis=0)


# ---------------------------------------------------------------------------
# Strategy objects satisfying the PrivateSplitter contract
# ---------------------------------------------------------------------------


class SingleMachineRNMSplitter:
    """Report Noisy Max over the exact gains of the full splitting class, on
    one machine.

    split() returns (chosen split, its noisy gain) and charges the full alpha
    under the global scope. delta is not consumed: RNM is pure alpha-DP and
    delta enters only the utility analysis.
    """

    name = "single-rnm"
    distributed = False

    def __init__(self, dataset: LabeledDataset, splits, criterion: Criterion):
        self.splits = splits
        self.criterion = criterion
        self.binned = BinnedFeatures(dataset, splits)

    def split(self, leaf: LeafRef, alpha, delta, rng: RandomSource, ledger: PrivacyLedger):
        del delta
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        sensitivity = rnm_score_sensitivity(self.criterion, leaf.indices.size)
        gains = gain_from_counts(split_count_tables(self.binned, leaf.indices, self.splits), self.criterion)
        index, noisy_gain = report_noisy_max(gains, sensitivity, float(alpha), rng)
        ledger.charge(Scope(None, "split", depth=leaf.budget_depth, leaf=leaf.leaf_id), alpha)
        return self.splits[index], noisy_gain


class NoisyCountsSplitter:
    name = "noisy-counts"
    distributed = True

    def __init__(self, pool: EntityPool, splits, criterion: Criterion):
        self.pool = pool
        self.splits = splits
        self.criterion = criterion

    def split(self, leaf: LeafRef, alpha, delta, rng: RandomSource, ledger: PrivacyLedger):
        del rng  # entity streams supply the noise
        return noisy_counts_split(
            self.pool, leaf.path, alpha, delta, self.criterion, self.splits, ledger,
            depth=leaf.budget_depth, leaf_id=leaf.leaf_id,
        )


class LocalRNMSplitter:
    name = "local-rnm"
    distributed = True

    def __init__(self, pool: EntityPool, splits, criterion: Criterion):
        self.pool = pool
        self.splits = splits
        self.criterion = criterion
        self.random_local_candidates = 0

    def split(self, leaf: LeafRef, alpha, delta, rng: RandomSource, ledger: PrivacyLedger):
        del rng
        return local_rnm_split(
            self.pool, leaf.path, alpha, delta, self.criterion, self.splits, ledger,
            depth=leaf.budget_depth, leaf_id=leaf.leaf_id, stats=self,
        )
