import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptree import split_strategies
from dptree.data_io import build_splitting_class, partition, synthetic_tree_dataset
from dptree.dp_core import (
    DegenerateLeafError,
    InvalidParameterError,
    PrivacyLedger,
    RandomSource,
    Scope,
    report_noisy_max,
    sample_laplace,
    zero_noise,
)
from dptree.split_strategies import (
    Entity,
    EntityPool,
    LocalRNMSplitter,
    LocalTransport,
    NoisyCountsSplitter,
    SingleMachineRNMSplitter,
    distributed_label_scale,
    local_rnm_split,
    noisy_counts_cell_scale,
    noisy_counts_split,
    rnm_score_sensitivity,
)
from dptree.dp_topdown import DPTopDownConfig, dp_topdown
from dptree.tree_learning import (
    Criterion,
    DecisionTree,
    LabeledDataset,
    Node,
    SplitFunction,
    SplitPlan,
    gain_from_counts,
    split_count_tables,
)


def grid_splits(d=2, count=7):
    return [
        SplitFunction(threshold=(r + 1) / (count + 1), feature=j)
        for j in range(d)
        for r in range(count)
    ]


def planted_dataset(rng, n=2000):
    X = rng.uniform(size=(n, 2))
    y = np.where(X[:, 0] <= 0.5, X[:, 1] > 0.25, X[:, 1] > 0.75).astype(int)
    return LabeledDataset(X, y, 2)


def shard(dataset, k, seed, stream=()):
    """The k shards of `dataset` that `partition` deals with a seeded source."""
    holders = partition(dataset.n, k, RandomSource(seed, stream))
    return [dataset.subset(np.flatnonzero(holders == i)) for i in range(k)]


def exact_gains(dataset, splits, criterion=Criterion.ENTROPY):
    plan = SplitPlan(splits)
    tables = split_count_tables(plan.bin(dataset), np.arange(dataset.n), plan.indices)
    return gain_from_counts(tables, criterion)


ROOT = Node(0, 0)  # charged under depth 1


def rnm_root_split(dataset, alpha, splits, rng, ledger):
    """SingleMachineRNMSplitter at the root."""
    return SingleMachineRNMSplitter(SplitPlan(splits).bin(dataset), Criterion.ENTROPY, rng).split(
        ROOT, alpha, ledger)


def make_pool(dataset, k, splits, seed=0):
    return EntityPool.from_shards(
        shard(dataset, k, seed), RandomSource(seed, ("pool",)), splits, Criterion.ENTROPY)


class RecordingTransport(LocalTransport):
    """A transport that also keeps `(entity id, query, payload)` for every
    message it sends, with the payload's arrays and the query's candidate
    indices as lists, so that records compare with `==`."""

    def __init__(self):
        self.sent = []

    def send(self, entity, query, ledger):
        response = super().send(entity, query, ledger)
        payload = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in response.payload.items()}
        if query.candidates is not None:
            query = dataclasses.replace(query, candidates=query.candidates.tolist())
        self.sent.append((entity.entity_id, query, payload))
        return response


def recorded(pool):
    """`pool` with a RecordingTransport in place of its own."""
    pool.transport = RecordingTransport()
    return pool


class TestScales:
    def test_rnm_entropy_scale_example(self):
        # RNM adds Lap(2 * sensitivity / alpha); at m=1024, alpha=1 the
        # entropy scale is 20 lg(m) / m = 0.195313.
        sens = rnm_score_sensitivity(Criterion.ENTROPY, 1024)
        assert 2.0 * sens / 1.0 == pytest.approx(0.195313, abs=1e-6)

    def test_gini_and_rootgini_scales(self):
        assert 2 * rnm_score_sensitivity(Criterion.GINI, 50) == pytest.approx(2 * 20.0 / 50)
        # Root Gini has no proven bound, so RNM refuses it at any leaf size.
        for m in (2, 50):
            with pytest.raises(InvalidParameterError, match="root-gini"):
                rnm_score_sensitivity(Criterion.ROOT_GINI, m)

    def test_small_leaf_rejected(self):
        with pytest.raises(DegenerateLeafError):
            rnm_score_sensitivity(Criterion.ENTROPY, 2)

    def test_noisy_counts_cell_scale(self):
        assert noisy_counts_cell_scale(100, 1.0) == pytest.approx(300.0)
        # LocalRNM phase 2 runs k=4 slots at alpha/2 instead of |H|=100
        assert noisy_counts_cell_scale(4, 0.5) == pytest.approx(24.0)
        assert noisy_counts_cell_scale(100, 0.5) == pytest.approx(600.0)

    def test_distributed_label_scale_doubles_rnm(self):
        budget = 0.8
        assert distributed_label_scale(2, budget) == pytest.approx(2 * (2 / budget))


class TestSingleMachineRNM:
    def test_zero_noise_returns_exact_argmax(self):
        ds = planted_dataset(RandomSource(1))
        splits = grid_splits()
        ledger = PrivacyLedger(1.0)
        with zero_noise():
            chosen, gain = rnm_root_split(ds, 0.5, splits, RandomSource(2), ledger)
        gains = exact_gains(ds, splits)
        best = int(np.argmax(gains))
        assert chosen == best
        assert gain == pytest.approx(float(gains[best]), rel=1e-12)
        assert ledger.effective_cost() == Fraction(1, 2)
        assert [entry.scope for entry in ledger.entries] == [Scope(None, "split", depth=1, leaf=0)]

    def test_perfect_split_found_reliably(self):
        rng = RandomSource(3)
        n = 100_000
        X = rng.uniform(size=(n, 2))
        y = (X[:, 0] > 0.5).astype(int)
        ds = LabeledDataset(X, y, 2)
        splits = [SplitFunction(threshold=0.5, feature=0)] + [
            SplitFunction(threshold=t, feature=1) for t in (0.2, 0.4, 0.6, 0.8)
        ]
        hits = 0
        splitter = SingleMachineRNMSplitter(SplitPlan(splits).bin(ds), Criterion.ENTROPY, RandomSource(4))
        for _ in range(300):
            chosen, _ = splitter.split(ROOT, 1.0, PrivacyLedger(1.0))
            hits += splits[chosen].feature == 0
        assert hits == 300  # noise scale ~0.0033 vs gain gap ~1

    def test_degenerate_leaf_raises_without_charge(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.array([0, 1]), 2)
        ledger = PrivacyLedger(1.0)
        with pytest.raises(DegenerateLeafError):
            rnm_root_split(ds, 1.0, [SplitFunction(threshold=0.5, feature=0)], RandomSource(0), ledger)
        assert len(ledger.entries) == 0

    @pytest.mark.parametrize("noise", [True, False], ids=["noise", "zero-noise"])
    def test_labels_equal_one_release_per_leaf(self, noise):
        # One (leaves, K) release draws the same uniforms, in the same order,
        # as one RNM release per leaf on the same stream, and charges each
        # leaf its budget in leaf order. The budget is small enough that the
        # noise decides most labels.
        rng = RandomSource(8)
        X = rng.uniform(size=(600, 2))
        ds = LabeledDataset(X, np.asarray(rng.integers(0, 3, size=600)), 3)
        splits = grid_splits(d=2, count=3)
        tree = DecisionTree(SplitPlan(splits))
        left, right = tree.split_leaf(tree.root, 1)
        tree.split_leaf(left, 4)
        tree.split_leaf(right, 0)  # separates no rows: one leaf is empty
        tree.split_leaf(right.right, 5)
        leaves, budget = tree.leaves(), Fraction(1, 500)
        strategy = SingleMachineRNMSplitter(SplitPlan(splits).bin(ds), Criterion.ENTROPY, RandomSource(9))
        ledger = PrivacyLedger(1.0)
        with zero_noise(not noise):
            labels = strategy.labels(leaves, budget, ledger)
            stream = RandomSource(9).substream("label")
            exact = [np.bincount(ds.labels[replayed_rows(ds, leaf.path, splits)], minlength=3) for leaf in leaves]
            expected = [report_noisy_max(counts, 1.0, float(budget), stream)[0] for counts in exact]
        assert labels == expected
        assert (labels != [int(np.argmax(counts)) for counts in exact]) == noise
        assert [(entry.scope, entry.budget) for entry in ledger.entries] == [
            (Scope(None, "label", leaf=leaf.node_id), budget) for leaf in leaves]


class TestNoisyCounts:
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_zero_noise_matches_single_machine_on_union(self, k):
        ds = planted_dataset(RandomSource(k + 10), n=1500)
        splits = grid_splits()
        pool = make_pool(ds, k, splits, seed=k)
        ledger = PrivacyLedger(1.0)
        with zero_noise():
            dist_h, dist_j = noisy_counts_split(pool, ROOT, 1.0, pool.plan.indices, ledger)
            single_h, single_j = rnm_root_split(ds, 1.0, splits, RandomSource(0), PrivacyLedger(1.0))
        assert dist_h == single_h
        assert dist_j == pytest.approx(single_j, rel=1e-12)

    def test_zero_noise_invariant_to_sharding(self):
        ds = planted_dataset(RandomSource(30), n=1200)
        splits = grid_splits()
        results = []
        with zero_noise():
            for seed in range(6):
                pool = make_pool(ds, 4, splits, seed=seed)
                results.append(noisy_counts_split(pool, ROOT, 1.0, pool.plan.indices, PrivacyLedger(1.0)))
        assert all(r == results[0] for r in results)

    def test_per_entity_charge_is_third_of_alpha(self):
        ds = planted_dataset(RandomSource(5), n=800)
        splits = grid_splits()
        pool = make_pool(ds, 4, splits)
        ledger = PrivacyLedger(1.0)
        noisy_counts_split(pool, ROOT, Fraction(3, 4), pool.plan.indices, ledger)
        per_entity = {}
        for entry in ledger.entries:
            per_entity[entry.scope.entity] = per_entity.get(entry.scope.entity, 0) + entry.budget
        assert set(per_entity) == {0, 1, 2, 3}
        assert all(charge == Fraction(1, 4) for charge in per_entity.values())
        assert ledger.effective_cost() == Fraction(1, 4) <= Fraction(3, 4)

    def test_split_over_the_class_looks_up_nothing(self, monkeypatch):
        # The strategy's candidates are the plan's own index array: no
        # split of the class is looked up again.
        pool = make_pool(planted_dataset(RandomSource(7), n=600), 3, grid_splits())

        def lookup(self, splits):
            raise AssertionError("a split of the class was looked up again")

        monkeypatch.setattr(SplitPlan, "index_of", lookup)
        index, _ = NoisyCountsSplitter(pool).split(ROOT, 1.0, PrivacyLedger(1.0))
        assert 0 <= index < len(pool.plan.splits)

    def test_aggregate_noise_variance(self):
        # k entities each add Lap(3|H|/alpha) per cell; the summed cell noise
        # has std sqrt(k * 2 * scale^2).
        k, h_size, alpha = 4, 100, 1.0
        empty = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        splits = [SplitFunction(threshold=0.5, feature=0) for _ in range(h_size)]
        pool = EntityPool.from_shards([empty] * k, RandomSource(8), splits, Criterion.ENTROPY)
        ledger = PrivacyLedger(100.0)
        cells = []
        for entity in pool.entities:
            responses = pool.ask_all(ledger, "joint_histogram", (), Fraction(1), 1, 0,
                                     splits=splits)
            cells.append(np.sum([r.payload["cells"] for r in responses], axis=0))
        noise = np.concatenate([c.ravel() for c in cells])
        expected_std = math.sqrt(k * 2 * (3 * h_size / alpha) ** 2)
        assert np.std(noise) == pytest.approx(expected_std, rel=0.05)
        assert abs(np.mean(noise)) < 3 * expected_std / math.sqrt(noise.size)

    def test_dominant_split_wins_with_enough_data(self):
        rng = RandomSource(9)
        n = 200_000
        X = rng.uniform(size=(n, 2))
        y = (X[:, 0] > 0.5).astype(int)
        ds = LabeledDataset(X, y, 2)
        splits = [SplitFunction(threshold=0.5, feature=0)] + [
            SplitFunction(threshold=0.1 + 0.2 * i, feature=1) for i in range(9)
        ]
        pool = make_pool(ds, 4, splits, seed=2)
        hits = 0
        trials = 60
        for _ in range(trials):
            chosen, _ = noisy_counts_split(pool, ROOT, 4.0, pool.plan.indices, PrivacyLedger(4.0))
            hits += splits[chosen].feature == 0
        assert hits >= 0.95 * trials

    def test_sanitizes_summed_cells_before_gain(self):
        ds = planted_dataset(RandomSource(13), n=300)
        splits = grid_splits()
        pool = recorded(make_pool(ds, 3, splits))
        chosen, gain = noisy_counts_split(pool, ROOT, 0.1, pool.plan.indices, PrivacyLedger(1.0))
        summed = np.sum([payload["cells"] for _, _, payload in pool.transport.sent], axis=0)
        assert summed.min() < 0.0  # noise at alpha = 0.1 drives cells negative
        gains = gain_from_counts(np.clip(summed, 0.0, None), Criterion.ENTROPY)
        assert gain == gains[chosen]

    def test_pool_entities_must_agree(self):
        # A pool of shards needs a shard, and its shards one label set: the
        # pool tells holders apart by label.
        ds = planted_dataset(RandomSource(14), n=100)
        splits = grid_splits()
        for shards in ([], [ds, LabeledDataset(ds.features, ds.labels, 3)]):
            with pytest.raises(InvalidParameterError):
                EntityPool.from_shards(shards, RandomSource(0), splits, Criterion.ENTROPY)
        assert EntityPool.from_shards([ds, ds.subset(slice(0, 10))], RandomSource(0), splits, Criterion.ENTROPY).k == 2


class TestLocalRNM:
    def test_zero_noise_k1_matches_single_machine(self):
        ds = planted_dataset(RandomSource(7), n=1000)
        splits = grid_splits()
        pool = EntityPool.from_shards([ds], RandomSource(1), splits, Criterion.ENTROPY)
        with zero_noise():
            local = local_rnm_split(pool, ROOT, 1.0, PrivacyLedger(1.0))
            single = rnm_root_split(ds, 1.0, splits, RandomSource(0), PrivacyLedger(1.0))
        assert local[0] == single[0]
        assert local[1] == pytest.approx(single[1], rel=1e-12)

    def test_zero_noise_k4_is_best_local_optimum_on_union(self):
        splits = grid_splits()
        for seed in range(5):
            ds = planted_dataset(RandomSource(40 + seed), n=1600)
            shards = shard(ds, 4, seed)
            pool = EntityPool.from_shards(shards, RandomSource(seed), splits, Criterion.ENTROPY)
            with zero_noise():
                chosen, gain = local_rnm_split(pool, ROOT, 1.0, PrivacyLedger(1.0))
            # brute force: per-shard best splits, evaluated on union counts
            locals_best = []
            for piece in shards:
                locals_best.append(splits[int(np.argmax(exact_gains(piece, splits)))])
            union_gains = exact_gains(ds, locals_best)
            best = int(np.argmax(union_gains))
            assert splits[chosen] == locals_best[best]
            assert gain == pytest.approx(float(union_gains[best]), rel=1e-12)

    def test_phase2_candidate_set_has_k_slots(self):
        ds = planted_dataset(RandomSource(8), n=1200)
        splits = grid_splits()
        pool = recorded(make_pool(ds, 4, splits))
        with zero_noise():
            local_rnm_split(pool, ROOT, 1.0, PrivacyLedger(1.0))
        histogram_queries = [query for _, query, _ in pool.transport.sent if query.kind == "joint_histogram"]
        assert len(histogram_queries) == 4
        assert all(len(query.candidates) == 4 for query in histogram_queries)

    def test_per_entity_charge_within_alpha(self):
        ds = planted_dataset(RandomSource(9), n=1200)
        splits = grid_splits()
        pool = make_pool(ds, 4, splits)
        ledger = PrivacyLedger(1.0)
        local_rnm_split(pool, ROOT, 1.0, ledger)
        per_entity = {}
        for entry in ledger.entries:
            per_entity[entry.scope.entity] = per_entity.get(entry.scope.entity, 0) + entry.budget
        # phase 1 alpha/2 plus phase 2 (alpha/2)/3
        assert all(charge == Fraction(1, 2) + Fraction(1, 6) for charge in per_entity.values())

    def test_tiny_shard_contributes_random_candidate(self):
        splits = grid_splits()
        big = planted_dataset(RandomSource(10), n=600)
        tiny = LabeledDataset(np.array([[0.5, 0.5]]), np.array([1]), 2)
        pool = recorded(EntityPool.from_shards([big, tiny], RandomSource(3), splits, Criterion.ENTROPY))
        ledger = PrivacyLedger(1.0)
        local_rnm_split(pool, ROOT, 1.0, ledger)
        fallbacks = [entity for entity, _, payload in pool.transport.sent if payload.get("fallback")]
        assert fallbacks == [1]
        # fallback still charges the phase-1 budget
        tiny_charges = [e.budget for e in ledger.entries if e.scope.entity == 1]
        assert Fraction(1, 2) in tiny_charges


class TestDistributedQueries:
    def test_weight_zero_noise_exact(self):
        splits = grid_splits(d=1, count=1)  # x <= 0.5 goes left
        shards = []
        for size in (12, 20, 28, 40):
            # A quarter of each shard lies left of the split.
            features = np.where(np.arange(size) < size // 4, 0.25, 0.75)[:, None]
            shards.append(LabeledDataset(features, np.zeros(size, dtype=int), 2))
        pool = EntityPool.from_shards(shards, RandomSource(5), splits, Criterion.ENTROPY)
        left = Node(1, 1, ((0, 0),))
        with zero_noise():
            weight = NoisyCountsSplitter(pool).weight(left, 0.5, PrivacyLedger(1.0))
        assert weight == pytest.approx(0.25)

    def test_weight_noise_std_and_bias(self):
        splits = grid_splits(d=1, count=1)
        piece = LabeledDataset(np.zeros((250, 1)), np.zeros(250, dtype=int), 2)
        pool = EntityPool.from_shards([piece] * 4, RandomSource(6), splits, Criterion.ENTROPY)
        strategy = NoisyCountsSplitter(pool)
        n, budget, trials = 1000, 0.25, 30_000  # budget: half of alpha_leaf = 0.5
        estimates = np.array([
            strategy.weight(ROOT, budget, PrivacyLedger(1e6)) for _ in range(trials)
        ])
        noise = estimates * n - n
        expected_std = math.sqrt(4 * 2 * (1 / budget) ** 2)
        assert np.std(noise) == pytest.approx(expected_std, rel=0.05)
        assert abs(np.mean(noise)) <= 3 * expected_std / math.sqrt(trials)

    def test_label_counts_zero_noise_and_majority(self):
        splits = grid_splits(d=1, count=1)
        shards = []
        for seed in range(4):
            rng = RandomSource(seed, ("lbl",))
            labels = np.array([0] * 10 + [1] * 5)
            shards.append(LabeledDataset(rng.uniform(size=(15, 1)), labels, 2))
        pool = EntityPool.from_shards(shards, RandomSource(9), splits, Criterion.ENTROPY)
        with zero_noise():
            responses = pool.ask_all(PrivacyLedger(1.0), "label_counts", (), Fraction(1, 2), None, 0)
            (label,) = LocalRNMSplitter(pool).labels([ROOT], Fraction(1, 2), PrivacyLedger(1.0))
        totals = np.sum([resp.payload["counts"] for resp in responses], axis=0)
        assert totals.tolist() == [40.0, 20.0]
        assert label == 0

    def test_label_counts_majority_reliable_with_budget(self):
        splits = grid_splits(d=1, count=1)
        shards = []
        for seed in range(4):
            rng = RandomSource(seed, ("lbl2",))
            labels = np.array([0] * 10 + [1] * 5)
            shards.append(LabeledDataset(rng.uniform(size=(15, 1)), labels, 2))
        pool = EntityPool.from_shards(shards, RandomSource(10), splits, Criterion.ENTROPY)
        strategy = NoisyCountsSplitter(pool)
        hits = 0
        for _ in range(1000):
            hits += strategy.labels([ROOT], Fraction(8), PrivacyLedger(8.0)) == [0]
        assert hits >= 990

    def test_label_charge_is_half_budget_per_leaf(self):
        splits = grid_splits(d=1, count=1)
        ds = LabeledDataset(RandomSource(1).uniform(size=(20, 1)),
                            np.asarray(RandomSource(2).integers(0, 2, size=20)), 2)
        pool = make_pool(ds, 2, splits)
        ledger = PrivacyLedger(1.0)
        NoisyCountsSplitter(pool).labels([Node(7, 0)], Fraction(1, 2), ledger)
        assert ledger.effective_cost() == Fraction(1, 4)


class TestMessageAudit:
    def test_payloads_are_aggregates_only(self):
        ds = planted_dataset(RandomSource(11), n=900)
        splits = grid_splits()
        pool = recorded(make_pool(ds, 3, splits))
        ledger = PrivacyLedger(4.0)
        strategy = LocalRNMSplitter(pool)
        NoisyCountsSplitter(pool).split(ROOT, 1.0, ledger)
        strategy.split(Node(1, 1), 1.0, ledger)
        strategy.weight(ROOT, 0.5, ledger)
        strategy.labels([ROOT], Fraction(1, 2), ledger)
        shard_sizes = {piece.n for piece in shard(ds, 3, 0)}
        assert pool.transport.sent
        for _, _, payload in pool.transport.sent:
            for key, value in payload.items():
                if key == "cells":
                    flat = np.asarray(value)
                    assert flat.shape[-2:] == (2, 2)
                    assert flat.shape[0] <= len(splits)
                elif key == "counts":
                    assert len(value) == 2
                elif key == "count":
                    assert isinstance(value, float)
                elif key == "hid":
                    assert 0 <= value < len(splits)
                elif key == "fallback":
                    assert isinstance(value, bool)
                else:
                    raise AssertionError(f"unexpected payload key {key}")
            # nothing row-shaped ever crosses the boundary
            for value in payload.values():
                size = np.asarray(value).size
                assert size <= len(splits) * 2 * 2
                assert size not in shard_sizes or size <= 4

    def test_log_has_budget_and_kind(self):
        ds = planted_dataset(RandomSource(12), n=300)
        splits = grid_splits()
        pool = recorded(make_pool(ds, 2, splits))
        NoisyCountsSplitter(pool).weight(ROOT, 0.25, PrivacyLedger(1.0))
        sent = pool.transport.sent
        assert [entity for entity, _, _ in sent] == [0, 1]  # one query and its answer per entity
        assert {(query.kind, tuple(payload)) for _, query, payload in sent} == {("leaf_count", ("count",))}
        assert all(query.budget == 0.25 for _, query, _ in sent)


class TestHolderIsolation:
    def test_perturbing_one_shard_changes_only_its_entity(self):
        # Flip the labels of shard j alone: every other entity's answer to
        # each kind of query, at the root and at a child cut from it, stays
        # bit for bit what it was.
        ds, splits, j = planted_dataset(RandomSource(21), n=1500), grid_splits(), 2
        shards = shard(ds, 4, 21)
        flipped = shards[:j] + [LabeledDataset(shards[j].features, 1 - shards[j].labels, 2)] + shards[j + 1:]
        runs = []
        for pieces in (shards, flipped):
            pool = recorded(EntityPool.from_shards(pieces, RandomSource(22), splits, Criterion.ENTROPY))
            ledger = PrivacyLedger(100.0)
            for leaf_id, path in enumerate(((), ((splits[3], 1),))):
                pool.ask_all(ledger, "leaf_count", path, Fraction(1, 4), 1, leaf_id)
                pool.ask_all(ledger, "label_counts", path, Fraction(1, 2), None, leaf_id)
                pool.ask_all(ledger, "joint_histogram", path, Fraction(1), 1, leaf_id, splits=splits)
                pool.ask_all(ledger, "local_best_split", path, Fraction(1), 1, leaf_id)
            runs.append(pool.transport.sent)
        assert len(runs[0]) == len(runs[1]) == 2 * 4 * 4
        changed = set()
        for (entity, query, payload), (other, other_query, other_payload) in zip(*runs):
            assert (entity, query.kind) == (other, other_query.kind)
            if payload != other_payload:
                changed.add((entity, query.kind))
        assert {entity for entity, _ in changed} == {j}
        assert {(j, "label_counts"), (j, "joint_histogram")} <= changed


class TestAskAllBoundary:
    @pytest.mark.parametrize("kind", ["leaf_count", "label_counts", "joint_histogram", "local_best_split"])
    def test_split_objects_ask_as_their_plan_indices(self, kind):
        # `ask_all` is where split objects enter the pool: a (split, side)
        # path and split candidates ask what the equal (index, side) path and
        # index candidates ask, with the same payloads, charges and draws.
        ds, splits = planted_dataset(RandomSource(23), n=900), grid_splits()
        runs = []
        for by_split in (True, False):
            pool, ledger = recorded(make_pool(ds, 3, splits, seed=23)), PrivacyLedger(100.0)
            for path in ((), ((3, 1),), ((3, 1), (9, 0))):
                candidates = None
                if kind == "joint_histogram":
                    candidates = splits[2:7] if by_split else np.arange(2, 7)
                if by_split:
                    path = tuple((splits[index], side) for index, side in path)
                pool.ask_all(ledger, kind, path, Fraction(1, 2), 1, len(path), splits=candidates)
            runs.append((pool.transport.sent, ledger.entries, [entity.rng.uniform() for entity in pool.entities]))
        assert runs[0] == runs[1]
        assert {query.path for _, query, _ in runs[0][0]} == {(), ((3, 1),), ((3, 1), (9, 0))}


def payload_bytes(sent) -> int:
    """Bytes of recorded payloads as the bench counts them: an array's
    float64 cells, and 8 for any other value."""
    return sum(np.asarray(value, dtype=float).nbytes if isinstance(value, list) else 8
               for _, _, payload in sent for value in payload.values())


class TestPaperClaims:
    """The paper's communication and noise claims for LocalRNM against
    NoisyCounts, on the bench's local-rnm-k8 shape: k = 8 holders, |H| = 93
    candidate splits and K = 2 labels, over a small dataset."""

    K, H = 8, 93

    def pool(self):
        ds, _, schema = synthetic_tree_dataset(4000, RandomSource(31), depth=3, label_noise=0.05, thresholds=31)
        splits = build_splitting_class(schema)
        assert (len(splits), ds.n_classes) == (self.H, 2)
        shards = shard(ds, self.K, 32)
        return recorded(EntityPool.from_shards(shards, RandomSource(33), splits, Criterion.ENTROPY))

    def splits_made(self, monkeypatch):
        """The sends and the Laplace scales the entities use for one root
        split of each algorithm at alpha' = 1."""
        made = {}
        for name in ("noisy-counts", "local-rnm"):
            pool, scales = self.pool(), []

            def laplace(scale, rng, size=None):
                scales.append((scale, size))
                return sample_laplace(scale, rng, size)

            monkeypatch.setattr(split_strategies, "sample_laplace", laplace)
            if name == "noisy-counts":
                noisy_counts_split(pool, ROOT, 1.0, pool.plan.indices, PrivacyLedger(8.0))
            else:
                local_rnm_split(pool, ROOT, 1.0, PrivacyLedger(8.0))
            made[name] = (pool.transport.sent, scales)
        return made

    def test_local_rnm_sends_fewer_bytes_per_split(self, monkeypatch):
        # 9(i): NoisyCounts sends k |H| K 2 cells per split; LocalRNM sends
        # k split ids (each with its fallback flag) plus k k K 2 cells.
        k, h = self.K, self.H
        made = self.splits_made(monkeypatch)
        sent = {name: sends for name, (sends, _) in made.items()}
        cells = {name: sum(np.asarray(payload.get("cells", [])).size for _, _, payload in sends)
                 for name, sends in sent.items()}
        ids = {name: sum("hid" in payload for _, _, payload in sends) for name, sends in sent.items()}
        assert (cells["noisy-counts"], ids["noisy-counts"]) == (k * h * 2 * 2, 0)
        assert (cells["local-rnm"], ids["local-rnm"]) == (k * k * 2 * 2, k)
        ratio = Fraction(payload_bytes(sent["noisy-counts"]), payload_bytes(sent["local-rnm"]))
        assert ratio == Fraction(k * h * 2 * 2 * 8, k * (8 + 8) + k * k * 2 * 2 * 8) == Fraction(186, 17)

    def test_local_rnm_cell_noise_is_smaller_by_h_over_2k(self, monkeypatch):
        # 9(ii): NoisyCounts' per-cell scale is 3|H|/alpha'; LocalRNM's
        # phase 2 uses 3k/(alpha'/2), smaller by the ratio |H|/(2k).
        made = self.splits_made(monkeypatch)
        scales = {name: set(drawn) for name, (_, drawn) in made.items()}
        assert scales["noisy-counts"] == {(3.0 * self.H, (self.H, 2, 2))}
        assert scales["local-rnm"] == {(3.0 * self.K / 0.5, (self.K, 2, 2))}
        (noisy, _), (local, _) = scales["noisy-counts"].pop(), scales["local-rnm"].pop()
        assert noisy / local == self.H / (2 * self.K)


def replayed_rows(shard, path, splits):
    """Stateless oracle: follow the path, (index into `splits`, side)
    pairs, from the root over every shard row."""
    rows = np.arange(shard.n)
    for index, side in path:
        rows = rows[splits[index].evaluate(shard.features, rows) == side]
    return rows


def fresh_tables(dataset, rows, splits):
    """Stateless oracle: each split's joint table, counted row by row."""
    tables = np.zeros((len(splits), dataset.n_classes, 2))
    for table, split in zip(tables, splits):
        np.add.at(table, (dataset.labels[rows], split.evaluate(dataset.features, rows)), 1.0)
    return tables


def random_tree_paths(data, splits):
    """The path of every node of a random tree over `splits`, of (index,
    side) pairs; children follow their parent."""
    paths = [()]
    for _ in range(data.draw(st.integers(0, 6))):
        parent = data.draw(st.sampled_from(paths))
        index = data.draw(st.integers(0, len(splits) - 1))
        paths += [parent + ((index, 0),), parent + ((index, 1),)]
    return paths


def random_pool(data, ds, splits):
    """A pool of a drawn number of shards of `ds`, as `partition` deals
    them (so some may be empty), and the shards."""
    shards = shard(ds, data.draw(st.integers(1, 5)), data.draw(st.integers(0, 9)), ("shards",))
    return EntityPool.from_shards(shards, RandomSource(0), splits, Criterion.ENTROPY), shards


def pool_rows(pool):
    """Every row the pool's live leaves hold, sorted."""
    return np.sort(np.concatenate([leaf.rows for leaf in pool._leaves.values()]))


def pool_of_one(ds, splits):
    """The single machine's pool: one holder, whose binning is `ds`'s own."""
    return EntityPool(SplitPlan(splits).bin(ds), Criterion.ENTROPY)


class TestEntityRowCache:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cached_rows_equal_root_replay(self, data):
        # Besides the grid, two splits outside the data's range, which send
        # every row of any leaf to one side; a grid split does the same to
        # a leaf already cut on its side of it.
        splits = grid_splits(d=2, count=3)
        splits += [SplitFunction(threshold=-1.0, feature=0), SplitFunction(threshold=2.0, feature=1)]
        n = data.draw(st.integers(0, 60))
        ds = planted_dataset(RandomSource(data.draw(st.integers(0, 9))), n=n)
        pool, shards = random_pool(data, ds, splits)
        paths = random_tree_paths(data, splits)
        offsets = np.cumsum([0] + [piece.n for piece in shards])
        asked = st.tuples(st.integers(0, len(shards) - 1), st.sampled_from(paths))
        for i, path in data.draw(st.lists(asked, max_size=25)):
            entity, piece = pool.entities[i], shards[i]
            rows, counts = entity.leaf_rows(path)
            replay = replayed_rows(piece, path, splits)
            # Pool positions: the shard's offset plus positions in the shard.
            assert np.array_equal(rows - offsets[i], replay)
            assert np.array_equal(counts, SplitPlan(splits).bin(piece).cumulative(replay))
            expected = gain_from_counts(fresh_tables(piece, replay, splits), Criterion.ENTROPY)
            assert np.array_equal(entity.gains(path), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pool_of_holders_answers_as_the_pool_of_their_shards(self, data):
        # A run's pool labels the rows of one binning with their holders and
        # shares its codes; `from_shards` joins copies of the shards those
        # holders deal. Every record, bound, answer, draw and charge is the
        # same; a leaf's positions differ only by the map from each shard's
        # rows to the binning's.
        splits = grid_splits(d=2, count=3) + [SplitFunction(threshold=-1.0, feature=0)]
        n, k = data.draw(st.integers(0, 60)), data.draw(st.integers(1, 5))
        ds = planted_dataset(RandomSource(data.draw(st.integers(0, 9))), n=n)
        holders = partition(n, k, RandomSource(data.draw(st.integers(0, 9))))
        members = [np.flatnonzero(holders == i) for i in range(k)]
        binned = SplitPlan(splits).bin(ds)
        dealt = EntityPool(binned, Criterion.ENTROPY, k, holders, RandomSource(3))
        joined = EntityPool.from_shards([ds.subset(rows) for rows in members], RandomSource(3), splits,
                                        Criterion.ENTROPY)
        assert all(ours is theirs for ours, theirs in zip(dealt.binned.codes, binned.codes, strict=True))
        offsets = np.cumsum([0] + [rows.size for rows in members])
        ledgers = PrivacyLedger(1000), PrivacyLedger(1000)
        for path in random_tree_paths(data, splits):
            leaves = dealt.leaf(path), joined.leaf(path)
            assert dealt.bounds(leaves[0]) == joined.bounds(leaves[1])
            assert np.array_equal(dealt.gains(leaves[0]), joined.gains(leaves[1]))
            for i in range(k):
                (rows, counts), (theirs, their_counts) = (pool.entities[i].leaf_rows(path) for pool in (dealt, joined))
                assert np.array_equal(rows, members[i][theirs - offsets[i]])
                assert np.array_equal(counts, their_counts)
            for kind, splits_asked in (("leaf_count", None), ("label_counts", None),
                                       ("joint_histogram", splits[:3]), ("local_best_split", None)):
                answers = [pool.ask_all(ledger, kind, path, Fraction(1, 4), 1, 0, splits=splits_asked)
                           for pool, ledger in zip((dealt, joined), ledgers)]
                for ours, theirs in zip(*answers, strict=True):
                    assert ours.payload.keys() == theirs.payload.keys()
                    assert all(np.array_equal(ours.payload[key], theirs.payload[key]) for key in ours.payload)
        assert ledgers[0].entries == ledgers[1].entries

    @pytest.mark.parametrize("k", [1, 3])
    def test_split_that_separates_no_rows_reuses_the_parent(self, monkeypatch, k):
        # x0 <= 0.75 sends every row of the leaf x0 <= 0.5 left, and x0 <=
        # 0.25 every row of the leaf x0 > 0.5 right. Such a cut compares no
        # codes and counts nothing: its full child is the parent's record,
        # rows and gains included, and its empty child counts no rows.
        ds, splits = planted_dataset(RandomSource(5), n=500), grid_splits(d=2, count=3)
        pool = pool_of_one(ds, splits) if k == 1 else make_pool(ds, k, splits, seed=5)
        parents = (((1, 0),), ((1, 1),))
        records = []
        for path in ((),) + parents:
            for entity in pool.entities:
                entity.gains(path)
            records.append(pool.leaf(path))

        def refuse(*args):
            raise AssertionError("a cut that separates no rows compared or counted rows")

        monkeypatch.setattr(pool.binned, "goes_right", refuse)
        monkeypatch.setattr(pool.binned, "cumulative", refuse)
        for parent_path, parent, index, full_side in zip(parents, records[1:], (2, 0), (0, 1)):
            rows, gains = parent.rows, parent.gains
            full_path, empty_path = parent_path + ((index, full_side),), parent_path + ((index, 1 - full_side),)
            for entity in pool.entities:
                entity.leaf_rows(full_path)
                entity.leaf_rows(empty_path)
            full, empty = pool.leaf(full_path), pool.leaf(empty_path)
            assert full.rows is rows and pool.gains(full) is gains
            assert empty.rows.size == 0 and empty.counts.shape == full.counts.shape and not empty.counts.any()
            for entity, piece in zip(pool.entities, shard(ds, k, 5) if k > 1 else [ds]):
                assert np.array_equal(entity.gains(full_path), gains[entity.entity_id])
                held, counts = entity.leaf_rows(empty_path)
                assert held.size == 0 and not counts.any()
                assert replayed_rows(piece, full_path, splits).size == replayed_rows(piece, parent_path, splits).size

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cached_counts_equal_a_fresh_count(self, data):
        # Three classes; values on the threshold grid and off it, so that
        # block means land on it too.
        grid = (0.25, 0.5, 0.75)
        n = data.draw(st.integers(0, 60))
        value = st.one_of(st.sampled_from(grid), st.floats(0.0, 1.0, width=32))
        X = np.array(data.draw(st.lists(value, min_size=2 * n, max_size=2 * n)), dtype=float)
        y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=int)
        ds = LabeledDataset(X.reshape(n, 2), y, 3)
        splits = [SplitFunction(threshold=t, feature=j) for j in range(2) for t in grid]
        splits += [SplitFunction(threshold=t, block=(0, 1)) for t in grid]
        pool, shards = random_pool(data, ds, splits)
        paths = random_tree_paths(data, splits)
        asked = st.tuples(st.integers(0, len(shards) - 1), st.sampled_from(paths))
        for i, path in data.draw(st.lists(asked, max_size=25)):
            entity, piece = pool.entities[i], shards[i]
            rows, counts = entity.leaf_rows(path)
            tables = split_count_tables(pool.binned, rows, pool.plan.indices, counts)
            expected = fresh_tables(piece, replayed_rows(piece, path, splits), splits)
            assert np.array_equal(tables, expected)
            # The gains worked out once for all holders are each holder's own.
            assert np.array_equal(entity.gains(path), gain_from_counts(expected, Criterion.ENTROPY))

    def test_cut_counts_only_the_smaller_child(self, monkeypatch):
        ds, splits = planted_dataset(RandomSource(5), n=500), grid_splits(d=2, count=3)
        pool = pool_of_one(ds, splits)
        entity, counted = pool.entities[0], []
        count = pool.binned.cumulative
        monkeypatch.setattr(pool.binned, "cumulative", lambda rows: counted.append(rows.size) or count(rows))
        # The first cut's smaller child is its left side (x0 <= 0.25), the
        # second cut's its right side (x1 > 0.75).
        right = ((0, 1),)
        for path in ((), right, right + ((5, 0),)):
            entity.leaf_rows(path)
        smaller = (((0, 0),), right + ((5, 1),))
        assert counted == [ds.n] + [replayed_rows(ds, path, splits).size for path in smaller]
        assert counted[1] < ds.n / 2 and counted[2] < (ds.n - counted[1]) / 2
        for path in pool._leaves:
            rows, counts = entity.leaf_rows(path)
            tables = split_count_tables(pool.binned, rows, pool.plan.indices, counts)
            assert np.array_equal(tables, fresh_tables(ds, replayed_rows(ds, path, splits), splits))
        assert len(counted) == 3  # serving cached leaves counts nothing again

    def test_pool_cut_counts_only_the_pooled_smaller_child(self, monkeypatch):
        ds, splits = planted_dataset(RandomSource(5), n=500), grid_splits(d=2, count=3)
        shards = shard(ds, 3, 5)
        pool = EntityPool.from_shards(shards, RandomSource(0), splits, Criterion.ENTROPY)
        counted = []
        count = pool.binned.cumulative
        monkeypatch.setattr(pool.binned, "cumulative",
                            lambda rows: counted.append(rows.size) or count(rows))
        right = ((0, 1),)
        for path in ((), right, right + ((5, 0),)):
            for entity in pool.entities:
                entity.leaf_rows(path)
        # One count per leaf for all three holders: the root, then each
        # cut's smaller child over the pooled rows.
        smaller = (((0, 0),), right + ((5, 1),))
        assert counted == [ds.n] + [replayed_rows(ds, path, splits).size for path in smaller]
        for path in pool._leaves:
            for entity, piece in zip(pool.entities, shards):
                rows, counts = entity.leaf_rows(path)
                tables = split_count_tables(pool.binned, rows, pool.plan.indices, counts)
                assert np.array_equal(tables, fresh_tables(piece, replayed_rows(piece, path, splits), splits))
        assert len(counted) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_holder_labels_past_eight_bits(self, data):
        # 12 labels over 24 holders, some empty: the pool's k K = 288 labels
        # and its (code, label) keys outgrow uint8. Each holder's counts and
        # gains are still a fresh count of its own shard, bit for bit.
        grid = (0.25, 0.5, 0.75)
        n = data.draw(st.integers(0, 150))
        X = np.array(data.draw(st.lists(st.sampled_from(grid + (0.1, 0.6, 0.9)), min_size=2 * n, max_size=2 * n)))
        y = np.array(data.draw(st.lists(st.integers(0, 11), min_size=n, max_size=n)), dtype=int)
        ds = LabeledDataset(X.reshape(n, 2), y, 12)
        splits = [SplitFunction(threshold=t, feature=j) for j in range(2) for t in grid]
        shards = shard(ds, 24, data.draw(st.integers(0, 9)), ("shards",))
        for i in data.draw(st.sets(st.integers(0, 23), min_size=1, max_size=6)):
            shards[i] = ds.subset(np.arange(0))
        pool = EntityPool.from_shards(shards, RandomSource(0), splits, Criterion.ENTROPY)
        assert pool.binned.n_classes == 288 and pool.binned.labels.dtype == np.uint16
        offsets = np.cumsum([0] + [piece.n for piece in shards])
        paths = random_tree_paths(data, splits)
        asked = st.tuples(st.integers(0, 23), st.sampled_from(paths))
        for i, path in data.draw(st.lists(asked, min_size=1, max_size=25)):
            entity, piece = pool.entities[i], shards[i]
            rows, counts = entity.leaf_rows(path)
            replay = replayed_rows(piece, path, splits)
            assert np.array_equal(rows - offsets[i], replay)
            assert np.array_equal(counts, SplitPlan(splits).bin(piece).cumulative(replay))
            assert np.array_equal(entity.label_counts(counts), np.bincount(piece.labels[replay], minlength=12))
            expected = fresh_tables(piece, replay, splits)
            assert np.array_equal(split_count_tables(pool.binned, rows, pool.plan.indices, counts), expected)
            assert np.array_equal(entity.gains(path), gain_from_counts(expected, Criterion.ENTROPY))
        assert all(keys.dtype == np.uint16 for keys in pool.binned._count_keys())

    def test_a_dropped_pool_is_freed_at_once(self):
        # Entities refer to their pool weakly, so a pool and the rows it
        # holds go with its last reference, not at a later pass of the
        # cycle collector.
        ds, splits = planted_dataset(RandomSource(6), n=100), grid_splits(d=2, count=3)
        pool = make_pool(ds, 3, splits)
        pool.ask_all(PrivacyLedger(8), "leaf_count", (), Fraction(1), 1, 0)
        freed = weakref.ref(pool)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del pool
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_out_of_class_candidate_raises_with_cached_counts(self):
        # Split objects enter the pool only through `ask_all`, which names
        # them by plan index and refuses one outside the class, and refuses
        # an index outside the class rather than wrap or overrun it.
        ds, splits = planted_dataset(RandomSource(6), n=100), grid_splits(d=2, count=3)
        pool = make_pool(ds, 2, splits)
        stranger = SplitFunction(threshold=0.3, feature=0)
        outside = (-1, len(splits))
        for candidates in ([stranger], splits[:-1] + [stranger], *(np.array([0, h]) for h in outside)):
            with pytest.raises(InvalidParameterError):
                pool.ask_all(PrivacyLedger(8), "joint_histogram", (), Fraction(1), 1, 0, splits=candidates)
        for path in (((splits[0], 1), (stranger, 0)), *(((0, 1), (h, 0)) for h in outside)):
            with pytest.raises(InvalidParameterError):
                pool.ask_all(PrivacyLedger(8), "leaf_count", path, Fraction(1), 1, 0)
        ledger = PrivacyLedger(8)
        pool.ask_all(ledger, "joint_histogram", ((len(splits) - 1, 0),), Fraction(1), 1, 0,
                     splits=np.array([0, len(splits) - 1]))
        assert ledger.entries

    def test_evicted_parent_requeried(self):
        splits = grid_splits(d=2, count=3)
        ds = planted_dataset(RandomSource(2), n=200)
        pool = pool_of_one(ds, splits)
        entity = pool.entities[0]
        left, right = ((1, 0),), ((1, 1),)
        for path in ((), left, (), right, left + ((4, 1),), left, ()):
            rows, _ = entity.leaf_rows(path)
            assert np.array_equal(rows, replayed_rows(ds, path, splits))

    def test_learner_query_order_caches_each_row_once(self):
        ds, splits = planted_dataset(RandomSource(3), n=3000), grid_splits()
        pool = make_pool(ds, 3, splits, seed=3)
        single = SingleMachineRNMSplitter(SplitPlan(splits).bin(ds), Criterion.ENTROPY, RandomSource(3))
        config = DPTopDownConfig(alpha=8.0, max_nodes=12)
        for strategy in (LocalRNMSplitter(pool), single):
            tree, _, _ = dp_topdown(strategy, config)
            assert tree.internal_count >= 3
            # One pool holds every holder's rows, each once.
            assert np.array_equal(pool_rows(strategy.pool), np.arange(ds.n))

    @pytest.mark.parametrize("k", [1, 3])
    def test_live_leaves_hold_each_row_in_four_bytes(self, k):
        # An empty child holds no view of its parent's positions, so no
        # evicted record's array outlives it, and positions are 32-bit.
        ds, splits = planted_dataset(RandomSource(3), n=3000), grid_splits()
        if k == 1:
            strategy = SingleMachineRNMSplitter(SplitPlan(splits).bin(ds), Criterion.ENTROPY, RandomSource(3))
        else:
            strategy = LocalRNMSplitter(make_pool(ds, k, splits, seed=3))
        dp_topdown(strategy, DPTopDownConfig(alpha=8.0, max_nodes=64))
        records = strategy.pool._leaves.values()
        assert any(leaf.rows.size == 0 for leaf in records)
        bases = {id(base): base.nbytes for base in (leaf.rows if leaf.rows.base is None else leaf.rows.base
                                                    for leaf in records)}
        assert sum(bases.values()) <= 4 * ds.n

    @pytest.mark.parametrize("maker", [SingleMachineRNMSplitter, NoisyCountsSplitter, LocalRNMSplitter])
    def test_learner_run_caches_only_live_leaves(self, maker):
        ds, splits = planted_dataset(RandomSource(7), n=3000), grid_splits()
        if maker is SingleMachineRNMSplitter:
            strategy = maker(SplitPlan(splits).bin(ds), Criterion.ENTROPY, RandomSource(7))
        else:
            strategy = maker(make_pool(ds, 3, splits, seed=7))
        tree, _, _ = dp_topdown(strategy, DPTopDownConfig(alpha=8.0, max_nodes=12))
        live = {leaf.path for leaf in tree.leaves()}
        assert len(live) >= 4
        assert len(strategy.pool._leaves) <= len(live)
        assert set(strategy.pool._leaves) <= live

    @pytest.mark.parametrize("maker", [NoisyCountsSplitter, LocalRNMSplitter])
    def test_learner_run_identical_to_stateless_entities(self, maker):
        class StatelessEntity(Entity):
            """Replays every path over its float shard `piece`, binned on its
            own, and answers every query, gains included, from that replay
            alone."""

            def leaf_rows(self, path):
                rows = replayed_rows(self.piece, path, splits)
                return rows, self.binned.cumulative(rows)

            def gains(self, path):
                rows, counts = self.leaf_rows(path)
                return gain_from_counts(split_count_tables(self.binned, rows, self.binned.plan.indices, counts),
                                        self.pool.criterion)

        ds, splits = planted_dataset(RandomSource(4), n=2500), grid_splits()
        runs = []
        for stateless in (False, True):
            pieces = shard(ds, 4, 4)
            pool = recorded(EntityPool.from_shards(pieces, RandomSource(4), splits, Criterion.ENTROPY))
            if stateless:
                # The same holders and noise streams, answering from replays.
                for i, (entity, piece) in enumerate(zip(pool.entities, pieces)):
                    reference = StatelessEntity(i, pool, entity.rng)
                    reference.piece, reference.binned = piece, SplitPlan(splits).bin(piece)
                    pool.entities[i] = reference
            config = DPTopDownConfig(alpha=4.0, max_nodes=16)
            tree, ledger, _ = dp_topdown(maker(pool), config)
            runs.append((tree.to_dict(), ledger.entries, pool.transport.sent))
            if stateless:
                assert pool._leaves == {}  # the reference never read the pool's records
        assert runs[0] == runs[1]
        assert len(runs[0][2]) > 50
