import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptree.dp_core import (
    DegenerateLeafError,
    InvalidParameterError,
    PrivacyLedger,
    ProtocolError,
    RandomSource,
    Scope,
    zero_noise,
)
from dptree.split_strategies import (
    Entity,
    EntityPool,
    LeafRef,
    LocalRNMSplitter,
    LocalTransport,
    NoisyCountsSplitter,
    SingleMachineRNMSplitter,
    distributed_label_counts,
    distributed_label_scale,
    distributed_weight_estimate,
    local_rnm_split,
    noisy_counts_cell_scale,
    noisy_counts_split,
    rnm_score_sensitivity,
)
from dptree.dp_topdown import DPTopDownConfig, dp_topdown
from dptree.tree_learning import (
    BinnedFeatures,
    Criterion,
    LabeledDataset,
    SplitFunction,
    gain_from_counts,
    split_count_tables,
)


def grid_splits(d=2, count=7):
    return [
        SplitFunction(threshold=(r + 1) / (count + 1), feature=j, hid=j * count + r)
        for j in range(d)
        for r in range(count)
    ]


def planted_dataset(rng, n=2000):
    X = rng.uniform(size=(n, 2))
    y = np.where(X[:, 0] <= 0.5, X[:, 1] > 0.25, X[:, 1] > 0.75).astype(int)
    return LabeledDataset(X, y, 2)


def shard(dataset, k, seed):
    assign = np.asarray(RandomSource(seed).integers(0, k, size=dataset.n))
    return [dataset.subset(np.flatnonzero(assign == i)) for i in range(k)]


def exact_gains(dataset, splits, criterion=Criterion.ENTROPY):
    tables = split_count_tables(BinnedFeatures(dataset, splits), np.arange(dataset.n), splits)
    return gain_from_counts(tables, criterion)


def rnm_root_split(dataset, alpha, splits, rng, ledger):
    """SingleMachineRNMSplitter at the root, charged under depth 1."""
    splitter = SingleMachineRNMSplitter(dataset, splits, Criterion.ENTROPY)
    root = LeafRef(0, 0, 1, indices=np.arange(dataset.n))
    return splitter.split(root, alpha, 0.01, rng, ledger)


def make_pool(dataset, k, splits, seed=0, transport=None):
    return EntityPool.from_shards(
        shard(dataset, k, seed), RandomSource(seed, ("pool",)), splits, Criterion.ENTROPY,
        transport=transport,
    )


class TestScales:
    def test_rnm_entropy_scale_example(self):
        # RNM adds Lap(2 * sensitivity / alpha); at m=1024, alpha=1 the
        # entropy scale is 20 lg(m) / m = 0.195313.
        sens = rnm_score_sensitivity(Criterion.ENTROPY, 1024)
        assert 2.0 * sens / 1.0 == pytest.approx(0.195313, abs=1e-6)

    def test_gini_and_rootgini_scales(self):
        assert 2 * rnm_score_sensitivity(Criterion.GINI, 50) == pytest.approx(2 * 20.0 / 50)
        assert 2 * rnm_score_sensitivity(Criterion.ROOT_GINI, 50) == pytest.approx(2 * 10.0 / 50)

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
        assert chosen == splits[best]
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
        mech_rng = RandomSource(4)
        splitter = SingleMachineRNMSplitter(ds, splits, Criterion.ENTROPY)
        root = LeafRef(0, 0, 1, indices=np.arange(n))
        for _ in range(300):
            chosen, _ = splitter.split(root, 1.0, 0.01, mech_rng, PrivacyLedger(1.0))
            hits += chosen.feature == 0
        assert hits == 300  # noise scale ~0.0033 vs gain gap ~1

    def test_degenerate_leaf_raises_without_charge(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.array([0, 1]), 2)
        ledger = PrivacyLedger(1.0)
        with pytest.raises(DegenerateLeafError):
            rnm_root_split(ds, 1.0, [SplitFunction(threshold=0.5, feature=0)], RandomSource(0), ledger)
        assert len(ledger.entries) == 0


class TestNoisyCounts:
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_zero_noise_matches_single_machine_on_union(self, k):
        ds = planted_dataset(RandomSource(k + 10), n=1500)
        splits = grid_splits()
        pool = make_pool(ds, k, splits, seed=k)
        ledger = PrivacyLedger(1.0)
        with zero_noise():
            dist_h, dist_j = noisy_counts_split(
                pool, (), 1.0, 0.01, Criterion.ENTROPY, splits, ledger, depth=1, leaf_id=0
            )
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
                results.append(
                    noisy_counts_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits,
                                       PrivacyLedger(1.0), depth=1, leaf_id=0)
                )
        assert all(r == results[0] for r in results)

    def test_per_entity_charge_is_third_of_alpha(self):
        ds = planted_dataset(RandomSource(5), n=800)
        splits = grid_splits()
        pool = make_pool(ds, 4, splits)
        ledger = PrivacyLedger(1.0)
        noisy_counts_split(pool, (), Fraction(3, 4), 0.01, Criterion.ENTROPY, splits, ledger,
                           depth=1, leaf_id=0)
        per_entity = {}
        for entry in ledger.entries:
            per_entity[entry.scope.entity] = per_entity.get(entry.scope.entity, 0) + entry.budget
        assert set(per_entity) == {0, 1, 2, 3}
        assert all(charge == Fraction(1, 4) for charge in per_entity.values())
        assert ledger.effective_cost() == Fraction(1, 4) <= Fraction(3, 4)

    def test_aggregate_noise_variance(self):
        # k entities each add Lap(3|H|/alpha) per cell; the summed cell noise
        # has std sqrt(k * 2 * scale^2).
        k, h_size, alpha = 4, 100, 1.0
        empty = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        splits = [SplitFunction(threshold=0.5, feature=0, hid=i) for i in range(h_size)]
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
        splits = [SplitFunction(threshold=0.5, feature=0, hid=0)] + [
            SplitFunction(threshold=0.1 + 0.2 * i, feature=1, hid=1 + i) for i in range(9)
        ]
        pool = make_pool(ds, 4, splits, seed=2)
        hits = 0
        trials = 60
        for _ in range(trials):
            chosen, _ = noisy_counts_split(pool, (), 4.0, 0.1, Criterion.ENTROPY, splits,
                                           PrivacyLedger(4.0), depth=1, leaf_id=0)
            hits += chosen.feature == 0
        assert hits >= 0.95 * trials

    def test_entity_failure_aborts(self):
        ds = planted_dataset(RandomSource(6), n=400)
        splits = grid_splits()
        transport = LocalTransport()
        pool = make_pool(ds, 3, splits, transport=transport)
        transport.failed.add(1)
        with pytest.raises(ProtocolError):
            noisy_counts_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits,
                               PrivacyLedger(1.0), depth=1, leaf_id=0)


class TestLocalRNM:
    def test_zero_noise_k1_matches_single_machine(self):
        ds = planted_dataset(RandomSource(7), n=1000)
        splits = grid_splits()
        pool = EntityPool.from_shards([ds], RandomSource(1), splits, Criterion.ENTROPY)
        with zero_noise():
            local = local_rnm_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits,
                                    PrivacyLedger(1.0), depth=1, leaf_id=0)
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
                chosen, gain = local_rnm_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits,
                                               PrivacyLedger(1.0), depth=1, leaf_id=0)
            # brute force: per-shard best splits, evaluated on union counts
            locals_best = []
            for piece in shards:
                locals_best.append(splits[int(np.argmax(exact_gains(piece, splits)))])
            union_gains = exact_gains(ds, locals_best)
            best = int(np.argmax(union_gains))
            assert chosen == locals_best[best]
            assert gain == pytest.approx(float(union_gains[best]), rel=1e-12)

    def test_phase2_candidate_set_has_k_slots(self):
        ds = planted_dataset(RandomSource(8), n=1200)
        splits = grid_splits()
        transport = LocalTransport()
        pool = make_pool(ds, 4, splits, transport=transport)
        with zero_noise():
            local_rnm_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits,
                            PrivacyLedger(1.0), depth=1, leaf_id=0)
        histogram_queries = [
            r for r in transport.log if r["direction"] == "query" and r["kind"] == "joint_histogram"
        ]
        assert len(histogram_queries) == 4
        assert all(q["payload_summary"]["splits"] == 4 for q in histogram_queries)

    def test_per_entity_charge_within_alpha(self):
        ds = planted_dataset(RandomSource(9), n=1200)
        splits = grid_splits()
        pool = make_pool(ds, 4, splits)
        ledger = PrivacyLedger(1.0)
        local_rnm_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits, ledger, depth=1, leaf_id=0)
        per_entity = {}
        for entry in ledger.entries:
            per_entity[entry.scope.entity] = per_entity.get(entry.scope.entity, 0) + entry.budget
        # phase 1 alpha/2 plus phase 2 (alpha/2)/3
        assert all(charge == Fraction(1, 2) + Fraction(1, 6) for charge in per_entity.values())

    def test_tiny_shard_contributes_random_candidate(self):
        splits = grid_splits()
        big = planted_dataset(RandomSource(10), n=600)
        tiny = LabeledDataset(np.array([[0.5, 0.5]]), np.array([1]), 2)
        pool = EntityPool.from_shards([big, tiny], RandomSource(3), splits, Criterion.ENTROPY)

        class Stats:
            random_local_candidates = 0

        stats = Stats()
        ledger = PrivacyLedger(1.0)
        local_rnm_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits, ledger,
                        depth=1, leaf_id=0, stats=stats)
        assert stats.random_local_candidates == 1
        # fallback still charges the phase-1 budget
        tiny_charges = [e.budget for e in ledger.entries if e.scope.entity == 1]
        assert Fraction(1, 2) in tiny_charges


class TestDistributedQueries:
    def test_weight_zero_noise_exact(self):
        splits = grid_splits(d=1, count=1)
        shards = []
        for size, seed in ((10, 1), (20, 2), (30, 3), (40, 4)):
            rng = RandomSource(seed, ("w",))
            shards.append(LabeledDataset(rng.uniform(size=(size, 1)), np.zeros(size, dtype=int), 2))
        pool = EntityPool.from_shards(shards, RandomSource(5), splits, Criterion.ENTROPY)
        with zero_noise():
            weight = distributed_weight_estimate(pool, (), 0.5, 400, PrivacyLedger(1.0),
                                                 depth=1, leaf_id=0)
        assert weight == pytest.approx(0.25)

    def test_weight_noise_std_and_bias(self):
        splits = grid_splits(d=1, count=1)
        empty = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        pool = EntityPool.from_shards([empty] * 4, RandomSource(6), splits, Criterion.ENTROPY)
        n, alpha_leaf, trials = 1000, 0.5, 30_000
        estimates = np.array([
            distributed_weight_estimate(pool, (), alpha_leaf, n, PrivacyLedger(1e6),
                                        depth=1, leaf_id=0)
            for _ in range(trials)
        ])
        counts = estimates * n
        expected_std = math.sqrt(4 * 2 * (2 / alpha_leaf) ** 2)
        assert np.std(counts) == pytest.approx(expected_std, rel=0.05)
        assert abs(np.mean(counts)) <= 3 * expected_std / math.sqrt(trials)

    def test_label_counts_zero_noise_and_majority(self):
        splits = grid_splits(d=1, count=1)
        shards = []
        for seed in range(4):
            rng = RandomSource(seed, ("lbl",))
            labels = np.array([0] * 10 + [1] * 5)
            shards.append(LabeledDataset(rng.uniform(size=(15, 1)), labels, 2))
        pool = EntityPool.from_shards(shards, RandomSource(9), splits, Criterion.ENTROPY)
        with zero_noise():
            totals = distributed_label_counts(pool, (), 0.5, PrivacyLedger(1.0), leaf_id=0)
        assert totals.tolist() == [40.0, 20.0]

    def test_label_counts_majority_reliable_with_budget(self):
        splits = grid_splits(d=1, count=1)
        shards = []
        for seed in range(4):
            rng = RandomSource(seed, ("lbl2",))
            labels = np.array([0] * 10 + [1] * 5)
            shards.append(LabeledDataset(rng.uniform(size=(15, 1)), labels, 2))
        pool = EntityPool.from_shards(shards, RandomSource(10), splits, Criterion.ENTROPY)
        hits = 0
        for _ in range(1000):
            totals = distributed_label_counts(pool, (), 8.0, PrivacyLedger(8.0), leaf_id=0)
            hits += int(np.argmax(totals)) == 0
        assert hits >= 990

    def test_label_charge_is_half_budget_per_leaf(self):
        splits = grid_splits(d=1, count=1)
        ds = LabeledDataset(RandomSource(1).uniform(size=(20, 1)),
                            np.asarray(RandomSource(2).integers(0, 2, size=20)), 2)
        pool = make_pool(ds, 2, splits)
        ledger = PrivacyLedger(1.0)
        distributed_label_counts(pool, (), Fraction(1, 2), ledger, leaf_id=7)
        assert ledger.effective_cost() == Fraction(1, 4)


class TestMessageAudit:
    def test_payloads_are_aggregates_only(self):
        ds = planted_dataset(RandomSource(11), n=900)
        splits = grid_splits()
        transport = LocalTransport(record_payloads=True)
        pool = make_pool(ds, 3, splits, transport=transport)
        ledger = PrivacyLedger(4.0)
        noisy_counts_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits, ledger,
                           depth=1, leaf_id=0)
        local_rnm_split(pool, (), 1.0, 0.01, Criterion.ENTROPY, splits, ledger,
                        depth=1, leaf_id=1)
        distributed_weight_estimate(pool, (), 0.5, ds.n, ledger, depth=1, leaf_id=0)
        distributed_label_counts(pool, (), 0.5, ledger, leaf_id=0)
        shard_sizes = {entity.shard.n for entity in pool.entities}
        for record in transport.log:
            if record["direction"] != "response":
                continue
            payload = record["payload"]
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
        transport = LocalTransport()
        pool = make_pool(ds, 2, splits, transport=transport)
        distributed_weight_estimate(pool, (), 0.5, ds.n, PrivacyLedger(1.0), depth=1, leaf_id=0)
        kinds = {(r["direction"], r["kind"]) for r in transport.log}
        assert kinds == {("query", "leaf_count"), ("response", "leaf_count")}
        assert all(r["budget"] == 0.25 for r in transport.log)


def replayed_rows(shard, path):
    """Stateless oracle: follow the path from the root over every shard row."""
    rows = np.arange(shard.n)
    for split, side in path:
        rows = rows[split.evaluate(shard.features, rows) == side]
    return rows


class TestEntityRowCache:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cached_rows_equal_root_replay(self, data):
        splits = grid_splits(d=2, count=3)
        n = data.draw(st.integers(0, 60))
        ds = planted_dataset(RandomSource(data.draw(st.integers(0, 9))), n=n)
        # A random tree: every node's path; children follow their parent.
        paths = [()]
        for _ in range(data.draw(st.integers(0, 6))):
            parent = data.draw(st.sampled_from(paths))
            split = data.draw(st.sampled_from(splits))
            paths += [parent + ((split, 0),), parent + ((split, 1),)]
        queries = data.draw(st.lists(st.sampled_from(paths), max_size=25))
        entity = Entity(0, ds, RandomSource(0), splits, Criterion.ENTROPY)
        for path in queries:
            assert np.array_equal(entity.leaf_rows(path), replayed_rows(ds, path))

    def test_evicted_parent_requeried(self):
        splits = grid_splits(d=2, count=3)
        ds = planted_dataset(RandomSource(2), n=200)
        entity = Entity(0, ds, RandomSource(0), splits, Criterion.ENTROPY)
        left, right = ((splits[1], 0),), ((splits[1], 1),)
        for path in ((), left, (), right, left + ((splits[4], 1),), left, ()):
            assert np.array_equal(entity.leaf_rows(path), replayed_rows(ds, path))

    def test_learner_query_order_caches_each_row_once(self):
        ds, splits = planted_dataset(RandomSource(3), n=3000), grid_splits()
        pool = make_pool(ds, 3, splits, seed=3)
        config = DPTopDownConfig(alpha=8.0, max_nodes=12, seed=3)
        tree, _, _ = dp_topdown(pool, config, LocalRNMSplitter(pool, splits, Criterion.ENTROPY),
                                RandomSource(3))
        assert tree.internal_count >= 3
        for entity in pool.entities:
            cached = np.concatenate(list(entity._rows.values()))
            assert np.array_equal(np.sort(cached), np.arange(entity.shard.n))

    @pytest.mark.parametrize("maker", [NoisyCountsSplitter, LocalRNMSplitter])
    def test_learner_run_identical_to_stateless_entities(self, maker):
        class StatelessEntity(Entity):
            def leaf_rows(self, path):
                return replayed_rows(self.shard, path)

        ds, splits = planted_dataset(RandomSource(4), n=2500), grid_splits()
        runs = []
        for entity_class in (Entity, StatelessEntity):
            transport = LocalTransport(record_payloads=True)
            pool = EntityPool(
                [entity_class(i, piece, RandomSource(4, ("entity", i)), splits, Criterion.ENTROPY)
                 for i, piece in enumerate(shard(ds, 4, 4))],
                transport,
            )
            config = DPTopDownConfig(alpha=4.0, max_nodes=16, seed=4)
            tree, ledger, _ = dp_topdown(pool, config, maker(pool, splits, Criterion.ENTROPY),
                                         RandomSource(4))
            runs.append((tree.to_json(), ledger.entries, transport.log))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) > 100
