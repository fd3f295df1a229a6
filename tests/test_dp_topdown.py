import importlib
import json
import math
from dataclasses import asdict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from dptree.dp_core import (
    BudgetExceededError,
    InvalidParameterError,
    PrivacyLedger,
    RandomSource,
    Scope,
    zero_noise,
)
from dptree.data_io import build_splitting_class, synthetic_tree_dataset
from dptree.dp_topdown import (
    MIN_RELEASE_BUDGET,
    DPTopDownConfig,
    RunStats,
    budget_share,
    dp_topdown,
    estimate_weight,
    label_leaves,
    smallest_share,
)
from dptree.split_strategies import (
    EntityPool,
    ExactStrategy,
    LocalRNMSplitter,
    NoisyCountsSplitter,
    SingleMachineRNMSplitter,
)
from dptree.tree_learning import (
    Criterion,
    DecisionTree,
    LabeledDataset,
    SplitFunction,
    SplitPlan,
    tree_error,
)
from oracle import topdown_nonprivate


def make_dataset(seed=21, n=4000, depth=2):
    ds, truth, schema = synthetic_tree_dataset(n, RandomSource(seed), depth=depth)
    return ds, build_splitting_class(schema)


def single_machine(ds, splits, seed):
    return SingleMachineRNMSplitter(SplitPlan(splits).bin(ds), Criterion.ENTROPY, RandomSource(seed))


def make_pool(ds, k, splits, seed=0):
    assign = np.asarray(RandomSource(seed, ("part",)).integers(0, k, size=ds.n))
    shards = [ds.subset(np.flatnonzero(assign == i)) for i in range(k)]
    return EntityPool.from_shards(shards, RandomSource(seed, ("pool",)), splits, Criterion.ENTROPY)


def split_charges(config):
    """The tree a seeded single-machine run grows under `config`, and the
    sum of its split and weight charges per (depth, leaf)."""
    ds, splits = make_dataset(seed=9, n=3000)
    tree, ledger, _ = dp_topdown(single_machine(ds, splits, 13), config)
    per_depth_leaf: dict = {}
    for entry in ledger.entries:
        if entry.scope.purpose != "label":
            key = (entry.scope.depth, entry.scope.leaf)
            per_depth_leaf[key] = per_depth_leaf.get(key, 0) + entry.budget
    return tree, per_depth_leaf


ONE_SPLIT = [SplitFunction(threshold=0.5, feature=0)]


class TestBudgetSchedules:
    def test_decay_values(self):
        assert budget_share("decay", 1, 512) == Fraction(1, 2)
        assert budget_share("decay", 2, 512) == Fraction(1, 4)

    def test_uniform_values(self):
        for depth in (1, 100, 512):
            assert budget_share("uniform", depth, 512) == Fraction(1, 512)

    def test_uniform_depth_range(self):
        with pytest.raises(InvalidParameterError):
            budget_share("uniform", 17, 16)
        with pytest.raises(InvalidParameterError):
            budget_share("decay", 0, 16)

    def test_totals_within_one(self):
        # Exact rationals: the sum over depths 1..M never exceeds the budget.
        depths = range(1, 513)
        decay = sum((budget_share("decay", depth, 512) for depth in depths), Fraction(0))
        uniform = sum((budget_share("uniform", depth, 512) for depth in depths), Fraction(0))
        assert decay == 1 - Fraction(1, 2**512) < 1
        assert uniform == 1

    def test_smallest_share(self):
        assert smallest_share("decay", 16) == Fraction(1, 2**16)
        assert smallest_share("uniform", 16) == Fraction(1, 16)
        # A float: the smallest subnormal, then 0.0 past it.
        assert smallest_share("decay", 1074) == 5e-324
        assert smallest_share("decay", 2000) == 0.0

    def test_unknown_name(self):
        for share in (lambda: budget_share("golden", 1, 8), lambda: smallest_share("golden", 8),
                      lambda: DPTopDownConfig(1.0, 8, schedule="golden")):
            with pytest.raises(InvalidParameterError, match="unknown budget schedule 'golden'"):
                share()


class TestEstimateWeight:
    def test_zero_noise_exact_fraction(self):
        with zero_noise():
            weight = estimate_weight(50, 200, 0.5, RandomSource(0), PrivacyLedger(1.0),
                                     Scope(None, "weight", depth=1, leaf=0))
        assert weight == 0.25

    def test_noise_scale_matches_formula(self):
        n, budget, trials = 10_000, 0.25, 30_000  # budget: half of alpha_leaf = 0.5
        rng = RandomSource(1)
        ledger = PrivacyLedger(1e9)
        draws = np.array([
            estimate_weight(0, n, budget, rng, ledger, Scope(None, "weight", depth=1, leaf=0))
            for _ in range(trials)
        ])
        scale = 1.0 / (n * budget)  # 4e-4
        assert np.std(draws) == pytest.approx(np.sqrt(2) * scale, rel=0.05)
        assert abs(np.mean(draws)) <= 3 * np.sqrt(2) * scale / np.sqrt(trials)

    def test_charges_half_leaf_budget(self):
        # The learner passes half the leaf's allowance, and that is the charge.
        ledger = PrivacyLedger(1.0)
        estimate_weight(10, 100, Fraction(1, 4) / 2, RandomSource(2), ledger,
                        Scope(None, "weight", depth=2, leaf=3))
        assert ledger.effective_cost() == Fraction(1, 8)

    @pytest.mark.parametrize("budget", [Fraction(1, 2**1100), Fraction(1, 2**1030), 2.0**-1070])
    def test_scale_past_the_floats_refused_before_a_charge(self, budget):
        # 1/(budget |S|) overflows a float: refused, not an OverflowError.
        ledger = PrivacyLedger(1)
        with pytest.raises(InvalidParameterError, match="past the floats"):
            estimate_weight(1, 10, budget, RandomSource(0), ledger, Scope(None, "weight", depth=1, leaf=1))
        assert ledger.entries == []

    def test_largest_float_scale_accepted(self):
        # A scale of 2**1023 is still a float, so the budget is released and charged.
        ledger = PrivacyLedger(1)
        with zero_noise():
            weight = estimate_weight(1, 2, Fraction(1, 2**1022), RandomSource(0), ledger,
                                     Scope(None, "weight", depth=1, leaf=1))
        assert weight == 0.5
        assert [entry.budget for entry in ledger.entries] == [Fraction(1, 2**1022)]


class TestLabelLeaves:
    def test_zero_noise_majority(self):
        ds = LabeledDataset(np.zeros((100, 1)), np.array([0] * 70 + [1] * 30), 2)
        tree = DecisionTree(SplitPlan(ONE_SPLIT))
        with zero_noise():
            label_leaves(tree, single_machine(ds, ONE_SPLIT, 0), 0.5, PrivacyLedger(1.0))
        assert tree.root.label == 0

    def test_lopsided_counts_labeled_reliably(self):
        ds = LabeledDataset(np.zeros((1000, 1)), np.zeros(1000, dtype=int), 2)
        strategy = single_machine(ds, ONE_SPLIT, 1)
        hits = 0
        for _ in range(10_000):
            tree = DecisionTree(strategy.pool.plan)
            label_leaves(tree, strategy, 0.5, PrivacyLedger(1.0))
            hits += tree.root.label == 0
        assert hits >= 9_990  # noise scale 4 against a gap of 1000

    def test_distributed_sums_counts(self):
        shards = [
            LabeledDataset(np.zeros((15, 1)), np.array([0] * 10 + [1] * 5), 2)
            for _ in range(4)
        ]
        pool = EntityPool.from_shards(shards, RandomSource(3), ONE_SPLIT, Criterion.ENTROPY)
        tree = DecisionTree(pool.plan)
        with zero_noise():
            label_leaves(tree, NoisyCountsSplitter(pool), 0.5, PrivacyLedger(1.0))
        assert tree.root.label == 0

    def test_empty_leaf_gets_lowest_label_in_zero_noise(self):
        ds = LabeledDataset(np.full((10, 1), 0.9), np.ones(10, dtype=int), 3)
        split = SplitFunction(threshold=0.95, feature=0)
        tree = DecisionTree(SplitPlan([split]))
        tree.split_leaf(tree.root, 0)
        with zero_noise():
            label_leaves(tree, single_machine(ds, [split], 5), 0.5, PrivacyLedger(1.0))
        left, right = tree.root.left, tree.root.right
        assert left.label == 1  # all rows (0.9 <= 0.95)
        assert right.label == 0  # empty, ties to lowest index


class TestDPTopDown:
    def test_zero_noise_equals_baseline_all_strategies(self):
        ds, splits = make_dataset(seed=31, n=3000)
        config = DPTopDownConfig(alpha=1.0, max_nodes=8)
        baseline = topdown_nonprivate(
            ds, splits, 8, Criterion.ENTROPY, min_gain=0.01, min_weight=config.error / 8
        ).to_dict()
        assert len(baseline["nodes"]) > 5
        exact, ledger, _ = dp_topdown(ExactStrategy(SplitPlan(splits).bin(ds), Criterion.ENTROPY), config)
        assert ledger.entries == []
        with zero_noise():
            single, _, _ = dp_topdown(single_machine(ds, splits, 1), config)
            pool = make_pool(ds, 4, splits)
            counts, _, _ = dp_topdown(NoisyCountsSplitter(pool), config)
            pool1 = EntityPool.from_shards([ds], RandomSource(3), splits, Criterion.ENTROPY)
            local, _, _ = dp_topdown(LocalRNMSplitter(pool1), config)
        assert exact.to_dict() == baseline
        assert single.to_dict() == baseline
        assert counts.to_dict() == baseline
        assert local.to_dict() == baseline

    @pytest.mark.parametrize("schedule_name", ["uniform", "decay"])
    @pytest.mark.parametrize("lpf", [0.1, 0.5, 0.9])
    def test_ledger_within_alpha_exactly(self, schedule_name, lpf):
        ds, splits = make_dataset(seed=7, n=2500)
        config = DPTopDownConfig(
            alpha=1.0, max_nodes=8, leaf_privacy_fraction=lpf,
            schedule=schedule_name,
        )
        _, ledger, _ = dp_topdown(single_machine(ds, splits, 11), config)
        assert ledger.effective_cost() <= ledger.alpha

    def test_overspending_schedule_raises_on_crossing_charge(self, monkeypatch):
        ds, splits = make_dataset(seed=8, n=2000)
        config = DPTopDownConfig(alpha=1.0, max_nodes=6)
        # Fund every depth with the whole split budget, so the run overspends
        # alpha. The package attribute `dptree.dp_topdown` is the learner
        # function, so the module is patched through importlib.
        monkeypatch.setattr(importlib.import_module("dptree.dp_topdown"), "budget_share",
                            lambda schedule, depth, max_nodes: Fraction(1))
        with pytest.raises(BudgetExceededError) as err:
            dp_topdown(single_machine(ds, splits, 12), config)
        entries = err.value.ledger.entries
        replay = PrivacyLedger(config.alpha)
        for entry in entries[:-1]:
            replay.charge(entry.scope, entry.budget)
        with pytest.raises(BudgetExceededError):
            replay.charge(entries[-1].scope, entries[-1].budget)

    def test_depth_charges_bounded_by_schedule(self):
        config = DPTopDownConfig(alpha=2.0, max_nodes=8)
        _, per_depth_leaf = split_charges(config)
        for (depth, _), charge in per_depth_leaf.items():
            assert charge <= config.split_budget * budget_share(config.schedule, depth, config.max_nodes)

    def test_uniform_schedule_funds_each_depth_from_max_nodes(self):
        # B(d) is 1/M of the config's own M at every depth: each leaf's
        # split and weight charges at a depth sum to at most split_budget / 8,
        # and a leaf that was both weighed and scored spends all of it.
        config = DPTopDownConfig(alpha=2.0, max_nodes=8, schedule="uniform")
        tree, per_depth_leaf = split_charges(config)
        assert tree.internal_count > 1
        assert max(per_depth_leaf.values()) == config.split_budget / 8
        assert {depth for depth, _ in per_depth_leaf} == set(range(1, tree.depth + 1))

    def test_single_label_terminates_with_single_leaf(self):
        ds = LabeledDataset(RandomSource(1).uniform(size=(500, 2)), np.zeros(500, dtype=int), 2)
        splits = [SplitFunction(threshold=0.5, feature=0)]
        config = DPTopDownConfig(alpha=100.0, max_nodes=8)
        with zero_noise():
            tree, _, stats = dp_topdown(single_machine(ds, splits, 2), config)
        assert tree.internal_count == 0
        assert stats.pushed_weights == []
        assert tree.root.label == 0

    def test_stats_recorded_and_serialized(self):
        ds, splits = make_dataset(seed=10, n=3000)
        config = DPTopDownConfig(alpha=4.0, max_nodes=8)
        tree, ledger, stats = dp_topdown(single_machine(ds, splits, 14), config)
        assert tree.depth <= tree.internal_count <= 8
        # The tree holds its own depth and size; the stats hold only what it does not.
        assert set(asdict(stats)) == {"ledger_effective_cost", "pushed_weights", "degenerate_splits"}
        assert stats.ledger_effective_cost == float(ledger.effective_cost()) > 0.0
        # Every field is a plain JSON value, so a run record can carry the stats.
        assert RunStats(**json.loads(json.dumps(asdict(stats)))) == stats

    def test_pushed_weights_respect_filter(self):
        ds, splits = make_dataset(seed=11, n=5000)
        config = DPTopDownConfig(alpha=2.0, max_nodes=8, error=0.2)
        _, _, stats = dp_topdown(single_machine(ds, splits, 15), config)
        floor = config.error / config.max_nodes
        assert all(w >= floor for w in stats.pushed_weights)

    def test_same_seed_reproduces_tree(self):
        ds, splits = make_dataset(seed=12, n=2500)
        config = DPTopDownConfig(alpha=1.0, max_nodes=8)
        trees = [
            dp_topdown(single_machine(ds, splits, 99), config)[0].to_dict()
            for _ in range(2)
        ]
        assert trees[0] == trees[1]

    def test_distributed_runs_stay_within_alpha(self):
        ds, splits = make_dataset(seed=13, n=3000)
        for maker in (NoisyCountsSplitter, LocalRNMSplitter):
            pool = make_pool(ds, 4, splits, seed=5)
            config = DPTopDownConfig(alpha=1.0, max_nodes=6)
            _, ledger, stats = dp_topdown(maker(pool), config)
            assert ledger.effective_cost() <= ledger.alpha

    def test_noisy_run_recovers_planted_tree_at_high_alpha(self):
        ds, splits = make_dataset(seed=15, n=50_000)
        config = DPTopDownConfig(alpha=16.0, max_nodes=8)
        errors = []
        for run in range(5):
            tree, _, _ = dp_topdown(single_machine(ds, splits, run), config)
            errors.append(tree_error(tree, SplitPlan(splits).bin(ds)))
        assert np.mean(errors) <= 0.02

    def test_leaf_paths_cover_all_leaves(self):
        ds, splits = make_dataset(seed=16, n=2000)
        binned = SplitPlan(splits).bin(ds)
        tree, _, _ = dp_topdown(ExactStrategy(binned, Criterion.ENTROPY),
                                DPTopDownConfig(alpha=1.0, max_nodes=6))
        assert len(tree.leaves()) == tree.internal_count + 1 >= 4
        for leaf in tree.leaves():
            rows = np.arange(ds.n)
            for index, side in leaf.path:
                rows = rows[splits[index].evaluate(ds.features, rows) == side]
            assert np.array_equal(np.sort(rows), np.flatnonzero(tree.assign(ds.n, binned.goes_right) == leaf.node_id))


class ScriptedStrategy:
    """Answers each query about node id i with scripted values: the split
    gain `gains[i]` and the noisy weight `weights[i]`; it charges nothing."""

    def __init__(self, gains, weights):
        self.gains, self.weights = gains, weights
        self.pool = SimpleNamespace(plan=SplitPlan(ONE_SPLIT), binned=SimpleNamespace(n=1))

    def split(self, leaf, alpha, ledger):
        return 0, self.gains[leaf.node_id]

    def weight(self, leaf, budget, ledger):
        return self.weights[leaf.node_id]

    def labels(self, leaves, budget, ledger):
        return [0] * len(leaves)


def reference_split_order(gains, weights, config):
    """Node ids in the order the learner must split them: each step takes
    the first pushed leaf in a sort by (-priority, push order). The root's
    priority is its gain; a child's is weight x gain, pushed when its weight
    passes the filter and its gain the threshold."""
    live, pushes, order, next_id = [], 0, [], 1
    if gains[0] > config.min_gain:
        live, pushes = [(gains[0], 0, 0)], 1
    while live and len(order) < config.max_nodes:
        live.sort(key=lambda entry: (-entry[0], entry[1]))
        order.append(live.pop(0)[2])
        for child in (next_id, next_id + 1):
            if weights[child] >= config.error / config.max_nodes and gains[child] > config.min_gain:
                live.append((weights[child] * gains[child], pushes, child))
                pushes += 1
        next_id += 2
    return order


class TestSplitOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_splits_in_priority_then_push_order(self, seed):
        # Dyadic gains and weights make many priorities tie exactly (0.5 x 0.5
        # = 0.25 x 1.0); a gain or a weight of 0.0 is never pushed.
        config = DPTopDownConfig(alpha=1.0, max_nodes=12)
        rng = RandomSource(seed)
        size = 2 * config.max_nodes + 1
        gains = [(0.0, 0.25, 0.5, 1.0)[i] for i in rng.integers(0, 4, size=size)]
        weights = [(0.0, 0.25, 0.5, 1.0)[i] for i in rng.integers(0, 4, size=size)]
        tree, _, _ = dp_topdown(ScriptedStrategy(gains, weights), config)
        # The i-th split makes nodes 2i + 1 and 2i + 2, so a split node's
        # first child's id gives its place in the split order.
        splits = sorted((record["children"][0], record["id"]) for record in tree.to_dict()["nodes"]
                        if record["kind"] == "split")
        assert [node for _, node in splits] == reference_split_order(gains, weights, config)


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        for kwargs in (
            {"alpha": 0.0, "max_nodes": 4},
            {"alpha": math.nan, "max_nodes": 4},
            {"alpha": math.inf, "max_nodes": 4},
            {"alpha": 1.0, "max_nodes": 0},
            # range(max_nodes) in the learner would raise a bare TypeError.
            {"alpha": 1.0, "max_nodes": 2.5},
            {"alpha": 1.0, "max_nodes": True},
            {"alpha": 1.0, "max_nodes": "4"},
            {"alpha": 1.0, "max_nodes": 4, "error": 0.0},
            {"alpha": 1.0, "max_nodes": 4, "min_gain": math.nan},
            {"alpha": 1.0, "max_nodes": 4, "min_gain": -math.inf},
            {"alpha": 1.0, "max_nodes": 4, "leaf_privacy_fraction": 1.0},
        ):
            with pytest.raises(InvalidParameterError):
                DPTopDownConfig(**kwargs)

    @pytest.mark.parametrize("alpha, lpf, max_nodes, schedule", [
        (1e-300, 0.5, 4, "decay"),
        (1.0, 5e-324, 4, "decay"),
        (1e-260, 1 - 2**-53, 4, "decay"),
        (1e-250, 0.5, 10**70, "uniform"),
    ], ids=["alpha", "label-share", "split-share", "uniform-depths"])
    def test_rejects_budgets_whose_noise_leaves_the_floats(self, alpha, lpf, max_nodes, schedule):
        # Each leaves some release a budget below 2**-900, too close to the
        # end of the float range for its noise scale; the smallest ones round
        # to zero or overflow their scale at the first depth.
        with pytest.raises(InvalidParameterError, match="give a release a budget of"):
            DPTopDownConfig(alpha, max_nodes, leaf_privacy_fraction=lpf,
                            schedule=schedule)

    def test_smallest_release_budget_may_reach_the_bound(self):
        # With LPF 1/2 and the decay schedule, LocalRNM's quarter of a
        # depth-1 allowance, alpha/16, is the smallest budget of a release.
        assert DPTopDownConfig(16 * MIN_RELEASE_BUDGET, 4).split_budget == 8 * Fraction(MIN_RELEASE_BUDGET)
        with pytest.raises(InvalidParameterError):
            DPTopDownConfig(math.nextafter(16 * MIN_RELEASE_BUDGET, 0.0), 4)

    def test_budget_split_by_lpf(self):
        config = DPTopDownConfig(alpha=2.0, max_nodes=4, leaf_privacy_fraction=0.25)
        assert float(config.split_budget) == pytest.approx(1.5)
        assert float(config.leaf_budget) == pytest.approx(0.5)
        assert config.split_budget + config.leaf_budget == Fraction(2)
