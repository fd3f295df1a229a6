import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptree.data_io import partition
from dptree.dp_core import InvalidParameterError, RandomSource
from dptree.dp_topdown import DPTopDownConfig, dp_topdown
from dptree.split_strategies import ExactStrategy
from dptree.tree_learning import (
    Criterion,
    DecisionTree,
    LabeledDataset,
    SplitFunction,
    SplitPlan,
    gain_from_counts,
    position_dtype,
    split_count_tables,
    tree_error,
)
import oracle
from oracle import distribution_value, float_sides, majority_label, potential, route


def random_dataset(rng, n=200, d=2, n_classes=2):
    X = rng.uniform(size=(n, d))
    y = np.asarray(rng.integers(0, n_classes, size=n))
    return LabeledDataset(X, y, n_classes)


def binary(q):
    """Two-class distributions [1 - q, q], one row per entry of q."""
    q = np.asarray(q, dtype=float)
    return np.stack([1.0 - q, q], axis=-1)


def oracle_table(labels, sides, n_classes):
    """Joint label-by-side counts of one split, by direct accumulation."""
    cells = np.zeros((n_classes, 2))
    np.add.at(cells, (labels, sides), 1.0)
    return cells


def grid_splits(d=2, count=7):
    return [
        SplitFunction(threshold=(r + 1) / (count + 1), feature=j)
        for j in range(d)
        for r in range(count)
    ]


def baseline(ds, splits, max_nodes, criterion, min_gain=0.01):
    """The non-private baseline: `dp_topdown` answered by `ExactStrategy`."""
    config = DPTopDownConfig(alpha=1.0, max_nodes=max_nodes, min_gain=min_gain)
    return dp_topdown(ExactStrategy(SplitPlan(splits).bin(ds), criterion), config)[0]


class TestCriterion:
    @pytest.mark.parametrize(
        "criterion,q,expected",
        [
            (Criterion.ENTROPY, 0.5, 1.0),
            (Criterion.GINI, 0.0, 0.0),
            (Criterion.GINI, 0.5, 1.0),
            (Criterion.ROOT_GINI, 0.5, 1.0),
            (Criterion.ENTROPY, 0.25, 0.811278),
            (Criterion.GINI, 0.25, 0.75),
            (Criterion.ROOT_GINI, 0.25, math.sqrt(0.75)),
        ],
    )
    def test_values(self, criterion, q, expected):
        assert float(distribution_value(criterion, binary(q))) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_grid_invariants(self, criterion):
        qs = np.linspace(0.0, 1.0, 101)
        values = distribution_value(criterion, binary(qs))
        flipped = distribution_value(criterion, binary(1.0 - qs))
        assert np.allclose(values, flipped, atol=1e-12)  # symmetry about 1/2
        assert np.all(values >= np.minimum(qs, 1.0 - qs) - 1e-12)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[-1] == pytest.approx(0.0, abs=1e-12)
        assert values[50] == pytest.approx(1.0, abs=1e-12)
        # concavity, pointwise on the grid
        assert np.all(values[1:-1] >= (values[:-2] + values[2:]) / 2 - 1e-9)

    def test_binary_reduction_of_distribution_form(self):
        closed_forms = {
            Criterion.ENTROPY: lambda q: -q * math.log2(q) - (1 - q) * math.log2(1 - q),
            Criterion.GINI: lambda q: 4 * q * (1 - q),
            Criterion.ROOT_GINI: lambda q: 2 * math.sqrt(q * (1 - q)),
        }
        for q in (0.1, 0.3, 0.5, 0.9):
            for criterion, closed_form in closed_forms.items():
                assert float(distribution_value(criterion, binary(q))) == pytest.approx(
                    closed_form(q), rel=1e-12
                )

    def test_multiclass_normalization(self):
        uniform = np.full(10, 0.1)
        point = np.zeros(10)
        point[3] = 1.0
        for criterion in Criterion:
            assert float(distribution_value(criterion, uniform)) == pytest.approx(1.0)
            assert float(distribution_value(criterion, point)) == pytest.approx(0.0)


class TestSplitGain:
    def test_perfect_split(self):
        cells = np.array([[8.0, 0.0], [0.0, 8.0]])
        assert float(gain_from_counts(cells, Criterion.ENTROPY)) == pytest.approx(1.0)

    def test_uninformative_split(self):
        cells = np.array([[6.0, 2.0], [6.0, 2.0]])
        assert float(gain_from_counts(cells, Criterion.ENTROPY)) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        cells = np.array([[2.0, 6.0], [6.0, 2.0]])
        assert float(gain_from_counts(cells, Criterion.ENTROPY)) == pytest.approx(
            1.0 - 0.811278, abs=1e-6
        )

    def test_degenerate_counts_give_zero(self):
        assert float(gain_from_counts(np.zeros((2, 2)), Criterion.GINI)) == 0.0

    def test_gain_nonnegative_on_random_exact_counts(self):
        rng = RandomSource(4)
        tables = rng.integers(0, 30, size=(500, 3, 2)).astype(float)
        gains = gain_from_counts(tables, Criterion.ENTROPY)
        assert np.all(gains >= 0.0)
        assert np.all(gains <= 1.0 + 1e-12)

    def test_from_split_counts(self):
        ds = LabeledDataset(np.array([[0.2], [0.7], [0.1], [0.4], [0.9]]), np.array([0, 0, 1, 1, 1]), 2)
        split = SplitFunction(threshold=0.5, feature=0)
        tables = split_count_tables(SplitPlan([split]).bin(ds), np.arange(ds.n), np.array([0]))
        assert tables[0].tolist() == [[1.0, 1.0], [2.0, 1.0]]


@st.composite
def count_tables(draw):
    """Stacks of (K, 2) count tables as the learners score them: exact
    integer counts, some tables all zero, and, as NoisyCounts feeds them,
    those counts plus Laplace noise clipped at 0. K in [1, 12]; the tables
    are one table, a row of 0 to 120, or a 2-d batch."""
    k = draw(st.integers(1, 12))
    shape = draw(st.one_of(st.just(()), st.tuples(st.integers(0, 120)),
                           st.tuples(st.integers(0, 8), st.integers(0, 15))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = rng.integers(0, draw(st.sampled_from([2, 6, 40, 5000])), size=shape + (k, 2)).astype(float)
    tables[rng.random(size=shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    if draw(st.booleans()):
        noise = rng.laplace(0.0, draw(st.sampled_from([0.25, 3.0, 60.0])), size=tables.shape)
        tables = np.clip(tables + noise, 0.0, None)
    return tables


class TestGainKernel:
    @settings(max_examples=400, deadline=None)
    @given(count_tables(), st.sampled_from(list(Criterion)))
    def test_equals_the_reference_bit_for_bit(self, tables, criterion):
        gains = gain_from_counts(tables, criterion)
        expected = oracle.gain_from_counts(tables, criterion)
        assert gains.shape == expected.shape == tables.shape[:-2]
        assert np.array_equal(gains, expected)

    @pytest.mark.parametrize("k", [8, 9, 12, 17, 40])
    def test_many_labels_sum_in_numpy_order(self, k):
        # Sums of eight or more noisy label counts round differently term by
        # term than numpy's pairwise reduction; the kernel must keep numpy's.
        rng = np.random.default_rng(k)
        tables = np.clip(rng.integers(0, 40, size=(300, k, 2)) + rng.laplace(0.0, 3.0, (300, k, 2)), 0.0, None)
        for criterion in Criterion:
            assert np.array_equal(gain_from_counts(tables, criterion), oracle.gain_from_counts(tables, criterion))


class TestSplitTables:
    def test_tables_match_bruteforce(self):
        rng = RandomSource(8)
        ds = random_dataset(rng, n=300, d=3, n_classes=3)
        splits = grid_splits(d=3, count=5) + [
            SplitFunction(threshold=0.4, block=(0, 2)),
            SplitFunction(threshold=0.6, block=(0, 1)),
        ]
        plan = SplitPlan(splits)
        tables = split_count_tables(plan.bin(ds), np.arange(ds.n), plan.indices)
        for i, split in enumerate(splits):
            sides = split.evaluate(ds.features)
            assert np.array_equal(tables[i], oracle_table(ds.labels, sides, 3))

    def test_gains_vector_matches_scalar(self):
        rng = RandomSource(9)
        ds = random_dataset(rng, n=150)
        splits = grid_splits()
        plan = SplitPlan(splits)
        tables = split_count_tables(plan.bin(ds), np.arange(ds.n), plan.indices)
        gains = gain_from_counts(tables, Criterion.GINI)
        for i, split in enumerate(splits):
            cells = oracle_table(ds.labels, split.evaluate(ds.features), 2)
            assert gains[i] == pytest.approx(float(gain_from_counts(cells, Criterion.GINI)), rel=1e-12)


class TestTreeStructure:
    def test_single_leaf_routes_to_root(self):
        tree = DecisionTree(SplitPlan(grid_splits()))
        assert route(tree, np.array([0.3, 0.4])).node_id == tree.root.node_id

    def test_threshold_routing(self):
        tree = DecisionTree(SplitPlan([SplitFunction(threshold=0.5, feature=0)]))
        left, right = tree.split_leaf(tree.root, 0)
        assert route(tree, np.array([0.3, 0.9])).node_id == left.node_id
        assert route(tree, np.array([0.7, 0.1])).node_id == right.node_id

    def test_assign_partitions_rows(self):
        rng = RandomSource(10)
        ds = random_dataset(rng, n=1000, d=3)
        tree = baseline(ds, grid_splits(d=3), 7, Criterion.ENTROPY, min_gain=-1.0)
        leaf_ids = tree.assign(ds.n, float_sides(ds.features, tree.plan))
        leaves = {leaf.node_id for leaf in tree.leaves()}
        assert set(np.unique(leaf_ids)) <= leaves
        sizes = sum(int(np.sum(leaf_ids == leaf)) for leaf in leaves)
        assert sizes == ds.n  # every row lands in exactly one leaf

    def test_nodes_in_id_order_with_paths(self):
        splits = grid_splits(d=2)
        tree = DecisionTree(SplitPlan(splits))
        assert tree.root.path == () and tree.root.budget_depth == 1
        rng = RandomSource(14)
        for _ in range(9):
            leaves = tree.leaves()
            leaf = leaves[int(rng.integers(0, len(leaves)))]
            index = int(rng.integers(0, len(splits)))
            left, right = tree.split_leaf(leaf, index)
            assert left.path == leaf.path + ((index, 0),) and right.path == leaf.path + ((index, 1),)
            assert left.budget_depth == right.budget_depth == leaf.depth + 1
        walked, stack = [], [tree.root]
        while stack:
            node = stack.pop()
            walked.append(node)
            if not node.is_leaf:
                stack.extend((node.right, node.left))
        nodes = sorted(walked, key=lambda node: node.node_id)
        assert [node.node_id for node in nodes] == list(range(19))
        # The tree keeps its nodes in id order: the order of its records and
        # of its leaves is the order a walk from the root gives once sorted.
        records = tree.to_dict()["nodes"]
        assert [(record["id"], record["kind"] == "leaf") for record in records] == [
            (node.node_id, node.is_leaf) for node in nodes]
        assert tree.leaves() == [node for node in nodes if node.is_leaf]
        assert tree.internal_count == 9 and len(tree.leaves()) == 10
        assert tree.depth == max(len(node.path) for node in nodes)

    def test_predict_requires_labels(self):
        tree = DecisionTree(SplitPlan(grid_splits()))
        with pytest.raises(InvalidParameterError, match="unlabeled leaf"):
            tree.predict(np.zeros((1, 2)))

    def test_tree_error_examples(self):
        features = np.array([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6], [0.7], [0.8], [0.9], [1.0]])
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        ds = LabeledDataset(features, labels, 2)
        plan = SplitPlan([SplitFunction(threshold=0.5, feature=0)])
        tree = DecisionTree(plan)
        tree.root.label = 1  # majority single leaf on 30%/70% data
        assert tree_error(tree, plan.bin(ds)) == pytest.approx(0.3)

    def test_tree_error_refuses_a_binning_of_other_splits(self):
        # A plan index names a split only within its plan: rows binned
        # against other splits would be routed on the wrong columns.
        ds = random_dataset(RandomSource(11), n=50, d=2)
        tree = baseline(ds, grid_splits(), 4, Criterion.ENTROPY, min_gain=-1.0)
        assert tree.internal_count > 0
        assert tree_error(tree, SplitPlan(grid_splits()).bin(ds)) == tree_error(tree, tree.plan.bin(ds))
        for splits in (grid_splits()[::-1], grid_splits()[:-1], grid_splits(d=2, count=3)):
            with pytest.raises(InvalidParameterError, match="other splits"):
                tree_error(tree, SplitPlan(splits).bin(ds))

    def test_serialization_roundtrip_bit_exact(self):
        # The node records are plain JSON: thresholds survive a dump and load
        # bit for bit.
        ds = random_dataset(RandomSource(12), n=500, d=2)
        tree = baseline(ds, grid_splits(), 10, Criterion.ENTROPY, min_gain=-1.0)
        doc = tree.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert {record["kind"] for record in doc["nodes"]} == {"split", "leaf"}
        thresholds = {split.threshold for split in grid_splits()}
        assert all(record["threshold"] in thresholds for record in doc["nodes"] if record["kind"] == "split")

    def test_block_split_roundtrip(self):
        tree = DecisionTree(SplitPlan([SplitFunction(threshold=0.25, block=(0, 1, 3))]))
        tree.split_leaf(tree.root, 0)
        for leaf in tree.leaves():
            leaf.label = 0
        doc = tree.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["nodes"][0]["block"] == [0, 1, 3] and "feature" not in doc["nodes"][0]


class TestSplitHash:
    @staticmethod
    def splits():
        return [SplitFunction(0.25, feature=1), SplitFunction(0.5, block=(0, 2))]

    def test_hash_survives_pickling_across_processes(self):
        # hash(None) differs between processes, so a pickled hash would go stale.
        # The pickle rebuilds a split from its fields, so it must carry all of them.
        assert [f.name for f in dataclasses.fields(SplitFunction)] == ["threshold", "feature", "block"]
        code = ("import pickle, sys; from dptree.tree_learning import SplitFunction; "
                f"sys.stdout.write(pickle.dumps({self.splits()!r}).hex())")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        for loaded, fresh in zip(pickle.loads(bytes.fromhex(done.stdout)), self.splits(), strict=True):
            assert loaded == fresh
            assert hash(loaded) == hash(fresh)
            assert hash(pickle.loads(pickle.dumps(fresh))) == hash(fresh)
            # Equal splits made apart hash equal, so a plan finds the index of either.
            twin = dataclasses.replace(fresh)
            assert twin is not fresh and twin == fresh and hash(twin) == hash(fresh)
            assert {((fresh, 0), (fresh, 1)): "leaf"}[((twin, 0), (twin, 1))] == "leaf"


class TestPotential:
    def test_pure_single_leaf(self):
        ds = LabeledDataset(np.zeros((5, 1)), np.ones(5, dtype=int), 2)
        assert potential(DecisionTree(SplitPlan(grid_splits())), ds, Criterion.ENTROPY) == pytest.approx(0.0)

    def test_balanced_single_leaf(self):
        ds = LabeledDataset(np.zeros((6, 1)), np.array([0, 1, 0, 1, 0, 1]), 2)
        assert potential(DecisionTree(SplitPlan(grid_splits())), ds, Criterion.ENTROPY) == pytest.approx(1.0)

    def test_potential_bounds_majority_error(self):
        rng = RandomSource(13)
        for trial in range(100):
            ds = random_dataset(rng, n=120, d=2)
            depth = 1 + trial % 3
            # One split per inner node, in the order the nodes are made.
            splits = [SplitFunction(threshold=float(rng.uniform()), feature=int(rng.integers(0, 2)))
                      for _ in range(2**depth - 1)]
            tree = DecisionTree(SplitPlan(splits))
            frontier = [tree.root]
            for _ in range(depth):
                frontier = [child for node in frontier for child in tree.split_leaf(node, node.node_id)]
            leaf_ids = tree.assign(ds.n, float_sides(ds.features, tree.plan))
            for leaf in tree.leaves():
                leaf.label = majority_label(
                    np.bincount(ds.labels[leaf_ids == leaf.node_id], minlength=2)
                )
            for criterion in Criterion:
                error = np.mean(tree.predict(ds.features) != ds.labels)
                assert potential(tree, ds, criterion) >= error - 1e-12

    def test_empty_dataset_rejected(self):
        empty = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        with pytest.raises(InvalidParameterError):
            potential(DecisionTree(SplitPlan(grid_splits())), empty, Criterion.GINI)


class TestTopDown:
    def test_recovers_planted_depth2_tree(self):
        from dptree.data_io import build_splitting_class, synthetic_tree_dataset

        ds, truth, schema = synthetic_tree_dataset(50_000, RandomSource(21), depth=2)
        splits = build_splitting_class(schema)
        tree = baseline(ds, splits, 8, Criterion.ENTROPY)
        assert tree_error(tree, SplitPlan(splits).bin(ds)) == 0.0

    def test_single_label_dataset_stays_single_leaf(self):
        ds = LabeledDataset(RandomSource(1).uniform(size=(50, 2)), np.zeros(50, dtype=int), 2)
        tree = baseline(ds, grid_splits(), 8, Criterion.ENTROPY)
        assert tree.internal_count == 0
        assert tree_error(tree, SplitPlan(grid_splits()).bin(ds)) == 0.0

    def test_xor_needs_two_levels(self):
        rng = RandomSource(2)
        X = rng.uniform(size=(4000, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        ds = LabeledDataset(X, y, 2)
        splits = [SplitFunction(threshold=0.5, feature=0), SplitFunction(threshold=0.5, feature=1)]
        # no single split has gain: the root must be pushed despite zero gain
        tree = baseline(ds, splits, 3, Criterion.ENTROPY, min_gain=-1.0)
        assert tree.depth == 2
        assert tree_error(tree, SplitPlan(splits).bin(ds)) == 0.0
        # with the default gain threshold the zero-gain root is never split
        flat = baseline(ds, splits, 8, Criterion.ENTROPY, min_gain=0.01)
        assert flat.internal_count == 0

    def test_potential_decreases_with_more_splits(self):
        rng = RandomSource(3)
        ds = random_dataset(rng, n=2000, d=2)
        splits = grid_splits()
        values = []
        for max_nodes in range(1, 8):
            tree = baseline(ds, splits, max_nodes, Criterion.ENTROPY, min_gain=0.0)
            values.append(potential(tree, ds, Criterion.ENTROPY))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        rng = RandomSource(4)
        ds = random_dataset(rng, n=800, d=2)
        splits = grid_splits()
        first = baseline(ds, splits, 10, Criterion.GINI).to_dict()
        second = baseline(ds, splits, 10, Criterion.GINI).to_dict()
        assert first == second

    def test_empty_split_class_rejected(self):
        # The plan refuses it, once, before any learner or binning is made.
        with pytest.raises(InvalidParameterError, match="nonempty"):
            SplitPlan([])


GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def binned_cases(draw):
    """A dataset with continuous columns and one 0/1 column, a splitting
    class of threshold, one-hot and block-average splits, a candidate array
    of their plan indices drawn with repeats, and a random (possibly empty)
    row subset."""
    n = draw(st.integers(0, 40))
    n_classes = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    on_grid = st.sampled_from(GRID)
    off_grid = st.floats(-0.5, 1.5, allow_nan=False, width=32)
    values = draw(st.lists(st.one_of(on_grid, off_grid), min_size=n * d, max_size=n * d))
    hot = draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n))
    X = np.column_stack([np.array(values, dtype=float).reshape(n, d), np.array(hot)])
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)), dtype=int)
    thresholds = st.one_of(on_grid, st.floats(-0.5, 1.5, allow_nan=False))
    splits = [SplitFunction(threshold=t, feature=j)
              for j in range(d) for t in draw(st.lists(thresholds, min_size=1, max_size=6))]
    splits.append(SplitFunction(threshold=0.5, feature=d))
    blocks = draw(st.lists(st.lists(st.integers(0, d), min_size=1, max_size=3, unique=True),
                           max_size=2))
    splits += [SplitFunction(threshold=t, block=tuple(block))
               for block in blocks for t in draw(st.lists(thresholds, min_size=1, max_size=3))]
    candidates = np.array(draw(st.lists(st.integers(0, len(splits) - 1), min_size=1, max_size=12)))
    rows = np.array(draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True, max_size=n)),
                    dtype=np.intp)
    return LabeledDataset(X, y, n_classes), splits, candidates, rows


class TestBinnedKernel:
    @settings(max_examples=300, deadline=None)
    @given(binned_cases())
    def test_equals_per_split_oracle(self, case):
        ds, splits, candidates, rows = case
        tables = split_count_tables(SplitPlan(splits).bin(ds), rows, candidates)
        assert tables.shape == (len(candidates), ds.n_classes, 2)
        for table, index in zip(tables, candidates):
            sides = splits[index].evaluate(ds.features, rows)
            assert np.array_equal(table, oracle_table(ds.labels[rows], sides, ds.n_classes))

    @settings(max_examples=300, deadline=None)
    @given(binned_cases())
    def test_code_cut_equals_evaluate(self, case):
        ds, splits, _, rows = case
        binned = SplitPlan(splits).bin(ds)
        for index, split in enumerate(splits):
            assert np.array_equal(binned.goes_right(index, rows), split.evaluate(ds.features, rows) == 1)

    @settings(max_examples=200, deadline=None)
    @given(binned_cases())
    def test_32_bit_positions_gather_like_intp(self, case):
        ds, splits, _, rows = case
        binned = SplitPlan(splits).bin(ds)
        narrow = rows.astype(np.int32)
        assert np.array_equal(binned.cumulative(narrow), binned.cumulative(rows))
        for index in range(len(splits)):
            assert np.array_equal(binned.goes_right(index, narrow), binned.goes_right(index, rows))

    def test_position_dtype_is_32_bit_below_2_31_rows(self):
        # Only the row count is read: no positions are made.
        tracemalloc.start()
        try:
            assert position_dtype(2**31 - 1) == np.int32
            assert position_dtype(2**31) == np.intp
            assert tracemalloc.get_traced_memory()[1] < 2**16
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16), (70000, np.uint32)])
    def test_smallest_count_dtype(self, n, dtype):
        ds = random_dataset(RandomSource(6), n=n)
        binned = SplitPlan(grid_splits()).bin(ds)
        cum = binned.cumulative(np.arange(n))
        assert cum.dtype == dtype
        assert cum.sum(axis=1).max() == n
        # A slice of a larger binning counts in the dtype of its own size.
        larger = SplitPlan(grid_splits()).bin(random_dataset(RandomSource(7), n=70000))
        assert larger.subset(np.arange(n)).cumulative(np.arange(n)).dtype == dtype

    def test_smallest_code_dtype(self):
        ds = random_dataset(RandomSource(3), n=50, d=2)
        splits = [SplitFunction(threshold=r / 300, feature=0) for r in range(255)]
        splits += [SplitFunction(threshold=r / 300, feature=1) for r in range(256)]
        binned = SplitPlan(splits).bin(ds)
        assert binned.codes[0].dtype == np.uint8  # columns in order of first appearance
        assert binned.codes[1].dtype == np.uint16

    @pytest.mark.parametrize("stranger", [
        SplitFunction(threshold=0.3, feature=0),  # off the binned grid
        SplitFunction(threshold=0.5, feature=2),  # column never binned
        SplitFunction(threshold=0.5, block=(0, 1)),
    ])
    def test_split_outside_binned_class_rejected(self, stranger):
        # A split has counts only through its index in the binning's plan,
        # and a split outside the class has none.
        binned = SplitPlan(grid_splits(d=2, count=3)).bin(random_dataset(RandomSource(4), n=30, d=3))
        with pytest.raises(InvalidParameterError):
            binned.plan.index_of(list(binned.plan.splits[:2]) + [stranger])


    def test_non_finite_threshold_rejected(self):
        ds = random_dataset(RandomSource(5), n=20, d=2)
        with pytest.raises(InvalidParameterError, match="finite"):
            SplitPlan(grid_splits(d=2, count=2) + [SplitFunction(threshold=math.nan, feature=1)]).bin(ds)

    @settings(max_examples=120, deadline=None)
    @given(binned_cases(), st.data())
    def test_code_evaluation_equals_float_predict(self, case, data):
        # The case's rows are the test set, the others the training set; each
        # is binned on its own against the class, as a prepared dataset is.
        ds, splits, _, rows = case
        test_rows = np.zeros(ds.n, dtype=bool)
        test_rows[rows] = True
        tree = DecisionTree(SplitPlan(splits))
        for _ in range(data.draw(st.integers(0, 8))):
            tree.split_leaf(data.draw(st.sampled_from(tree.leaves())), data.draw(st.integers(0, len(splits) - 1)))
        for leaf in tree.leaves():
            leaf.label = data.draw(st.integers(0, ds.n_classes - 1))
        for part in (ds.subset(~test_rows), ds.subset(test_rows)):
            binned = SplitPlan(splits).bin(part)
            expected = tree.predict(part.features)
            assert np.array_equal(tree.classify(binned.n, binned.goes_right), expected)
            assert np.array_equal(tree.assign(binned.n, binned.goes_right),
                                  tree.assign(part.n, float_sides(part.features, tree.plan)))
            if part.n:
                assert tree_error(tree, binned) == np.mean(expected != part.labels)

    @settings(max_examples=100, deadline=None)
    @given(binned_cases(), st.integers(1, 4), st.integers(0, 2**32))
    def test_subset_equals_fresh_binning(self, case, k, seed):
        ds, splits, candidates, rows = case
        full = SplitPlan(splits).bin(ds)
        # A subsample's rows, and the rows of each holder that partition
        # deals for one seed.
        holders = partition(ds.n, k, RandomSource(seed))
        pairs = [(full.subset(part), ds.subset(part))
                 for part in [rows] + [np.flatnonzero(holders == i) for i in range(k)]]
        for sliced, piece in pairs:
            fresh = SplitPlan(splits).bin(piece)
            assert sliced.n == fresh.n == piece.n
            assert sliced.labels.dtype == fresh.labels.dtype
            assert np.array_equal(sliced.labels, piece.labels)
            assert len(sliced.codes) == len(fresh.codes)
            for ours, theirs in zip(sliced.codes, fresh.codes):
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            some = np.arange(0, piece.n, 2)
            for counted in (np.arange(piece.n), some):
                ours, theirs = sliced.cumulative(counted), fresh.cumulative(counted)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            assert np.array_equal(split_count_tables(sliced, some, candidates),
                                  split_count_tables(fresh, some, candidates))
            for index in range(len(splits)):
                assert np.array_equal(sliced.goes_right(index, some), fresh.goes_right(index, some))


class TestLabeledDataset:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.array([[0.2, 0.4], [0.6, bad]])
        with pytest.raises(InvalidParameterError, match="finite"):
            LabeledDataset(X, np.array([0, 1]), 2)


def test_predict_matches_route():
    ds = random_dataset(RandomSource(13), n=400, d=2)
    tree = baseline(ds, grid_splits(), 6, Criterion.GINI, min_gain=-1.0)
    expected = [route(tree, x).label for x in ds.features]
    assert tree.predict(ds.features).tolist() == expected
