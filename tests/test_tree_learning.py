import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptree.dp_core import InvalidParameterError, RandomSource
from dptree.tree_learning import (
    BinnedFeatures,
    Criterion,
    DecisionTree,
    LabeledDataset,
    LeafCounts,
    MaxQueue,
    SplitFunction,
    UnlabeledTreeError,
    criterion_value,
    distribution_value,
    gain_from_counts,
    majority_label,
    potential,
    split_count_tables,
    split_gain,
    topdown_nonprivate,
    tree_error,
)


def random_dataset(rng, n=200, d=2, n_classes=2):
    X = rng.uniform(size=(n, d))
    y = np.asarray(rng.integers(0, n_classes, size=n))
    return LabeledDataset(X, y, n_classes)


def grid_splits(d=2, count=7):
    return [
        SplitFunction(threshold=(r + 1) / (count + 1), feature=j, hid=j * count + r)
        for j in range(d)
        for r in range(count)
    ]


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
        assert criterion_value(criterion, q) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("criterion", list(Criterion))
    def test_grid_invariants(self, criterion):
        qs = np.linspace(0.0, 1.0, 101)
        values = np.array([criterion_value(criterion, q) for q in qs])
        flipped = np.array([criterion_value(criterion, 1.0 - q) for q in qs])
        assert np.allclose(values, flipped, atol=1e-12)  # symmetry about 1/2
        assert np.all(values >= np.minimum(qs, 1.0 - qs) - 1e-12)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[-1] == pytest.approx(0.0, abs=1e-12)
        assert values[50] == pytest.approx(1.0, abs=1e-12)
        # concavity, pointwise on the grid
        assert np.all(values[1:-1] >= (values[:-2] + values[2:]) / 2 - 1e-9)

    def test_out_of_range_rejected_beyond_tolerance(self):
        with pytest.raises(InvalidParameterError):
            criterion_value(Criterion.ENTROPY, 1.5)
        assert criterion_value(Criterion.ENTROPY, 1.0 + 1e-10) == pytest.approx(0.0, abs=1e-9)

    def test_binary_reduction_of_distribution_form(self):
        for q in (0.1, 0.3, 0.5, 0.9):
            p = np.array([1 - q, q])
            for criterion in Criterion:
                assert float(distribution_value(criterion, p)) == pytest.approx(
                    criterion_value(criterion, q), rel=1e-12
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
        counts = LeafCounts(np.array([[8.0, 0.0], [0.0, 8.0]]))
        assert split_gain(counts, Criterion.ENTROPY) == pytest.approx(1.0)

    def test_uninformative_split(self):
        counts = LeafCounts(np.array([[6.0, 2.0], [6.0, 2.0]]))
        assert split_gain(counts, Criterion.ENTROPY) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        counts = LeafCounts(np.array([[2.0, 6.0], [6.0, 2.0]]))
        assert split_gain(counts, Criterion.ENTROPY) == pytest.approx(1.0 - 0.811278, abs=1e-6)

    def test_degenerate_counts_give_zero(self):
        counts = LeafCounts(np.zeros((2, 2)))
        assert counts.is_degenerate
        assert split_gain(counts, Criterion.GINI) == 0.0

    def test_sanitize_clamps_and_rederives_marginals(self):
        counts = LeafCounts(np.array([[4.5, -1.2], [0.3, -0.1]])).sanitized()
        assert np.all(counts.cells >= 0.0)
        assert counts.total == pytest.approx(4.8)
        assert counts.label_totals[0] == pytest.approx(4.5)
        assert counts.side_totals[1] == pytest.approx(0.0)

    def test_gain_nonnegative_on_random_exact_counts(self):
        rng = RandomSource(4)
        tables = rng.np.integers(0, 30, size=(500, 3, 2)).astype(float)
        gains = gain_from_counts(tables, Criterion.ENTROPY)
        assert np.all(gains >= 0.0)
        assert np.all(gains <= 1.0 + 1e-12)

    def test_from_split_counts(self):
        labels = np.array([0, 0, 1, 1, 1])
        sides = np.array([0, 1, 0, 0, 1])
        counts = LeafCounts.from_split(labels, sides, 2)
        assert counts.cells.tolist() == [[1.0, 1.0], [2.0, 1.0]]


class TestSplitTables:
    def test_tables_match_bruteforce(self):
        rng = RandomSource(8)
        ds = random_dataset(rng, n=300, d=3, n_classes=3)
        splits = grid_splits(d=3, count=5) + [
            SplitFunction(threshold=0.4, block=(0, 2)),
            SplitFunction(threshold=0.6, block=(0, 1)),
        ]
        tables = split_count_tables(BinnedFeatures(ds, splits), np.arange(ds.n), splits)
        for i, split in enumerate(splits):
            sides = split.evaluate(ds.features)
            expected = LeafCounts.from_split(ds.labels, sides, 3).cells
            assert np.array_equal(tables[i], expected)

    def test_gains_vector_matches_scalar(self):
        rng = RandomSource(9)
        ds = random_dataset(rng, n=150)
        splits = grid_splits()
        tables = split_count_tables(BinnedFeatures(ds, splits), np.arange(ds.n), splits)
        gains = gain_from_counts(tables, Criterion.GINI)
        for i, split in enumerate(splits):
            counts = LeafCounts.from_split(ds.labels, split.evaluate(ds.features), 2)
            assert gains[i] == pytest.approx(split_gain(counts, Criterion.GINI), rel=1e-12)


class TestTreeStructure:
    def test_single_leaf_routes_to_root(self):
        tree = DecisionTree()
        assert tree.route(np.array([0.3, 0.4])).node_id == tree.root.node_id

    def test_threshold_routing(self):
        tree = DecisionTree()
        left, right = tree.split_leaf(tree.root, SplitFunction(threshold=0.5, feature=0))
        assert tree.route(np.array([0.3, 0.9])).node_id == left.node_id
        assert tree.route(np.array([0.7, 0.1])).node_id == right.node_id

    def test_assign_partitions_rows(self):
        rng = RandomSource(10)
        ds = random_dataset(rng, n=1000, d=3)
        tree = topdown_nonprivate(ds, grid_splits(d=3), 7, Criterion.ENTROPY, min_gain=-1.0)
        leaf_ids = tree.assign(ds.features)
        leaves = {leaf.node_id for leaf in tree.leaves()}
        assert set(np.unique(leaf_ids)) <= leaves
        sizes = sum(int(np.sum(leaf_ids == leaf)) for leaf in leaves)
        assert sizes == ds.n  # every row lands in exactly one leaf

    def test_predict_requires_labels(self):
        tree = DecisionTree()
        with pytest.raises(UnlabeledTreeError):
            tree.predict(np.zeros((1, 2)))

    def test_tree_error_examples(self):
        features = np.array([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6], [0.7], [0.8], [0.9], [1.0]])
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        ds = LabeledDataset(features, labels, 2)
        tree = DecisionTree()
        tree.root.label = 1  # majority single leaf on 30%/70% data
        assert tree_error(tree, ds) == pytest.approx(0.3)

    def test_serialization_roundtrip_bit_exact(self):
        rng = RandomSource(12)
        ds = random_dataset(rng, n=500, d=2)
        tree = topdown_nonprivate(ds, grid_splits(), 10, Criterion.ENTROPY, min_gain=-1.0)
        doc = tree.to_json()
        assert DecisionTree.from_json(doc).to_json() == doc
        parsed = json.loads(doc)
        assert all(record["kind"] in ("split", "leaf") for record in parsed["nodes"])

    def test_block_split_roundtrip(self):
        tree = DecisionTree()
        tree.split_leaf(tree.root, SplitFunction(threshold=0.25, block=(0, 1, 3)))
        for leaf in tree.leaves():
            leaf.label = 0
        doc = tree.to_json()
        assert DecisionTree.from_json(doc).to_json() == doc


class TestPotential:
    def test_pure_single_leaf(self):
        ds = LabeledDataset(np.zeros((5, 1)), np.ones(5, dtype=int), 2)
        assert potential(DecisionTree(), ds, Criterion.ENTROPY) == pytest.approx(0.0)

    def test_balanced_single_leaf(self):
        ds = LabeledDataset(np.zeros((6, 1)), np.array([0, 1, 0, 1, 0, 1]), 2)
        assert potential(DecisionTree(), ds, Criterion.ENTROPY) == pytest.approx(1.0)

    def test_potential_bounds_majority_error(self):
        rng = RandomSource(13)
        for trial in range(100):
            ds = random_dataset(rng, n=120, d=2)
            depth = 1 + trial % 3
            tree = DecisionTree()
            frontier = [tree.root]
            for _ in range(depth):
                new_frontier = []
                for node in frontier:
                    split = SplitFunction(
                        threshold=float(rng.uniform()), feature=int(rng.integers(0, 2))
                    )
                    new_frontier.extend(tree.split_leaf(node, split))
                frontier = new_frontier
            leaf_ids = tree.assign(ds.features)
            for leaf in tree.leaves():
                leaf.label = majority_label(
                    np.bincount(ds.labels[leaf_ids == leaf.node_id], minlength=2)
                )
            for criterion in Criterion:
                assert potential(tree, ds, criterion) >= tree_error(tree, ds) - 1e-12

    def test_empty_dataset_rejected(self):
        empty = LabeledDataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        with pytest.raises(InvalidParameterError):
            potential(DecisionTree(), empty, Criterion.GINI)


class TestTopDown:
    def test_recovers_planted_depth2_tree(self):
        from dptree.data_io import build_splitting_class, synthetic_tree_dataset

        ds, truth, schema = synthetic_tree_dataset(50_000, RandomSource(21), depth=2)
        splits = build_splitting_class(schema)
        tree = topdown_nonprivate(ds, splits, 8, Criterion.ENTROPY)
        assert tree_error(tree, ds) == 0.0

    def test_single_label_dataset_stays_single_leaf(self):
        ds = LabeledDataset(RandomSource(1).uniform(size=(50, 2)), np.zeros(50, dtype=int), 2)
        tree = topdown_nonprivate(ds, grid_splits(), 8, Criterion.ENTROPY)
        assert tree.internal_count == 0
        assert tree_error(tree, ds) == 0.0

    def test_xor_needs_two_levels(self):
        rng = RandomSource(2)
        X = rng.uniform(size=(4000, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        ds = LabeledDataset(X, y, 2)
        splits = [SplitFunction(threshold=0.5, feature=0), SplitFunction(threshold=0.5, feature=1)]
        # no single split has gain: the root must be pushed despite zero gain
        tree = topdown_nonprivate(ds, splits, 3, Criterion.ENTROPY, min_gain=-1.0)
        assert tree.depth == 2
        assert tree_error(tree, ds) == 0.0
        # with the default gain threshold the zero-gain root is never split
        flat = topdown_nonprivate(ds, splits, 8, Criterion.ENTROPY, min_gain=0.01)
        assert flat.internal_count == 0

    def test_potential_decreases_with_more_splits(self):
        rng = RandomSource(3)
        ds = random_dataset(rng, n=2000, d=2)
        splits = grid_splits()
        values = []
        for max_nodes in range(1, 8):
            tree = topdown_nonprivate(ds, splits, max_nodes, Criterion.ENTROPY, min_gain=0.0)
            values.append(potential(tree, ds, Criterion.ENTROPY))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        rng = RandomSource(4)
        ds = random_dataset(rng, n=800, d=2)
        splits = grid_splits()
        first = topdown_nonprivate(ds, splits, 10, Criterion.GINI).to_json()
        second = topdown_nonprivate(ds, splits, 10, Criterion.GINI).to_json()
        assert first == second

    def test_empty_split_class_rejected(self):
        ds = random_dataset(RandomSource(5))
        with pytest.raises(InvalidParameterError):
            topdown_nonprivate(ds, [], 4, Criterion.ENTROPY)


class TestMaxQueue:
    def test_pops_current_max_with_fifo_ties(self):
        queue = MaxQueue()
        queue.push(1.0, "a")
        queue.push(3.0, "b")
        queue.push(3.0, "c")
        queue.push(2.0, "d")
        assert queue.pop() == (3.0, "b")
        queue.push(5.0, "e")
        assert queue.pop() == (5.0, "e")
        assert queue.pop() == (3.0, "c")
        assert queue.pop() == (2.0, "d")
        assert queue.pop() == (1.0, "a")

    def test_random_sequences_match_reference(self):
        rng = RandomSource(6)
        for _ in range(50):
            queue = MaxQueue()
            live = []
            for step in range(60):
                if live and rng.uniform() < 0.4:
                    expected = max(live)
                    got, _ = queue.pop()
                    assert got == expected
                    live.remove(expected)
                else:
                    priority = float(rng.integers(0, 10))
                    queue.push(priority, step)
                    live.append(priority)


GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def binned_cases(draw):
    """A dataset with continuous columns and one 0/1 column, a candidate
    list drawn with repeats from a splitting class of threshold, one-hot and
    block-average splits, and a random (possibly empty) row subset."""
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
    candidates = draw(st.lists(st.sampled_from(splits), min_size=1, max_size=12))
    rows = np.array(draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True, max_size=n)),
                    dtype=np.intp)
    return LabeledDataset(X, y, n_classes), splits, candidates, rows


class TestBinnedKernel:
    @settings(max_examples=300, deadline=None)
    @given(binned_cases())
    def test_equals_per_split_oracle(self, case):
        ds, splits, candidates, rows = case
        tables = split_count_tables(BinnedFeatures(ds, splits), rows, candidates)
        assert tables.shape == (len(candidates), ds.n_classes, 2)
        for table, split in zip(tables, candidates):
            sides = split.evaluate(ds.features, rows)
            expected = LeafCounts.from_split(ds.labels[rows], sides, ds.n_classes).cells
            assert np.array_equal(table, expected)

    def test_smallest_code_dtype(self):
        ds = random_dataset(RandomSource(3), n=50, d=2)
        splits = [SplitFunction(threshold=r / 300, feature=0) for r in range(255)]
        splits += [SplitFunction(threshold=r / 300, feature=1) for r in range(256)]
        binned = BinnedFeatures(ds, splits)
        assert binned.columns[("f", 0)][1].dtype == np.uint8
        assert binned.columns[("f", 1)][1].dtype == np.uint16

    @pytest.mark.parametrize("stranger", [
        SplitFunction(threshold=0.3, feature=0),  # off the binned grid
        SplitFunction(threshold=0.5, feature=2),  # column never binned
        SplitFunction(threshold=0.5, block=(0, 1)),
    ])
    def test_split_outside_binned_class_rejected(self, stranger):
        ds = random_dataset(RandomSource(4), n=30, d=3)
        splits = grid_splits(d=2, count=3)
        binned = BinnedFeatures(ds, splits)
        for rows in (np.arange(ds.n), np.arange(0)):
            with pytest.raises(InvalidParameterError):
                split_count_tables(binned, rows, splits[:2] + [stranger])


    def test_non_finite_threshold_rejected(self):
        ds = random_dataset(RandomSource(5), n=20, d=2)
        with pytest.raises(InvalidParameterError, match="finite"):
            BinnedFeatures(ds, grid_splits(d=2, count=2) + [SplitFunction(threshold=math.nan, feature=1)])


class TestLabeledDataset:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.array([[0.2, 0.4], [0.6, bad]])
        with pytest.raises(InvalidParameterError, match="finite"):
            LabeledDataset(X, np.array([0, 1]), 2)


def test_predict_matches_route():
    ds = random_dataset(RandomSource(13), n=400, d=2)
    tree = topdown_nonprivate(ds, grid_splits(), 6, Criterion.GINI, min_gain=-1.0)
    expected = [tree.route(x).label for x in ds.features]
    assert tree.predict(ds.features).tolist() == expected
