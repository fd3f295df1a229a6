import numpy as np
import pytest

from dptree.dp_core import InvalidParameterError, RandomSource
from dptree.data_io import (
    BlockSpec,
    CategoricalFeature,
    ContinuousFeature,
    DataError,
    DataSchema,
    PartitionSpec,
    SplittingSpec,
    build_splitting_class,
    load_csv,
    load_schema,
    partition,
    partition_assignment,
    save_schema,
    schema_from_dict,
    synthetic_tree_dataset,
    train_test_split,
    write_csv,
)
from dptree.tree_learning import tree_error


@pytest.fixture
def small_schema():
    return DataSchema(
        features=[
            ContinuousFeature("age", 0.0, 100.0),
            CategoricalFeature("color", ("red", "blue")),
        ],
        label_name="outcome",
        label_values=("no", "yes"),
    )


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_one_hot_expansion(self, tmp_path, small_schema):
        csv_path = tmp_path / "data.csv"
        write_lines(csv_path, [
            "age,color,outcome",
            "30,red,no",
            "40,blue,yes",
            "55.5,red,yes",
        ])
        ds = load_csv(csv_path, small_schema)
        assert ds.features.shape == (3, 3)
        assert ds.features[1].tolist() == [40.0, 0.0, 1.0]
        assert ds.labels.tolist() == [0, 1, 1]
        hot = ds.features[:, 1:]
        assert np.all((hot == 0.0) | (hot == 1.0))
        assert np.all(hot.sum(axis=1) == 1.0)

    def test_empty_data_section(self, tmp_path, small_schema):
        csv_path = tmp_path / "empty.csv"
        write_lines(csv_path, ["age,color,outcome"])
        ds = load_csv(csv_path, small_schema)
        assert ds.n == 0

    def test_column_order_independent(self, tmp_path, small_schema):
        csv_path = tmp_path / "shuffled.csv"
        write_lines(csv_path, ["outcome,age,color", "no,25,blue"])
        ds = load_csv(csv_path, small_schema)
        assert ds.features[0].tolist() == [25.0, 0.0, 1.0]

    def test_roundtrip_bit_exact(self, tmp_path, small_schema):
        csv_path = tmp_path / "rt.csv"
        rng = RandomSource(3)
        write_lines(csv_path, ["age,color,outcome"] + [
            f"{float(100 * v)!r},{'red' if b else 'blue'},{'yes' if l else 'no'}"
            for v, b, l in zip(rng.uniform(size=50),
                               rng.integers(0, 2, size=50),
                               rng.integers(0, 2, size=50))
        ])
        first = load_csv(csv_path, small_schema)
        back = tmp_path / "rt2.csv"
        write_csv(first, small_schema, back)
        second = load_csv(back, small_schema)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("oops,red,no", "cannot parse"),
            ("250,red,no", "outside declared range"),
            ("30,green,no", "not a declared value"),
            ("30,red,maybe", "not in declared label set"),
            ("30,red", "expected 3 columns, got 2"),
            ("30,red,no,extra", "expected 3 columns, got 4"),
            ("", "expected 3 columns, got 0"),
        ],
    )
    def test_bad_rows_fail_with_row_number(self, tmp_path, small_schema, row, fragment):
        csv_path = tmp_path / "bad.csv"
        write_lines(csv_path, ["age,color,outcome", "20,red,no", row])
        with pytest.raises(DataError) as err:
            load_csv(csv_path, small_schema)
        assert fragment in str(err.value)
        assert ":3:" in str(err.value)

    def test_missing_column(self, tmp_path, small_schema):
        csv_path = tmp_path / "missing.csv"
        write_lines(csv_path, ["age,outcome", "20,no"])
        with pytest.raises(DataError, match="missing column"):
            load_csv(csv_path, small_schema)


class TestSchemaJson:
    def test_roundtrip(self, tmp_path, small_schema):
        path = tmp_path / "schema.json"
        save_schema(small_schema, path)
        loaded = load_schema(path)
        assert loaded.encoded_columns() == small_schema.encoded_columns()
        assert loaded.label_values == small_schema.label_values

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            schema_from_dict({
                "features": [{"name": "a", "kind": "ordinal", "min": 0, "max": 1}],
                "label": {"name": "y", "values": ["0", "1"]},
            })


class TestSplittingClass:
    def test_skin_format_gives_96(self):
        schema = DataSchema(
            features=[ContinuousFeature(c, 0.0, 255.0) for c in ("r", "g", "b")],
            label_name="skin",
            label_values=("0", "1"),
            splits=SplittingSpec(default_thresholds=32),
        )
        assert len(build_splitting_class(schema)) == 96

    def test_even_spacing_excludes_endpoints(self):
        schema = DataSchema(
            features=[ContinuousFeature("x", 0.0, 1.0)],
            label_name="y",
            label_values=("0", "1"),
            splits=SplittingSpec(default_thresholds=3),
        )
        thresholds = [s.threshold for s in build_splitting_class(schema)]
        assert thresholds == pytest.approx([0.25, 0.5, 0.75])

    def test_ctr_style_per_feature_counts(self):
        counts = {"C1": 7, "C14": 100, "C15": 4, "C16": 4, "C17": 40, "C19": 10, "C20": 15, "C21": 10}
        schema = DataSchema(
            features=[ContinuousFeature(name, 0.0, 1.0) for name in counts],
            label_name="click",
            label_values=("0", "1"),
            splits=SplittingSpec(default_thresholds=1, per_feature=counts),
        )
        assert len(build_splitting_class(schema)) == sum(counts.values())

    def test_one_hot_columns_get_half_threshold(self, small_schema):
        splits = build_splitting_class(small_schema)
        categorical = [s for s in splits if s.feature in (1, 2)]
        assert len(categorical) == 2
        assert all(s.threshold == 0.5 for s in categorical)

    def test_block_entries_follow_features(self):
        schema = DataSchema(
            features=[ContinuousFeature("x", 0.0, 1.0)],
            label_name="y",
            label_values=("0", "1"),
            splits=SplittingSpec(default_thresholds=2, blocks=[BlockSpec((0,), (0.1, 0.9))]),
        )
        splits = build_splitting_class(schema)
        assert [s.hid for s in splits] == [0, 1, 2, 3]
        assert splits[2].block == (0,) and splits[2].threshold == 0.1

    def test_nonpositive_threshold_count_rejected(self):
        schema = DataSchema(
            features=[ContinuousFeature("x", 0.0, 1.0)],
            label_name="y",
            label_values=("0", "1"),
            splits=SplittingSpec(default_thresholds=0),
        )
        with pytest.raises(InvalidParameterError):
            build_splitting_class(schema)

    def test_pure_function_of_schema(self, small_schema):
        # H can be built before any data exists and is identical across calls
        first = build_splitting_class(small_schema)
        second = build_splitting_class(small_schema)
        assert first == second


class TestPartition:
    def test_uniform_disjoint_union(self):
        ds, _, _ = synthetic_tree_dataset(100, RandomSource(1))
        assignment = partition_assignment(ds, PartitionSpec(4), RandomSource(2))
        shards = partition(ds, PartitionSpec(4), RandomSource(2))
        assert sum(s.n for s in shards) == 100
        assert np.array_equal(np.sort(np.unique(assignment)), np.unique(assignment))
        for i, piece in enumerate(shards):
            assert piece.n == int(np.sum(assignment == i))

    def test_same_seed_same_partition(self):
        ds, _, _ = synthetic_tree_dataset(200, RandomSource(3))
        a = partition_assignment(ds, PartitionSpec(4), RandomSource(7))
        b = partition_assignment(ds, PartitionSpec(4), RandomSource(7))
        assert np.array_equal(a, b)

    def test_more_entities_than_rows_allowed(self):
        ds, _, _ = synthetic_tree_dataset(3, RandomSource(4))
        shards = partition(ds, PartitionSpec(10), RandomSource(5))
        assert len(shards) == 10
        assert sum(s.n for s in shards) == 3

    def test_by_column_groups_values(self, tmp_path, small_schema):
        csv_path = tmp_path / "grp.csv"
        write_lines(csv_path, ["age,color,outcome"] + [
            f"{10 + i},{'red' if i % 2 else 'blue'},no" for i in range(10)
        ])
        ds = load_csv(csv_path, small_schema)
        assignment = partition_assignment(
            ds, PartitionSpec(2, mode="by-column", column="color"), RandomSource(0)
        )
        reds = ds.features[:, 1] == 1.0
        assert len(np.unique(assignment[reds])) == 1
        assert len(np.unique(assignment[~reds])) == 1

    def test_explicit_assignment_file(self, tmp_path):
        ds, _, _ = synthetic_tree_dataset(6, RandomSource(6))
        path = tmp_path / "assign.csv"
        write_lines(path, [f"{i},{i % 3}" for i in range(6)])
        spec = PartitionSpec(3, mode="explicit", assignment_path=str(path))
        assignment = partition_assignment(ds, spec, RandomSource(0))
        assert assignment.tolist() == [0, 1, 2, 0, 1, 2]

    def test_explicit_incomplete_rejected(self, tmp_path):
        ds, _, _ = synthetic_tree_dataset(4, RandomSource(7))
        path = tmp_path / "assign.csv"
        write_lines(path, ["0,0", "1,1"])
        with pytest.raises(DataError):
            partition_assignment(ds, PartitionSpec(2, mode="explicit", assignment_path=str(path)),
                                 RandomSource(0))


class TestTrainTestSplit:
    def test_nine_to_one(self):
        ds, _, _ = synthetic_tree_dataset(1000, RandomSource(8))
        train, test = train_test_split(ds, (9, 1), RandomSource(9))
        assert train.n == 900 and test.n == 100

    def test_six_to_one(self):
        ds, _, _ = synthetic_tree_dataset(70, RandomSource(10))
        train, test = train_test_split(ds, (6, 1), RandomSource(11))
        assert train.n == 60 and test.n == 10

    def test_deterministic_and_disjoint(self):
        ds, _, _ = synthetic_tree_dataset(500, RandomSource(12))
        a_train, a_test = train_test_split(ds, (9, 1), RandomSource(13))
        b_train, b_test = train_test_split(ds, (9, 1), RandomSource(13))
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)
        combined = np.vstack([a_train.features, a_test.features])
        assert np.array_equal(np.sort(combined, axis=0), np.sort(ds.features, axis=0))


class TestSyntheticData:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_truth_tree_labels_dataset(self, depth):
        ds, truth, schema = synthetic_tree_dataset(5000, RandomSource(14), depth=depth)
        assert tree_error(truth, ds) == 0.0

    def test_label_noise_rate(self):
        ds, truth, _ = synthetic_tree_dataset(20000, RandomSource(15), depth=2, label_noise=0.2)
        assert tree_error(truth, ds) == pytest.approx(0.2, abs=0.02)

    def test_truth_thresholds_on_grid(self):
        ds, truth, schema = synthetic_tree_dataset(100, RandomSource(16), depth=3)
        grid = {round(s.threshold, 9) for s in build_splitting_class(schema)}
        for node in truth.nodes():
            if not node.is_leaf:
                assert round(node.split.threshold, 9) in grid
