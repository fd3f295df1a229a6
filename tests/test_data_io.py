import csv
import hashlib
import importlib.util
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptree import data_io
from dptree.dp_core import InvalidParameterError, RandomSource
from dptree.data_io import (
    BlockSpec,
    CategoricalFeature,
    ContinuousFeature,
    DataError,
    DataSchema,
    SplittingSpec,
    build_splitting_class,
    load_csv,
    load_schema,
    parse_number,
    partition,
    save_schema,
    schema_from_dict,
    synthetic_tree_dataset,
    train_test_split,
    write_csv,
)
from dptree.tree_learning import LabeledDataset, SplitPlan, tree_error
from oracle import load_csv_rows, mutate_csv


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


def write_lines(path, lines, terminator="\n"):
    path.write_bytes((terminator.join(lines) + terminator).encode("utf-8"))


def read_csv(path, schema):
    """The float blocks of `csv_blocks`, concatenated into one dataset."""
    blocks = list(data_io.csv_blocks(path, schema))
    features = np.concatenate([block.features for block in blocks])
    return LabeledDataset(features, np.concatenate([block.labels for block in blocks]), schema.n_classes)


# The DataError of a file whose rows all pass but that the reader cannot read.
WHOLE_FILE = (r"\.csv: cannot read a line break inside quotes, a NUL or \\x1c-\\x1f byte, "
              rf"or a line longer than the csv field size limit of {csv.field_size_limit()}$")


class TestLoadCsv:
    def test_one_hot_expansion(self, tmp_path, small_schema):
        csv_path = tmp_path / "data.csv"
        write_lines(csv_path, [
            "age,color,outcome",
            "30,red,no",
            "40,blue,yes",
            "55.5,red,yes",
        ])
        ds = read_csv(csv_path, small_schema)
        assert ds.features.shape == (3, 3)
        assert ds.features[1].tolist() == [40.0, 0.0, 1.0]
        assert ds.labels.tolist() == [0, 1, 1]
        hot = ds.features[:, 1:]
        assert np.all((hot == 0.0) | (hot == 1.0))
        assert np.all(hot.sum(axis=1) == 1.0)

    def test_empty_data_section(self, tmp_path, small_schema, monkeypatch):
        csv_path = tmp_path / "empty.csv"
        write_lines(csv_path, ["age,color,outcome"])

        def refuse(path, schema):
            raise AssertionError("the vectorized pass refused a header-only file")

        monkeypatch.setattr(data_io, "_refuse", refuse)
        ds = read_csv(csv_path, small_schema)
        assert ds.n == 0
        assert ds.features.shape == (0, small_schema.n_encoded)
        assert load_csv(csv_path, small_schema, SplitPlan(build_splitting_class(small_schema))).n == 0

    def test_column_order_independent(self, tmp_path, small_schema):
        csv_path = tmp_path / "shuffled.csv"
        write_lines(csv_path, ["outcome,age,color", "no,25,blue"])
        ds = read_csv(csv_path, small_schema)
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
        first = read_csv(csv_path, small_schema)
        back = tmp_path / "rt2.csv"
        write_csv(first, small_schema, back)
        second = read_csv(back, small_schema)
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
            read_csv(csv_path, small_schema)
        assert fragment in str(err.value)
        assert ":3:" in str(err.value)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\u0661\u0660"])
    def test_number_grammar_is_the_vectorized_pass_s(self, tmp_path, small_schema, cell):
        # float() reads these as 10.0, 1.0 and 10.0; np.loadtxt does not.
        csv_path = tmp_path / "digits.csv"
        write_lines(csv_path, ["age,color,outcome", "20,red,no", f"{cell},red,no"])
        with pytest.raises(DataError, match=rf"digits\.csv:3: cannot parse '{cell}' as a number for 'age'"):
            read_csv(csv_path, small_schema)

    def test_parse_number_refuses_what_float_and_int_accept(self):
        assert parse_number(" 2.5\t") == 2.5 and parse_number("\u20037 ", int) == 7
        for cell in ("1_0", "\u0661", " 1\u0660 "):
            for cast in (float, int):
                cast(cell)  # both read it
                with pytest.raises(ValueError):
                    parse_number(cell, cast)

    @pytest.mark.parametrize("lines", [
        ["age,color,outcome,note", "20,red,no,a\0b", "30,blue,yes,c"],
        ["age,color,outcome,note", "20,red,no,\x1c"],
        ["age,color,outcome,note", '20,red,no,"two\nlines"'],
        ["age,color,outcome," + ",".join(f"n{i}" for i in range(30_000)), "20,red,no," + ",".join(["1"] * 30_000)],
    ], ids=["nul-in-unused-column", "x1c-in-unused-column", "quoted-line-break", "long-line-of-short-cells"])
    def test_constructs_the_pass_cannot_read_fail_closed(self, tmp_path, small_schema, lines):
        csv_path = tmp_path / "odd.csv"
        write_lines(csv_path, lines)
        with pytest.raises(DataError, match="odd" + WHOLE_FILE):
            read_csv(csv_path, small_schema)
        assert load_outcome(read_csv, csv_path, small_schema) == load_outcome(load_csv_rows, csv_path, small_schema)

    def test_quoted_line_break_in_a_declared_value_fails_closed(self, tmp_path):
        schema = DataSchema([CategoricalFeature("c", ("a\nb", "d"))], "y", ("0", "1"))
        dataset = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 2)
        csv_path = tmp_path / "broken.csv"
        write_csv(dataset, schema, csv_path)
        with pytest.raises(DataError, match=r"broken\.csv: cannot read a line break inside quotes"):
            read_csv(csv_path, schema)

    def test_missing_column(self, tmp_path, small_schema):
        csv_path = tmp_path / "missing.csv"
        write_lines(csv_path, ["age,outcome", "20,no"])
        with pytest.raises(DataError, match="missing column"):
            read_csv(csv_path, small_schema)

    def test_vectorized_pass_takes_clean_writer_output(self, tmp_path, monkeypatch):
        # write_csv quotes these cells and ends rows with '\r\n'; the
        # vectorized pass must read them back.
        schema = DataSchema(
            features=[
                CategoricalFeature("shade", ("a,b", 'x"y', " pad ", "")),
                ContinuousFeature("age", -1.0, 1.0),
            ],
            label_name="label",
            label_values=("no, really", '"yes"'),
        )
        hot = np.eye(4)[[0, 1, 2, 3, 0]]
        expected = LabeledDataset(
            np.column_stack([hot, [-1.0, -0.0, 0.25, 1.0, 1e-300]]),
            np.array([0, 1, 1, 0, 1]),
            2,
        )
        csv_path = tmp_path / "quoted.csv"
        write_csv(expected, schema, csv_path)
        assert b'"a,b"' in csv_path.read_bytes() and b"\r\n" in csv_path.read_bytes()

        def refuse(path, schema):
            raise AssertionError("the vectorized pass refused a clean file")

        monkeypatch.setattr(data_io, "_refuse", refuse)
        loaded = read_csv(csv_path, schema)
        assert loaded.features.tobytes() == expected.features.tobytes()
        assert np.array_equal(loaded.labels, expected.labels)

    def test_cell_over_the_csv_field_limit_fails_as_in_the_row_loop(self, tmp_path, small_schema):
        csv_path = tmp_path / "wide.csv"
        write_lines(csv_path, ["age,color,outcome,note", "20,red,no," + "n" * (csv.field_size_limit() + 1)])
        outcome = load_outcome(read_csv, csv_path, small_schema)
        assert outcome == load_outcome(load_csv_rows, csv_path, small_schema)
        assert "field larger than field limit" in outcome[1]

    def test_line_under_the_field_limit_in_characters_loads(self, tmp_path, small_schema):
        # 70,000 characters in 140,000 bytes: the csv field limit counts characters.
        csv_path = tmp_path / "wide.csv"
        write_lines(csv_path, ["age,color,outcome,note", "20,red,no," + "\u00e9" * 70_000])
        assert read_csv(csv_path, small_schema).n == 1

    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path, small_schema):
        csv_path = tmp_path / "wide.csv"
        write_lines(csv_path, ["age,color,outcome", "20,red,no", "30,blue," + "y" * 140_000])
        with pytest.raises(DataError, match=r"wide\.csv:3: field larger than field limit"):
            read_csv(csv_path, small_schema)

    @pytest.mark.parametrize("terminator", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("line", [1, 3])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, small_schema, terminator, line):
        lines = [b"age,color,outcome", b"20,red,no", b"30,blue,yes", b"40,red,no"]
        lines[line - 1] = lines[line - 1].replace(b",", b",\xff", 1)
        csv_path = tmp_path / "latin.csv"
        csv_path.write_bytes(terminator.join(lines) + terminator)
        with pytest.raises(DataError, match=rf"latin\.csv:{line}: byte b'\\xff' is not UTF-8"):
            read_csv(csv_path, small_schema)

    @pytest.mark.parametrize("byte", [b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f"])
    def test_line_count_refuses_bytes_the_parsers_read_differently(self, tmp_path, small_schema, byte):
        # In an unused column: no row check sees it, so the file is refused whole.
        csv_path = tmp_path / "bytes.csv"
        write_lines(csv_path, ["age,color,outcome,note", "20,red,no,a", "30,blue,yes,b" + byte.decode() + "c"])
        with pytest.raises(DataError, match="bytes" + WHOLE_FILE):
            read_csv(csv_path, small_schema)
        assert load_outcome(read_csv, csv_path, small_schema) == load_outcome(load_csv_rows, csv_path, small_schema)

    @pytest.mark.parametrize("terminator", ["\n", "\r\n", ""])
    def test_quote_left_open_by_the_last_line(self, tmp_path, small_schema, terminator):
        # With a line end the last cell holds a line break, which the row
        # loop refuses; without one the quote closes at the end of the file.
        csv_path = tmp_path / "open.csv"
        csv_path.write_text(f'age,color,outcome,note\r\n1,red,no,a\r\n2,blue,yes,"x{terminator}', encoding="utf-8")
        outcome = load_outcome(read_csv, csv_path, small_schema)
        assert outcome == load_outcome(load_csv_rows, csv_path, small_schema)
        if terminator:
            with pytest.raises(DataError, match="open" + WHOLE_FILE):
                read_csv(csv_path, small_schema)
        else:
            assert read_csv(csv_path, small_schema).labels.tolist() == [0, 1]

    def test_clean_load_reads_its_file_once(self, tmp_path, small_schema, monkeypatch):
        csv_path = tmp_path / "clean.csv"
        write_lines(csv_path, ["age,color,outcome", '30,red,"no"', "40,blue,yes"])
        opened, parsed = [], []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def loadtxt(source, *args, **kwargs):
            parsed.append(source)
            return real_loadtxt(source, *args, **kwargs)

        real_loadtxt = np.loadtxt
        monkeypatch.setattr(data_io, "open", counting_open, raising=False)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert load_csv(csv_path, small_schema, SplitPlan(build_splitting_class(small_schema))).n == 2
        assert opened == [csv_path]
        assert parsed and all(isinstance(lines, list) and all(isinstance(line, str) for line in lines)
                              for lines in parsed)


# Rows of a block in the block-boundary tests, patched in for
# data_io._BLOCK_ROWS, and the line ends they write.
BLOCK = 4
LINE_ENDS = ["\n", "\r\n", "\r"]


def boundary_rows(n):
    return [f"{7 * i % 101},{('red', 'blue')[i % 3 == 0]},{('no', 'yes')[i % 2]},n{i}" for i in range(n)]


def with_cell_note(note):
    return lambda rows, i: rows.__setitem__(i, rows[i][: rows[i].rindex(",") + 1] + note)


def quote_over_a_row(rows, i):
    # A quoted note runs on over the next line, a whole row of its own when
    # parsed a line at a time: from row i, or into row i if it is the last.
    i = min(i, len(rows) - 2)
    with_cell_note('"x')(rows, i)
    rows[i + 1] += '"'


# Defect -> how it damages the i-th data row.
DEFECTS = {
    "none": lambda rows, i: None,
    "bad-cell": lambda rows, i: rows.__setitem__(i, "oops" + rows[i][rows[i].index(","):]),
    "blank-line": lambda rows, i: rows.__setitem__(i, ""),
    "quoted-line-break": with_cell_note('"a\nb"'),
    "quote-over-a-row": quote_over_a_row,
    "nul": with_cell_note("a\0b"),
}


def binned_outcome(load, path, schema, plan):
    try:
        binned = load(path, schema, plan)
    except DataError as exc:
        return str(exc)
    columns = [(column.dtype.str, column.tobytes()) for column in binned.codes]
    return binned.n, binned.n_classes, binned.labels.dtype.str, binned.labels.tobytes(), columns


def bin_row_loop(path, schema, plan):
    return plan.bin(load_csv_rows(path, schema))


class TestBlockBoundaries:
    """`load_csv` reads `_BLOCK_ROWS` rows at a time; whatever lies on the
    first or last row of a block, it must give the binning of the whole
    file's rows, or the DataError of the row loop."""

    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
    def test_equals_binning_the_whole_file(self, tmp_path, monkeypatch, small_schema, n, defect):
        monkeypatch.setattr(data_io, "_BLOCK_ROWS", BLOCK)
        schema, plan = small_schema, SplitPlan(build_splitting_class(small_schema))
        path = tmp_path / "blocks.csv"
        for i, terminator in itertools.product(sorted({0, BLOCK - 1, BLOCK, n - 1} & set(range(n))), LINE_ENDS):
            rows = ["age,color,outcome,note"] + boundary_rows(n)
            DEFECTS[defect](rows, i + 1)
            write_lines(path, rows, terminator)
            outcome = binned_outcome(load_csv, path, schema, plan)
            assert outcome == binned_outcome(bin_row_loop, path, schema, plan)
            assert isinstance(outcome, str) == (defect != "none")
        if defect == "none":
            assert len(list(data_io.csv_blocks(path, schema))) == -(-n // BLOCK)


# Cell text for declared values: commas, quotes and spaces make write_csv
# quote cells, and '#' would start a comment. No line breaks, so every record
# stays on one line.
DECLARED_TEXT = st.text(alphabet=list('ab ,"#x1'), max_size=4)
RANGES = [(0.0, 1.0), (-5.0, 5.0), (0.0, 100.0)]


@st.composite
def schemas(draw):
    features = [
        ContinuousFeature(f"x{j}", *draw(st.sampled_from(RANGES)))
        for j in range(draw(st.integers(0, 2)))
    ]
    # A schema declares at least one feature.
    features += [
        CategoricalFeature(f"c{j}", tuple(draw(st.lists(DECLARED_TEXT, min_size=1, max_size=3, unique=True))))
        for j in range(draw(st.integers(0 if features else 1, 2)))
    ]
    labels = draw(st.lists(DECLARED_TEXT, min_size=2, max_size=3, unique=True))
    return DataSchema(list(draw(st.permutations(features))), "y", tuple(labels))


@st.composite
def schema_datasets(draw):
    schema = draw(schemas())
    n = draw(st.integers(0, 5))
    rows = []
    for _ in range(n):
        row = []
        for feat in schema.features:
            if isinstance(feat, ContinuousFeature):
                row.append(draw(st.floats(feat.lo, feat.hi)))
            else:
                hot = draw(st.integers(0, len(feat.values) - 1))
                row.extend(float(i == hot) for i in range(len(feat.values)))
        rows.append(row)
    labels = draw(st.lists(st.integers(0, schema.n_classes - 1), min_size=n, max_size=n))
    features = np.array(rows, dtype=float).reshape(n, schema.n_encoded)
    return schema, LabeledDataset(features, np.array(labels, dtype=np.int64), schema.n_classes)


def load_outcome(load, path, schema):
    try:
        ds = load(path, schema)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.features.dtype, ds.features.shape, ds.features.tobytes(), ds.labels.dtype, ds.labels.tobytes(), ds.n_classes


class TestLoadCsvProperties:
    @settings(max_examples=300, deadline=None)
    @given(schema_datasets(), st.data())
    def test_equals_row_loop_on_mutated_files(self, case, data):
        schema, dataset = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            write_csv(dataset, schema, path)
            with open(path, newline="", encoding="utf-8") as fh:
                records = fh.read().split("\r\n")[:-1]
            path.write_bytes(mutate_csv(records, schema, data).encode("utf-8"))
            assert load_outcome(read_csv, path, schema) == load_outcome(load_csv_rows, path, schema)

    @settings(max_examples=200, deadline=None)
    @given(schema_datasets())
    def test_write_then_load_round_trips(self, case):
        schema, dataset = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            write_csv(dataset, schema, path)
            loaded = read_csv(path, schema)
            plan = SplitPlan(build_splitting_class(schema))
            binned = binned_outcome(load_csv, path, schema, plan)
        assert binned == binned_outcome(lambda *_: plan.bin(dataset), path, schema, plan)
        assert loaded.features.tobytes() == dataset.features.tobytes()
        assert loaded.features.shape == dataset.features.shape
        assert np.array_equal(loaded.labels, dataset.labels)
        assert loaded.n_classes == dataset.n_classes


GOOD_LABEL = {"name": "y", "values": ["0", "1"]}


class TestSchemaJson:
    def test_roundtrip(self, tmp_path, small_schema):
        path = tmp_path / "schema.json"
        save_schema(small_schema, path)
        loaded = load_schema(path)
        assert loaded == small_schema

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            schema_from_dict({
                "features": [{"name": "a", "kind": "ordinal", "min": 0, "max": 1}],
                "label": {"name": "y", "values": ["0", "1"]},
            })

    @pytest.mark.parametrize("build", [
        lambda: DataSchema([ContinuousFeature("x", 0.0, 1.0)], "y", ("0", "1", "0")),
        lambda: CategoricalFeature("c", ("a", "a", "b")),
        lambda: CategoricalFeature("c", (1, "1")),
    ], ids=["label", "categorical", "same-text"])
    def test_duplicate_declared_values_rejected(self, build):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: SplittingSpec(default_thresholds=2.5),
        lambda: SplittingSpec(default_thresholds=True),
        lambda: SplittingSpec(per_feature={"x": 1.5}),
        lambda: ContinuousFeature("x", "0", 1.0),
        lambda: CategoricalFeature("c", "ab"),
        lambda: DataSchema([ContinuousFeature("x", 0.0, 1.0)], "y", "01"),
    ], ids=["float-count", "bool-count", "float-per-feature", "text-bound", "text-values", "text-labels"])
    def test_python_api_refuses_a_bad_type_when_made(self, build):
        # A schema file's casts refuse each of these; made from Python, the
        # schema must refuse them too, not fail or misread them later.
        with pytest.raises(InvalidParameterError):
            build()

    @pytest.mark.parametrize("doc,key", [
        ({}, "features"),
        ([], "JSON object"),
        ({"features": [{"name": "x", "min": "low", "max": 1}], "label": GOOD_LABEL}, "min"),
        ({"features": [{"name": "x", "min": 0}], "label": GOOD_LABEL}, "max"),
        ({"features": ["x"], "label": GOOD_LABEL}, "feature 0"),
        ({"features": [], "label": GOOD_LABEL, "splits": []}, "splits"),
        ({"features": [], "label": GOOD_LABEL, "splits": {"per_feature": {"x": "many"}}}, "x"),
        ({"features": [], "label": GOOD_LABEL, "splits": {"blocks": [{"columns": [0]}]}}, "thresholds"),
        ({"features": [], "label": {"values": ["0", "1"]}}, "name"),
        ({"features": [], "label": GOOD_LABEL, "splits": {"default_thresholds": 6.9}}, "default_thresholds"),
        ({"features": [], "label": GOOD_LABEL, "splits": {"default_thresholds": True}}, "default_thresholds"),
        ({"features": [], "label": GOOD_LABEL, "splits": {"per_feature": {"x": 2.5}}}, "x"),
        ({"features": [], "label": GOOD_LABEL, "splits": {"blocks": [{"columns": [True], "thresholds": [1]}]}},
         "columns"),
        # float() would make true 1.0 and read numbers out of strings.
        ({"features": [{"name": "x", "min": True, "max": 7}], "label": GOOD_LABEL}, "min"),
        ({"features": [{"name": "x", "min": 0, "max": "7"}], "label": GOOD_LABEL}, "max"),
        *(({"features": [{"name": "x", "min": 0, "max": 1}], "label": GOOD_LABEL,
            "splits": {"blocks": [{"columns": [0], "thresholds": [bad]}]}}, "thresholds")
          for bad in (True, "0.5", math.nan)),
    ])
    def test_malformed_schema_names_the_key(self, doc, key):
        with pytest.raises(DataError, match=key):
            schema_from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"features": [], "label": GOOD_LABEL, "labels": GOOD_LABEL}, "schema has unknown key 'labels'"),
        ({"features": [{"name": "x", "min": 0, "max": 1, "step": 0.1}], "label": GOOD_LABEL},
         "schema feature 0 has unknown key 'step'"),
        ({"features": [{"name": "x", "min": 0, "max": 1, "values": ["a"]}], "label": GOOD_LABEL},
         "schema feature 0 has unknown key 'values'"),
        ({"features": [{"name": "c", "kind": "categorical", "values": ["a"], "min": 0}], "label": GOOD_LABEL},
         "schema feature 0 has unknown key 'min'"),
        ({"features": [], "label": {**GOOD_LABEL, "default": "0"}}, "schema label has unknown key 'default'"),
        # Ignored, this key would leave 10 thresholds in place of 31.
        ({"features": [{"name": "x", "min": 0, "max": 1}], "label": GOOD_LABEL,
          "splits": {"default_threshold": 31}}, "schema splits has unknown key 'default_threshold'"),
        ({"features": [{"name": "x", "min": 0, "max": 1}], "label": GOOD_LABEL,
          "splits": {"blocks": [{"columns": [0], "thresholds": [0.5], "weights": [1]}]}},
         "schema block 0 has unknown key 'weights'"),
    ], ids=["top", "continuous-feature", "values-of-continuous", "min-of-categorical", "label", "splits", "block"])
    def test_unknown_key_at_each_level_rejected(self, doc, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            schema_from_dict(doc)

    def test_schema_declaring_a_nul_value_is_a_data_error(self, tmp_path):
        # numpy strings drop trailing NULs, so "a\0" would also match cell "a".
        path = tmp_path / "schema.json"
        for doc in [
            {"features": [{"name": "c", "kind": "categorical", "values": ["a", "a\0"]}], "label": GOOD_LABEL},
            {"features": [], "label": {"name": "y", "values": ["0", "0\0"]}},
        ]:
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match=r"schema\.json: .*a declared value holds a NUL"):
                load_schema(path)

    @pytest.mark.parametrize("doc", [
        {"features": [{"name": "x", "min": 1, "max": 1}], "label": GOOD_LABEL},
        {"features": [{"name": "x", "min": math.nan, "max": 1}], "label": GOOD_LABEL},
        {"features": [], "label": {"name": "y", "values": ["0", "1", "0"]}},
        {"features": [{"name": "c", "kind": "categorical", "values": ["a", "a"]}], "label": GOOD_LABEL},
        {"features": [], "label": GOOD_LABEL, "splits": {"blocks": [{"columns": [], "thresholds": [1]}]}},
        {"features": [], "label": GOOD_LABEL, "splits": {"default_thresholds": 0}},
        {"features": [], "label": GOOD_LABEL, "splits": {"per_feature": {"x": -2}}},
        {"features": [{"name": "x", "min": 0, "max": 1}], "label": GOOD_LABEL,
         "splits": {"blocks": [{"columns": [0, 1], "thresholds": [0.5]}]}},
        {"features": [{"name": "x", "min": 0, "max": 1}], "label": GOOD_LABEL,
         "splits": {"blocks": [{"columns": [-1], "thresholds": [0.5]}]}},
        {"features": [{"name": "x", "min": 0, "max": math.inf}], "label": GOOD_LABEL},
        # "xx" is no feature and "c" is categorical, so neither count could apply.
        {"features": [{"name": "x", "min": 0, "max": 1},
                      {"name": "c", "kind": "categorical", "values": ["a", "b"]}],
         "label": GOOD_LABEL, "splits": {"per_feature": {"xx": 50, "c": 7}}},
        {"features": [], "label": GOOD_LABEL},
    ], ids=["empty-range", "nan-range", "duplicate-label", "duplicate-category", "empty-block",
            "zero-thresholds", "negative-per-feature", "block-column-past-end", "negative-block-column",
            "infinite-range", "per-feature-not-continuous", "no-features"])
    def test_schema_file_failing_its_checks_raises_data_error(self, tmp_path, doc):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidParameterError):
            schema_from_dict(doc)
        with pytest.raises(DataError, match="schema.json"):
            load_schema(path)



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
        # A split's index is its position: the feature's thresholds, then the block's.
        assert [(s.feature, s.block) for s in splits] == [(0, None), (0, None), (None, (0,)), (None, (0,))]
        assert [s.threshold for s in splits[2:]] == [0.1, 0.9]

    def test_nonpositive_threshold_count_rejected(self):
        # Rejected with the spec, so a schema file with one fails at load.
        for spec in ({"default_thresholds": 0}, {"per_feature": {"x": -1}}):
            with pytest.raises(InvalidParameterError, match="positive"):
                SplittingSpec(**spec)

    def test_pure_function_of_schema(self, small_schema):
        # H can be built before any data exists and is identical across calls
        first = build_splitting_class(small_schema)
        second = build_splitting_class(small_schema)
        assert first == second


class TestPartition:
    def test_uniform_disjoint_union(self):
        # Each row draws its holder; the holders' rows cover every row once.
        holders = partition(100, 4, RandomSource(2))
        assert np.array_equal(holders, RandomSource(2).integers(0, 4, size=100))
        parts = [np.flatnonzero(holders == i) for i in range(4)]
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(100))

    def test_same_seed_same_partition(self):
        assert np.array_equal(partition(200, 4, RandomSource(7)), partition(200, 4, RandomSource(7)))

    def test_more_entities_than_rows_allowed(self):
        holders = partition(3, 10, RandomSource(5))
        assert holders.shape == (3,) and holders.max() < 10

    @pytest.mark.parametrize("k, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_holders_in_the_smallest_dtype(self, k, dtype):
        # The draw itself is int64, so the holders do not depend on k's dtype.
        holders = partition(1000, k, RandomSource(6))
        assert holders.dtype == dtype
        assert np.array_equal(holders, RandomSource(6).integers(0, k, size=1000))

    def test_needs_an_entity(self):
        with pytest.raises(InvalidParameterError):
            partition(3, 0, RandomSource(5))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_binned_parts_hold_the_rows_of_the_dataset_parts(n, k, seed):
    # The run path deals and splits the binning, so a row must land in
    # the same part of it as of the dataset, and the parts must cover the
    # rows once each.
    ds, _, schema = synthetic_tree_dataset(n, RandomSource(seed, ("data",)), thresholds=3)
    splits = build_splitting_class(schema)
    # A last column, which no split reads, names each row.
    ds = LabeledDataset(np.column_stack([ds.features, np.arange(n)]), ds.labels, ds.n_classes)
    binned = SplitPlan(splits).bin(ds)
    holders = partition(n, k, RandomSource(seed))
    for cut in (lambda d: [d.subset(np.flatnonzero(holders == i)) for i in range(k)],
                lambda d: train_test_split(d, (k, 1), RandomSource(seed))):
        parts, binned_parts = cut(ds), cut(binned)
        assert np.array_equal(np.sort(np.concatenate([part.features[:, -1] for part in parts])), np.arange(n))
        for part, binned_part in zip(parts, binned_parts, strict=True):
            fresh = SplitPlan(splits).bin(part)
            assert binned_part.n == fresh.n == part.n
            assert np.array_equal(binned_part.labels, fresh.labels)
            for ours, theirs in zip(binned_part.codes, fresh.codes, strict=True):
                assert np.array_equal(ours, theirs)


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
        # Every truth split, feature and float threshold alike, is exactly a
        # split of the class that the learners search.
        assert set(truth.plan.splits) <= set(build_splitting_class(schema))
        assert tree_error(truth, truth.plan.bin(ds)) == 0.0

    def test_label_noise_rate(self):
        ds, truth, schema = synthetic_tree_dataset(20000, RandomSource(15), depth=2, label_noise=0.2)
        assert set(truth.plan.splits) <= set(build_splitting_class(schema))
        assert tree_error(truth, truth.plan.bin(ds)) == pytest.approx(0.2, abs=0.02)

    def test_bench_fixture_bytes_are_pinned(self, tmp_path):
        # The bench's 1,500-row fixture (depth-3 truth tree, 31 thresholds):
        # a change to the generating code must not change its bytes.
        spec = importlib.util.spec_from_file_location("fixtures", Path(__file__).parents[1] / "bench" / "fixtures.py")
        fixtures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fixtures)
        fixtures.write_fixture(1500, 1, tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("data.csv", "schema.json")}
        assert digests == {
            "data.csv": "f471f1364dabc69b798d98002e6d965e9f59bf9f3da0727116b696f82618586a",
            "schema.json": "39e371d9ece757e0a59f47ad64ef2190254e1b280c81ae872f3443c0673a484f",
        }

    def test_truth_thresholds_on_grid(self):
        ds, truth, schema = synthetic_tree_dataset(100, RandomSource(16), depth=3)
        grid = {round(s.threshold, 9) for s in build_splitting_class(schema)}
        for record in truth.to_dict()["nodes"]:
            if record["kind"] == "split":
                assert round(record["threshold"], 9) in grid
