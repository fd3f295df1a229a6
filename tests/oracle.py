"""Independent references the tests check the package against.

`topdown_nonprivate` is the greedy top-down learner written as its own loop:
it keeps every leaf's rows itself and counts them afresh, with no strategy,
entity cache or ledger. Run through `dp_topdown`, `ExactStrategy` must grow
the same tree, and so must every private strategy under zero noise.
`route` walks one row down a tree, the per-row reference for
`DecisionTree.predict`, and `float_sides` is the side test that routes float
rows through `DecisionTree.assign`. `potential` is the weighted criterion value over the
leaves, an upper bound on the error of the majority-labeled tree.

`distribution_value` and `gain_from_counts` are the criteria and the split
gain written over the (..., K, 2) table layout with numpy's reductions; the
package's label-major kernel must equal this gain bit for bit.

`empirical_sensitivity` and `worst_neighbor_change` check the package's
sensitivity bounds by brute force: the first on sampled leaves with one row
moved, the second on every two-label leaf of m rows with one row added,
removed or moved.

`load_csv_rows` is `data_io.csv_blocks`, its blocks concatenated, written as
a row loop over `csv.reader`: it builds the dataset a cell at a time and must
give the same dataset, or the same DataError, on every file. `mutate_csv` draws the damaged files that
the two loaders, and `dptree train`, are fed.
"""

import csv
import heapq
import io
import itertools
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from dptree.data_io import ContinuousFeature, DataError, _csv_rows
from dptree.dp_core import InvalidParameterError
from dptree.tree_learning import (
    Criterion,
    DecisionTree,
    LabeledDataset,
    Node,
    SplitPlan,
    gain_from_counts as package_gain,
    split_count_tables,
)


def distribution_value(criterion: Criterion, p: np.ndarray) -> np.ndarray:
    """Criterion value of label distributions p with shape (..., K).

    Rows are probability vectors; all-zero rows (empty leaves) score 0 under
    entropy. The two-class case reduces to the scalar forms: entropy
    -q lg q -(1-q) lg(1-q), Gini 4q(1-q), root Gini 2 sqrt(q(1-q)).
    Multiclass values are normalized so a uniform distribution scores 1 and a
    point mass scores 0.
    """
    p = np.asarray(p, dtype=float)
    k = p.shape[-1]
    if k < 2:
        return np.zeros(p.shape[:-1])
    if criterion is Criterion.ENTROPY:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
        return -terms.sum(axis=-1) / math.log2(k)
    gini = (1.0 - np.square(p).sum(axis=-1)) * (k / (k - 1.0))
    gini = np.clip(gini, 0.0, None)
    if criterion is Criterion.GINI:
        return gini
    if criterion is Criterion.ROOT_GINI:
        return np.sqrt(gini)
    raise InvalidParameterError(f"unknown criterion {criterion!r}")


def gain_from_counts(cells: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Split gain J from joint label-by-side count tables, shape (..., K, 2):
    J = G(parent) - sum_b (n_b / n) G(child_b), 0 for a table with zero
    total, negative float residue clamped to 0."""
    cells = np.asarray(cells, dtype=float)
    n_y = cells.sum(axis=-1)
    n_b = cells.sum(axis=-2)
    n = n_y.sum(axis=-1)
    safe_n = np.where(n > 0.0, n, 1.0)
    safe_nb = np.where(n_b > 0.0, n_b, 1.0)
    parent = distribution_value(criterion, n_y / safe_n[..., None])
    children = distribution_value(
        criterion, np.moveaxis(cells, -1, -2) / safe_nb[..., None]
    )  # (..., 2)
    gain = parent - ((n_b / safe_n[..., None]) * children).sum(axis=-1)
    return np.where(n > 0.0, np.clip(gain, 0.0, None), 0.0)


def majority_label(counts: np.ndarray) -> int:
    """Most common label; ties and empty leaves go to the lowest index."""
    return int(np.argmax(counts))


def route(tree: DecisionTree, x: np.ndarray) -> Node:
    """Leaf reached by a single feature vector."""
    node = tree.root
    x = np.asarray(x, dtype=float).reshape(1, -1)
    while not node.is_leaf:
        node = node.right if tree.plan.splits[node.split_index].evaluate(x)[0] else node.left
    return node


def float_sides(X: np.ndarray, plan: SplitPlan):
    """`DecisionTree.assign`'s side test on the float rows of X for a tree
    over `plan`: side 1 where the tested value exceeds the threshold."""
    return lambda index, rows: plan.splits[index].evaluate(X, rows) == 1


def potential(tree: DecisionTree, dataset: LabeledDataset, criterion: Criterion) -> float:
    """Weighted criterion value over leaves: an upper bound on the training
    error of the majority-labeled tree."""
    if dataset.n == 0:
        raise InvalidParameterError("cannot evaluate potential on an empty dataset")
    leaf_ids = tree.assign(dataset.n, float_sides(dataset.features, tree.plan))
    value = 0.0
    for leaf in tree.leaves():
        rows = leaf_ids == leaf.node_id
        n_leaf = int(rows.sum())
        if n_leaf == 0:
            continue
        p = np.bincount(dataset.labels[rows], minlength=dataset.n_classes) / n_leaf
        value += (n_leaf / dataset.n) * float(distribution_value(criterion, p))
    return value


def topdown_nonprivate(
    dataset: LabeledDataset,
    splits,
    max_nodes: int,
    criterion: Criterion,
    min_gain: float = 0.01,
    min_weight: float = 0.0,
) -> DecisionTree:
    """Greedy top-down tree induction.

    Repeatedly pops the leaf/split pair with the largest potential decrease
    w(leaf) * J(leaf, h), ties in push order, and splits it, for at most
    max_nodes iterations. Children are queued only when their best gain
    exceeds min_gain and their weight is at least min_weight. Leaves get
    exact majority labels.
    """
    X = dataset.features
    plan = SplitPlan(splits)
    binned = plan.bin(dataset)
    tree = DecisionTree(plan)
    members = {tree.root.node_id: np.arange(dataset.n)}
    heap = []  # (-priority, push order, leaf, split index)
    order = itertools.count()

    def consider(leaf, rows, weight):
        gains = gain_from_counts(split_count_tables(binned, rows, plan.indices), criterion)
        best = int(np.argmax(gains))
        if weight >= min_weight and gains[best] > min_gain:
            heapq.heappush(heap, (-weight * float(gains[best]), next(order), leaf, best))

    consider(tree.root, members[tree.root.node_id], 1.0)
    for _ in range(max_nodes):
        if not heap:
            break
        _, _, leaf, index = heapq.heappop(heap)
        rows = members.pop(leaf.node_id)
        sides = splits[index].evaluate(X, rows)
        for child, child_rows in zip(tree.split_leaf(leaf, index), (rows[sides == 0], rows[sides == 1])):
            members[child.node_id] = child_rows
            consider(child, child_rows, child_rows.size / dataset.n)

    for leaf in tree.leaves():
        leaf.label = majority_label(np.bincount(dataset.labels[members[leaf.node_id]], minlength=dataset.n_classes))
    return tree


def _neighbor_deltas(tables: np.ndarray, criterion: Criterion) -> float:
    """Max |J(S) - J(S')| over all single-point moves for each table."""
    base = package_gain(tables, criterion)
    worst = 0.0
    flat = tables.reshape(tables.shape[0], 4)
    for src in range(4):
        movable = flat[:, src] >= 1.0
        if not movable.any():
            continue
        for dst in range(4):
            if dst == src:
                continue
            moved = flat.copy()
            moved[:, src] -= 1.0
            moved[:, dst] += 1.0
            deltas = np.abs(package_gain(moved.reshape(tables.shape), criterion) - base)
            worst = max(worst, float(deltas[movable].max(initial=0.0)))
    return worst


def empirical_sensitivity(criterion: Criterion, m: int, trials: int, seed: int = 0) -> float:
    """Brute-force check of a sensitivity bound.

    A dataset of size m together with one split is, for gain purposes, just a
    2x2 joint count table. Samples `trials` random tables (dense and sparse
    mixes plus hand-picked near-degenerate corners) and maximizes |J - J'|
    over every single-point replacement of every table. The tables come from
    the PCG64 generator that `RandomSource(seed)` holds.
    """
    if m < 3:
        raise InvalidParameterError(f"m must be >= 3, got {m}")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    dense = gen.dirichlet(np.ones(4), size=max(trials // 2, 1))
    sparse = gen.dirichlet(np.full(4, 0.15), size=max(trials - trials // 2, 1))
    tables = gen.multinomial(m, np.vstack([dense, sparse])).astype(float)
    corners = np.array(
        [
            [m - 1, 0, 1, 0],
            [m - 1, 1, 0, 0],
            [m - 1, 0, 0, 1],
            [m // 2, m - m // 2 - 1, 1, 0],
            [m - 2, 1, 1, 0],
        ],
        dtype=float,
    )
    tables = np.vstack([tables, corners]).reshape(-1, 2, 2)
    return _neighbor_deltas(tables, criterion)


def two_label_tables(m: int) -> np.ndarray:
    """Every joint table of m rows over two labels and two sides, (N, 2, 2)."""
    a, b, c = (axis.ravel() for axis in np.indices((m + 1,) * 3, dtype=np.int16))
    keep = a + b + c <= m
    a, b, c = a[keep], b[keep], c[keep]
    return np.stack([a, b, c, m - a - b - c], axis=1).astype(float).reshape(-1, 2, 2)


def worst_neighbor_change(criterion: Criterion, m: int) -> float:
    """Largest |J(S) - J(S')| over every two-label leaf S of m rows and
    every S' one row away: a row added, removed, or moved to another cell
    (a replaced row that stays in the leaf)."""
    tables = two_label_tables(m)
    flat = tables.reshape(-1, 4)
    base = package_gain(tables, criterion)
    worst = _neighbor_deltas(tables, criterion)
    for cell, unit in enumerate(np.eye(4)):
        added = package_gain((flat + unit).reshape(tables.shape), criterion)
        worst = max(worst, float(np.abs(added - base).max()))
        present = flat[:, cell] >= 1.0
        removed = package_gain((flat - unit).reshape(tables.shape), criterion)
        worst = max(worst, float(np.abs(removed - base)[present].max()))
    return worst


def load_csv_rows(path, schema) -> LabeledDataset:
    """The dataset of a CSV file, parsed row by row; DataError names the
    first bad row. A number is what float() reads, less underscores and
    non-ASCII characters other than whitespace. A file whose rows all pass
    but that holds a line break inside quotes, a NUL or \\x1c-\\x1f byte, or
    a line over the csv field size limit is refused as a whole."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    with fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        positions = {}
        for column in [f.name for f in schema.features] + [schema.label_name]:
            if column not in header:
                raise DataError(f"{path}: missing column {column!r}")
            positions[column] = header.index(column)

        # csv.reader puts a line break in a cell only from inside quotes.
        quoted_break = any("\n" in cell or "\r" in cell for cell in header)
        rows, labels = [], []
        label_index = {v: i for i, v in enumerate(schema.label_values)}
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{row_number}: expected {len(header)} columns, got {len(row)}"
                )
            quoted_break |= any("\n" in cell or "\r" in cell for cell in row)
            encoded = []
            for feat in schema.features:
                cell = row[positions[feat.name]]
                if isinstance(feat, ContinuousFeature):
                    try:
                        if any(c == "_" or not (c.isascii() or c.isspace()) for c in cell):
                            raise ValueError(cell)
                        value = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}:{row_number}: cannot parse {cell!r} as a number for {feat.name!r}"
                        )
                    if not feat.lo <= value <= feat.hi:
                        raise DataError(
                            f"{path}:{row_number}: {feat.name}={value} outside declared "
                            f"range [{feat.lo}, {feat.hi}]"
                        )
                    encoded.append(value)
                else:
                    if cell not in feat.values:
                        raise DataError(
                            f"{path}:{row_number}: {cell!r} not a declared value of {feat.name!r}"
                        )
                    encoded.extend(1.0 if cell == v else 0.0 for v in feat.values)
            label_cell = row[positions[schema.label_name]]
            if label_cell not in label_index:
                raise DataError(f"{path}:{row_number}: label {label_cell!r} not in declared label set")
            rows.append(encoded)
            labels.append(label_index[label_cell])

    data = Path(path).read_bytes()
    limit = csv.field_size_limit()
    if (quoted_break or any(byte in data for byte in b"\0\x1c\x1d\x1e\x1f")
            or any(len(line.decode("utf-8")) > limit for line in data.splitlines(keepends=True))):
        raise DataError(
            f"{path}: cannot read a line break inside quotes, a NUL or \\x1c-\\x1f byte, "
            f"or a line longer than the csv field size limit of {limit}"
        )
    features = np.array(rows, dtype=float) if rows else np.empty((0, schema.n_encoded))
    return LabeledDataset(features, np.array(labels, dtype=np.int64), schema.n_classes)


# Raw, already CSV-encoded cell text that both parsers must treat alike.
TRICKY_CELLS = [" 1", "1_0", "nan", "inf", "0x1", "", "\u0661", '"1"', "1e400", "1\x1c", "a\x00", '"a\nb"', '"x']


def mutate_csv(records, schema, data) -> str:
    """The text of a CSV file of `schema` whose lines are `records`, its
    header first, as drawn from the Hypothesis `data`: maybe one cell of a
    row made tricky, out of range, too long or space-padded, or a cell
    dropped or added; maybe a blank line inserted; any of three line ends,
    with or without one after the last line."""
    records = list(records)
    if len(records) > 1 and data.draw(st.booleans(), label="mutate a cell"):
        r = data.draw(st.integers(1, len(records) - 1), label="row")
        cells = next(csv.reader([records[r]]))
        j = data.draw(st.integers(0, len(cells) - 1), label="column")
        kind = data.draw(st.sampled_from(["tricky", "out of range", "trailing space", "too long", "drop", "extra"]))
        raw = None
        if kind == "tricky":
            raw = data.draw(st.sampled_from(TRICKY_CELLS))
        elif kind == "out of range":
            raw = repr(max([f.hi for f in schema.features if isinstance(f, ContinuousFeature)], default=0.0) + 1.0)
        elif kind == "trailing space":
            cells[j] += " "
        elif kind == "too long":
            # Cut to the longest declared value, this cell would match it.
            declared = {f.name: f.values for f in schema.features if not isinstance(f, ContinuousFeature)}
            header = next(csv.reader([records[0]]))
            cells[j] = max(declared.get(header[j], schema.label_values), key=len) + "x"
        elif kind == "drop":
            del cells[j]
        else:
            cells.append("1")
        token = "\x07cell\x07"
        if raw is not None:
            cells[j] = token
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow(cells)
        records[r] = line.getvalue().replace(token, raw or "")
    if data.draw(st.booleans(), label="blank line"):
        records.insert(data.draw(st.integers(0, len(records))), "")
    terminator = data.draw(st.sampled_from(["\r\n", "\n", "\r"]))
    text = terminator.join(records)
    if data.draw(st.booleans(), label="final line end"):
        text += terminator
    return text
