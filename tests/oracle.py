"""Independent references the tests check the package against.

`topdown_nonprivate` is the greedy top-down learner written as its own loop:
it keeps every leaf's rows itself and counts them afresh, with no strategy,
entity cache or ledger. Run through `dp_topdown`, `ExactStrategy` must grow
the same tree, and so must every private strategy under zero noise.
`route` walks one row down a tree, the per-row reference for
`DecisionTree.predict`, and `float_sides` is the side test that routes float
rows through `DecisionTree.assign`. `potential` is the weighted criterion value over the
leaves, an upper bound on the error of the majority-labeled tree.
"""

import heapq
import itertools

import numpy as np

from dptree.dp_core import InvalidParameterError
from dptree.tree_learning import (
    BinnedFeatures,
    Criterion,
    DecisionTree,
    LabeledDataset,
    Node,
    distribution_value,
    gain_from_counts,
    split_count_tables,
)


def majority_label(counts: np.ndarray) -> int:
    """Most common label; ties and empty leaves go to the lowest index."""
    return int(np.argmax(counts))


def route(tree: DecisionTree, x: np.ndarray) -> Node:
    """Leaf reached by a single feature vector."""
    node = tree.root
    x = np.asarray(x, dtype=float).reshape(1, -1)
    while not node.is_leaf:
        node = node.right if node.split.evaluate(x)[0] else node.left
    return node


def float_sides(X: np.ndarray):
    """`DecisionTree.assign`'s side test on the float rows of X: side 1 where
    the tested value exceeds the threshold."""
    return lambda split, rows: split.evaluate(X, rows) == 1


def potential(tree: DecisionTree, dataset: LabeledDataset, criterion: Criterion) -> float:
    """Weighted criterion value over leaves: an upper bound on the training
    error of the majority-labeled tree."""
    if dataset.n == 0:
        raise InvalidParameterError("cannot evaluate potential on an empty dataset")
    leaf_ids = tree.assign(dataset.n, float_sides(dataset.features))
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
    binned = BinnedFeatures(dataset, splits)
    tree = DecisionTree()
    members = {tree.root.node_id: np.arange(dataset.n)}
    heap = []  # (-priority, push order, leaf, split)
    order = itertools.count()

    def consider(leaf, rows, weight):
        gains = gain_from_counts(split_count_tables(binned, rows, splits), criterion)
        best = int(np.argmax(gains))
        if weight >= min_weight and gains[best] > min_gain:
            heapq.heappush(heap, (-weight * float(gains[best]), next(order), leaf, splits[best]))

    consider(tree.root, members[tree.root.node_id], 1.0)
    for _ in range(max_nodes):
        if not heap:
            break
        _, _, leaf, split = heapq.heappop(heap)
        rows = members.pop(leaf.node_id)
        sides = split.evaluate(X, rows)
        for child, child_rows in zip(tree.split_leaf(leaf, split), (rows[sides == 0], rows[sides == 1])):
            members[child.node_id] = child_rows
            consider(child, child_rows, child_rows.size / dataset.n)

    for leaf in tree.leaves():
        leaf.label = majority_label(np.bincount(dataset.labels[members[leaf.node_id]], minlength=dataset.n_classes))
    return tree
