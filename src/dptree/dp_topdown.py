"""The differentially private top-down learner (DP-TopDown): the budget
schedules, named "decay" and "uniform", the greedy loop over a max-priority
queue, and the two mechanisms that run on exact counts (noisy weight
estimation, and RNM labeling of all leaves in one release).

The loop is one code path for every strategy, the non-private baseline
included. A leaf is its `tree_learning.Node`, which carries only public
facts: its id, its depth and its (plan index, side) path from the root.
The loop asks the strategy each question about a leaf:

- `split(leaf, alpha, ledger)`: the chosen split's plan index and its
  released gain, raising DegenerateLeafError when the leaf is too small;
- `weight(leaf, budget, ledger)`: the noisy fraction of rows in the leaf,
  spending `budget`, half the leaf's allowance alpha_leaf;
- `labels(leaves, budget, ledger)`: the private majority label of each of
  the final leaves, asked once, after the last split, with each leaf's
  budget;
- `pool`, an attribute set when the strategy is made: the owner of the
  holders' rows (`split_strategies.EntityPool`), whose `plan` the tree's
  indices name splits of and whose binning's row count `pool.binned.n` is
  the public |S|.

Strategies read their own rows, draw their own noise and record their own
charges. `ExactStrategy` answers every query exactly and charges nothing,
which makes this loop the greedy top-down baseline; under zero noise every
private strategy grows the same tree as it, with the same node cap, gain
threshold and weight filter.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .data_io import _finite, read_object
from .dp_core import (
    DegenerateLeafError,
    InvalidParameterError,
    PrivacyLedger,
    RandomSource,
    Scope,
    report_noisy_max,
    sample_laplace,
)
from .tree_learning import DecisionTree


# ---------------------------------------------------------------------------
# Budget schedules
# ---------------------------------------------------------------------------


def known_schedule(schedule: str) -> str:
    """The name of a budget schedule, "decay" or "uniform"; any other name
    raises InvalidParameterError."""
    if schedule not in ("decay", "uniform"):
        raise InvalidParameterError(f"unknown budget schedule {schedule!r}")
    return schedule


def budget_share(schedule: str, depth: int, max_nodes: int) -> Fraction:
    """B(d), the share of the split budget that funds depth d of 1..M.
    "decay" gives 2^-d, so early splits, which matter most, get the larger
    share; "uniform" gives 1/M, so the M depths share it equally."""
    decays = known_schedule(schedule) == "decay"
    if not 1 <= depth <= max_nodes:
        raise InvalidParameterError(f"depth {depth} outside [1, {max_nodes}] for {schedule} budgeting")
    return Fraction(1, 2**depth) if decays else Fraction(1, max_nodes)


def smallest_share(schedule: str, max_nodes: int) -> float:
    """The smallest B(d) over depths 1..M as a float: 1/M, or 2^-M, which is
    0.0 once it underflows; 2**M is never built."""
    return math.ldexp(1.0, -max_nodes) if known_schedule(schedule) == "decay" else 1.0 / max_nodes


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The smallest budget that `DPTopDownConfig` lets a release be given.
MIN_RELEASE_BUDGET = 2.0**-900


@dataclass
class DPTopDownConfig:
    """Inputs of the private learner.

    leaf_privacy_fraction (LPF) generalizes the half/half budget division:
    LPF * alpha labels leaves, (1 - LPF) * alpha funds splits; LPF = 0.5
    reproduces the canonical division verbatim. The two exact shares,
    `split_budget` and `leaf_budget`, are computed once, when the config is
    made. `schedule` names how the split budget is spread over depths
    1..max_nodes (`budget_share`).
    """

    alpha: float
    max_nodes: int
    error: float = 0.1
    leaf_privacy_fraction: float = 0.5
    schedule: str = "decay"
    min_gain: float = 0.01
    split_budget: Fraction = field(init=False, repr=False)
    leaf_budget: Fraction = field(init=False, repr=False)

    def __post_init__(self):
        known_schedule(self.schedule)
        numbers = ("alpha", "error", "leaf_privacy_fraction", "min_gain")
        read_object({name: getattr(self, name) for name in numbers}, dict.fromkeys(numbers, _finite),
                    "learner config", error=InvalidParameterError)
        if not self.alpha > 0:
            raise InvalidParameterError(f"alpha must be positive, got {self.alpha}")
        if not isinstance(self.max_nodes, int) or isinstance(self.max_nodes, bool) or self.max_nodes < 1:
            raise InvalidParameterError(f"max_nodes must be an integer >= 1, got {self.max_nodes!r}")
        if not 0.0 < self.error <= 1.0:
            raise InvalidParameterError(f"error must lie in (0, 1], got {self.error}")
        if not 0.0 < self.leaf_privacy_fraction < 1.0:
            raise InvalidParameterError(
                f"leaf_privacy_fraction must lie in (0, 1), got {self.leaf_privacy_fraction}"
            )
        self.split_budget = (1 - Fraction(self.leaf_privacy_fraction)) * Fraction(self.alpha)
        self.leaf_budget = Fraction(self.leaf_privacy_fraction) * Fraction(self.alpha)
        # A noise scale is a float: a count (3|H|, 2K or less) over a release's
        # budget. The smallest budgets, LocalRNM's quarter of a depth-1
        # allowance and a label's, leave room for counts below 2^60 and 60
        # more halvings of the decay schedule.
        depth_1 = self.split_budget * budget_share(self.schedule, 1, self.max_nodes)
        smallest = min(depth_1 / 4, self.leaf_budget)
        if smallest < MIN_RELEASE_BUDGET:
            raise InvalidParameterError(f"alpha {self.alpha}, lpf {self.leaf_privacy_fraction} and the schedule "
                                        f"give a release a budget of {float(smallest):.3g}, below 2**-900")


@dataclass
class RunStats:
    """Per-run diagnostics recorded by dp_topdown that neither the tree
    (its depth and size) nor the ledger entries hold."""

    ledger_effective_cost: float = 0.0
    pushed_weights: list = field(default_factory=list)
    degenerate_splits: int = 0


# ---------------------------------------------------------------------------
# Mechanisms on exact counts
# ---------------------------------------------------------------------------


def estimate_weight(
    leaf_count: int,
    total_n: int,
    budget,
    rng: RandomSource,
    ledger: PrivacyLedger,
    scope: Scope,
) -> float:
    """Noisy leaf weight |S_leaf|/|S| + Lap(1/(|S| budget)).

    `budget` is half the leaf's allowance alpha_leaf (count sensitivity 1),
    and it is what the call charges. The estimate may fall outside [0, 1]; it
    feeds only the weight filter and the queue priority and is never
    clamped. The scale is an integer true division of the budget's parts,
    which Python rounds correctly, so it equals float(1 / (budget |S|))
    without building a Fraction; a budget whose scale is past the floats
    raises InvalidParameterError before anything is charged.
    """
    if total_n <= 0:
        raise InvalidParameterError("total dataset size must be positive")
    if not isinstance(budget, Fraction):
        budget = Fraction(budget)
    if budget <= 0:
        raise InvalidParameterError("weight budget must be positive")
    try:
        noise = sample_laplace(budget.denominator / (budget.numerator * total_n), rng)
    except OverflowError:  # the integer division's result is past the largest float
        raise InvalidParameterError("weight budget is too small: 1/(budget |S|) is past the floats") from None
    ledger.charge(scope, budget)
    return leaf_count / total_n + float(noise)


def rnm_labels(counts, budget, rng: RandomSource, ledger: PrivacyLedger, scopes: list) -> list:
    """Private majority labels of leaves: RNM over each row of exact
    per-label counts, shape (leaves, K) (sensitivity 1), with the full leaf
    budget, in one release whose draws are those of one release per leaf in
    leaf order. Each leaf is charged under its scope; leaves partition the
    data, so these charges compose in parallel. Ties and empty leaves
    resolve to the lowest label."""
    chosen, _ = report_noisy_max(counts, 1.0, float(budget), rng)
    for scope in scopes:
        ledger.charge(scope, budget)
    return chosen.tolist()


def label_leaves(tree: DecisionTree, strategy, leaf_budget, ledger: PrivacyLedger) -> DecisionTree:
    """Privately label every leaf through one `strategy.labels` call with
    the leaf budget."""
    leaf_budget = Fraction(leaf_budget)
    if leaf_budget <= 0:
        raise InvalidParameterError("leaf budget must be positive")
    leaves = tree.leaves()
    for leaf, label in zip(leaves, strategy.labels(leaves, leaf_budget, ledger)):
        leaf.label = label
    return tree


# ---------------------------------------------------------------------------
# The learner
# ---------------------------------------------------------------------------


def dp_topdown(strategy, config: DPTopDownConfig):
    """Top-down tree learning through one strategy.

    Returns (tree, ledger, stats). An exhausted queue before max_nodes
    splits is normal termination. A charge that would take the ledger over
    alpha raises BudgetExceededError.
    """
    if strategy.pool.binned.n <= 0:
        raise InvalidParameterError("cannot learn from an empty data source")

    ledger = PrivacyLedger(config.alpha)
    stats = RunStats()
    tree = DecisionTree(strategy.pool.plan)
    # Max-priority heap of (-priority, push count, leaf, split index). The push
    # count is unique, so ties pop in push order and no two leaves are compared.
    queue = []

    allowances = {}  # budget depth -> (alpha_leaf, alpha_leaf / 2)

    def allowance(depth: int) -> tuple:
        if depth not in allowances:
            alpha_leaf = config.split_budget * budget_share(config.schedule, depth, config.max_nodes)
            allowances[depth] = (alpha_leaf, alpha_leaf / 2)
        return allowances[depth]

    # Root: PrivateSplit with the full depth-1 allowance and no weight
    # estimate; its children at depth 1 are funded by the same B(1).
    try:
        best, priority = strategy.split(tree.root, allowance(1)[0], ledger)
        if priority > config.min_gain:
            heapq.heappush(queue, (-priority, 0, tree.root, best))
            stats.pushed_weights.append(1.0)
    except DegenerateLeafError:
        stats.degenerate_splits += 1

    weight_floor = config.error / config.max_nodes
    for _ in range(config.max_nodes):
        if not queue:
            break
        _, _, leaf, chosen = heapq.heappop(queue)
        for child in tree.split_leaf(leaf, chosen):
            _, half = allowance(child.budget_depth)
            weight = strategy.weight(child, half, ledger)
            try:
                child_best, child_gain = strategy.split(child, half, ledger)
            except DegenerateLeafError:
                stats.degenerate_splits += 1
                continue
            if weight >= weight_floor and child_gain > config.min_gain:
                heapq.heappush(queue, (-weight * child_gain, len(stats.pushed_weights), child, child_best))
                stats.pushed_weights.append(weight)

    label_leaves(tree, strategy, config.leaf_budget, ledger)

    stats.ledger_effective_cost = float(ledger.effective_cost())
    assert tree.depth <= tree.internal_count <= config.max_nodes
    return tree, ledger, stats
