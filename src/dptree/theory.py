"""Computable forms of the utility analysis: the gain sensitivity, the
sample-size requirements of the split strategies, the overall dataset-size
requirement, and the boosting recurrence that drives the split-count bound.
The sensitivity is the learner's own (`split_strategies.rnm_score_sensitivity`),
so the formula the calculator prints is the one that scales RNM's noise. The
brute-force check of it lives with the tests (`tests/oracle.py`), which are
its only readers.

Only constants that appear explicitly in the analysis are used; nothing is
invented beyond them. "log" inside the x >= 2b log(b) device is the natural
log; lg (base 2) appears only inside entropy-style formulas.

Each calculator takes plain numbers and names, and a parameter with a
default may be left out: `dptree theory` passes its --params object as
keyword arguments and requires exactly the parameters that have none.

The calculators work in floats. Inputs whose intermediates or results leave
the finite positive floats (an underflowed budget, an overflowed bound) raise
InvalidParameterError rather than divide by zero or round infinity.
"""

from __future__ import annotations

import math

from .dp_core import InvalidParameterError
from .dp_topdown import known_schedule, smallest_share
from .split_strategies import MIN_LEAF_ROWS, rnm_score_sensitivity
from .tree_learning import Criterion

ITERATION_CAP = 10**9


def _finite_positive(value, what: str) -> float:
    """`value` as a float if it is finite and positive, else
    InvalidParameterError naming the quantity `what`."""
    try:
        number = float(value)
    except OverflowError:  # an integer past the largest float
        number = math.inf
    if not (math.isfinite(number) and number > 0):
        raise InvalidParameterError(f"{what} is {number!r}; the inputs are out of the calculator's range")
    return number


# ---------------------------------------------------------------------------
# Sensitivity of the split gain
# ---------------------------------------------------------------------------


def sensitivity_bound(criterion: Criterion, m: int) -> float:
    """The sensitivity of the gain scores that the learner's RNM uses for a
    leaf of m rows (`split_strategies.rnm_score_sensitivity`): 10 lg(m)/m
    for entropy, 20/m for Gini, and for root Gini, which has no proven
    bound, InvalidParameterError. An m below MIN_LEAF_ROWS, or past the
    floats, raises InvalidParameterError too.
    """
    if m < MIN_LEAF_ROWS:
        raise InvalidParameterError(f"m must be >= {MIN_LEAF_ROWS}, got {m}")
    return rnm_score_sensitivity(criterion, _finite_positive(m, "m"))


# ---------------------------------------------------------------------------
# Sample-size requirements of the split strategies
# ---------------------------------------------------------------------------


def _two_b_log_b(b: float) -> int:
    if b <= 1.0:
        return 3
    return max(3, math.ceil(_finite_positive(2.0 * b * math.log(b), "2 b ln b")))


def rnm_sample_bound(zeta: float, alpha: float, delta: float, h_size: int) -> int:
    """Leaf size that makes single-machine RNM return a zeta-optimal split
    w.p. >= 1-delta: m >= 2 b ln b with b = ln(|H|/delta) * 40/(alpha zeta)."""
    if zeta <= 0 or zeta > 1 or alpha <= 0 or not 0 < delta < 1 or h_size < 1:
        raise InvalidParameterError("require 0 < zeta <= 1, alpha > 0, 0 < delta < 1, |H| >= 1")
    h_size = _finite_positive(h_size, "|H|")
    b = math.log(h_size / delta) * 40.0 / _finite_positive(alpha * zeta, "alpha zeta")
    return _two_b_log_b(b)


def noisycounts_sample_bound(zeta: float, alpha: float, delta: float, k: int, h_size: int) -> int:
    """Leaf size that makes NoisyCounts return a zeta-optimal split w.p.
    >= 1-delta: m >= 2 b ln b with b = 60 ln(3k|H|/delta) k|H|/(alpha zeta)."""
    if zeta <= 0 or zeta > 1 or alpha <= 0 or not 0 < delta < 1 or h_size < 1 or k < 1:
        raise InvalidParameterError("require 0 < zeta <= 1, alpha > 0, 0 < delta < 1, k, |H| >= 1")
    k, h_size = _finite_positive(k, "k"), _finite_positive(h_size, "|H|")
    denominator = _finite_positive(alpha * zeta, "alpha zeta")
    b = 60.0 * math.log(3.0 * k * h_size / delta) * k * h_size / denominator
    return _two_b_log_b(b)


# ---------------------------------------------------------------------------
# Boosting recurrence
# ---------------------------------------------------------------------------


def boosting_recurrence(error: float, gamma: float, slowdown: float = 4, cap: int = ITERATION_CAP) -> int:
    """Splits until the potential falls to the target error, iterating
    G <- G - gamma^2 G / (slowdown * t * log2(2/G)) from G_1 = 1.

    slowdown 4 is the noiseless rate, 8 the private one (half the per-step
    decrease). The count of the first t with G_t <= error is returned; it
    is 1 for the target error 1, which G_1 already meets. The count is
    superpolynomial in 1/error and blows up fast for small gamma, hence the
    iteration cap, past which InvalidParameterError is raised. The decrement
    only shrinks as t grows, so a step that leaves the float potential
    unchanged stalls it for good, and raises it at once.
    """
    if not 0.0 < error <= 1.0:
        raise InvalidParameterError(f"error must lie in (0, 1], got {error}")
    if not 0.0 < gamma <= 0.5:
        raise InvalidParameterError(f"gamma must lie in (0, 1/2], got {gamma}")
    if slowdown <= 0:
        raise InvalidParameterError(f"slowdown must be positive, got {slowdown}")
    potential = 1.0
    rate = gamma * gamma / slowdown
    log2 = math.log2
    t = 1
    while potential > error:
        step = potential - rate * potential / (t * log2(2.0 / potential))
        if step == potential:
            raise InvalidParameterError(
                f"recurrence stalls at step {t} with potential {potential}, above {error}")
        potential = step
        t += 1
        if t > cap:
            raise InvalidParameterError(f"recurrence did not reach {error} within {cap} iterations")
    return t


# ---------------------------------------------------------------------------
# Dataset-size requirement
# ---------------------------------------------------------------------------


def theorem_zeta(gamma: float, error: float, max_nodes: int) -> float:
    """Split-accuracy target: gamma^2 error / (48 M log2(2/error))."""
    return gamma**2 * error / (48.0 * max_nodes * math.log2(2.0 / error))


def dataset_requirement(
    gamma: float, error: float, delta: float, max_nodes: int, alpha: float, h_size: int,
    entities: int = 1, schedule: str = "uniform", splitter: str = "rnm",
) -> dict:
    """Dataset size under which the private learner matches the boosting
    guarantee: its weight-estimation, leaf-labeling and split-selection
    terms, and as `value` their max rounded up.

    gamma is the weak-learning advantage in (0, 1/2]; error the target
    training error and delta the failure probability, both in (0, 1];
    max_nodes the cap M on internal nodes; alpha the total budget; h_size
    |H|; entities the number k of data holders (1 = single machine). The
    smallest B(d) over depths 1..M of the named budget schedule, "uniform"
    or "decay" (`dp_topdown.smallest_share`), enters the per-leaf budget.
    The weight and leaf terms carry a factor k inside and outside the logs;
    splitter names the split term's analysis: "rnm" the single machine's,
    which refuses any k but 1, "noisy-counts" the distributed one.
    """
    known_schedule(schedule)  # refused before the ranges are checked
    if not 0.0 < gamma <= 0.5:
        raise InvalidParameterError(f"gamma must lie in (0, 1/2], got {gamma}")
    if not 0.0 < error <= 1.0:
        raise InvalidParameterError(f"error must lie in (0, 1], got {error}")
    if not 0.0 < delta <= 1.0:
        raise InvalidParameterError(f"delta must lie in (0, 1], got {delta}")
    if max_nodes < 1:
        raise InvalidParameterError(f"max_nodes must be >= 1, got {max_nodes}")
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    if entities < 1:
        raise InvalidParameterError(f"entities must be >= 1, got {entities}")
    m = _finite_positive(max_nodes, "max_nodes")
    k = _finite_positive(entities, "entities")
    zeta = _finite_positive(theorem_zeta(gamma, error, max_nodes), "zeta")
    alpha_leaf = _finite_positive(alpha / 2.0 * smallest_share(schedule, max_nodes), "alpha_leaf")
    weight_scale = _finite_positive(zeta * alpha_leaf, "zeta alpha_leaf")
    leaf_scale = _finite_positive(error * alpha, "error alpha")
    split_delta = delta / (2.0 * (2.0 * m + 1.0))
    if splitter == "rnm":
        if entities != 1:
            raise InvalidParameterError(f"splitter 'rnm' needs entities 1, got {entities}; "
                                        "the distributed analysis is splitter 'noisy-counts'")
        n_split = rnm_sample_bound(zeta, alpha_leaf / 2.0, split_delta, h_size)
    elif splitter == "noisy-counts":
        n_split = noisycounts_sample_bound(zeta, alpha_leaf / 2.0, split_delta, k, h_size)
    else:
        raise InvalidParameterError(f"unknown splitter kind {splitter!r}")
    # At k = 1 each factor of k is an exact multiplication by 1.0.
    weight = math.log(8.0 * k * m / delta) * 2.0 * k / weight_scale
    leaf = math.log(4.0 * k * (m + 1.0) / delta) * 8.0 * k * (m + 1.0) / leaf_scale
    terms = {
        "weight_term": _finite_positive(weight, "the weight term"),
        "leaf_term": _finite_positive(leaf, "the leaf term"),
        "split_term": _finite_positive((2.0 * m / error) * n_split, "the split term"),
    }
    return {**terms, "value": math.ceil(max(terms.values()))}
