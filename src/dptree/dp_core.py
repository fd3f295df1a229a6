"""Core differential privacy machinery: seeded noise streams, Laplace
sampling (`sample_laplace`), Report Noisy Max, the zero-noise debug switch,
and a composition-aware budget ledger that raises on the charge that takes a
run over its budget.

Both mechanisms are pure given an explicit :class:`RandomSource` and charge
nothing themselves. The learners add `sample_laplace` noise to their exact
counts directly and record every charge against a :class:`PrivacyLedger`.
"""

from __future__ import annotations

import hashlib
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GLOBAL_SCOPE = None  # entity id used for single-machine (coordinator-held) data


class InvalidParameterError(ValueError):
    """A setting, a config or a mechanism parameter is malformed or out of
    range; the CLI exits 2 on it."""


class BudgetExceededError(RuntimeError):
    """A ledger charge took the effective cost over alpha. The charge is
    recorded, and `ledger` is the ledger it was made on."""

    def __init__(self, message, ledger=None):
        super().__init__(message)
        self.ledger = ledger


class DegenerateLeafError(RuntimeError):
    """A leaf is too small for the sensitivity bound to be valid (< 3 rows)."""


# ---------------------------------------------------------------------------
# Zero-noise debug mode
# ---------------------------------------------------------------------------

_zero_noise = threading.local()


def zero_noise_enabled() -> bool:
    return getattr(_zero_noise, "on", False)


@contextmanager
def zero_noise(enabled: bool = True):
    """Switch every mechanism on this thread to return its exact value for
    the duration of the block, then restore the previous setting.

    Budget charges are unaffected, so ledger behaviour is identical to a
    noised run. Intended for exact-equivalence tests against the non-private
    baseline.
    """
    previous = zero_noise_enabled()
    _zero_noise.on = bool(enabled)
    try:
        yield
    finally:
        _zero_noise.on = previous


# ---------------------------------------------------------------------------
# Random source
# ---------------------------------------------------------------------------


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RandomSource:
    """A seeded noise stream.

    Identical (seed, stream) pairs reproduce identical draw sequences;
    distinct streams are statistically independent. Substreams are derived
    deterministically from hashable labels, one per run x entity x purpose.
    The generator stays private: a stream offers only the draws the package
    makes (uniforms, integers, choices and permutations).
    """

    def __init__(self, seed: int, stream: tuple = ()):
        self.seed = int(seed)
        self.stream = tuple(stream)
        words = [self.seed] + [_label_to_int(part) for part in self.stream]
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def substream(self, *labels) -> "RandomSource":
        return RandomSource(self.seed, self.stream + labels)

    def uniform(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n, size=None, replace=True):
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n):
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream={self.stream!r})"


# ---------------------------------------------------------------------------
# Mechanisms
# ---------------------------------------------------------------------------


def sample_laplace(scale: float, rng: RandomSource, size=None):
    """Draw from Lap(0, scale) by inverting the CDF on a uniform draw.

    Inverse-CDF sampling keeps the draw count deterministic per stream (no
    rejection loops). Under zero-noise mode the draw is skipped entirely.
    """
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0.0:
        raise InvalidParameterError(f"Laplace scale must be positive and finite, got {scale}")
    if zero_noise_enabled():
        return 0.0 if size is None else np.zeros(size)
    u = rng.uniform(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def report_noisy_max(scores, sensitivity: float, budget: float, rng: RandomSource):
    """Report Noisy Max: add Lap(2 * sensitivity / budget) to every score and
    release only the argmax index and that one noised score.

    Scores of shape (rows, n) are that many releases at once: one draw of
    the same uniforms, in the same order, as one call per row, and an array
    of indices and one of noised scores, one per row. Ties break to the
    lowest index (reachable only in zero-noise mode).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim not in (1, 2) or scores.size == 0:
        raise InvalidParameterError("scores must be a nonempty 1-d or 2-d array")
    if sensitivity <= 0:
        raise InvalidParameterError(f"sensitivity must be positive, got {sensitivity}")
    if budget <= 0:
        raise InvalidParameterError(f"budget must be positive, got {budget}")
    noisy = scores + sample_laplace(2.0 * float(sensitivity) / float(budget), rng, size=scores.shape)
    if scores.ndim == 2:
        index = np.argmax(noisy, axis=1)
        return index, noisy[np.arange(index.size), index]
    index = int(np.argmax(noisy))
    return index, float(noisy[index])


# ---------------------------------------------------------------------------
# Privacy ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scope:
    """Identifies what a charge was spent on.

    entity: data-holder id, or GLOBAL_SCOPE (None) for single-machine data.
    purpose: "split", "weight", or "label".
    depth: tree depth the charge is budgeted under (split/weight charges).
    leaf: leaf node id; leaves at one depth are disjoint, as are all leaves
          at labeling time, which is what parallel composition keys on.
    """

    entity: int | None
    purpose: str
    depth: int | None = None
    leaf: int | None = None


@dataclass
class LedgerEntry:
    scope: Scope
    budget: Fraction


class PrivacyLedger:
    """Ledger of (scope, budget) charges enforcing composition rules.

    Effective cost follows the standard theorems: charges on overlapping
    scopes add (sequential composition), charges on disjoint data take the
    max (parallel composition). Disjointness is structural: distinct entities
    hold disjoint shards, leaves at one depth partition the data, and leaves
    partition the data at labeling time.

    Within one entity, charges fall into groups: the budget depth for split
    and weight charges, "label" for label charges. Identified leaves of a
    group are disjoint, so the group costs its largest per-leaf sum; a charge
    without a leaf id cannot be shown disjoint and adds on top. Groups
    overlap (a depth-d leaf contains its descendants), so an entity's cost
    is the sum over its groups. Global charges touch all data and add to the
    largest cost of any other entity.

    Every one of these values only grows, so each charge updates the values
    it touches and the running cost in O(1). The values are kept exactly, as
    integers in units of 1/`_denominator`, a common denominator of alpha and
    every budget charged so far; a budget with a new denominator first
    scales every kept value up to the least common multiple. So the check
    `effective_cost <= alpha` is exact, and entries keep their budgets as
    Fractions. The charge that takes the cost over alpha is recorded and
    raises BudgetExceededError, as does every charge after it. A ledger
    belongs to one run on one thread (sweep workers are processes), so it
    takes no lock.
    """

    def __init__(self, alpha):
        if not (math.isfinite(alpha) and alpha > 0):
            raise InvalidParameterError(f"total budget alpha must be positive and finite, got {alpha}")
        self.alpha = Fraction(alpha)
        self.entries: list[LedgerEntry] = []
        # alpha and every value below in units of 1/_denominator
        self._denominator = self.alpha.denominator
        self._alpha_units = self.alpha.numerator
        self._leaf_sum: dict[tuple, int] = {}  # (entity, group, leaf) -> sum
        self._group_max: dict[tuple, int] = {}  # (entity, group) -> largest leaf sum
        self._entity_cost: dict[int | None, int] = {}
        self._max_entity_cost = 0  # over non-global entities
        self._cost = 0

    def charge(self, scope: Scope, budget) -> None:
        if not isinstance(budget, Fraction):
            budget = Fraction(budget)
        if budget.numerator <= 0:
            raise InvalidParameterError(f"charged budget must be positive, got {budget}")
        self.entries.append(LedgerEntry(scope, budget))
        if self._denominator % budget.denominator:
            self._rescale(math.lcm(self._denominator, budget.denominator))
        self._grow(scope, budget.numerator * (self._denominator // budget.denominator))
        if self._cost > self._alpha_units:
            raise BudgetExceededError(
                f"effective cost {self._cost / self._denominator:.6g} exceeds alpha={float(self.alpha):.6g}",
                ledger=self,
            )

    def _rescale(self, denominator: int) -> None:
        """Express every kept value in units of 1/`denominator`, a multiple
        of the current denominator."""
        factor = denominator // self._denominator
        self._denominator = denominator
        self._alpha_units *= factor
        for values in (self._leaf_sum, self._group_max, self._entity_cost):
            for key in values:
                values[key] *= factor
        self._max_entity_cost *= factor
        self._cost *= factor

    def _grow(self, scope: Scope, amount: int) -> None:
        """Update the running values one charge of `amount` units touches."""
        growth = amount
        if scope.leaf is not None:
            group = (scope.entity, "label" if scope.purpose == "label" else scope.depth)
            leaf = group + (scope.leaf,)
            leaf_sum = self._leaf_sum[leaf] = self._leaf_sum.get(leaf, 0) + amount
            largest = self._group_max.get(group, 0)
            if leaf_sum <= largest:
                return
            growth = leaf_sum - largest
            self._group_max[group] = leaf_sum
        entity_cost = self._entity_cost[scope.entity] = self._entity_cost.get(scope.entity, 0) + growth
        if scope.entity is GLOBAL_SCOPE:
            self._cost = entity_cost + self._max_entity_cost
        elif entity_cost > self._max_entity_cost:
            self._max_entity_cost = entity_cost
            self._cost = self._entity_cost.get(GLOBAL_SCOPE, 0) + entity_cost

    def effective_cost(self) -> Fraction:
        """Total privacy cost after applying composition rules."""
        return Fraction(self._cost, self._denominator)
