import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptree.dp_core import (
    GLOBAL_SCOPE,
    BudgetExceededError,
    InvalidParameterError,
    PrivacyLedger,
    RandomSource,
    Scope,
    report_noisy_max,
    sample_laplace,
    zero_noise,
)


def laplace_cdf(x, scale):
    return 0.5 + 0.5 * np.sign(x) * (1.0 - np.exp(-np.abs(x) / scale))


class TestRandomSource:
    def test_same_seed_and_stream_bit_identical(self):
        a = RandomSource(123, ("run", 1)).uniform(size=64)
        b = RandomSource(123, ("run", 1)).uniform(size=64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(123).substream("weight").uniform(size=16)
        b = RandomSource(123).substream("label").uniform(size=16)
        assert not np.array_equal(a, b)

    def test_substream_is_stable_across_parents(self):
        a = RandomSource(9).substream("entity", 2).uniform(size=8)
        b = RandomSource(9, ("entity", 2)).uniform(size=8)
        assert np.array_equal(a, b)


class TestSampleLaplace:
    def test_zero_noise_mode(self):
        with zero_noise():
            assert sample_laplace(1.0, RandomSource(0)) == 0.0

    @pytest.mark.parametrize("scale", [0.5, 1.0, 5.0])
    def test_ks_statistic(self, scale):
        draws = np.sort(sample_laplace(scale, RandomSource(7), size=100_000))
        n = draws.size
        cdf = laplace_cdf(draws, scale)
        ks = max(np.max(cdf - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - cdf))
        assert ks < 0.01

    def test_variance(self):
        draws = sample_laplace(1.0, RandomSource(3), size=1_000_000)
        assert draws.var() == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("delta", [0.5, 0.1, 0.01])
    def test_tail_probability(self, delta):
        n = 200_000
        draws = sample_laplace(1.0, RandomSource(11), size=n)
        frequency = np.mean(np.abs(draws) >= math.log(1.0 / delta))
        assert abs(frequency - delta) <= 3.0 * math.sqrt(delta * (1 - delta) / n)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(InvalidParameterError):
            sample_laplace(scale, RandomSource(0))


class TestLaplaceMechanism:
    """The Laplace mechanism as the learners apply it: an exact value plus
    sample_laplace(sensitivity / budget)."""

    def test_vanishing_noise_limit(self):
        values = [0.25 + sample_laplace(1.0 / 1e9, RandomSource(s)) for s in range(200)]
        assert max(abs(v - 0.25) for v in values) < 1e-6

    def test_unbiased(self):
        draws = 5.0 + sample_laplace(2.0 / 1.0, RandomSource(5), size=100_000)
        # Lap(2) has std sqrt(8); mean of 1e5 draws is within ~0.03 w.h.p.
        assert draws.mean() == pytest.approx(5.0, abs=0.05)

    def test_zero_noise(self):
        with zero_noise():
            assert 3.0 + sample_laplace(1.0 / 0.5, RandomSource(0)) == 3.0


class TestReportNoisyMax:
    def test_zero_noise_is_argmax(self):
        with zero_noise():
            assert report_noisy_max([0.2, 0.9, 0.5], 1.0, 1.0, RandomSource(0)) == (1, 0.9)

    def test_tie_breaks_to_lowest_index(self):
        with zero_noise():
            assert report_noisy_max([0.5, 0.5, 0.5], 1.0, 1.0, RandomSource(0)) == (0, 0.5)

    def test_large_gap_is_reliable(self):
        rng = RandomSource(2)
        hits = sum(
            report_noisy_max([1.0, 0.0], 0.01, 10.0, rng)[0] == 0 for _ in range(10_000)
        )
        assert hits >= 9_990

    def test_empty_scores_rejected(self):
        with pytest.raises(InvalidParameterError):
            report_noisy_max([], 1.0, 1.0, RandomSource(0))

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_zero_noise_matches_plain_argmax(self, scores):
        with zero_noise():
            index, value = report_noisy_max(scores, 1.0, 1.0, RandomSource(0))
        assert index == int(np.argmax(scores))
        assert value == scores[index]


def recomputed_cost(charges) -> Fraction:
    """Effective cost of (scope, budget) charges, recomputed from scratch: the
    reference for the ledger's running cost.

    Per entity, identified leaves of one group (the depth, or "label" for
    label charges) take the max of their per-leaf sums, groups add, and
    charges without a leaf id add on top. Global charges add to the largest
    cost of any other entity.
    """
    by_entity: dict = {}
    for scope, budget in charges:
        by_entity.setdefault(scope.entity, []).append((scope, Fraction(budget)))

    def entity_cost(entity_charges) -> Fraction:
        groups: dict = {}
        cost = Fraction(0)
        for scope, budget in entity_charges:
            if scope.leaf is None:
                cost += budget
                continue
            group = "label" if scope.purpose == "label" else scope.depth
            leaves = groups.setdefault(group, {})
            leaves[scope.leaf] = leaves.get(scope.leaf, Fraction(0)) + budget
        return cost + sum(max(leaves.values()) for leaves in groups.values())

    global_cost = entity_cost(by_entity.pop(GLOBAL_SCOPE, []))
    return global_cost + max((entity_cost(c) for c in by_entity.values()), default=Fraction(0))


def learner_budget(alpha: float, lpf: float, depth: int, share: Fraction) -> Fraction:
    """A budget of the form the learners charge: alpha (1 - LPF) 2^-depth
    times a share (1, 1/2, 1/3 or 1/(2K))."""
    return Fraction(alpha) * (1 - Fraction(lpf)) / 2**depth * share


# Budgets of three kinds: small rationals, the learners' own, and floats,
# which the ledger takes at their exact binary value. Drawn in one run, the
# learners' and the floats' denominators make the ledger's common
# denominator grow mid-run.
BUDGETS = st.one_of(
    st.builds(Fraction, st.integers(1, 8), st.integers(1, 8)),
    st.builds(
        learner_budget,
        st.sampled_from([8.0, 1.0, 0.125, 3.0, 0.1]),
        st.sampled_from([0.5, 0.3, 0.9]),
        st.integers(0, 40),
        st.one_of(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]),
                  st.builds(lambda k: Fraction(1, 2 * k), st.integers(1, 12))),
    ),
    st.floats(1e-3, 4.0),
)

CHARGES = st.lists(
    st.tuples(
        st.builds(
            Scope,
            entity=st.sampled_from([GLOBAL_SCOPE, 0, 1, 2]),
            purpose=st.sampled_from(["split", "weight", "label"]),
            depth=st.sampled_from([None, 1, 2, 3]),
            leaf=st.sampled_from([None, 0, 1, 2, 3]),
        ),
        BUDGETS,
    ),
    max_size=40,
)


class TestPrivacyLedger:
    def test_parallel_composition_across_entities(self):
        ledger = PrivacyLedger(1.0)
        ledger.charge(Scope(1, "split", depth=1, leaf=5), Fraction(1, 10))
        ledger.charge(Scope(2, "split", depth=1, leaf=5), Fraction(1, 10))
        assert ledger.effective_cost() == Fraction(1, 10)

    def test_sequential_composition_across_depths(self):
        ledger = PrivacyLedger(1.0)
        ledger.charge(Scope(None, "split", depth=1), 0.1)
        ledger.charge(Scope(None, "split", depth=2), 0.2)
        assert float(ledger.effective_cost()) == pytest.approx(0.3)

    def test_same_leaf_purposes_sum_and_siblings_max(self):
        ledger = PrivacyLedger(1.0)
        for leaf in (4, 5):
            ledger.charge(Scope(None, "weight", depth=2, leaf=leaf), Fraction(1, 8))
            ledger.charge(Scope(None, "split", depth=2, leaf=leaf), Fraction(1, 8))
        assert ledger.effective_cost() == Fraction(1, 4)

    def test_label_charges_parallel_over_leaves(self):
        ledger = PrivacyLedger(1.0)
        for leaf in range(5):
            ledger.charge(Scope(None, "label", leaf=leaf), Fraction(1, 2))
        assert ledger.effective_cost() == Fraction(1, 2)

    def test_permutation_invariance(self):
        entries = [
            (Scope(None, "split", depth=1, leaf=0), Fraction(1, 4)),
            (Scope(None, "weight", depth=1, leaf=1), Fraction(1, 8)),
            (Scope(None, "split", depth=2, leaf=3), Fraction(1, 16)),
            (Scope(None, "label", leaf=7), Fraction(1, 2)),
            (Scope(None, "label", leaf=8), Fraction(1, 3)),
        ]
        reference = None
        rng = np.random.default_rng(0)
        for _ in range(10):
            order = rng.permutation(len(entries))
            ledger = PrivacyLedger(2.0)
            for i in order:
                ledger.charge(*entries[i])
            cost = ledger.effective_cost()
            reference = cost if reference is None else reference
            assert cost == reference

    def test_anonymous_charges_add_to_identified_leaves(self):
        for purpose, depth in (("label", None), ("split", 1)):
            ledger = PrivacyLedger(2.0)
            ledger.charge(Scope(None, purpose, depth=depth, leaf=5), Fraction(1, 2))
            ledger.charge(Scope(None, purpose, depth=depth), Fraction(1, 2))
            assert ledger.effective_cost() == 1

    def test_charge_over_alpha_is_recorded_and_raises(self):
        ledger = PrivacyLedger(0.25)
        ledger.charge(Scope(None, "split", depth=1, leaf=0), Fraction(1, 5))
        with pytest.raises(BudgetExceededError) as err:
            ledger.charge(Scope(None, "split", depth=2, leaf=1), Fraction(1, 5))
        assert err.value.ledger is ledger
        assert len(ledger.entries) == 2
        assert ledger.effective_cost() == Fraction(2, 5)
        with pytest.raises(BudgetExceededError):
            ledger.charge(Scope(None, "split", depth=2, leaf=2), Fraction(1, 5))

    @given(CHARGES)
    @settings(max_examples=300, deadline=None)
    def test_running_cost_matches_full_recompute(self, charges):
        ledger = PrivacyLedger(10**6)
        for i, (scope, budget) in enumerate(charges, start=1):
            ledger.charge(scope, budget)
            assert ledger.effective_cost() == recomputed_cost(charges[:i])
            entry = ledger.entries[-1]
            assert type(entry.budget) is Fraction and entry.budget == Fraction(budget)

    @given(CHARGES, st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)))
    @settings(max_examples=300, deadline=None)
    def test_first_charge_over_alpha_raises(self, charges, alpha):
        ledger = PrivacyLedger(alpha)
        for i, (scope, budget) in enumerate(charges, start=1):
            if recomputed_cost(charges[:i]) > alpha:
                with pytest.raises(BudgetExceededError):
                    ledger.charge(scope, budget)
                assert len(ledger.entries) == i
                return
            ledger.charge(scope, budget)

    def test_positive_parameters_required(self):
        for alpha in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                PrivacyLedger(alpha)
        ledger = PrivacyLedger(1.0)
        with pytest.raises(InvalidParameterError):
            ledger.charge(Scope(None, "split", depth=1), 0)
