import math

import numpy as np
import pytest

from dptree.data_io import build_splitting_class, synthetic_tree_dataset
from dptree.dp_core import InvalidParameterError, PrivacyLedger, RandomSource
from dptree.split_strategies import SingleMachineRNMSplitter, rnm_score_sensitivity
from dptree.theory import (
    boosting_recurrence,
    dataset_requirement,
    noisycounts_sample_bound,
    rnm_sample_bound,
    sensitivity_bound,
    theorem_zeta,
)
from dptree.tree_learning import Criterion, Node, SplitPlan, gain_from_counts, split_count_tables
from oracle import empirical_sensitivity, worst_neighbor_change


class TestSensitivityBound:
    def test_entropy_example(self):
        assert sensitivity_bound(Criterion.ENTROPY, 1024) == pytest.approx(0.09765625)

    def test_gini_example(self):
        assert sensitivity_bound(Criterion.GINI, 100) == pytest.approx(0.2)

    def test_root_gini_example(self):
        # No bound is proven for root Gini, and 10/m understates it (see
        # TestEmpiricalSensitivity), so none is given.
        with pytest.raises(InvalidParameterError, match="root-gini"):
            sensitivity_bound(Criterion.ROOT_GINI, 100)

    def test_small_m_rejected(self):
        with pytest.raises(InvalidParameterError):
            sensitivity_bound(Criterion.ENTROPY, 2)


def stated_bounds(criterion, m):
    """The sensitivity bound the package states for a leaf of m rows, the
    learner's, which `dptree theory` prints too; none if it refuses one."""
    try:
        bound = rnm_score_sensitivity(criterion, m)
    except InvalidParameterError:
        assert criterion is Criterion.ROOT_GINI
        return []
    assert sensitivity_bound(criterion, m) == bound
    return [bound]


class TestEmpiricalSensitivity:
    @pytest.mark.parametrize("criterion", list(Criterion))
    @pytest.mark.parametrize("m", [8, 16, 64, 256])
    def test_within_bound(self, criterion, m):
        observed = empirical_sensitivity(criterion, m, 3000, m)
        assert all(observed <= bound for bound in stated_bounds(criterion, m))

    # Over every two-label leaf of m rows, the largest change of a root-Gini
    # gain when one row is added, removed or moved, as a multiple of the
    # 10/m the package once stated: it grows like sqrt(m).
    ROOT_GINI_WORST_OVER_10_M = {24: 0.959, 32: 1.114, 64: 1.587, 128: 2.254}

    @pytest.mark.parametrize("m", sorted(ROOT_GINI_WORST_OVER_10_M))
    def test_root_gini_worst_case_has_no_stated_bound(self, m):
        worst = worst_neighbor_change(Criterion.ROOT_GINI, m)
        assert worst * m / 10 == pytest.approx(self.ROOT_GINI_WORST_OVER_10_M[m], abs=5e-4)
        # The worst case is one row alone on its side, flipped: about 2/sqrt(m).
        assert worst == pytest.approx(2 * math.sqrt(m - 1) / m, rel=0.02)
        assert stated_bounds(Criterion.ROOT_GINI, m) == []

    @pytest.mark.parametrize("criterion", [Criterion.ENTROPY, Criterion.GINI])
    @pytest.mark.parametrize("m", [24, 32, 64])
    def test_every_neighbor_within_stated_bounds(self, criterion, m):
        worst = worst_neighbor_change(criterion, m)
        assert all(worst <= bound for bound in stated_bounds(criterion, m))

    def test_entropy_m64_magnitude(self):
        # the flipped-point corner dominates: about (lg m)/m + H(1/m) residue
        observed = empirical_sensitivity(Criterion.ENTROPY, 64, 5000, 1)
        assert 0.10 <= observed <= 0.59375

    def test_adversarial_corner_reaches_bound_order(self):
        # S all label-0 except one flipped point, h splitting that point off
        m = 64
        before = np.array([[float(m - 1), 1.0], [0.0, 0.0]])
        after = np.array([[float(m - 1), 0.0], [0.0, 1.0]])
        gap = abs(float(
            gain_from_counts(after, Criterion.ENTROPY) - gain_from_counts(before, Criterion.ENTROPY)
        ))
        bound = sensitivity_bound(Criterion.ENTROPY, m)
        assert bound / 10 <= gap <= bound

    def test_gini_trivial_bound_at_m20(self):
        assert empirical_sensitivity(Criterion.GINI, 20, 2000, 2) <= 1.0


class TestSampleBounds:
    def test_rnm_golden_value(self):
        # independent evaluation: b = ln(159/0.05) * 40 / (1 * 0.1)
        b = math.log(159 / 0.05) * 400.0
        assert math.ceil(2 * b * math.log(b)) == 52124
        assert rnm_sample_bound(0.1, 1.0, 0.05, 159) == 52124

    def test_rnm_monotone_in_alpha(self):
        values = [rnm_sample_bound(0.1, alpha, 0.05, 50) for alpha in (0.25, 0.5, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)

    def test_rnm_floor_case(self):
        assert rnm_sample_bound(1.0, 1e6, 0.5, 2) == 3

    def test_noisycounts_golden_value(self):
        b = 60.0 * math.log(3 * 4 * 100 / 0.05) * 4 * 100 / (1.0 * 0.1)
        assert math.ceil(2 * b * math.log(b)) == 71163163
        assert noisycounts_sample_bound(0.1, 1.0, 0.05, 4, 100) == 71163163

    def test_noisycounts_reduces_at_k1_h1(self):
        zeta, alpha, delta = 0.2, 2.0, 0.1
        b = 60.0 * math.log(3 / delta) / (alpha * zeta)
        assert noisycounts_sample_bound(zeta, alpha, delta, 1, 1) == max(
            3, math.ceil(2 * b * math.log(b))
        )

    def test_noisycounts_monotone_in_k_and_h(self):
        base = noisycounts_sample_bound(0.1, 1.0, 0.1, 2, 20)
        assert noisycounts_sample_bound(0.1, 1.0, 0.1, 4, 20) > base
        assert noisycounts_sample_bound(0.1, 1.0, 0.1, 2, 40) > base

    def test_rnm_self_consistency_inequality(self):
        # at m = N the max-noise tail ln(|H|/delta) * 20 lg(N) / (alpha N)
        # stays below zeta/2; holds in the regime b >~ 1e3 that the analysis
        # targets (the 2b log b device mixes ln and lg and is loose below).
        for zeta, alpha, delta, h_size in [
            (0.1, 1.0, 0.05, 159),
            (0.1, 1.0, 0.1, 10),
            (0.05, 0.5, 0.1, 100),
            (0.2, 0.25, 0.01, 400),
        ]:
            b = math.log(h_size / delta) * 40.0 / (alpha * zeta)
            assert b >= 1e3
            n = rnm_sample_bound(zeta, alpha, delta, h_size)
            tail = math.log(h_size / delta) * 20.0 * math.log2(n) / (alpha * n)
            assert tail <= zeta / 2

    def test_rnm_bound_gives_zeta_optimal_splits_on_the_learner(self):
        # The split-accuracy lemma on the learner itself: at a root of
        # rnm_sample_bound(zeta, alpha, delta, |H|) rows, single-machine RNM
        # picks a split within zeta of the best exact gain in all but a delta
        # share of runs. Over R = 200 runs that is at most delta R = 20
        # misses expected, and 30 allows 2.4 binomial standard deviations.
        zeta, alpha, delta, runs = 0.1, 8, 0.1, 200
        m = rnm_sample_bound(zeta, alpha, delta, 93)
        ds, _, schema = synthetic_tree_dataset(m, RandomSource(0), depth=3, label_noise=0.05, thresholds=31)
        splits = build_splitting_class(schema)
        assert len(splits) == 93
        binned = SplitPlan(splits).bin(ds)
        gains = gain_from_counts(split_count_tables(binned, np.arange(m), binned.plan.indices), Criterion.ENTROPY)
        misses = 0
        for seed in range(runs):
            splitter = SingleMachineRNMSplitter(binned, Criterion.ENTROPY, RandomSource(seed))
            chosen, _ = splitter.split(Node(0, 0), alpha, PrivacyLedger(alpha))
            misses += gains.max() - gains[chosen] > zeta
        assert misses <= 30

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            rnm_sample_bound(0.0, 1.0, 0.1, 5)
        with pytest.raises(InvalidParameterError):
            noisycounts_sample_bound(0.1, 1.0, 1.5, 2, 5)


class TestBoostingRecurrence:
    def test_target_already_met(self):
        assert boosting_recurrence(1.0, 0.3) == 1

    def test_small_cases_against_inline_oracle(self):
        def oracle(error, gamma, slowdown):
            g, t = 1.0, 1
            while g > error:
                g -= gamma**2 * g / (slowdown * t * math.log2(2 / g))
                t += 1
            return t

        for error, gamma, slowdown in [(0.9, 0.5, 4), (0.9, 0.5, 8), (0.8, 0.4, 4)]:
            assert boosting_recurrence(error, gamma, slowdown) == oracle(error, gamma, slowdown)

    def test_slowdown_monotonicity(self):
        for error, gamma in [(0.9, 0.5), (0.8, 0.5), (0.85, 0.4)]:
            assert boosting_recurrence(error, gamma, 8) >= boosting_recurrence(error, gamma, 4)

    def test_final_state_brackets_target(self):
        error, gamma, slowdown = 0.7, 0.5, 4
        t_star = boosting_recurrence(error, gamma, slowdown)
        g, t = 1.0, 1
        while t < t_star:
            g -= gamma**2 * g / (slowdown * t * math.log2(2 / g))
            t += 1
        assert g <= error
        g, t = 1.0, 1
        while t < t_star - 1:
            g -= gamma**2 * g / (slowdown * t * math.log2(2 / g))
            t += 1
        assert g > error

    def test_cap_guard(self):
        with pytest.raises(InvalidParameterError, match="within 5000 iterations"):
            boosting_recurrence(0.1, 0.05, 8, cap=5000)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            boosting_recurrence(0.0, 0.3)
        with pytest.raises(InvalidParameterError):
            boosting_recurrence(0.5, 0.6)


GOLDEN = {"gamma": 0.25, "error": 0.1, "delta": 0.1, "max_nodes": 16, "alpha": 1.0, "h_size": 50}


class TestDatasetRequirement:
    def test_zeta_formula(self):
        expected = 0.25**2 * 0.1 / (48 * 16 * math.log2(20))
        assert theorem_zeta(0.25, 0.1, 16) == pytest.approx(expected, rel=1e-12)

    def test_golden_single_machine(self):
        # term-by-term oracle, evaluated independently of the implementation
        zeta = 0.25**2 * 0.1 / (48 * 16 * math.log2(20))
        alpha_leaf = 0.5 * (1 / 16)
        weight = math.log(8 * 16 / 0.1) * 2 / (zeta * alpha_leaf)
        leaf = math.log(4 * 17 / 0.1) * 8 * 17 / (0.1 * 1.0)
        split = (2 * 16 / 0.1) * rnm_sample_bound(zeta, alpha_leaf / 2, 0.1 / 66, 50)
        breakdown = dataset_requirement(**GOLDEN, schedule="uniform", splitter="rnm")
        assert breakdown["weight_term"] == pytest.approx(weight, rel=1e-12)
        assert breakdown["leaf_term"] == pytest.approx(leaf, rel=1e-12)
        assert breakdown["split_term"] == pytest.approx(split, rel=1e-12)
        assert breakdown["value"] == 211591309208640
        assert dataset_requirement(**GOLDEN) == breakdown

    def test_split_delta_matches_call_count_bound(self):
        # Each of the at most 2M + 1 split calls gets delta / (2 (2M + 1)).
        params = {**GOLDEN, "delta": 0.2}
        zeta = theorem_zeta(0.25, 0.1, 16)
        alpha_leaf = 0.5 * (1 / 16)
        split_delta = 0.2 / (2 * 33)
        for splitter, k, bound in (
            ("rnm", 1, rnm_sample_bound(zeta, alpha_leaf / 2, split_delta, 50)),
            ("noisy-counts", 4, noisycounts_sample_bound(zeta, alpha_leaf / 2, split_delta, 4, 50)),
        ):
            breakdown = dataset_requirement(**params, entities=k, splitter=splitter)
            assert breakdown["split_term"] == pytest.approx((2 * 16 / 0.1) * bound, rel=1e-12)

    def test_requirement_is_max_of_exposed_terms(self):
        for splitter, k in (("rnm", 1), ("noisy-counts", 4)):
            breakdown = dataset_requirement(**GOLDEN, entities=k, splitter=splitter)
            assert breakdown["value"] == math.ceil(
                max(breakdown["weight_term"], breakdown["leaf_term"], breakdown["split_term"])
            )

    def test_rnm_refuses_more_than_one_entity(self):
        # Its terms have no k, so a value for k holders would be k = 1's.
        with pytest.raises(InvalidParameterError, match="entities 1, got 8; .* 'noisy-counts'"):
            dataset_requirement(**GOLDEN, entities=8)
        assert dataset_requirement(**GOLDEN, entities=8, splitter="noisy-counts")["value"] > 0

    def test_distributed_weight_term_ratio(self):
        single = dataset_requirement(**GOLDEN, splitter="rnm")
        distributed = dataset_requirement(**GOLDEN, entities=4, splitter="noisy-counts")
        expected = 4 * math.log(8 * 4 * 16 / 0.1) / math.log(8 * 16 / 0.1)
        assert distributed["weight_term"] / single["weight_term"] == pytest.approx(expected, rel=1e-12)

    def test_monotonicity_in_alpha_and_nodes(self):
        def requirement(alpha, max_nodes):
            return dataset_requirement(**{**GOLDEN, "alpha": alpha, "max_nodes": max_nodes})["value"]

        assert requirement(2.0, 16) < requirement(1.0, 16) < requirement(0.5, 16)
        assert requirement(1.0, 8) < requirement(1.0, 16) < requirement(1.0, 32)

    def test_decay_schedule_uses_min_budget(self):
        params = {**GOLDEN, "max_nodes": 8, "h_size": 20}
        # decay's min budget 2^-8 is far below uniform's 1/8
        assert (dataset_requirement(**params, schedule="decay")["value"]
                > dataset_requirement(**params, schedule="uniform")["value"])

    def test_unknown_splitter_rejected(self):
        with pytest.raises(InvalidParameterError):
            dataset_requirement(**GOLDEN, splitter="exponential")
