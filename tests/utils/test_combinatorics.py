"""Unit and property-based tests for coalition combinatorics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.combinatorics import (
    SAMPLING_ENUMERATION_LIMIT,
    all_coalitions,
    balanced_coalitions_of_size,
    client_appearance_counts,
    coalition_key,
    coalitions_of_size,
    colex_ranks,
    count_coalitions_up_to,
    marginal_coefficient,
    max_fully_enumerable_size,
    n_choose_k,
    predecessors_in_permutation,
    random_coalition,
    random_coalition_of_size,
    random_permutation,
    sample_coalitions_of_size,
    stratum_sizes,
    unrank_combination,
)


class TestBinomials:
    def test_n_choose_k_matches_math_comb(self):
        for n in range(0, 12):
            for k in range(0, n + 1):
                assert n_choose_k(n, k) == math.comb(n, k)

    def test_n_choose_k_out_of_range_is_zero(self):
        assert n_choose_k(5, -1) == 0
        assert n_choose_k(5, 6) == 0
        assert n_choose_k(-1, 0) == 0

    def test_stratum_sizes_sum_to_power_of_two(self):
        for n in range(1, 10):
            assert sum(stratum_sizes(n)) == 2**n


class TestMarginalCoefficient:
    def test_three_clients_values(self):
        # n=3: coefficients 1/(3*C(2,k)) for k=0,1,2.
        assert marginal_coefficient(3, 0) == pytest.approx(1 / 3)
        assert marginal_coefficient(3, 1) == pytest.approx(1 / 6)
        assert marginal_coefficient(3, 2) == pytest.approx(1 / 3)

    def test_coefficients_sum_to_one_over_each_client(self):
        # Σ_{S ⊆ N\{i}} 1/(n·C(n−1,|S|)) = 1 for every n.
        for n in range(1, 10):
            total = sum(
                marginal_coefficient(n, k) * n_choose_k(n - 1, k) for k in range(n)
            )
            assert total == pytest.approx(1.0)

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            marginal_coefficient(3, 3)
        with pytest.raises(ValueError):
            marginal_coefficient(3, -1)
        with pytest.raises(ValueError):
            marginal_coefficient(0, 0)


class TestEnumeration:
    def test_all_coalitions_count(self):
        assert len(list(all_coalitions(4))) == 16
        assert len(list(all_coalitions(4, include_empty=False))) == 15

    def test_all_coalitions_are_unique(self):
        coalitions = list(all_coalitions(5))
        assert len(coalitions) == len(set(coalitions))

    def test_all_coalitions_ordered_by_size(self):
        sizes = [len(c) for c in all_coalitions(4)]
        assert sizes == sorted(sizes)

    def test_coalitions_of_size(self):
        of_two = list(coalitions_of_size(4, 2))
        assert len(of_two) == 6
        assert all(len(c) == 2 for c in of_two)

    def test_coalitions_of_size_out_of_range(self):
        assert list(coalitions_of_size(4, 5)) == []
        assert list(coalitions_of_size(4, -1)) == []

    def test_count_coalitions_up_to(self):
        assert count_coalitions_up_to(4, 0) == 1
        assert count_coalitions_up_to(4, 1) == 5
        assert count_coalitions_up_to(4, 2) == 11
        assert count_coalitions_up_to(4, 4) == 16
        assert count_coalitions_up_to(4, 99) == 16


class TestKStar:
    def test_paper_example3(self):
        # Example 3: n=4, γ=10 → k* = 1 (1 + 4 = 5 ≤ 10 but 5 + 6 = 11 > 10).
        assert max_fully_enumerable_size(4, 10) == 1

    def test_budget_below_one(self):
        assert max_fully_enumerable_size(5, 0) == -1

    def test_budget_covers_everything(self):
        assert max_fully_enumerable_size(4, 16) == 4
        assert max_fully_enumerable_size(4, 1000) == 4

    def test_consistency_with_count(self):
        for n in range(2, 9):
            for budget in range(1, 2**n + 2):
                k_star = max_fully_enumerable_size(n, budget)
                assert count_coalitions_up_to(n, k_star) <= budget
                if k_star < n:
                    assert count_coalitions_up_to(n, k_star + 1) > budget


class TestSampling:
    def test_random_coalition_excludes(self, rng):
        for _ in range(30):
            coalition = random_coalition(6, rng, exclude=[2, 4])
            assert 2 not in coalition
            assert 4 not in coalition

    def test_random_coalition_of_size(self, rng):
        for size in range(0, 5):
            coalition = random_coalition_of_size(6, size, rng)
            assert len(coalition) == size
            assert all(0 <= c < 6 for c in coalition)

    def test_random_coalition_of_size_too_large_raises(self, rng):
        with pytest.raises(ValueError):
            random_coalition_of_size(4, 4, rng, exclude=[0])

    def test_random_permutation_is_permutation(self, rng):
        permutation = random_permutation(7, rng)
        assert sorted(permutation) == list(range(7))

    def test_predecessors_in_permutation(self):
        assert predecessors_in_permutation((2, 0, 1), 1) == frozenset({2, 0})
        assert predecessors_in_permutation((2, 0, 1), 2) == frozenset()

    def test_predecessors_missing_client_raises(self):
        with pytest.raises(ValueError):
            predecessors_in_permutation((0, 1), 5)


class TestBalancedSampling:
    def test_returns_requested_count_when_possible(self, rng):
        sample = balanced_coalitions_of_size(6, 2, 6, rng)
        assert len(sample) == 6
        assert all(len(c) == 2 for c in sample)
        assert len(set(sample)) == len(sample)

    def test_returns_all_when_budget_exceeds_stratum(self, rng):
        sample = balanced_coalitions_of_size(4, 2, 100, rng)
        assert len(sample) == 6  # C(4, 2)

    def test_appearance_counts_balanced(self, rng):
        # Perfect balance is not always achievable once duplicates must be
        # avoided, but the greedy construction keeps the spread tiny compared
        # with the worst case (some client never sampled at all).
        sample = balanced_coalitions_of_size(8, 3, 8, rng)
        counts = client_appearance_counts(sample, 8)
        assert counts.max() - counts.min() <= 2
        assert counts.min() >= 1

    def test_degenerate_inputs(self, rng):
        assert balanced_coalitions_of_size(5, 0, 3, rng) == []
        assert balanced_coalitions_of_size(5, 6, 3, rng) == []
        assert balanced_coalitions_of_size(5, 2, 0, rng) == []

    def test_client_appearance_counts(self):
        counts = client_appearance_counts(
            [frozenset({0, 1}), frozenset({1, 2})], 4
        )
        assert counts.tolist() == [1, 2, 1, 0]


class TestUnranking:
    def test_matches_itertools_enumeration_order(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                expected = list(coalitions_of_size(n, k))
                unranked = [
                    unrank_combination(n, k, rank) for rank in range(len(expected))
                ]
                assert unranked == expected

    def test_out_of_range_rank_raises(self):
        with pytest.raises(ValueError):
            unrank_combination(5, 2, 10)  # C(5,2)=10, valid ranks 0..9
        with pytest.raises(ValueError):
            unrank_combination(5, 2, -1)

    def test_huge_stratum_without_enumeration(self):
        # C(500, 250) ≈ 10^149: unranking must not touch the stratum size.
        total = n_choose_k(500, 250)
        first = unrank_combination(500, 250, 0)
        last = unrank_combination(500, 250, total - 1)
        assert first == frozenset(range(250))
        assert last == frozenset(range(250, 500))


class TestColexRanks:
    def test_each_stratum_maps_onto_its_index_range(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                rows = [sorted(c) for c in coalitions_of_size(n, k)]
                ranks = colex_ranks(np.array(rows, dtype=np.int64).reshape(len(rows), k))
                assert sorted(ranks.tolist()) == list(range(n_choose_k(n, k)))

    def test_matches_the_binomial_sum_at_large_n(self):
        rows = np.array([[3, 250, 499], [0, 1, 2]])
        expected = [math.comb(3, 1) + math.comb(250, 2) + math.comb(499, 3), 0]
        assert colex_ranks(rows).tolist() == expected


class TestSampleCoalitionsOfSize:
    def test_matches_legacy_choice_path_rng_stream(self, rng):
        # The pre-plan sampler enumerated small strata and indexed them with
        # one rng.choice call; the rank-based sampler must reproduce exactly
        # that stream so seeded runs (and their golden files) are unchanged.
        n, k, count = 10, 4, 7
        legacy_rng = np.random.default_rng(123)
        population = list(coalitions_of_size(n, k))
        picks = legacy_rng.choice(len(population), size=count, replace=False)
        legacy = [population[int(i)] for i in picks]
        new_rng = np.random.default_rng(123)
        assert sample_coalitions_of_size(n, k, new_rng, count) == legacy
        # And the generators end in the same state.
        assert legacy_rng.bit_generator.state == new_rng.bit_generator.state

    def test_full_stratum_returned_without_rng(self):
        rng = np.random.default_rng(0)
        state_before = rng.bit_generator.state
        sample = sample_coalitions_of_size(5, 2, rng, 10)
        assert set(sample) == set(coalitions_of_size(5, 2))
        assert rng.bit_generator.state == state_before

    def test_without_replacement_and_sized(self, rng):
        sample = sample_coalitions_of_size(8, 3, rng, 20)
        assert len(sample) == 20
        assert len(set(sample)) == 20
        assert all(len(c) == 3 for c in sample)

    def test_large_stratum_rejection_path(self, rng):
        # C(100, 3) = 161700 > SAMPLING_ENUMERATION_LIMIT: the rejection path
        # must still deliver distinct coalitions without enumerating.
        assert n_choose_k(100, 3) > SAMPLING_ENUMERATION_LIMIT
        sample = sample_coalitions_of_size(100, 3, rng, 50)
        assert len(sample) == 50
        assert len(set(sample)) == 50
        assert all(len(c) == 3 for c in sample)

    def test_invalid_arguments_raise(self, rng):
        with pytest.raises(ValueError):
            sample_coalitions_of_size(4, 5, rng, 1)
        with pytest.raises(ValueError):
            sample_coalitions_of_size(4, 2, rng, -1)
        assert sample_coalitions_of_size(4, 2, rng, 0) == []

    def test_roughly_uniform_over_small_stratum(self):
        # χ²-style sanity check: each of the C(5,2)=10 coalitions should be
        # hit roughly equally often across many independent draws.
        counts: dict = {}
        for seed in range(400):
            rng = np.random.default_rng(seed)
            for coalition in sample_coalitions_of_size(5, 2, rng, 3):
                counts[coalition] = counts.get(coalition, 0) + 1
        assert len(counts) == 10
        expected = 400 * 3 / 10
        assert all(0.5 * expected < c < 1.5 * expected for c in counts.values())


class TestCoalitionKey:
    def test_coalition_key_normalises_types(self):
        assert coalition_key([np.int64(1), 2]) == frozenset({1, 2})
        assert coalition_key(()) == frozenset()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), budget=st.integers(min_value=1, max_value=1024))
def test_k_star_budget_property(n, budget):
    """The exhaustive part of IPSS never exceeds the budget."""
    k_star = max_fully_enumerable_size(n, budget)
    if k_star >= 0:
        assert count_coalitions_up_to(n, k_star) <= budget


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    size=st.integers(min_value=1, max_value=8),
    budget=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_balanced_sampling_properties(n, size, budget, seed):
    """Balanced phase-2 samples are unique, of the right size and near-balanced."""
    if size > n:
        size = n
    rng = np.random.default_rng(seed)
    sample = balanced_coalitions_of_size(n, size, budget, rng)
    assert len(sample) <= max(budget, math.comb(n, size))
    assert len(set(sample)) == len(sample)
    assert all(len(c) == size for c in sample)
    if 0 < len(sample) < math.comb(n, size):
        counts = client_appearance_counts(sample, n)
        # Perfect balance is impossible once most of the stratum is consumed
        # (the remaining coalitions are forced); require rough balance only.
        assert counts.max() - counts.min() <= 3
        assert counts.min() >= (len(sample) * size) // n - 3
