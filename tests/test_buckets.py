import itertools
import math

import numpy as np
import pytest

from mlrank.buckets import (
    BucketOrder,
    RankedInstance,
    bucket_likelihood,
    bucket_likelihood_oracle,
    bucket_order_from_ranks,
    pair_mask,
    strict_pairs,
)

from oracles import ordered_partitions

PHI_INV_SQRT2 = 0.7602499389065233


def buckets_of(order):
    return [sorted(b) for b in order.buckets]


class TestBucketOrderFromRanks:
    def test_tied_pair_example(self):
        # one class alone on top, the other two tied below
        assert buckets_of(bucket_order_from_ranks([1, 2, 1])) == [[1], [0, 2]]

    def test_all_negative(self):
        order = bucket_order_from_ranks([0, 0, 0])
        assert buckets_of(order) == [[0, 1, 2]]
        assert strict_pairs(order) == []

    def test_gaps_and_zero_bucket(self):
        assert buckets_of(bucket_order_from_ranks([3, 1, 0, 1])) == [[0], [1, 3], [2]]

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty label vector"):
            bucket_order_from_ranks([])

    def test_rank_spacing_irrelevant(self):
        a = bucket_order_from_ranks([5, 2, 0])
        b = bucket_order_from_ranks([2, 1, 0])
        assert buckets_of(a) == buckets_of(b)


class TestStrictPairs:
    def test_tied_example(self):
        assert set(strict_pairs(bucket_order_from_ranks([1, 2, 1]))) == {(1, 0), (1, 2)}

    def test_single_bucket(self):
        assert strict_pairs(BucketOrder((frozenset({0, 1, 2}),), 3)) == []

    def test_total_order(self):
        assert set(strict_pairs(bucket_order_from_ranks([3, 2, 1]))) == {(0, 1), (0, 2), (1, 2)}

    def test_pair_count_formula(self):
        order = bucket_order_from_ranks([2, 2, 1, 0, 0, 0])
        sizes = [len(b) for b in order.buckets]
        expected = sum(
            sizes[k] * sizes[j] for k in range(len(sizes)) for j in range(k + 1, len(sizes))
        )
        assert order.num_strict_pairs == expected


def weak_pairs(ranks):
    """Pairs (u, v) of the weak supervision mask."""
    return [tuple(p) for p in np.argwhere(pair_mask(ranks, "weak")).tolist()]


def mask_pairs(ranks):
    return {tuple(p) for p in np.argwhere(pair_mask(ranks, "strong")).tolist()}


class TestWeakPairs:
    def test_example(self):
        assert set(weak_pairs([2, 1, 0])) == {(0, 2), (1, 2)}

    def test_all_negative(self):
        assert weak_pairs([0, 0]) == []

    def test_positives_times_negatives(self):
        assert set(weak_pairs([1, 1, 0, 0])) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_subset_of_strict(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            ranks = rng.integers(0, 4, size=k)
            weak = set(weak_pairs(ranks))
            strict = set(strict_pairs(bucket_order_from_ranks(ranks)))
            assert weak <= strict


class TestRoundTrip:
    def test_exhaustive_small(self):
        for k in (1, 2, 3, 4):
            for ranks in itertools.product(range(4), repeat=k):
                got = set(strict_pairs(bucket_order_from_ranks(list(ranks))))
                want = {
                    (u, v) for u in range(k) for v in range(k) if ranks[u] > ranks[v]
                }
                assert got == want
                assert mask_pairs(list(ranks)) == want

    def test_randomized_larger(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(5, 9))
            ranks = rng.integers(0, 5, size=k)
            got = set(strict_pairs(bucket_order_from_ranks(ranks)))
            want = {(u, v) for u in range(k) for v in range(k) if ranks[u] > ranks[v]}
            assert got == want
            assert mask_pairs(ranks) == want


class TestBucketLikelihood:
    def test_symmetric_quarter(self):
        order = bucket_order_from_ranks([1, 2, 1])
        assert bucket_likelihood(np.zeros(3), np.ones(3), order) == pytest.approx(0.25, abs=1e-12)

    def test_empty_pairs(self):
        order = bucket_order_from_ranks([0, 0, 0])
        assert bucket_likelihood(np.zeros(3), np.ones(3), order) == 1.0

    def test_phi_squared(self):
        order = bucket_order_from_ranks([1, 2, 1])
        lik = bucket_likelihood(np.array([0.0, 1.0, 0.0]), np.ones(3), order)
        assert abs(lik - PHI_INV_SQRT2**2) <= 1e-5

    def test_dimension_mismatch(self):
        order = bucket_order_from_ranks([1, 0])
        with pytest.raises(ValueError):
            bucket_likelihood(np.zeros(3), np.ones(3), order)

    def test_power_law_for_total_order(self):
        # equal means make every pair probability 0.5
        order = bucket_order_from_ranks([3, 2, 1])
        lik = bucket_likelihood(np.zeros(3), np.full(3, 2.2), order)
        assert lik == pytest.approx(0.5**3, abs=1e-12)


class TestOracle:
    def test_figure_example(self):
        order = bucket_order_from_ranks([1, 2, 1])
        assert bucket_likelihood_oracle(np.zeros(3), np.ones(3), order) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_single_bucket_of_two(self):
        order = BucketOrder((frozenset({0, 1}),), 2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = rng.normal(size=2)
            sigma = rng.uniform(0.3, 3, size=2)
            assert bucket_likelihood_oracle(mu, sigma, order) == pytest.approx(1.0, abs=1e-12)

    def test_matches_product_formula_random(self):
        rng = np.random.default_rng(11)
        order = BucketOrder((frozenset({0}), frozenset({1, 2}), frozenset({3})), 4)
        for _ in range(50):
            mu = rng.normal(size=4)
            sigma = rng.uniform(0.3, 3, size=4)
            a = bucket_likelihood(mu, sigma, order)
            b = bucket_likelihood_oracle(mu, sigma, order)
            assert abs(a - b) <= 1e-9 * max(abs(b), 1e-300)

    @pytest.mark.parametrize("blocks", [[range(7), [7]], [[0], range(1, 8)]])
    def test_chunked_enumeration_matches_product_formula(self, blocks):
        # 21 tied pairs: more than 16, so the orientations are enumerated in chunks
        order = BucketOrder(tuple(frozenset(b) for b in blocks), 8)
        rng = np.random.default_rng(17)
        mu = rng.normal(size=8)
        sigma = rng.uniform(0.3, 3, size=8)
        a = bucket_likelihood(mu, sigma, order)
        b = bucket_likelihood_oracle(mu, sigma, order)
        assert abs(a - b) <= 1e-9 * abs(b)

    def test_enumeration_bound(self):
        order = bucket_order_from_ranks(list(range(1, 10)))
        with pytest.raises(ValueError, match="enumeration bound exceeded"):
            bucket_likelihood_oracle(np.zeros(9), np.ones(9), order)

    def test_closure_all_shapes_k_le_4(self):
        # full closure at K <= 5 x 100 params runs in the acceptance suite
        rng = np.random.default_rng(13)
        for k in (1, 2, 3, 4):
            for blocks in ordered_partitions(range(k)):
                order = BucketOrder(tuple(frozenset(b) for b in blocks), k)
                for _ in range(10):
                    mu = rng.normal(size=k)
                    sigma = rng.uniform(0.2, 3, size=k)
                    a = bucket_likelihood(mu, sigma, order)
                    b = bucket_likelihood_oracle(mu, sigma, order)
                    assert abs(a - b) <= 1e-9 * max(abs(b), 1e-300)


class TestRankedInstance:
    def test_positive_mask(self):
        inst = RankedInstance(features=np.zeros(2), ranks=np.array([2, 0]))
        assert inst.positive_mask.tolist() == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            RankedInstance(features=np.zeros(2), ranks=np.array([-1, 0]))
        with pytest.raises(ValueError):
            RankedInstance(features=np.array([np.inf]), ranks=np.array([1]))
        with pytest.raises(ValueError):
            RankedInstance(features=np.zeros(2), ranks=np.array([], dtype=int))


class TestBucketOrderValidation:
    def test_overlapping_buckets(self):
        with pytest.raises(ValueError, match="disjoint"):
            BucketOrder((frozenset({0, 1}), frozenset({1})), 3)

    def test_empty_bucket(self):
        with pytest.raises(ValueError, match="non-empty"):
            BucketOrder((frozenset(),), 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BucketOrder((frozenset({5}),), 3)

    def test_uncovered_class(self):
        with pytest.raises(ValueError, match="cover every class"):
            BucketOrder((frozenset({0}), frozenset({2})), 3)

    def test_ranks_round_trip(self):
        for k in (1, 2, 3, 4):
            for blocks in ordered_partitions(range(k)):
                order = BucketOrder(tuple(frozenset(b) for b in blocks), k)
                assert order.ranks[list(blocks[-1])].tolist() == [0] * len(blocks[-1])
                assert bucket_order_from_ranks(order.ranks).buckets == order.buckets

    def test_weak_order_shape(self):
        # weak supervision is the two-bucket order: positives over negatives
        order = BucketOrder((frozenset({0, 1}), frozenset({2, 3})), 4)
        assert set(weak_pairs([2, 1, 0, 0])) == set(strict_pairs(order))
