import itertools

import numpy as np
import pytest

from mlrank.baselines import crpc_loss, lsep_class_loss, lsep_rank_loss
from mlrank.buckets import pair_mask
from mlrank.gmlr import bucket_likelihood, gmlr_objective
from mlrank.model import batch_objective, init_model

from oracles import bucket_likelihood_oracle, ordered_partitions, partition_ranks

PHI_INV_SQRT2 = 0.7602499389065233


def likelihood(mu, sigma, ranks, fn=bucket_likelihood):
    """One row's likelihood through the batched function."""
    return fn(np.asarray(mu, dtype=float)[None], np.asarray(sigma, dtype=float)[None], [ranks])[0]


class TestStrictPairs:
    def test_tied_example(self):
        assert mask_pairs([1, 2, 1]) == {(1, 0), (1, 2)}

    def test_single_bucket(self):
        assert mask_pairs([2, 2, 2]) == set()
        assert mask_pairs([0, 0, 0]) == set()

    def test_total_order(self):
        assert mask_pairs([3, 2, 1]) == {(0, 1), (0, 2), (1, 2)}

    def test_rank_spacing_irrelevant(self):
        assert mask_pairs([5, 2, 0]) == mask_pairs([2, 1, 0])
        assert mask_pairs([3, 1, 0, 1]) == mask_pairs([2, 1, 0, 1])

    def test_pair_count_formula(self):
        ranks = [2, 2, 1, 0, 0, 0]
        sizes = [2, 1, 3]  # bucket sizes, highest rank first
        expected = sum(
            sizes[k] * sizes[j] for k in range(len(sizes)) for j in range(k + 1, len(sizes))
        )
        assert pair_mask(ranks, "strong").sum() == expected


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
            assert weak <= mask_pairs(ranks)


class TestStrictRelation:
    def test_exhaustive_small(self):
        for k in (1, 2, 3, 4):
            for ranks in itertools.product(range(4), repeat=k):
                want = {
                    (u, v) for u in range(k) for v in range(k) if ranks[u] > ranks[v]
                }
                assert mask_pairs(list(ranks)) == want

    def test_randomized_larger(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(5, 9))
            ranks = rng.integers(0, 5, size=k)
            want = {(u, v) for u in range(k) for v in range(k) if ranks[u] > ranks[v]}
            assert mask_pairs(ranks) == want

    def test_batch_is_row_by_row(self):
        rng = np.random.default_rng(4)
        ranks = rng.integers(0, 4, size=(30, 6))
        batch = pair_mask(ranks, "strong")
        for row, mask in zip(ranks, batch):
            assert np.array_equal(mask, pair_mask(row, "strong"))

    def test_weak_order_shape(self):
        # weak supervision is the two-bucket order: positives over negatives
        assert set(weak_pairs([2, 1, 0, 0])) == mask_pairs([1, 1, 0, 0])


# Each takes one instance's (1, 2) ranks.
RANKED = {
    "gmlr_objective": lambda r: gmlr_objective(np.zeros((1, 4)), r, "strong"),
    "crpc_loss": lambda r: crpc_loss(np.zeros((1, 3)), r, "strong"),
    "lsep_rank_loss": lambda r: lsep_rank_loss(np.zeros((1, 4)), r, "strong"),
    "lsep_class_loss": lambda r: lsep_class_loss(np.zeros((1, 4)), r),
    "batch_objective": lambda r: batch_objective(
        init_model(3, 2, "gmlr", hidden=(), seed=0), np.ones((1, 3)), r, "strong"),
    "bucket_likelihood": lambda r: bucket_likelihood(np.zeros((1, 2)), np.ones((1, 2)), r),
}


class TestRankInputs:
    @pytest.mark.parametrize("fn", RANKED.values(), ids=RANKED.keys())
    @pytest.mark.parametrize("ranks", [[[1.7, 0]], [[1.0, 0.0]], [[True, False]], [[-1, 0]]],
                             ids=["fraction", "integral-float", "bool", "negative"])
    def test_losses_refuse_ranks_that_are_not_non_negative_integers(self, fn, ranks):
        with pytest.raises(ValueError, match="ranks must be non-negative integers that fit int64"):
            fn(ranks)

    @pytest.mark.parametrize("fn", RANKED.values(), ids=RANKED.keys())
    def test_any_integer_dtype_gives_the_int64_result(self, fn):
        # The first item is the loss (or the likelihood) in every case.
        np.testing.assert_array_equal(fn(np.array([[1, 0]], dtype=np.uint8))[0], fn(np.array([[1, 0]]))[0])

    def test_pair_mask_compares_the_values_it_is_given(self):
        # No cast to int: 1.7 and 1.2 would both truncate to 1.
        assert pair_mask([[1.7, 1.2]], "strong").tolist() == [[[False, True], [False, False]]]


class TestBucketLikelihood:
    def test_symmetric_quarter(self):
        assert likelihood(np.zeros(3), np.ones(3), [1, 2, 1]) == pytest.approx(0.25, abs=1e-12)

    def test_empty_pairs(self):
        assert likelihood(np.zeros(3), np.ones(3), [0, 0, 0]) == 1.0

    def test_phi_squared(self):
        lik = likelihood([0.0, 1.0, 0.0], np.ones(3), [1, 2, 1])
        assert abs(lik - PHI_INV_SQRT2**2) <= 1e-5

    def test_power_law_for_total_order(self):
        # equal means make every pair probability 0.5
        lik = likelihood(np.zeros(3), np.full(3, 2.2), [3, 2, 1])
        assert lik == pytest.approx(0.5**3, abs=1e-12)

    def test_rank_spacing_irrelevant(self):
        rng = np.random.default_rng(6)
        mu = rng.normal(size=(20, 4))
        sigma = rng.uniform(0.3, 3, size=(20, 4))
        a = bucket_likelihood(mu, sigma, np.tile([3, 1, 0, 1], (20, 1)))
        b = bucket_likelihood(mu, sigma, np.tile([2, 1, 0, 1], (20, 1)))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("fn", [bucket_likelihood, bucket_likelihood_oracle])
    def test_batch_is_row_by_row(self, fn):
        # rows of different bucket orders in one call
        rng = np.random.default_rng(9)
        ranks = rng.integers(0, 4, size=(40, 5))
        mu = rng.normal(size=(40, 5))
        sigma = rng.uniform(0.3, 3, size=(40, 5))
        batch = fn(mu, sigma, ranks)
        assert batch.shape == (40,)
        for i in range(40):
            assert batch[i] == likelihood(mu[i], sigma[i], ranks[i], fn)

    @pytest.mark.parametrize("fn", [bucket_likelihood, bucket_likelihood_oracle])
    @pytest.mark.parametrize(
        "mu, sigma, ranks",
        [
            (np.zeros((1, 3)), np.ones((1, 3)), [[1, 0]]),
            (np.zeros((1, 2)), np.ones((1, 3)), [[1, 0]]),
            (np.zeros(2), np.ones(2), [1, 0]),
            (np.zeros((1, 0)), np.ones((1, 0)), np.zeros((1, 0), dtype=int)),
        ],
    )
    def test_refuses_misaligned_or_empty(self, fn, mu, sigma, ranks):
        with pytest.raises(ValueError, match="aligned"):
            fn(mu, sigma, ranks)

    @pytest.mark.parametrize("fn", [bucket_likelihood, bucket_likelihood_oracle])
    def test_refuses_negative_ranks(self, fn):
        with pytest.raises(ValueError, match="non-negative"):
            fn(np.zeros((1, 2)), np.ones((1, 2)), [[1, -1]])

    @pytest.mark.parametrize("fn", [bucket_likelihood, bucket_likelihood_oracle])
    @pytest.mark.parametrize(
        "mu, sigma",
        [
            ([np.nan, 0.0], [1.0, 1.0]),
            ([np.inf, 0.0], [1.0, 1.0]),
            ([0.0, 0.0], [0.0, 1.0]),
            ([0.0, 0.0], [1.0, -2.0]),
            ([0.0, 0.0], [1.0, np.inf]),
            ([0.0, 0.0], [np.nan, 1.0]),
        ],
    )
    def test_refuses_non_finite_mean_or_bad_sigma(self, fn, mu, sigma):
        with pytest.raises(ValueError, match="finite mu and finite sigma > 0"):
            likelihood(mu, sigma, [1, 0], fn)


class TestOracle:
    def test_figure_example(self):
        lik = likelihood(np.zeros(3), np.ones(3), [1, 2, 1], bucket_likelihood_oracle)
        assert lik == pytest.approx(0.25, abs=1e-12)

    def test_single_bucket_of_two(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=(20, 2))
        sigma = rng.uniform(0.3, 3, size=(20, 2))
        got = bucket_likelihood_oracle(mu, sigma, np.ones((20, 2), dtype=int))
        assert np.allclose(got, 1.0, rtol=0, atol=1e-12)

    def test_matches_product_formula_random(self):
        rng = np.random.default_rng(11)
        mu = rng.normal(size=(50, 4))
        sigma = rng.uniform(0.3, 3, size=(50, 4))
        ranks = np.tile([2, 1, 1, 0], (50, 1))
        a = bucket_likelihood(mu, sigma, ranks)
        b = bucket_likelihood_oracle(mu, sigma, ranks)
        assert (np.abs(a - b) <= 1e-9 * np.maximum(np.abs(b), 1e-300)).all()

    @pytest.mark.parametrize(
        "ranks", [[1] * 7 + [0], [1] + [0] * 7, [2, 2, 2, 2, 1, 1, 1, 1]]
    )
    def test_chunked_enumeration_matches_product_formula(self, ranks):
        # one bucket of 7 has 21 tied pairs, more than 16, so they are
        # enumerated in chunks; two buckets of 4 are enumerated jointly
        rng = np.random.default_rng(17)
        mu = rng.normal(size=(1, 8))
        sigma = rng.uniform(0.3, 3, size=(1, 8))
        a = bucket_likelihood(mu, sigma, [ranks])
        b = bucket_likelihood_oracle(mu, sigma, [ranks])
        assert abs(a[0] - b[0]) <= 1e-9 * abs(b[0])

    def test_enumeration_bound(self):
        with pytest.raises(ValueError, match="enumeration bound exceeded"):
            likelihood(np.zeros(9), np.ones(9), list(range(1, 10)), bucket_likelihood_oracle)

    def test_closure_all_shapes_k_le_4(self):
        # full closure at K <= 5 x 100 params runs in the acceptance suite
        rng = np.random.default_rng(13)
        for k in (1, 2, 3, 4):
            for blocks in ordered_partitions(range(k)):
                mu = rng.normal(size=(10, k))
                sigma = rng.uniform(0.2, 3, size=(10, k))
                ranks = np.tile(partition_ranks(blocks, k), (10, 1))
                a = bucket_likelihood(mu, sigma, ranks)
                b = bucket_likelihood_oracle(mu, sigma, ranks)
                assert (np.abs(a - b) <= 1e-9 * np.maximum(np.abs(b), 1e-300)).all()

