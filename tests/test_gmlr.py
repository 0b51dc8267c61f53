import math

import numpy as np
import pytest

from mlrank.buckets import pair_mask
from mlrank.gmlr import classification_loss, gmlr_objective, ranking_loss

from oracles import bucket_likelihood_oracle, fd_gradient, max_rel_error

LOG2 = math.log(2.0)
# Frozen from the quadrature oracle: -log Phi(1), -2 log Phi(1/sqrt(2)).
NEG_LOG_PHI_1 = 0.1727537790234499
NEG_2LOG_PHI_INV_SQRT2 = 0.5482160655687714
# Frozen direct evaluations of the weighted objective at ranks (2,1,0),
# mu=(1,0,-1), log_var=0.
STRONG_TOTAL_EXAMPLE = 0.5562618890191638
WEAK_TOTAL_EXAMPLE = 0.5242296940354121


def row(values):
    return np.asarray(values, dtype=float)[None, :]


def log_var_or_zeros(mu, log_var):
    return np.zeros(len(mu)) if log_var is None else log_var


def cls_loss(mu, ranks, log_var=None):
    """(loss, grad_mu, grad_log_var) of one instance."""
    loss, gmu, glv = classification_loss(row(mu), row(log_var_or_zeros(mu, log_var)), np.array([ranks]) > 0)
    return loss[0], gmu[0], glv[0]


def rank_loss(mu, ranks, log_var=None, mode="strong"):
    loss, gmu, glv = ranking_loss(row(mu), row(log_var_or_zeros(mu, log_var)), pair_mask([ranks], mode))
    return loss[0], gmu[0], glv[0]


def objective(mu, ranks, mode, log_var=None):
    """(total, grad) of one instance; grad holds d/dmu then d/dlog_var."""
    out = np.concatenate([mu, log_var_or_zeros(mu, log_var)])
    total, grad = gmlr_objective(out[None, :], [ranks], mode)
    return total[0], grad[0]


class TestClassificationLoss:
    def test_single_positive_at_zero(self):
        loss, _, _ = cls_loss([0.0], [1])
        assert loss == pytest.approx(LOG2, abs=1e-12)

    def test_two_class(self):
        loss, _, _ = cls_loss([0.0, 0.0], [1, 0])
        assert loss == pytest.approx(2 * LOG2, abs=1e-12)

    def test_positive_at_one(self):
        loss, _, _ = cls_loss([1.0], [1])
        assert abs(loss - NEG_LOG_PHI_1) <= 1e-5

    @pytest.mark.parametrize("positive", [[[1, 0]], [[-1, 0]], [[1.7, 0.0]], [[True]]],
                             ids=["ranks", "negative-rank", "fraction", "shape"])
    def test_refuses_anything_but_a_boolean_mask_of_mu_shape(self, positive):
        # Ranks were read as ranks > 0: -1 and 1.7 gave 1.386 like [1, 0].
        with pytest.raises(ValueError, match="positive must be a boolean mask"):
            classification_loss(np.zeros((1, 2)), np.zeros((1, 2)), positive)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gmlr_objective(np.zeros((1, 4)), [[1]], "strong")
        with pytest.raises(ValueError):
            gmlr_objective(np.zeros((2, 2)), [[1]], "strong")


class TestRankingLoss:
    def test_symmetric_pairs(self):
        loss, _, _ = rank_loss([0.0, 0.0, 0.0], [1, 2, 1])
        assert loss == pytest.approx(2 * LOG2, abs=1e-12)

    def test_empty_order(self):
        loss, gmu, glv = rank_loss([1.0, 2.0, 3.0], [0, 0, 0])
        assert loss == 0.0
        assert not gmu.any() and not glv.any()

    def test_raised_middle(self):
        loss, _, _ = rank_loss([0.0, 1.0, 0.0], [1, 2, 1])
        assert abs(loss - NEG_2LOG_PHI_INV_SQRT2) <= 1e-9

    def test_monotone_in_pair_gap(self):
        gaps = np.linspace(-3, 3, 25)
        losses = [rank_loss([g, 0.0], [1, 0])[0] for g in gaps]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_is_minus_log_bucket_likelihood(self):
        # The ranking term is -log of the bucket-order likelihood, here
        # summed by the oracle over every orientation of the tied pairs.
        rng = np.random.default_rng(21)
        mu = rng.normal(scale=1.5, size=(500, 6))
        log_var = rng.uniform(-2.0, 2.0, size=(500, 6))
        # Six classes on four rank values: every row has a tie.
        ranks = rng.integers(0, 4, size=(500, 6))
        loss, _, _ = ranking_loss(mu, log_var, pair_mask(ranks, "strong"))
        want = -np.log(bucket_likelihood_oracle(mu, np.exp(log_var / 2), ranks))
        # A row without strict pairs has loss 0; its oracle sum is 1 to
        # within rounding, hence the absolute tolerance.
        np.testing.assert_allclose(loss, want, rtol=1e-12, atol=1e-13)


class TestObjective:
    def test_weighted_example(self):
        total, _ = objective([0.0, 0.0], [1, 0], "strong")
        assert total == pytest.approx(2 * LOG2, abs=1e-12)
        lc = cls_loss([0.0, 0.0], [1, 0])[0]
        lr = rank_loss([0.0, 0.0], [1, 0])[0]
        assert total == pytest.approx(lc / 2 + lr / 1, abs=1e-12)

    def test_all_negative(self):
        total, _ = objective([0.3, -0.2], [0, 0], "strong")
        assert rank_loss([0.3, -0.2], [0, 0])[0] == 0.0
        assert total == pytest.approx(cls_loss([0.3, -0.2], [0, 0])[0] / 2, abs=1e-12)

    def test_weak_vs_strong_direction(self):
        mu = [1.0, 0.0, -1.0]
        strong, _ = objective(mu, [2, 1, 0], "strong")
        weak, _ = objective(mu, [2, 1, 0], "weak")
        assert strong == pytest.approx(STRONG_TOTAL_EXAMPLE, abs=1e-12)
        assert weak == pytest.approx(WEAK_TOTAL_EXAMPLE, abs=1e-12)
        # the extra positive-positive pair costs more than the weak mean
        assert strong > weak

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            objective([0.0], [1], "semi")


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            mu = rng.normal(size=k)
            lv = rng.normal(scale=0.7, size=k)
            ranks = rng.integers(0, 4, size=k)
            mode = "strong" if rng.integers(2) else "weak"

            _, analytic = objective(mu, ranks, mode, lv)

            def total_at(x):
                return objective(x[:k], ranks, mode, x[k:])[0]

            fd = fd_gradient(total_at, np.concatenate([mu, lv]))
            assert max_rel_error(analytic, fd) <= 1e-4


class TestProperties:
    def test_losses_nonnegative_and_bounded(self):
        rng = np.random.default_rng(9)
        bound = -math.log(1e-12)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            mu = rng.normal(scale=30, size=k)
            lv = rng.normal(size=k)
            ranks = rng.integers(0, 3, size=k)
            lc, _, _ = cls_loss(mu, ranks, lv)
            lr, _, _ = rank_loss(mu, ranks, lv)
            assert 0.0 <= lc <= k * bound
            assert 0.0 <= lr <= pair_mask(ranks, "strong").sum() * bound + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = 5
            mu = rng.normal(size=k)
            lv = rng.normal(size=k)
            ranks = rng.integers(0, 4, size=k)
            perm = rng.permutation(k)
            for mode in ("weak", "strong"):
                a_total, a_grad = objective(mu, ranks, mode, lv)
                b_total, b_grad = objective(mu[perm], ranks[perm], mode, lv[perm])
                assert a_total == pytest.approx(b_total, rel=1e-12)
                np.testing.assert_allclose(a_grad[:k][perm], b_grad[:k], rtol=1e-10)
                np.testing.assert_allclose(a_grad[k:][perm], b_grad[k:], rtol=1e-10)
