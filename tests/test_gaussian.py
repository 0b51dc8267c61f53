import math

import numpy as np
import pytest

from mlrank.buckets import pair_mask
from mlrank.gaussian import P_EPS, GaussianParam, q_grads, q_prob
from mlrank.gmlr import classification_loss, ranking_loss

from oracles import erf_quadrature, q_prob_quadrature

# Frozen from the quadrature oracles in oracles.py.
ERF_1 = 0.8427007929497149
PHI_1 = 0.8413447460685429
PHI_INV_SQRT2 = 0.7602499389065233


def erf(x):
    """erf through Q's erfc form: erf(x) = 2 Q(sqrt(2) x, 1) - 1."""
    return 2.0 * q_prob(GaussianParam(math.sqrt(2.0) * np.asarray(x, dtype=float), 1.0)) - 1.0


def log_q_prob(g):
    """log Q as the classification loss takes it: minus the loss of one
    positive class."""
    mu = np.array([[float(g.mu)]])
    log_var = np.array([[2.0 * math.log(float(g.sigma))]])
    return -classification_loss(mu, log_var, np.array([[1]]))[0][0]


def diff_q(u, v):
    """Q of z_u - z_v as the ranking loss takes it: exp(-loss) of the
    single pair "u outranks v"."""
    mu = np.array([[u.mu, v.mu]], dtype=float)
    log_var = 2.0 * np.log(np.array([[u.sigma, v.sigma]], dtype=float))
    return math.exp(-ranking_loss(mu, log_var, pair_mask([[1, 0]], "strong"))[0][0])


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_saturation(self):
        assert abs(erf(6.0) - 1.0) <= 1e-7

    def test_value_at_one(self):
        assert abs(erf(1.0) - ERF_1) <= 1e-6
        assert abs(ERF_1 - erf_quadrature(1.0)) <= 1e-9

    def test_odd_symmetry_and_quadrature_grid(self):
        xs = np.linspace(-4.0, 4.0, 33)
        vals = erf(xs)
        np.testing.assert_allclose(vals + erf(-xs), 0.0, atol=1e-7)
        for x, v in zip(xs, vals):
            assert abs(v - erf_quadrature(float(x))) <= 1e-7


class TestQProb:
    def test_zero_mean(self):
        assert q_prob(GaussianParam(0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)
        assert q_prob(GaussianParam(0.0, 7.3)) == pytest.approx(0.5, abs=1e-12)

    def test_value(self):
        assert abs(q_prob(GaussianParam(1.0, 1.0)) - PHI_1) <= 1e-6

    def test_clamp(self):
        assert q_prob(GaussianParam(-60.0, 1.0)) == P_EPS
        assert q_prob(GaussianParam(60.0, 1.0)) == 1.0 - P_EPS

    def test_symmetric_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu = rng.uniform(-4, 4)
            sigma = rng.uniform(0.7, 5)  # keeps |mu|/sigma <= 6
            total = q_prob(GaussianParam(mu, sigma)) + q_prob(GaussianParam(-mu, sigma))
            assert abs(total - 1.0) <= 1e-9

    def test_monotone_in_mu(self):
        for sigma in (0.2, 1.0, 3.0, 10.0):
            mus = np.linspace(-30, 30, 301)
            vals = q_prob(GaussianParam(mus, np.full_like(mus, sigma)))
            assert np.all(np.diff(vals) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianParam(0.0, 0.0)
        with pytest.raises(ValueError):
            GaussianParam(np.nan, 1.0)


class TestLogQProb:
    def test_half(self):
        assert log_q_prob(GaussianParam(0.0, 1.0)) == pytest.approx(-math.log(2), abs=1e-12)

    def test_value(self):
        assert abs(log_q_prob(GaussianParam(1.0, 1.0)) - (-0.1727537790234499)) <= 1e-5

    def test_clamp_floor(self):
        assert log_q_prob(GaussianParam(-40.0, 1.0)) >= math.log(1e-12) - 1e-9

    def test_matches_log_of_q(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = GaussianParam(rng.uniform(-4, 4), rng.uniform(0.3, 4))
            q = float(q_prob(g))
            if 1e-6 <= q <= 1 - 1e-6:
                assert abs(float(log_q_prob(g)) - math.log(q)) <= 1e-9


class TestDiffParam:
    """z_u - z_v ~ N(mu_u - mu_v, sigma_u^2 + sigma_v^2) inside the ranking loss."""

    def test_symmetric(self):
        assert diff_q(GaussianParam(0.0, 1.0), GaussianParam(0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)
        # only the variance sum matters at equal means
        assert diff_q(GaussianParam(0.0, 0.3), GaussianParam(0.0, 4.0)) == pytest.approx(0.5, abs=1e-12)

    def test_direct(self):
        want = float(q_prob(GaussianParam(2.0, math.sqrt(8))))
        assert diff_q(GaussianParam(3.0, 2.0), GaussianParam(1.0, 2.0)) == pytest.approx(want, rel=1e-12)

    def test_through_q(self):
        assert abs(diff_q(GaussianParam(1.0, 1.0), GaussianParam(0.0, 1.0)) - PHI_INV_SQRT2) <= 1e-6
        assert abs(PHI_INV_SQRT2 - q_prob_quadrature(1.0, math.sqrt(2))) <= 1e-9


class TestQGrads:
    def test_matches_finite_differences(self):
        h = 1e-5
        for sigma in (0.2, 0.5, 1.0, 2.0, 5.0):
            for mu in np.arange(-4.0, 4.0 + 1e-9, 0.5):
                _, dmu, dsigma = q_grads(GaussianParam(mu, sigma))
                fd_mu = (
                    q_prob(GaussianParam(mu + h, sigma)) - q_prob(GaussianParam(mu - h, sigma))
                ) / (2 * h)
                fd_sg = (
                    q_prob(GaussianParam(mu, sigma + h)) - q_prob(GaussianParam(mu, sigma - h))
                ) / (2 * h)
                for a, f in ((dmu, fd_mu), (dsigma, fd_sg)):
                    if abs(f) < 1e-7:
                        # off in the tails both are numerically negligible
                        assert abs(a) < 1e-7
                    else:
                        assert abs(a - f) / abs(f) <= 1e-5

    def test_zero_in_clamped_region(self):
        _, dmu, dsigma = q_grads(GaussianParam(-20.0, 0.5))
        assert dmu == 0.0 and dsigma == 0.0

    def test_value_is_q_prob_bit_for_bit(self):
        # tails on both sides of the clamp, scalars and a (3, 4, 4) batch
        rng = np.random.default_rng(8)
        for g in (
            GaussianParam(-20.0, 0.5),
            GaussianParam(0.3, 1.7),
            GaussianParam(rng.normal(scale=12.0, size=(3, 4, 4)), rng.uniform(0.1, 3.0, size=(3, 4, 4))),
        ):
            q, _, _ = q_grads(g)
            assert np.array_equal(q, q_prob(g))
