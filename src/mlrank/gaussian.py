"""Gaussian primitives for significance modelling.

Class significance is modelled as a Gaussian random variable
z ~ N(mu, sigma^2).  Classification and ranking likelihoods are both
expressed through the positive-mass probability

    Q(mu, sigma) = P(z > 0) = 0.5 * erfc(-mu / (sigma * sqrt(2)))

and through differences of independent Gaussians, which are again
Gaussian with N(mu_u - mu_v, sigma_u^2 + sigma_v^2).

``q_prob`` and ``q_grads`` are the one array API: ``mu`` and ``sigma``
are scalars or equally shaped arrays of any shape, and the losses
evaluate every class or pair of a batch in one call.  ``q_grads``
returns Q beside its two gradients, so a loss evaluates erfc once.
Neither checks its inputs: callers pass finite mu and finite sigma > 0
(``batch_objective`` checks the network's output, and the bucket
likelihoods check theirs).

Probabilities are clamped to [P_EPS, 1 - P_EPS] before any logarithm so
that losses and their gradients stay finite for arbitrarily extreme
inputs.  Gradients are defined as the exact derivatives of the clamped
function: zero wherever the clamp is active, closed form elsewhere.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc as _erfc

P_EPS = 1e-12
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def q_prob(mu, sigma):
    """P(z > 0) for z ~ N(mu, sigma^2), clamped to [P_EPS, 1 - P_EPS].

    Computed as 0.5 * erfc(-mu / (sigma * sqrt(2))), which keeps full
    relative accuracy in both tails.
    """
    return _clamp(_q_raw(mu, sigma))


def q_grads(mu, sigma):
    """(Q, dQ/dmu, dQ/dsigma) of the clamped q_prob, elementwise, from
    one erfc evaluation; Q equals ``q_prob(mu, sigma)`` bit for bit.

    With t = mu / sigma and pdf the standard normal density:

        dQ/dmu    =  pdf(t) / sigma
        dQ/dsigma = -t * pdf(t) / sigma

    Both are zero wherever the probability clamp is active, so the pair
    (value, gradient) is consistent with finite differences everywhere
    off the clamp boundary.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    t = mu / sigma
    raw = _q_raw(mu, sigma)
    inside = (raw > P_EPS) & (raw < 1.0 - P_EPS)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * t * t)
    dmu = np.where(inside, pdf / sigma, 0.0)
    dsigma = np.where(inside, -t * pdf / sigma, 0.0)
    return _clamp(raw), dmu, dsigma


def _q_raw(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return 0.5 * _erfc(-mu / (sigma * _SQRT2))


def _clamp(p):
    return np.minimum(np.maximum(p, P_EPS), 1.0 - P_EPS)
