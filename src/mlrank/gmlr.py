"""Gaussian multi-label ranking objective (GMLR).

The model predicts, per class, the mean and log-variance of a Gaussian
significance value.  Two negative log-likelihood terms are combined:

* classification: Bernoulli NLL of each class being positive, with
  success probability Q(mu_c, sigma_c) = P(significance_c > 0);
* ranking: for every strict pair (u, v) of the supervision order,
  -log Q(mu_u - mu_v, sqrt(sigma_u^2 + sigma_v^2)).

The per-instance total weighs the terms by 1/K and 1/|pairs| so neither
dominates as K or the pair count grows.  Strong supervision uses the
full bucket order of the rank vector; weak supervision replaces it with
the positives-over-negatives order (see ``pair_mask``).

Every function takes a batch: (n, K) means, log-variances and ranks,
and (n, K, K) pair masks.  The ranking term is evaluated on all K x K
pairs at once and masked; a pair's gradient reaches its winner through
a row sum and its loser through a column sum of the pair matrix.  All
gradients are closed form, with respect to the predicted means and
log-variances.

Under strong supervision the ranking term is -log of the bucket-order
likelihood: the product of P(z_u >= z_v) over the strict pairs
(rank_u > rank_v) of each row.  ``bucket_likelihood`` is exp of minus
that very loss, so the test suite's brute-force enumeration over every
orientation of the tied pairs checks the term that training minimises.
"""

from __future__ import annotations

import numpy as np

from .buckets import checked_ranks, head_batch, pair_mask
from .gaussian import q_grads


def classification_loss(mu, log_var, positive):
    """(n,) Bernoulli NLL summed over classes, plus (n, K) gradients.

    Returns (loss, grad_mu, grad_log_var).  ``positive`` is the (n, K)
    boolean mask of the target positives (``ranks > 0``); a mask of
    another dtype or shape is a ValueError.  P(negative) is evaluated as
    Q(-mu, sigma), the exact complement of Q(mu, sigma), which keeps
    tail accuracy.
    """
    positive = np.asarray(positive)
    if positive.dtype != bool or positive.shape != np.shape(mu):
        raise ValueError(
            f"positive must be a boolean mask of mu's shape {np.shape(mu)}, got {positive.dtype} {positive.shape}"
        )
    sigma = np.exp(0.5 * log_var)
    sgn = np.where(positive, 1.0, -1.0)
    # Per class the active term is -log Q(sgn * mu, sigma).
    q, dq_dm, dq_ds = q_grads(sgn * mu, sigma)
    grad_sigma = -dq_ds / q
    return -np.sum(np.log(q), axis=1), -sgn * dq_dm / q, 0.5 * sigma * grad_sigma


def ranking_loss(mu, log_var, mask):
    """(n,) sum of -log Q over each row's masked pairs, plus (n, K)
    gradients.

    Returns (loss, grad_mu, grad_log_var); a row with no pair has zero
    loss and gradient.  Each pair (u, v) contributes through the
    difference distribution N(mu_u - mu_v, sigma_u^2 + sigma_v^2), so
    its gradient touches both endpoints.
    """
    sigma = np.exp(0.5 * log_var)
    m = mu[:, :, None] - mu[:, None, :]
    s = np.hypot(sigma[:, :, None], sigma[:, None, :])
    q, dq_dm, dq_ds = q_grads(m, s)
    loss = np.sum(np.where(mask, -np.log(q), 0.0), axis=(1, 2))
    dl_dm = np.where(mask, -dq_dm / q, 0.0)
    # d s / d sigma_u = sigma_u / s, then d sigma_u / d log_var_u = sigma_u / 2.
    dl_ds = np.where(mask, -dq_ds / q, 0.0) / (2.0 * s)
    grad_mu = dl_dm.sum(axis=2) - dl_dm.sum(axis=1)
    grad_log_var = sigma**2 * (dl_ds.sum(axis=2) + dl_ds.sum(axis=1))
    return loss, grad_mu, grad_log_var


def _likelihood_inputs(mu, sigma, ranks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, K) float means, standard deviations and int64 ranks; ValueError
    unless the ranks pass ``checked_ranks``, the three are aligned with
    K >= 1, every mean is finite and every deviation finite and
    positive."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    ranks = checked_ranks(ranks)
    if ranks.ndim != 2 or ranks.shape[1] == 0 or mu.shape != ranks.shape or sigma.shape != ranks.shape:
        raise ValueError(
            f"mu {mu.shape}, sigma {sigma.shape} and ranks {ranks.shape} must be aligned (n, K) arrays with K >= 1"
        )
    if not (np.isfinite(mu).all() and ((sigma > 0) & (sigma < np.inf)).all()):
        raise ValueError("the likelihood requires finite mu and finite sigma > 0")
    return mu, sigma, ranks


def bucket_likelihood(mu, sigma, ranks) -> np.ndarray:
    """(n,) bucket-order likelihoods: the products over each row's strict
    pairs of P(z_u >= z_v), taken as exp(-``ranking_loss``) over the
    strong pair mask; 1.0 for a row without strict pairs."""
    mu, sigma, ranks = _likelihood_inputs(mu, sigma, ranks)
    return np.exp(-ranking_loss(mu, 2.0 * np.log(sigma), pair_mask(ranks, "strong"))[0])


def gmlr_objective(out, ranks, mode: str):
    """Weighted per-instance objective: total = Lc/K + Lr/|pairs|.

    ``out`` is the (n, 2K) head output, means then log-variances, and
    ``ranks`` the (n, K) non-negative integer ranks (``head_batch``).
    Returns the (n,) totals and their (n, 2K) gradient.  ``mode``
    selects the supervision order (``pair_mask``).  When a row's pair
    set is empty its ranking term and weight are both zero.
    """
    k = np.shape(ranks)[-1]
    out, ranks = head_batch(out, ranks, 2 * k)
    mask = pair_mask(ranks, mode)
    mu, log_var = out[:, :k], out[:, k:]
    lc, gc_mu, gc_lv = classification_loss(mu, log_var, ranks > 0)
    lr, gr_mu, gr_lv = ranking_loss(mu, log_var, mask)
    pairs = mask.sum(axis=(1, 2))
    lam1 = 1.0 / k
    lam2 = np.where(pairs > 0, 1.0 / np.maximum(pairs, 1), 0.0)
    total = lam1 * lc + lam2 * lr
    lam2 = lam2[:, None]
    grad = np.concatenate([lam1 * gc_mu + lam2 * gr_mu, lam1 * gc_lv + lam2 * gr_lv], axis=1)
    return total, grad
