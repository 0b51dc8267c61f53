"""Rank vectors and the bucket-order likelihood.

A rank vector assigns each class a natural number; zero marks a negative
class.  Classes with equal rank are tied and form a bucket; buckets are
totally ordered by decreasing rank, with the rank-zero classes forming
the lowest bucket.  The induced strict preference relation is the set of
ordered pairs (u, v) with rank_u > rank_v, and under independent
per-class Gaussian significance values the likelihood of the whole
bucket order is the product of P(z_u >= z_v) over exactly those pairs.
``bucket_likelihood_oracle`` verifies that product formula by brute
force: it enumerates every complete orientation of the tied pairs and
sums the full pairwise products.

A bucket order is its rank vector: training, the likelihood and its
oracle all read the strict relation of a batch of (n, K) rank vectors as
the boolean pair mask ``pair_mask``, and the oracle takes a row's tied
pairs as its pairs u < v of equal rank.

Class indices are 0-based.  Pair orientation is (u, v) = "u outranks v"
throughout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gaussian import q_prob

ENUMERATION_BOUND = 8
MODES = ("weak", "strong")


def pair_mask(ranks, mode: str) -> np.ndarray:
    """Supervised pairs of (..., K) rank vectors as a (..., K, K) mask.

    Entry [..., u, v] is True when class u must outrank class v: in
    "strong" mode when rank_u > rank_v, the strict pairs of the bucket
    order; in "weak" mode when u is positive and v negative, so the
    ordering among positives is discarded.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ranks = np.asarray(ranks, dtype=int)
    levels = ranks if mode == "strong" else ranks > 0
    return levels[..., :, None] > levels[..., None, :]


def head_batch(out, ranks, width: int):
    """(n, width) float head outputs and (n, K) int ranks of one batch;
    ValueError when the two do not match."""
    out = np.asarray(out, dtype=float)
    ranks = np.asarray(ranks, dtype=int)
    if ranks.ndim != 2 or out.shape != (ranks.shape[0], width):
        raise ValueError(
            f"head output of shape {out.shape} does not match ranks of shape "
            f"{ranks.shape} (expected width {width})"
        )
    return out, ranks


def _likelihood_inputs(mu, sigma, ranks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, K) float means, standard deviations and int ranks; ValueError
    unless the three are aligned with K >= 1, every rank is
    non-negative, every mean finite and every deviation finite and
    positive."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    ranks = np.asarray(ranks, dtype=int)
    if ranks.ndim != 2 or ranks.shape[1] == 0 or mu.shape != ranks.shape or sigma.shape != ranks.shape:
        raise ValueError(
            f"mu {mu.shape}, sigma {sigma.shape} and ranks {ranks.shape} must be aligned (n, K) arrays with K >= 1"
        )
    if (ranks < 0).any():
        raise ValueError("ranks must be non-negative")
    if not (np.isfinite(mu).all() and ((sigma > 0) & (sigma < np.inf)).all()):
        raise ValueError("the likelihood requires finite mu and finite sigma > 0")
    return mu, sigma, ranks


def _pair_probs(mu, sigma) -> np.ndarray:
    """(n, K, K) P(z_u >= z_v) for every ordered pair (u, v) of each row."""
    return q_prob(mu[:, :, None] - mu[:, None, :], np.hypot(sigma[:, :, None], sigma[:, None, :]))


def bucket_likelihood(mu, sigma, ranks) -> np.ndarray:
    """(n,) products over each row's strict pairs of P(z_u >= z_v); 1.0
    for a row without strict pairs."""
    mu, sigma, ranks = _likelihood_inputs(mu, sigma, ranks)
    return np.where(pair_mask(ranks, "strong"), _pair_probs(mu, sigma), 1.0).prod(axis=(1, 2))


def bucket_likelihood_oracle(mu, sigma, ranks) -> np.ndarray:
    """(n,) brute-force likelihoods over every strict relation consistent
    with each row's bucket order.

    A bucket order pins the orientation of every cross-bucket pair and
    leaves tied (equal-rank) pairs free.  Per row, the oracle enumerates
    every complete orientation of all its tied pairs at once and sums
    the full pairwise products, each term using P(z_u >= z_v) or its
    exact complement per the chosen orientation.  Because each tied pair
    is marginalized by the sum, the total collapses onto the strict-pair
    product formula, which is exactly what this function exists to
    verify numerically.
    """
    mu, sigma, ranks = _likelihood_inputs(mu, sigma, ranks)
    if ranks.shape[1] > ENUMERATION_BOUND:
        raise ValueError("enumeration bound exceeded")
    p = _pair_probs(mu, sigma)
    # Cross-bucket pairs carry the same orientation in every term.
    total = np.where(pair_mask(ranks, "strong"), p, 1.0).prod(axis=(1, 2))
    u, v = np.triu_indices(ranks.shape[1], 1)
    tied = ranks[:, u] == ranks[:, v]
    for row, (q, ties) in enumerate(zip(p[:, u, v], tied)):
        total[row] *= _orientation_sum(q[ties])
    return total


def _orientation_sum(tied: np.ndarray) -> float:
    """Sum over all 2^t orientations of t tied pairs of the product of
    P(z_u >= z_v) or its complement, in chunks of 2^16 orientations."""
    t = tied.size
    total = 0.0
    chunk = 1 << 16
    for start in range(0, 1 << t, chunk):
        stop = min(start + chunk, 1 << t)
        if start == 0 and stop == 1 << t and t <= 16:
            bits = _orientation_bits(t)
        else:
            idx = np.arange(start, stop, dtype=np.uint64)[:, None]
            bits = ((idx >> np.arange(t, dtype=np.uint64)) & 1).astype(bool)
        total += float(np.where(bits, tied, 1.0 - tied).prod(axis=1).sum())
    return total


@lru_cache(maxsize=32)
def _orientation_bits(t: int) -> np.ndarray:
    idx = np.arange(1 << t, dtype=np.uint64)[:, None]
    return ((idx >> np.arange(t, dtype=np.uint64)) & 1).astype(bool)
