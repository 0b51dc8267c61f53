"""Rank vectors and the supervision pairs the losses read from them.

A rank vector assigns each class a natural number; zero marks a negative
class.  Classes with equal rank are tied and form a bucket; buckets are
totally ordered by decreasing rank, with the rank-zero classes forming
the lowest bucket.  The induced strict preference relation is the set of
ordered pairs (u, v) with rank_u > rank_v; under independent per-class
Gaussian significance values the likelihood of the whole bucket order
is the product of P(z_u >= z_v) over exactly those pairs
(``gmlr.bucket_likelihood``).

A bucket order is its rank vector: every loss reads the supervised
pairs of a batch of (n, K) rank vectors as the boolean pair mask
``pair_mask``, and ``head_batch`` checks a batch's head output against
its ranks.  ``checked_ranks`` is the rule for ranks that enter from
outside (training, evaluation, the dataset writer): integers, never
cast from floats, non-negative and within int64.

Class indices are 0-based.  Pair orientation is (u, v) = "u outranks v"
throughout.
"""

from __future__ import annotations

import numpy as np

MODES = ("weak", "strong")


def checked_ranks(ranks) -> np.ndarray:
    """``ranks`` as an int64 array; ValueError unless it already holds
    integers (a float such as 1.0, or a bool, is refused, not cast),
    every one non-negative and within int64."""
    ranks = np.asarray(ranks)
    if (
        not np.issubdtype(ranks.dtype, np.integer) or np.any(ranks < 0)
        or np.any(ranks > np.iinfo(np.int64).max)
    ):
        raise ValueError("ranks must be non-negative integers that fit int64")
    return ranks.astype(np.int64, copy=False)


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
