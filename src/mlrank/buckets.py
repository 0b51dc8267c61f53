"""Rank vectors, the one rule that makes them, and the supervision pairs
the losses read from them.

A rank vector assigns each class a natural number; zero marks a negative
class.  Classes with equal rank are tied and form a bucket; buckets are
totally ordered by decreasing rank, with the rank-zero classes forming
the lowest bucket.  The induced strict preference relation is the set of
ordered pairs (u, v) with rank_u > rank_v; under independent per-class
Gaussian significance values the likelihood of the whole bucket order
is the product of P(z_u >= z_v) over exactly those pairs
(``gmlr.bucket_likelihood``).

``dense_ranks`` is the only rule that turns values into ranks: the
generators rank their factor matrices with it, and a caller that wants
predicted ranks applies it to a ``Prediction``'s scores and mask.

A bucket order is its rank vector: every loss reads the supervised
pairs of a batch of (n, K) rank vectors as the boolean pair mask
``pair_mask``, and ``head_batch`` checks a batch's head output against
its ranks.  ``checked_ranks`` is the rule for ranks that enter from
outside (the losses, training, evaluation, the dataset writer):
integers, never cast from floats, non-negative and within int64.

Class indices are 0-based.  Pair orientation is (u, v) = "u outranks v"
throughout.
"""

from __future__ import annotations

import numpy as np

from .settings import choice

MODES = ("weak", "strong")
_INT64_MAX = np.uint64(np.iinfo(np.int64).max)


def dense_ranks(values, present) -> np.ndarray:
    """The (..., K) ranks of (..., K) ``values``: in each row the
    ``present`` classes take the dense ranks 1..m by ascending value and
    the others 0.  Exact ties break by class index, the lower index
    taking the higher rank: class u's rank counts the present v with
    (value_v, -v) <= (value_u, -u), all in one (..., K, K) comparison."""
    values = np.asarray(values)
    present = np.asarray(present, dtype=bool)
    a_u, a_v = values[..., :, None], values[..., None, :]
    classes = np.arange(values.shape[-1])
    below = (a_v < a_u) | ((a_v == a_u) & (classes >= classes[:, None]))
    return np.where(present, (below & present[..., None, :]).sum(axis=-1), 0)


def checked_ranks(ranks) -> np.ndarray:
    """``ranks`` as an int64 array; ValueError unless it already holds
    integers (a float such as 1.0, or a bool, is refused, not cast),
    every one non-negative and within int64."""
    ranks = np.asarray(ranks)
    kind = ranks.dtype.kind
    # Only an unsigned dtype can exceed int64, and only a signed one can
    # go below 0; one reduction per call keeps this cheap per batch.
    if kind not in "iu" or (ranks.size and (ranks.max() > _INT64_MAX if kind == "u" else ranks.min() < 0)):
        raise ValueError("ranks must be non-negative integers that fit int64")
    return ranks.astype(np.int64, copy=False)


def pair_mask(ranks, mode: str) -> np.ndarray:
    """Supervised pairs of (..., K) rank vectors as a (..., K, K) mask.

    Entry [..., u, v] is True when class u must outrank class v: in
    "strong" mode when rank_u > rank_v, the strict pairs of the bucket
    order; in "weak" mode when u is positive and v negative, so the
    ordering among positives is discarded.  The ranks are compared as
    given, never cast.
    """
    ranks = np.asarray(ranks)
    levels = ranks if choice(mode, "mode", MODES) == "strong" else ranks > 0
    return levels[..., :, None] > levels[..., None, :]


def head_batch(out, ranks, width: int):
    """(n, width) float head outputs and (n, K) ranks of one batch, the
    ranks as ``checked_ranks``; ValueError when the two do not match."""
    out = np.asarray(out, dtype=float)
    ranks = checked_ranks(ranks)
    if ranks.ndim != 2 or out.shape != (ranks.shape[0], width):
        raise ValueError(
            f"head output of shape {out.shape} does not match ranks of shape "
            f"{ranks.shape} (expected width {width})"
        )
    return out, ranks
