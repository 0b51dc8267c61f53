"""Ranked instances, bucket orders, and the bucket-order likelihood.

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

Training reads the same strict relation as a boolean pair mask over a
batch of rank vectors (``pair_mask``); ``BucketOrder`` is the
per-instance form that the likelihood and its oracle take.

Class indices are 0-based.  Pair orientation is (u, v) = "u outranks v"
throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gaussian import GaussianParam, q_prob

ENUMERATION_BOUND = 8
MODES = ("weak", "strong")


@dataclass(frozen=True)
class RankedInstance:
    """A feature vector plus one natural-number rank per class (0 = negative).

    ``image_shape`` is (height, width, channels) when the features are a
    flattened image in that channels-last order, and None otherwise.
    ``train`` passes it on to the image front end, which checks it.
    """

    features: np.ndarray
    ranks: np.ndarray
    image_shape: tuple[int, int, int] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        ranks = np.asarray(self.ranks, dtype=int)
        if ranks.ndim != 1 or ranks.size == 0:
            raise ValueError("ranks must be a non-empty 1-d vector")
        if np.any(ranks < 0):
            raise ValueError("ranks must be non-negative")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "ranks", ranks)

    @property
    def positive_mask(self) -> np.ndarray:
        return self.ranks > 0


@dataclass(frozen=True)
class BucketOrder:
    """Disjoint non-empty sets of class indices, highest rank first.

    ``buckets`` may cover only a subset of the ``num_classes`` classes;
    pair extraction uses the listed buckets only.  Orders built by
    :func:`bucket_order_from_ranks` always cover every class.
    """

    buckets: tuple[frozenset[int], ...]
    num_classes: int
    _pairs_u: np.ndarray = field(repr=False, compare=False, default=None)
    _pairs_v: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        buckets = tuple(frozenset(b) for b in self.buckets)
        seen: set[int] = set()
        for b in buckets:
            if not b:
                raise ValueError("buckets must be non-empty")
            if seen & b:
                raise ValueError("buckets must be disjoint")
            if any(c < 0 or c >= self.num_classes for c in b):
                raise ValueError("class index out of range")
            seen |= b
        object.__setattr__(self, "buckets", buckets)
        pairs_u, pairs_v = [], []
        for k in range(len(buckets)):
            for j in range(k + 1, len(buckets)):
                for u in sorted(buckets[k]):
                    for v in sorted(buckets[j]):
                        pairs_u.append(u)
                        pairs_v.append(v)
        object.__setattr__(self, "_pairs_u", np.asarray(pairs_u, dtype=int))
        object.__setattr__(self, "_pairs_v", np.asarray(pairs_v, dtype=int))

    @property
    def num_strict_pairs(self) -> int:
        return int(self._pairs_u.size)

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(winners, losers) index arrays in deterministic order."""
        return self._pairs_u, self._pairs_v

    def covered_classes(self) -> list[int]:
        return sorted(c for b in self.buckets for c in b)


def bucket_order_from_ranks(ranks) -> BucketOrder:
    """Group classes by rank value, highest rank first.

    Classes sharing a rank are tied and share a bucket; rank-0 classes
    form the lowest bucket.  Only the comparison order of rank values
    matters, not their spacing.
    """
    ranks = np.asarray(ranks, dtype=int)
    if ranks.ndim != 1 or ranks.size == 0:
        raise ValueError("empty label vector")
    if np.any(ranks < 0):
        raise ValueError("ranks must be non-negative")
    levels = sorted(set(ranks.tolist()), reverse=True)
    buckets = tuple(
        frozenset(int(c) for c in np.flatnonzero(ranks == lv)) for lv in levels
    )
    return BucketOrder(buckets=buckets, num_classes=int(ranks.size))


def strict_pairs(b: BucketOrder) -> list[tuple[int, int]]:
    """All ordered pairs (u, v) with u in a strictly higher bucket than v."""
    pu, pv = b.pair_arrays()
    return list(zip(pu.tolist(), pv.tolist()))


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


def bucket_likelihood(mu, sigma, b: BucketOrder) -> float:
    """Product over strict pairs of P(z_u >= z_v); 1.0 for an empty pair set."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != (b.num_classes,) or sigma.shape != (b.num_classes,):
        raise ValueError("parameter length does not match class count")
    pu, pv = b.pair_arrays()
    if pu.size == 0:
        return 1.0
    return float(q_prob(GaussianParam(mu[pu] - mu[pv], np.hypot(sigma[pu], sigma[pv]))).prod())


def bucket_likelihood_oracle(mu, sigma, b: BucketOrder) -> float:
    """Brute-force likelihood over every strict relation consistent with b.

    A bucket order pins the orientation of every cross-bucket pair and
    leaves tied (same-bucket) pairs free.  The oracle enumerates every
    complete orientation of the tied pairs and sums the full pairwise
    products, each term using P(z_u >= z_v) or its exact complement per
    the chosen orientation.  Because each tied pair is marginalized by
    the sum, the total collapses onto the strict-pair product formula,
    which is exactly what this function exists to verify numerically.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != (b.num_classes,) or sigma.shape != (b.num_classes,):
        raise ValueError("parameter length does not match class count")
    covered = b.covered_classes()
    if len(covered) > ENUMERATION_BOUND:
        raise ValueError("enumeration bound exceeded")

    # P(z_u >= z_v) for every ordered pair (u, v).
    p = q_prob(GaussianParam(mu[:, None] - mu[None, :], np.hypot(sigma[:, None], sigma[None, :])))
    # Cross-bucket pairs carry the same orientation in every term.
    pu, pv = b.pair_arrays()
    total = float(p[pu, pv].prod())
    # Tied pairs of distinct buckets never interact, so the orientation
    # sum factorizes per bucket.
    for bucket in b.buckets:
        pairs = list(itertools.combinations(sorted(bucket), 2))
        t = len(pairs)
        if t == 0:
            continue
        tied = p[tuple(np.array(pairs).T)]
        bucket_sum = 0.0
        chunk = 1 << 16
        for start in range(0, 1 << t, chunk):
            stop = min(start + chunk, 1 << t)
            if start == 0 and stop == 1 << t and t <= 16:
                bits = _orientation_bits(t)
            else:
                idx = np.arange(start, stop, dtype=np.uint64)[:, None]
                bits = ((idx >> np.arange(t, dtype=np.uint64)) & 1).astype(bool)
            bucket_sum += float(np.where(bits, tied, 1.0 - tied).prod(axis=1).sum())
        total *= bucket_sum
    return total


@lru_cache(maxsize=32)
def _orientation_bits(t: int) -> np.ndarray:
    idx = np.arange(1 << t, dtype=np.uint64)[:, None]
    return ((idx >> np.arange(t, dtype=np.uint64)) & 1).astype(bool)
