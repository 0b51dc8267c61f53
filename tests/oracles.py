"""Independent reference implementations used to pin expected values.

Everything here deliberately takes the dumbest correct path (quadrature,
double loops, explicit enumeration) so it shares no code with the
library's implementations.  One exception: ``bucket_likelihood_oracle``
takes its input checks (``mlrank.gmlr._likelihood_inputs``) and the
clamped pair probability Q (``mlrank.gaussian.q_prob``) from the
library.  The likelihood is defined on the clamped Q, so an oracle on
the unclamped one would disagree wherever Q < 1e-12, which criterion
01's draws reach; the enumeration and the strict pairs are its own.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from mlrank.gaussian import q_prob
from mlrank.gmlr import _likelihood_inputs

ENUMERATION_BOUND = 8


def erf_quadrature(x: float) -> float:
    """(2/sqrt(pi)) * integral of exp(-t^2) from 0 to x."""
    value, _ = quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, x)
    return value


def normal_cdf_quadrature(x: float) -> float:
    """Standard normal CDF by quadrature from 0 (plus the half mass)."""
    value, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), 0.0, x)
    return 0.5 + value


def q_prob_quadrature(mu: float, sigma: float) -> float:
    """P(z > 0) for z ~ N(mu, sigma^2), via the CDF quadrature."""
    return normal_cdf_quadrature(mu / sigma)


def kendall_tau_b_brute(gt, scores) -> float:
    gt = list(gt)
    scores = list(scores)
    k = len(gt)
    nc = nd = n1 = n2 = 0
    for i in range(k):
        for j in range(i + 1, k):
            dg = gt[i] - gt[j]
            dp = scores[i] - scores[j]
            if dp == 0:
                n1 += 1
            if dg == 0:
                n2 += 1
            if dg * dp > 0:
                nc += 1
            elif dg != 0 and dp != 0:
                nd += 1
    n0 = k * (k - 1) // 2
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


def gamma_brute(gt, scores) -> float:
    gt = list(gt)
    scores = list(scores)
    nc = nd = 0
    for i in range(len(gt)):
        for j in range(i + 1, len(gt)):
            dg = gt[i] - gt[j]
            dp = scores[i] - scores[j]
            if dg * dp > 0:
                nc += 1
            elif dg != 0 and dp != 0:
                nd += 1
    return (nc - nd) / (nc + nd)


def fractional_ranks_brute(values) -> list[float]:
    values = list(values)
    out = []
    for v in values:
        below = sum(1 for w in values if w < v)
        ties = sum(1 for w in values if w == v)
        # average of positions below+1 .. below+ties
        out.append(below + (ties + 1) / 2.0)
    return out


def spearman_brute(gt, scores) -> float:
    k = len(list(gt))
    r_gt = fractional_ranks_brute(gt)
    r_sc = fractional_ranks_brute(scores)
    d2 = sum((a - b) ** 2 for a, b in zip(r_sc, r_gt))
    return 1.0 - 6.0 * d2 / (k * (k * k - 1))


def ordered_partitions(items):
    """Every ordered partition (sequence of disjoint non-empty blocks)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in ordered_partitions(rest):
        # first joins any existing block, or forms a new one anywhere
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {first}] + sub[i + 1 :]
        for i in range(len(sub) + 1):
            yield sub[:i] + [{first}] + sub[i:]


def partition_ranks(blocks, k: int) -> np.ndarray:
    """(k,) rank vector of an ordered partition, highest block first and
    the last block at rank 0."""
    ranks = np.zeros(k, dtype=int)
    for level, block in enumerate(reversed(blocks)):
        ranks[list(block)] = level
    return ranks


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        up = f(x)
        xf[i] = orig - h
        down = f(x)
        xf[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-6) -> float:
    analytic = np.asarray(analytic, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = np.maximum(np.abs(reference), floor)
    return float(np.max(np.abs(analytic - reference) / denom))


def ranks_by_sort(values, present) -> np.ndarray:
    """Each row's dense ranks 1..m of its present classes, by a sort on
    (value, -class index); 0 where the class is absent.  Rows are the
    last axis of ``values`` and ``present``."""
    values = np.asarray(values)
    k = values.shape[-1]
    ranks = np.zeros(values.shape, dtype=int)
    rows = zip(values.reshape(-1, k).tolist(), np.reshape(present, (-1, k)).tolist(), ranks.reshape(-1, k))
    for row, mask, out in rows:
        ordered = sorted((v, -c) for c, (v, p) in enumerate(zip(row, mask)) if p)
        for rank, (_, minus_c) in enumerate(ordered, start=1):
            out[-minus_c] = rank
    return ranks


def bucket_likelihood_oracle(mu, sigma, ranks) -> np.ndarray:
    """(n,) brute-force likelihoods over every strict relation consistent
    with each row's bucket order.

    A bucket order pins the orientation of every cross-bucket pair and
    leaves tied (equal-rank) pairs free.  Per row, the oracle enumerates
    every complete orientation of all its tied pairs (u < v of equal
    rank) at once and sums the full pairwise products, each term using
    P(z_u >= z_v) or its exact complement per the chosen orientation.
    Because each tied pair is marginalized by the sum, the total
    collapses onto the strict-pair product formula, which is exactly
    what this function exists to verify numerically.
    """
    mu, sigma, ranks = _likelihood_inputs(mu, sigma, ranks)
    if ranks.shape[1] > ENUMERATION_BOUND:
        raise ValueError("enumeration bound exceeded")
    p = q_prob(mu[:, :, None] - mu[:, None, :], np.hypot(sigma[:, :, None], sigma[:, None, :]))
    # Cross-bucket pairs carry the same orientation in every term.
    total = np.where(ranks[:, :, None] > ranks[:, None, :], p, 1.0).prod(axis=(1, 2))
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
