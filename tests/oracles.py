"""Independent reference implementations used to pin expected values.

Everything here deliberately takes the dumbest correct path (quadrature,
double loops, explicit enumeration) so it shares no code with the
library's implementations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad


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
