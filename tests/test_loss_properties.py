"""The batched losses against brute-force double loops over pairs.

Each reference below walks one instance at a time and every class pair
(u, v) in plain Python, applying the per-pair formulas and gradients
directly; it shares no array code with ``mlrank.gmlr`` or
``mlrank.baselines``.  Q is evaluated with the same ``scipy`` erfc, so
both sides take the same side of the probability clamp.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erfc, expit

from mlrank.baselines import crpc_loss, lsep_class_loss, lsep_rank_loss
from mlrank.gaussian import P_EPS
from mlrank.gmlr import gmlr_objective

TOL = 1e-12


def supervised(ranks, mode, u, v):
    if mode == "strong":
        return ranks[u] > ranks[v]
    return ranks[u] > 0 and ranks[v] == 0


def softplus(z):
    return math.log1p(math.exp(-abs(z))) + max(z, 0.0)


def q_and_grads(m, s):
    raw = 0.5 * float(erfc(-m / (s * math.sqrt(2.0))))
    q = min(max(raw, P_EPS), 1.0 - P_EPS)
    if not P_EPS < raw < 1.0 - P_EPS:
        return q, 0.0, 0.0
    t = m / s
    pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return q, pdf / s, -t * pdf / s


def gmlr_brute(row, ranks, mode):
    k = len(ranks)
    mu, sigma = row[:k], [math.exp(0.5 * lv) for lv in row[k:]]
    grad = [0.0] * (2 * k)
    lc = 0.0
    for c in range(k):
        sgn = 1.0 if ranks[c] > 0 else -1.0
        q, dm, ds = q_and_grads(sgn * mu[c], sigma[c])
        lc -= math.log(q)
        grad[c] += -sgn * dm / q / k
        grad[k + c] += -ds / q * 0.5 * sigma[c] / k
    pairs = [(u, v) for u in range(k) for v in range(k) if supervised(ranks, mode, u, v)]
    lr = 0.0
    for u, v in pairs:
        s = math.hypot(sigma[u], sigma[v])
        q, dm, ds = q_and_grads(mu[u] - mu[v], s)
        lr -= math.log(q)
        grad[u] += -dm / q / len(pairs)
        grad[v] -= -dm / q / len(pairs)
        grad[k + u] += -ds / q * sigma[u] ** 2 / (2.0 * s) / len(pairs)
        grad[k + v] += -ds / q * sigma[v] ** 2 / (2.0 * s) / len(pairs)
    return lc / k + (lr / len(pairs) if pairs else 0.0), grad


def crpc_brute(row, ranks, mode):
    """Slot by slot over (u, v), u < v, item K the virtual label."""
    k = len(ranks)
    # the virtual label sits between the lowest positive and the negatives
    level = [2 * r for r in ranks] + [1]
    loss, grad = 0.0, [0.0] * len(row)
    for slot, (u, v) in enumerate(itertools.combinations(range(k + 1), 2)):
        if mode == "strong":
            sign = (level[u] > level[v]) - (level[v] > level[u])
        else:
            pos_u = ranks[u] > 0
            pos_v = v < k and ranks[v] > 0
            if pos_u and (v == k or not pos_v):
                sign = 1
            elif v < k and pos_v and not pos_u:
                sign = -1
            else:
                sign = 0
        if sign:
            x = sign * row[slot]
            loss += softplus(-x)
            grad[slot] = -sign * float(expit(-x))
    return loss, grad


def lsep_rank_brute(row, ranks, mode):
    k = len(ranks)
    f = row[:k]
    pairs = [(u, v) for u in range(k) for v in range(k) if supervised(ranks, mode, u, v)]
    grad = [0.0] * (2 * k)
    if not pairs:
        return 0.0, grad
    shift = max(0.0, max(f[v] - f[u] for u, v in pairs))
    denom = math.exp(-shift) + sum(math.exp(f[v] - f[u] - shift) for u, v in pairs)
    for u, v in pairs:
        w = math.exp(f[v] - f[u] - shift) / denom
        grad[v] += w
        grad[u] -= w
    return shift + math.log(denom), grad


def lsep_class_brute(row, ranks, mode):
    k = len(ranks)
    loss, grad = 0.0, [0.0] * (2 * k)
    for c in range(k):
        x = row[c] - row[k + c]
        y = 1.0 if ranks[c] > 0 else 0.0
        loss += y * softplus(-x) + (1.0 - y) * softplus(x)
        grad[k + c] = y - float(expit(x))
    return loss, grad


# name -> (batched loss taking (out, ranks), reference, head width, |entry| bound)
CASES = {
    "gmlr-strong": (lambda o, r: gmlr_objective(o, r, "strong"), gmlr_brute, lambda k: 2 * k, 6.0),
    "gmlr-weak": (lambda o, r: gmlr_objective(o, r, "weak"), gmlr_brute, lambda k: 2 * k, 6.0),
    "crpc-strong": (lambda o, r: crpc_loss(o, r, "strong"), crpc_brute, lambda k: (k + 1) * k // 2, 40.0),
    "crpc-weak": (lambda o, r: crpc_loss(o, r, "weak"), crpc_brute, lambda k: (k + 1) * k // 2, 40.0),
    "lsep-strong": (lambda o, r: lsep_rank_loss(o, r, "strong"), lsep_rank_brute, lambda k: 2 * k, 40.0),
    "lsep-weak": (lambda o, r: lsep_rank_loss(o, r, "weak"), lsep_rank_brute, lambda k: 2 * k, 40.0),
    "lsep-stage2": (lsep_class_loss, lsep_class_brute, lambda k: 2 * k, 40.0),
}


@st.composite
def rank_rows(draw):
    """(n, K) ranks mixing random rows with all-negative, all-positive
    and all-tied ones."""
    k = draw(st.integers(1, 10))
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "negative", "positive", "tied"]))
        if kind == "random":
            rows.append(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)))
        elif kind == "negative":
            rows.append([0] * k)
        elif kind == "positive":
            rows.append(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        else:
            rows.append([draw(st.integers(0, 4))] * k)
    return np.array(rows, dtype=int)


def close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want), initial=0.0) <= TOL * max(1.0, np.max(np.abs(want), initial=0.0))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=120, deadline=None)
@given(ranks=rank_rows(), data=st.data())
def test_batched_loss_matches_pair_loops(case, ranks, data):
    loss_fn, brute, width, bound = CASES[case]
    n, k = ranks.shape
    out = data.draw(arrays(float, (n, width(k)), elements=st.floats(-bound, bound)))
    mode = case.split("-")[1]
    losses, grads = loss_fn(out, ranks)
    assert losses.shape == (n,) and grads.shape == out.shape
    for i in range(n):
        want_loss, want_grad = brute(out[i].tolist(), ranks[i].tolist(), mode)
        assert close(losses[i], want_loss), (i, losses[i], want_loss)
        assert close(grads[i], want_grad), (i, grads[i], want_grad)
        # the same row on its own
        alone_loss, alone_grad = loss_fn(out[i : i + 1], ranks[i : i + 1])
        assert close(alone_loss[0], losses[i]) and close(alone_grad[0], grads[i])
