"""Pairwise baseline losses: CRPC (weak/strong) and LSEP (weak/strong).

CRPC learns one logit per unordered item pair over the K real classes
plus one virtual label; the virtual label's vote score is the split
point between predicted positives and negatives.  As in calibrated
label ranking (Fürnkranz et al., 2008), both modes train the virtual
label below every positive and above every negative; weak mode drops
only the order among positives, the same rule as gmlr's and lsep's.

LSEP learns a score head and a threshold head of size K each; ranking is
trained first via a log-sum-exp pairwise loss, then the thresholds alone
are trained for classification with the rest of the network frozen.

Slot layout for pairwise logits: pairs (u, v) with u < v over items
0..K (index K is the virtual label), in the row-major upper-triangle
order of ``crpc_slots``, built once per class count; the value stored
at a slot is the logit of "u outranks v".

Every loss takes a batch, the (n, width) head output and the (n, K)
ranks, which must be non-negative integers (``head_batch``), and
returns the (n,) losses and the (n, width) head gradient.  CRPC reads
each slot's supervision as the sign of its two items' augmented-rank
difference, one (n, slots) array.  LSEP's pairwise terms come from
(n, K, K) pair masks (``pair_mask``); a pair's gradient reaches its
winner through a row sum and its loser through a column sum of the pair
matrix.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import expit as _sigmoid

from .buckets import MODES, head_batch, pair_mask
from .settings import choice


def _softplus(x):
    """log(1 + exp(x)) without overflow; equals -log sigmoid(-x)."""
    return np.logaddexp(0.0, x)


@functools.lru_cache(maxsize=16)
def crpc_slots(num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) item index arrays of the (K+1)K/2 logit slots: u < v,
    lexicographic, with the virtual label as item K.  Built once per
    class count; the arrays are read-only."""
    slots = np.triu_indices(num_classes + 1, 1)
    for a in slots:
        a.flags.writeable = False
    return slots


def crpc_loss(logits, ranks, mode: str):
    """CRPC losses and gradients w.r.t. the (n, (K+1)K/2) logits.

    The supervision ranks the K+1 items by the augmented ranks
    [2 * ranks, 1], which put the virtual label between the lowest
    positive and the negatives.  Strong mode orders the classes by rank,
    weak mode only positives over negatives, so in both modes every
    positive is trained above the virtual label and every negative below
    it.  Each slot whose two items are ordered adds -log sigmoid
    (winner-over-loser logit); a slot of tied items adds nothing.
    """
    choice(mode, "mode", MODES)
    k = np.shape(ranks)[-1]
    logits, ranks = head_batch(logits, ranks, (k + 1) * k // 2)
    levels = ranks if mode == "strong" else (ranks > 0).astype(int)
    augmented = np.concatenate([2 * levels, np.ones((len(levels), 1), dtype=int)], axis=1)
    u, v = crpc_slots(k)
    # +1 where u outranks v, -1 where v outranks u, 0 for tied items.
    sign = np.sign(augmented[:, u] - augmented[:, v])
    x = sign * logits
    active = sign != 0.0
    loss = np.sum(np.where(active, _softplus(-x), 0.0), axis=1)
    return loss, np.where(active, -sign * _sigmoid(-x), 0.0)


def lsep_rank_loss(out, ranks, mode: str):
    """log(1 + sum over supervised pairs of exp(f_loser - f_winner)), with
    gradients.

    ``out`` is the (n, 2K) head output, scores f then thresholds.
    Returns the (n,) losses and the (n, 2K) gradient, whose threshold
    half is identically zero.  The inner sum is max-shifted so huge
    score gaps cannot overflow.
    """
    k = np.shape(ranks)[-1]
    out, ranks = head_batch(out, ranks, 2 * k)
    mask = pair_mask(ranks, mode)
    f = out[:, :k]
    # z[i, u, v] = f_v - f_u for winner u and loser v, -inf off the mask.
    z = np.where(mask, f[:, None, :] - f[:, :, None], -np.inf)
    shift = np.maximum(z.max(axis=(1, 2)), 0.0)
    e = np.exp(z - shift[:, None, None])
    denom = np.exp(-shift) + e.sum(axis=(1, 2))
    w = e / denom[:, None, None]
    grad = np.zeros_like(out)
    grad[:, :k] = w.sum(axis=1) - w.sum(axis=2)
    return shift + np.log(denom), grad


def lsep_class_loss(out, ranks):
    """Per-class BCE on delta_k = sigmoid(f_k - g_k) against rank_k > 0.

    Returns the (n,) losses and the (n, 2K) gradient.  The score half of
    the gradient is identically zero by contract: in the second training
    stage the scores are frozen and only the thresholds learn.
    """
    k = np.shape(ranks)[-1]
    out, ranks = head_batch(out, ranks, 2 * k)
    y = (ranks > 0).astype(float)
    x = out[:, :k] - out[:, k:]
    grad = np.zeros_like(out)
    grad[:, k:] = y - _sigmoid(x)
    return np.sum(y * _softplus(-x) + (1.0 - y) * _softplus(x), axis=1), grad
