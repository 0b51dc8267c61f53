"""Unified prediction interface across methods.

Every method reduces to a score vector plus a bipartition rule:

* gmlr: scores are the predicted means, positive iff mean >= 0;
* lsep: scores are the score head f, positive iff f_k > g_k;
* crpc: scores are the soft-vote tallies, positive iff strictly above
  the virtual label's tally.

Predicted ranks are dense 1..m over the positives, higher score means
higher rank, and exact score ties always break by ascending class index
so outputs are reproducible: of two equal-scored positives the lower
index takes the higher rank.  (The generators break factor ties the
other way: there the lower index takes the lower rank.)

The rules act on (n, width) head-output arrays and give (n, K)
arrays; ``decide`` is the one code path, and one instance is the n = 1
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .baselines import crpc_slots


@dataclass(frozen=True)
class Prediction:
    """Scores, bipartition and ranks of a batch, each an (n, K) array."""

    scores: np.ndarray
    positive_mask: np.ndarray
    predicted_ranks: np.ndarray


def ranks_from_scores(scores, positive_mask) -> np.ndarray:
    """Dense ranks 1..m for the positives by ascending score, 0 elsewhere,
    along the last axis.

    Ties break by ascending class index: of two equal-scored positives
    the lower index receives the higher rank.
    """
    scores = np.asarray(scores, dtype=float)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    # Stable, so equal scores keep ascending class order: best first.
    order = np.argsort(-scores, axis=-1, kind="stable")
    ordered_mask = np.take_along_axis(positive_mask, order, axis=-1)
    seen = np.cumsum(ordered_mask, axis=-1)
    ordered = np.where(ordered_mask, seen[..., -1:] - seen + 1, 0)
    ranks = np.empty_like(ordered)
    np.put_along_axis(ranks, order, ordered, axis=-1)
    return ranks


def crpc_tally(logits: np.ndarray, num_classes: int) -> np.ndarray:
    """(n, K+1) soft-vote tallies from (n, slots) pairwise logits; the
    last column is the virtual label's.  Columns add up in slot order,
    one slot at a time, so every score has fixed bits."""
    tally = np.zeros((logits.shape[0], num_classes + 1))
    wins, losses = expit(logits), expit(-logits)
    for slot, (u, v) in enumerate(zip(*crpc_slots(num_classes))):
        tally[:, u] += wins[:, slot]
        tally[:, v] += losses[:, slot]
    return tally


def decide(head: str, out: np.ndarray, num_classes: int) -> Prediction:
    """The method's scores, bipartition and ranks from (n, width) head
    outputs."""
    k = num_classes
    if head == "gmlr":
        scores = out[:, :k]
        mask = scores >= 0.0
    elif head == "lsep":
        scores = out[:, :k]
        mask = scores > out[:, k:]
    else:
        tally = crpc_tally(out, k)
        scores = tally[:, :k]
        mask = scores > tally[:, k:]
    return Prediction(scores=scores, positive_mask=mask, predicted_ranks=ranks_from_scores(scores, mask))
