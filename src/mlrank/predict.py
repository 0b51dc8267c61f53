"""Unified prediction interface across methods.

Every method reduces to a score vector plus a bipartition rule:

* gmlr: scores are the predicted means, positive iff mean >= 0;
* lsep: scores are the score head f, positive iff f_k > g_k;
* crpc: scores are the soft-vote tallies, positive iff strictly above
  the virtual label's tally.

A ``Prediction`` carries only the scores and the bipartition, which
is all the commands read.  Predicted ranks, when wanted, are
``buckets.dense_ranks(pred.scores, pred.positive_mask)``: dense 1..m
over the positives by ascending score, exact ties broken by class
index, the rule the generators rank their factors by.

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
    """Scores and bipartition of a batch, each an (n, K) array."""

    scores: np.ndarray
    positive_mask: np.ndarray


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
    """The method's scores and bipartition from (n, width) head outputs."""
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
    return Prediction(scores=scores, positive_mask=mask)
