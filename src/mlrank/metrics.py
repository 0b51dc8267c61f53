"""Per-instance evaluation metrics and their dataset averages.

Ranking metrics (Kendall tau-b, Spearman rho, Goodman-Kruskal gamma)
compare the ground-truth rank vector (0 for negatives) against the
predicted score vector over all K classes.  Classification metrics
(Hamming loss, Max-1 error, F1) compare bipartitions.  Dataset values
are arithmetic means of the per-instance values; instances on which a
metric is undefined are skipped for that metric and counted.

Every metric is computed over (n, K) arrays: ``evaluate_dataset``
takes a batched ``Prediction`` and the (n, K) ground-truth ranks, and
the per-instance functions below are the n = 1 case.

Pair-counting notation, over all K(K-1)/2 unordered pairs:
N_c concordant, N_d discordant, N_1 tied in the prediction, N_2 tied in
the ground truth (pairs tied on both sides count toward both N_1 and
N_2, and toward neither N_c nor N_d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buckets import checked_ranks


@dataclass(frozen=True)
class MetricReport:
    """Dataset means of the six metrics, plus per-metric skip counts."""

    tau_b: float
    spearman_rho: float
    gamma: float
    hamming_loss: float
    max1: float
    f1: float
    n_instances: int
    skipped_tau_b: int = 0
    skipped_spearman_rho: int = 0
    skipped_gamma: int = 0
    skipped_max1: int = 0


# Per-instance values over (n, K) arrays.  Each returns (values, defined)
# as two (n,) arrays; an undefined value is left at 0.


def _pair_counts(gt, pred):
    """N_c, N_d, N_1, N_2 per row, over all K(K-1)/2 unordered pairs."""
    i, j = np.triu_indices(gt.shape[1], k=1)
    dg = gt[:, i] - gt[:, j]
    dp = pred[:, i] - pred[:, j]
    prod = dg * dp
    return (
        np.count_nonzero(prod > 0, axis=1),
        np.count_nonzero(prod < 0, axis=1),
        np.count_nonzero(dp == 0, axis=1),
        np.count_nonzero(dg == 0, axis=1),
    )


def _varies(a):
    """Rows holding at least two distinct values."""
    return np.any(a != a[:, :1], axis=1)


def _tau_b_values(gt, pred):
    nc, nd, n1, n2 = _pair_counts(gt, pred)
    n0 = gt.shape[1] * (gt.shape[1] - 1) // 2
    defined = _varies(gt) & _varies(pred)
    denom = np.sqrt(np.where(defined, (n0 - n1) * (n0 - n2), 1).astype(float))
    return np.where(defined, (nc - nd) / denom, 0.0), defined


def fractional_ranks(values) -> np.ndarray:
    """Ascending 1-based positions with ties averaged, along the last axis:
    the count of smaller values plus the mean position among the equal."""
    values = np.asarray(values, dtype=float)
    below = np.count_nonzero(values[..., None, :] < values[..., :, None], axis=-1)
    equal = np.count_nonzero(values[..., None, :] == values[..., :, None], axis=-1)
    return below + (equal + 1) / 2.0


def _spearman_values(gt, pred):
    k = gt.shape[1]
    defined = _varies(gt) & _varies(pred)
    d = fractional_ranks(pred) - fractional_ranks(gt)
    rho = 1.0 - 6.0 * np.sum(d * d, axis=1) / max(k * (k * k - 1), 1)
    return np.where(defined, rho, 0.0), defined


def _gamma_values(gt, pred):
    nc, nd, _, _ = _pair_counts(gt, pred)
    defined = nc + nd > 0
    return np.where(defined, (nc - nd) / np.maximum(nc + nd, 1), 0.0), defined


def _hamming_values(gt_pos, pred_pos):
    return np.count_nonzero(gt_pos != pred_pos, axis=1) / gt_pos.shape[1], np.ones(len(gt_pos), bool)


def _max1_values(gt_pos, pred):
    top = np.argmax(pred, axis=1)  # ties: the lowest class index
    hit = gt_pos[np.arange(len(gt_pos)), top]
    return np.where(hit, 0, 1), gt_pos.any(axis=1)


def _f1_values(gt_pos, pred_pos):
    tp = np.count_nonzero(gt_pos & pred_pos, axis=1)
    fp = np.count_nonzero(~gt_pos & pred_pos, axis=1)
    fn = np.count_nonzero(gt_pos & ~pred_pos, axis=1)
    empty = tp + fp + fn == 0
    f1 = np.where(empty, 1.0, tp / np.where(empty, 1.0, tp + 0.5 * (fp + fn)))
    return f1, np.ones(len(gt_pos), bool)


def _one(values_fn, a, b, message, a_type=float, b_type=float):
    """A per-instance metric as the n=1 case of its batched values."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("inputs must be 1-d vectors of equal length")
    values, defined = values_fn(a.astype(a_type)[None], b.astype(b_type)[None])
    if not defined[0]:
        raise ValueError(message)
    return values[0].item()


def kendall_tau_b(gt_ranks, pred_scores) -> float:
    """(N_c - N_d) / sqrt((N_0 - N_1)(N_0 - N_2))."""
    return _one(_tau_b_values, gt_ranks, pred_scores, "undefined correlation")


def spearman_rho(gt_ranks, pred_scores) -> float:
    """1 - 6 sum(d_i^2) / (K (K^2 - 1)) on fractional ranks of both sides.

    Both inputs are converted to average-of-positions ranks first, which
    is the standard extension of the displayed no-tie formula to vectors
    with ties (ground truths always tie their rank-0 negatives).
    """
    return _one(_spearman_values, gt_ranks, pred_scores, "undefined correlation")


def goodman_kruskal_gamma(gt_ranks, pred_scores) -> float:
    """(N_c - N_d) / (N_c + N_d); pairs tied on either side are excluded."""
    return _one(_gamma_values, gt_ranks, pred_scores, "undefined correlation")


def hamming_loss(gt_positive, pred_positive) -> float:
    """Fraction of classes whose bipartition disagrees."""
    return _one(_hamming_values, gt_positive, pred_positive, "", bool, bool)


def max1_error(gt_positive, pred_scores) -> int:
    """1 iff the top-scored class is not a ground-truth positive.

    Argmax ties break by ascending class index.  Undefined when the
    ground truth has no positives.
    """
    return _one(_max1_values, gt_positive, pred_scores, "M-1 undefined", bool, float)


def f1_score(gt_positive, pred_positive) -> float:
    """TP / (TP + (FP + FN) / 2); 1.0 when both masks are empty."""
    return _one(_f1_values, gt_positive, pred_positive, "", bool, bool)


def evaluate_dataset(predictions, ground_truth_ranks) -> MetricReport:
    """Average the six metrics over aligned predictions and rank vectors.

    ``predictions`` is a ``Prediction`` of (n, K) arrays and
    ``ground_truth_ranks`` the (n, K) ranks, which must be non-negative
    integers (``checked_ranks``).  Undefined correlations and
    undefined Max-1 values are skipped per instance and counted; a
    metric undefined on every instance averages to NaN.  Sums are
    compensated (math.fsum) so the result does not depend on
    accumulation order.
    """
    scores = np.asarray(predictions.scores, dtype=float)
    masks = np.asarray(predictions.positive_mask, dtype=bool)
    gt = checked_ranks(ground_truth_ranks)
    if gt.ndim != 2 or scores.shape != gt.shape or masks.shape != gt.shape:
        raise ValueError(
            f"predictions of shape {scores.shape} and ground-truth ranks of shape "
            f"{gt.shape} must be aligned (n, K) arrays"
        )
    if not len(gt):
        raise ValueError("predictions and ground truths must be non-empty")
    gt_pos = gt > 0
    gt_float = gt.astype(float)
    per = {
        "tau_b": _tau_b_values(gt_float, scores),
        "rho": _spearman_values(gt_float, scores),
        "gamma": _gamma_values(gt_float, scores),
        "hl": _hamming_values(gt_pos, masks),
        "m1": _max1_values(gt_pos, scores),
        "f1": _f1_values(gt_pos, masks),
    }
    skipped = {name: int(np.count_nonzero(~per[name][1])) for name in ("tau_b", "rho", "gamma", "m1")}

    def mean(name):
        values, defined = per[name]
        kept = values[defined].tolist()
        return math.fsum(kept) / len(kept) if kept else float("nan")

    return MetricReport(
        tau_b=mean("tau_b"),
        spearman_rho=mean("rho"),
        gamma=mean("gamma"),
        hamming_loss=mean("hl"),
        max1=mean("m1"),
        f1=mean("f1"),
        n_instances=len(gt),
        skipped_tau_b=skipped["tau_b"],
        skipped_spearman_rho=skipped["rho"],
        skipped_gamma=skipped["gamma"],
        skipped_max1=skipped["m1"],
    )
