import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlrank.metrics import (
    evaluate_dataset,
    f1_score,
    fractional_ranks,
    goodman_kruskal_gamma,
    hamming_loss,
    kendall_tau_b,
    max1_error,
    spearman_rho,
)

from mlrank.predict import Prediction

from oracles import gamma_brute, kendall_tau_b_brute, spearman_brute

WORKED_GT = [2, 1, 0, 0]
WORKED_SCORES = [0.9, 0.5, 0.1, 0.2]


class TestKendallTauB:
    def test_perfect(self):
        assert kendall_tau_b([3, 2, 1], [0.9, 0.5, 0.1]) == pytest.approx(1.0)

    def test_reversed(self):
        assert kendall_tau_b([1, 2, 3], [0.9, 0.5, 0.1]) == pytest.approx(-1.0)

    def test_worked_example(self):
        got = kendall_tau_b(WORKED_GT, WORKED_SCORES)
        assert got == pytest.approx(5 / math.sqrt(30), abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="undefined correlation"):
            kendall_tau_b([1, 1, 1], [0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="undefined correlation"):
            kendall_tau_b([2, 1, 0], [0.5, 0.5, 0.5])


class TestSpearman:
    def test_perfect(self):
        assert spearman_rho([3, 2, 1], [0.9, 0.5, 0.1]) == pytest.approx(1.0)

    def test_reversed_k3(self):
        assert spearman_rho([1, 2, 3], [0.9, 0.5, 0.1]) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert spearman_rho(WORKED_GT, WORKED_SCORES) == pytest.approx(0.95, abs=1e-12)

    def test_fractional_ranks(self):
        assert fractional_ranks([0, 0, 1, 2]).tolist() == [1.5, 1.5, 3.0, 4.0]

    def test_degenerate(self):
        with pytest.raises(ValueError):
            spearman_rho([1, 1], [0.1, 0.2])


class TestGamma:
    def test_perfect(self):
        assert goodman_kruskal_gamma([3, 2, 1], [0.9, 0.5, 0.1]) == 1.0

    def test_reversed(self):
        assert goodman_kruskal_gamma([1, 2, 3], [0.9, 0.5, 0.1]) == -1.0

    def test_worked_example(self):
        assert goodman_kruskal_gamma(WORKED_GT, WORKED_SCORES) == pytest.approx(1.0)

    def test_all_tied(self):
        with pytest.raises(ValueError, match="undefined correlation"):
            goodman_kruskal_gamma([1, 1], [0.2, 0.3])


class TestPairOracles:
    def test_exact_against_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(500):
            k = int(rng.integers(2, 9))
            gt = rng.integers(0, 4, size=k)
            # quantized scores so prediction ties occur
            scores = np.round(rng.normal(size=k), 1)
            try:
                want = kendall_tau_b_brute(gt.tolist(), scores.tolist())
            except ZeroDivisionError:
                continue
            if np.all(gt == gt[0]) or np.all(scores == scores[0]):
                continue
            assert abs(kendall_tau_b(gt, scores) - want) <= 1e-12
            assert abs(spearman_rho(gt, scores) - spearman_brute(gt.tolist(), scores.tolist())) <= 1e-12
            nc_nd = sum(
                1
                for i in range(k)
                for j in range(i + 1, k)
                if (gt[i] - gt[j]) * (scores[i] - scores[j]) != 0
            )
            if nc_nd:
                assert abs(goodman_kruskal_gamma(gt, scores) - gamma_brute(gt, scores)) <= 1e-12

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            gt = rng.integers(0, 3, size=k)
            scores = rng.normal(size=k)  # continuous: no prediction ties
            if np.all(gt == gt[0]):
                continue
            assert kendall_tau_b(gt, -scores) == pytest.approx(-kendall_tau_b(gt, scores), abs=1e-12)
            nc_nd = sum(
                1
                for i in range(k)
                for j in range(i + 1, k)
                if (gt[i] - gt[j]) != 0
            )
            if nc_nd:
                assert goodman_kruskal_gamma(gt, -scores) == pytest.approx(
                    -goodman_kruskal_gamma(gt, scores), abs=1e-12
                )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            gt = rng.permutation(k) + 1  # tie-free ground truth
            scores = np.exp(0.3 * gt + 0.1)  # strictly increasing transform
            assert kendall_tau_b(gt, scores) == pytest.approx(1.0, abs=1e-12)
            assert spearman_rho(gt, scores) == pytest.approx(1.0, abs=1e-12)


class TestClassificationMetrics:
    def test_hamming(self):
        assert hamming_loss([1, 0, 1], [1, 0, 1]) == 0.0
        assert hamming_loss([1, 0, 1], [1, 1, 1]) == pytest.approx(1 / 3)
        assert hamming_loss([1, 0, 1, 0], [0, 1, 0, 1]) == 1.0

    def test_max1(self):
        assert max1_error([1, 0, 0], [0.9, 0.5, 0.1]) == 0
        assert max1_error([1, 0], [0.1, 0.9]) == 1
        # argmax tie breaks to index 0, which is negative here
        assert max1_error([0, 1], [0.5, 0.5]) == 1
        with pytest.raises(ValueError, match="M-1 undefined"):
            max1_error([0, 0], [0.5, 0.5])

    def test_f1(self):
        assert f1_score([1, 1, 0, 0], [1, 1, 1, 0]) == pytest.approx(0.8)
        assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0
        assert f1_score([0, 0], [0, 0]) == 1.0

    def test_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mask = rng.integers(0, 2, size=int(rng.integers(1, 8))).astype(bool)
            assert hamming_loss(mask, mask) == 0.0
            if mask.any():
                assert f1_score(mask, mask) == 1.0


def batch(score_rows, mask_rows) -> Prediction:
    """A ``Prediction`` of (n, K) arrays from row lists."""
    scores = np.asarray(score_rows, dtype=float)
    masks = np.asarray(mask_rows, dtype=bool)
    return Prediction(scores, masks)


class TestEvaluateDataset:
    def test_single_instance(self):
        report = evaluate_dataset(batch([WORKED_SCORES], [[1, 1, 0, 0]]), [WORKED_GT])
        assert report.tau_b == pytest.approx(5 / math.sqrt(30), abs=1e-12)
        assert report.spearman_rho == pytest.approx(0.95, abs=1e-12)
        assert report.gamma == pytest.approx(1.0)
        assert report.hamming_loss == 0.0
        assert report.max1 == 0.0
        assert report.f1 == 1.0
        assert report.n_instances == 1

    def test_mean_of_two(self):
        preds = batch([[0.9, 0.5, 0.1], [0.1, 0.9, 0.5]], [[1, 1, 0], [1, 1, 0]])
        gts = [[2, 1, 0], [2, 1, 0]]
        report = evaluate_dataset(preds, gts)
        t1 = kendall_tau_b([2, 1, 0], [0.9, 0.5, 0.1])
        t2 = kendall_tau_b([2, 1, 0], [0.1, 0.9, 0.5])
        assert report.tau_b == pytest.approx((t1 + t2) / 2, abs=1e-12)

    def test_degenerate_instance_skipped_per_metric(self):
        preds = batch(
            [[0.9, 0.5, 0.1], [0.4, 0.4, 0.4]],  # the second row's scores are constant
            [[1, 1, 0], [0, 0, 0]],
        )
        gts = [[2, 1, 0], [2, 1, 0]]
        report = evaluate_dataset(preds, gts)
        assert report.skipped_tau_b == 1
        assert report.skipped_spearman_rho == 1
        assert report.skipped_gamma == 1
        assert report.skipped_max1 == 0
        assert report.tau_b == pytest.approx(kendall_tau_b([2, 1, 0], [0.9, 0.5, 0.1]))
        # classification metrics still average over both instances
        assert report.hamming_loss == pytest.approx((0.0 + 2 / 3) / 2)

    def test_all_skipped_is_nan(self):
        report = evaluate_dataset(batch([[0.5, 0.5]], [[0, 0]]), [[1, 0]])
        assert math.isnan(report.tau_b)
        assert report.skipped_tau_b == 1

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_dataset(batch(np.zeros((0, 3)), np.zeros((0, 3))), np.zeros((0, 3), dtype=int))


def oracle_report(score_rows, mask_rows, gt_rows):
    """Dataset means and skip counts from the brute-force oracles, with
    each metric's undefined cases decided from its definition."""
    per = {name: [] for name in ("tau_b", "rho", "gamma", "hl", "m1", "f1")}
    for scores, mask, gt in zip(score_rows, mask_rows, gt_rows):
        scores, mask, gt = list(scores), [bool(m) for m in mask], [int(g) for g in gt]
        k = len(gt)
        gt_pos = [g > 0 for g in gt]
        if k >= 2 and len(set(gt)) > 1 and len(set(scores)) > 1:
            per["tau_b"].append(kendall_tau_b_brute(gt, scores))
            per["rho"].append(spearman_brute(gt, scores))
        untied = [
            (i, j) for i in range(k) for j in range(i + 1, k)
            if gt[i] != gt[j] and scores[i] != scores[j]
        ]
        if untied:
            per["gamma"].append(gamma_brute(gt, scores))
        if any(gt_pos):
            top = max(range(k), key=lambda c: (scores[c], -c))
            per["m1"].append(0 if gt_pos[top] else 1)
        per["hl"].append(sum(a != b for a, b in zip(gt_pos, mask)) / k)
        tp = sum(a and b for a, b in zip(gt_pos, mask))
        wrong = sum(a != b for a, b in zip(gt_pos, mask))
        per["f1"].append(1.0 if tp + wrong == 0 else tp / (tp + 0.5 * wrong))
    n = len(gt_rows)
    means = {name: math.fsum(v) / len(v) if v else math.nan for name, v in per.items()}
    skipped = {name: n - len(per[name]) for name in ("tau_b", "rho", "gamma", "m1")}
    return means, skipped


@st.composite
def tied_datasets(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 10))
    # Integer-valued scores from a small range tie often; constant rows
    # and all-negative ground truths make the degenerate cases.
    scores = draw(arrays(float, (n, k), elements=st.integers(-2, 2).map(float)))
    masks = draw(arrays(bool, (n, k)))
    gt = draw(arrays(int, (n, k), elements=st.integers(0, 3)))
    return scores, masks, gt


class TestBatchedAgainstOracles:
    @settings(max_examples=400, deadline=None)
    @given(tied_datasets())
    def test_means_and_skip_counts(self, data):
        scores, masks, gt = data
        report = evaluate_dataset(batch(scores, masks), gt)
        want, skipped = oracle_report(scores, masks, gt)
        got = {
            "tau_b": report.tau_b, "rho": report.spearman_rho, "gamma": report.gamma,
            "hl": report.hamming_loss, "m1": report.max1, "f1": report.f1,
        }
        for name, value in want.items():
            if math.isnan(value):
                assert math.isnan(got[name]), name
            else:
                assert got[name] == pytest.approx(value, abs=1e-12), name
        assert (report.skipped_tau_b, report.skipped_spearman_rho, report.skipped_gamma,
                report.skipped_max1) == (skipped["tau_b"], skipped["rho"], skipped["gamma"], skipped["m1"])
        assert report.n_instances == len(gt)

    @pytest.mark.parametrize("gt,dtype", [
        ([[1.7, 0.0]], None),  # would score as rank 1
        ([[1.0, 0.0]], None),  # an integral float is refused too, not cast
        ([[1, -1]], None),
        ([[True, False]], None),
        ([[2**63, 0]], np.uint64),
    ])
    def test_refuses_ranks_that_are_not_non_negative_integers(self, gt, dtype):
        with pytest.raises(ValueError, match="ranks must be non-negative integers that fit int64"):
            evaluate_dataset(batch([[0.2, 0.1]], [[1, 0]]), np.array(gt, dtype=dtype))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="aligned"):
            evaluate_dataset(batch([[0.1, 0.2]], [[1, 0]]), [[1, 0, 0]])
        with pytest.raises(ValueError, match="aligned"):
            evaluate_dataset(batch([[0.1, 0.2]] * 2, [[1, 0]] * 2), [[1, 0]])
        with pytest.raises(ValueError, match="aligned"):
            evaluate_dataset(batch([0.1, 0.2], [1, 0]), [1, 0])
