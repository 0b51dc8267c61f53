import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from mlrank.model import PREDICT_CHUNK, init_model, predict_batch
from mlrank.predict import decide, ranks_from_scores


def crpc_scores(values, k):
    """Reference soft-vote tally of one logit vector: slot by slot in
    lexicographic (u, v) order, each item adding sigmoid of its winning
    logit.  Returns (real-class scores, virtual label's score)."""
    scores = np.zeros(k + 1)
    for slot, (u, v) in enumerate(itertools.combinations(range(k + 1), 2)):
        scores[u] += expit(values[slot])
        scores[v] += expit(-values[slot])
    return scores[:k], float(scores[k])


def predict_one(head, out, k):
    """``decide`` on a one-row batch: the (1, K) scores, mask and ranks
    of one head-output vector."""
    return decide(head, np.asarray(out, dtype=float)[None, :], k)


def predict_gmlr(mu):
    """Means then zero log-variances."""
    return predict_one("gmlr", np.concatenate([mu, np.zeros(len(mu))]), len(mu))


def predict_lsep(scores, thresholds):
    return predict_one("lsep", np.concatenate([scores, thresholds]), len(scores))


def predict_crpc(values, k):
    return predict_one("crpc", values, k)


def crpc_slot(u, v):
    """Slot of the pair (u, v), u < v, among K=2's three slots."""
    return [(0, 1), (0, 2), (1, 2)].index((u, v))


class TestPredictGmlr:
    def test_sign_rule_and_ranks(self):
        pred = predict_gmlr([0.5, -0.2, 1.3])
        assert pred.positive_mask.tolist() == [[True, False, True]]
        assert pred.predicted_ranks.tolist() == [[1, 0, 2]]

    def test_no_positives(self):
        pred = predict_gmlr([-1.0, -2.0])
        assert pred.predicted_ranks.tolist() == [[0, 0]]

    def test_zero_boundary_is_positive(self):
        pred = predict_gmlr([0.0, -0.1])
        assert pred.positive_mask.tolist() == [[True, False]]


class TestPredictLsep:
    def test_threshold_rule(self):
        pred = predict_lsep([1.0, 0.0], [0.0, 1.0])
        assert pred.positive_mask.tolist() == [[True, False]]

    def test_equal_is_negative(self):
        pred = predict_lsep([0.7, 0.7], [0.7, 0.7])
        assert not pred.positive_mask.any()

    def test_ranks(self):
        pred = predict_lsep([3.0, 2.0, 1.0], [0.0, 0.0, 2.0])
        assert pred.predicted_ranks.tolist() == [[2, 1, 0]]


class TestPredictCrpc:
    def test_all_zero_logits_no_positives(self):
        pred = predict_crpc(np.zeros(3), 2)
        assert not pred.positive_mask.any()

    def test_dominant_class(self):
        values = np.zeros(3)
        values[crpc_slot(0, 1)] = 10.0
        values[crpc_slot(0, 2)] = 10.0
        pred = predict_crpc(values, 2)
        assert pred.positive_mask.tolist() == [[True, False]]
        assert pred.predicted_ranks[0, 0] == 1

    def test_matches_scores_recomputation(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=6)
        pred = predict_crpc(values, 3)
        scores, virtual = crpc_scores(values, 3)
        np.testing.assert_array_equal(pred.positive_mask, [scores > virtual])


class TestRankAssignment:
    def test_dense_against_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            scores = rng.normal(size=k)
            mask = rng.integers(0, 2, size=k).astype(bool)
            ranks = ranks_from_scores(scores, mask)
            positives = np.flatnonzero(mask)
            # oracle: sort positives by descending score, assign m..1
            expect = np.zeros(k, dtype=int)
            for i, c in enumerate(sorted(positives, key=lambda c: (-scores[c], c))):
                expect[c] = len(positives) - i
            assert ranks.tolist() == expect.tolist()
            assert sorted(ranks[positives].tolist()) == list(range(1, len(positives) + 1))
            assert not ranks[~mask].any()

    def test_argsort_invariance_under_shift(self):
        rng = np.random.default_rng(12)
        mu = rng.normal(size=6)
        base = predict_gmlr(mu)
        shifted = predict_gmlr(mu + 5.0)
        order_base = np.argsort(-base.scores, kind="stable")
        order_shift = np.argsort(-shifted.scores, kind="stable")
        assert order_base.tolist() == order_shift.tolist()
        assert shifted.positive_mask.all()  # bipartition moved

    def test_tie_break_by_class_index(self):
        ranks = ranks_from_scores(np.array([0.5, 0.5, 0.1]), np.array([True, True, True]))
        # equal scores: lower class index wins the higher rank
        assert ranks.tolist() == [3, 2, 1]


# ---------------------------------------------------------------------------
# The batched path


def sort_oracle_ranks(scores, mask):
    expect = np.zeros(len(scores), dtype=int)
    positives = [c for c in range(len(scores)) if mask[c]]
    for i, c in enumerate(sorted(positives, key=lambda c: (-scores[c], c))):
        expect[c] = len(positives) - i
    return expect


@st.composite
def tied_score_batches(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 10))
    # Few distinct integer values, so ties are common.
    scores = draw(arrays(float, (n, k), elements=st.integers(-3, 3).map(float)))
    mask = draw(arrays(bool, (n, k)))
    return scores, mask


class TestBatchedRanks:
    @settings(max_examples=300, deadline=None)
    @given(tied_score_batches())
    def test_against_sort_oracle(self, batch):
        scores, mask = batch
        ranks = ranks_from_scores(scores, mask)
        assert ranks.shape == scores.shape
        for row in range(len(scores)):
            assert ranks[row].tolist() == sort_oracle_ranks(scores[row], mask[row]).tolist()


class TestPredictBatch:
    @settings(max_examples=15, deadline=None)
    @given(
        method=st.sampled_from(["gmlr", "lsep", "crpc"]),
        k=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_matches_row_by_row_across_a_chunk_boundary(self, method, k, seed, scale):
        rng = np.random.default_rng(seed)
        params = init_model(5, k, method, hidden=(7,), seed=seed % 1000)
        x = scale * rng.normal(size=(PREDICT_CHUNK + 1, 5))
        out, batch = predict_batch(params, x)
        assert out.shape == (PREDICT_CHUNK + 1, params.weights[-1].shape[1])
        assert batch.scores.shape == batch.positive_mask.shape == batch.predicted_ranks.shape
        for i, row in enumerate(x):
            _, single = predict_batch(params, row[None])
            # One row through BLAS and a chunk of rows may round differently.
            np.testing.assert_allclose(batch.scores[i], single.scores[0], rtol=1e-12, atol=1e-14)
            # Masks and ranks must agree unless a score sits on its
            # threshold or on another score to within rounding.
            if method == "gmlr":
                threshold = 0.0
            elif method == "lsep":
                threshold = out[i, k:]
            else:
                threshold = crpc_scores(out[i], k)[1]
            scores = single.scores[0]
            margin = np.abs(scores - threshold)
            gaps = np.abs(scores[:, None] - scores[None, :])[np.triu_indices(k, 1)]
            assume(margin.min() > 1e-9 and (gaps.size == 0 or gaps.min() > 1e-9))
            assert batch.positive_mask[i].tolist() == single.positive_mask[0].tolist()
            assert batch.predicted_ranks[i].tolist() == single.predicted_ranks[0].tolist()

    def test_empty_batch(self):
        params = init_model(3, 2, "gmlr", hidden=(), seed=0)
        out, batch = predict_batch(params, np.zeros((0, 3)))
        assert out.shape == (0, 4) and batch.scores.shape == (0, 2)

    def test_rejects_vectors(self):
        params = init_model(3, 2, "gmlr", hidden=(), seed=0)
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            predict_batch(params, np.zeros(3))


class TestCrpcTally:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 10),
        n=st.integers(1, 5),
        data=st.data(),
    )
    def test_bit_identical_to_crpc_scores(self, k, n, data):
        slots = (k + 1) * k // 2
        values = data.draw(arrays(float, (n, slots), elements=st.floats(-50, 50)))
        batch = decide("crpc", values, k)
        for i in range(n):
            scores, virtual = crpc_scores(values[i], k)
            assert batch.scores[i].tobytes() == scores.tobytes()
            assert batch.positive_mask[i].tolist() == (scores > virtual).tolist()
