import itertools
import math

import numpy as np
import pytest

from mlrank.baselines import crpc_loss, crpc_slots, lsep_class_loss, lsep_rank_loss
from mlrank.predict import crpc_tally

from oracles import fd_gradient, max_rel_error

LOG2 = math.log(2.0)
# Direct evaluation of log(1 + e^-1 + e^-2) for pairs {(0,1),(0,2)} at
# f = (2,1,0); the value is pinned by the formula itself.
LSEP_TWO_PAIR = 0.4076059644443804


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def slots(k):
    return list(zip(*(a.tolist() for a in crpc_slots(k))))


def slot(k, u, v):
    return slots(k).index((min(u, v), max(u, v)))


def oriented(values, k, winner, loser):
    """Logit of "winner outranks loser", negating reversed slots."""
    x = values[slot(k, winner, loser)]
    return x if winner < loser else -x


def crpc_one(values, ranks, mode):
    loss, grad = crpc_loss(np.asarray(values, dtype=float)[None, :], [ranks], mode)
    return loss[0], grad[0]


def crpc_scores_one(values, k):
    tally = crpc_tally(np.asarray(values, dtype=float)[None, :], k)[0]
    return tally[:k], tally[k]


def lsep_one(loss_fn, f, g, ranks, *mode):
    """(loss, grad_scores, grad_thresholds) of one instance."""
    k = len(f)
    loss, grad = loss_fn(np.concatenate([f, g])[None, :], [ranks], *mode)
    return loss[0], grad[0, :k], grad[0, k:]


def trained_order(ranks, mode):
    """Per slot: +1 if u is trained above v, -1 if below, 0 if untrained,
    read off the gradient signs at zero logits."""
    k = len(ranks)
    _, grad = crpc_one(np.zeros((k + 1) * k // 2), ranks, mode)
    return (-np.sign(grad)).astype(int).tolist()


def order_signs(buckets, k):
    """The slot signs of an order over the K+1 items, highest bucket first."""
    level = {item: i for i, bucket in enumerate(buckets) for item in bucket}
    return [int(np.sign(level[v] - level[u])) for u, v in slots(k)]


class TestPairwiseLogits:
    def test_slot_layout(self):
        assert slots(3) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert slot(3, 0, 3) == 2
        assert slot(3, 3, 0) == 2
        # the slot holds the logit of "u outranks v": class 0 above the
        # virtual label lowers the loss as slot 2 grows
        _, grad = crpc_one(np.zeros(6), [1, 0, 0], "strong")
        assert grad[2] < 0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            crpc_loss(np.zeros((1, 5)), [[1, 0, 0]], "strong")


class TestCrpcAugmentedOrder:
    def test_between_positives_and_negatives(self):
        assert trained_order([2, 1, 0], "strong") == order_signs([[0], [1], [3], [2]], 3)

    def test_no_negatives(self):
        assert trained_order([2, 1], "strong") == order_signs([[0], [1], [2]], 2)

    def test_all_negative(self):
        assert trained_order([0, 0], "strong") == order_signs([[2], [0, 1]], 2)


class TestCrpcLoss:
    def test_strong_one_pair(self):
        loss, _ = crpc_one(np.zeros(1), [1], "strong")
        assert loss == pytest.approx(LOG2, abs=1e-12)

    def test_weak_single_class(self):
        loss, _ = crpc_one(np.zeros(1), [1], "weak")
        assert loss == pytest.approx(LOG2, abs=1e-12)

    def test_strong_six_pairs(self):
        loss, _ = crpc_one(np.zeros(6), [2, 1, 0], "strong")
        assert loss == pytest.approx(6 * LOG2, abs=1e-12)

    def test_weak_inactive_pairs_contribute_nothing(self):
        # both-positive, both-negative, and negative-virtual slots carry no loss
        rng = np.random.default_rng(0)
        values = rng.normal(size=6)
        loss, grad = crpc_one(values, [1, 2, 0], "weak")
        active = []
        for s, (u, v) in enumerate(slots(3)):
            pos_u = u < 3 and [1, 2, 0][u] > 0
            pos_v = v < 3 and [1, 2, 0][v] > 0
            virt_v = v == 3
            if pos_u and (virt_v or not pos_v):
                active.append(s)
            elif pos_v and not pos_u:
                active.append(s)
        inactive = [s for s in range(6) if s not in active]
        assert all(grad[s] == 0.0 for s in inactive)
        # slot (0,1) is a positive-positive pair: excluded in weak mode
        assert slot(3, 0, 1) in inactive

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            k = int(rng.integers(1, 5))
            n_slots = (k + 1) * k // 2
            values = rng.normal(size=n_slots)
            ranks = rng.integers(0, 3, size=k)
            mode = "weak" if trial % 2 else "strong"
            _, grad = crpc_one(values, ranks, mode)
            fd = fd_gradient(lambda x: crpc_one(x, ranks, mode)[0], values)
            assert max_rel_error(grad, fd) <= 1e-4


class TestCrpcScores:
    def test_all_zero_logits(self):
        scores, virtual = crpc_scores_one(np.zeros(3), 2)
        assert scores.tolist() == [1.0, 1.0]
        assert virtual == 1.0
        assert not (scores > virtual).any()  # ties lose

    def test_dominant_item(self):
        values = np.zeros(3)
        values[slot(2, 0, 1)] = 10.0
        values[slot(2, 0, 2)] = 10.0
        scores, virtual = crpc_scores_one(values, 2)
        assert scores[0] == pytest.approx(2.0, abs=1e-4)
        assert scores[1] < 2.0 and virtual < 2.0

    def test_matches_resummation(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=6)
        scores, virtual = crpc_scores_one(values, 3)
        expect = np.zeros(4)
        for u, v in itertools.permutations(range(4), 2):
            expect[u] += sigmoid(oriented(values, 3, u, v))
        np.testing.assert_allclose(np.append(scores, virtual), expect, atol=1e-12)

    def test_monotone_soft_vote(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=6)  # k = 3 -> 4 items, 6 slots
        base, _ = crpc_scores_one(values, 3)
        bumped = values.copy()
        for j in range(4):
            if j == 1:
                continue
            bumped[slot(3, 1, j)] += 0.7 if 1 < j else -0.7
        after, _ = crpc_scores_one(bumped, 3)
        assert after[1] > base[1]


class TestLsepRankLoss:
    def test_no_pairs(self):
        loss, gf, gg = lsep_one(lsep_rank_loss, np.zeros(3), np.zeros(3), [0, 0, 0], "strong")
        assert loss == 0.0 and not gf.any() and not gg.any()

    def test_one_tied_pair(self):
        loss, _, _ = lsep_one(lsep_rank_loss, np.array([1.0, 1.0]), np.zeros(2), [1, 0], "strong")
        assert loss == pytest.approx(LOG2, abs=1e-12)

    def test_two_pair_value(self):
        # strong pairs for ranks (2,1,1) are (0,1) and (0,2)
        f = np.array([2.0, 1.0, 0.0])
        loss, _, _ = lsep_one(lsep_rank_loss, f, np.zeros(3), [2, 1, 1], "strong")
        assert loss == pytest.approx(LSEP_TWO_PAIR, abs=1e-12)

    def test_strong_at_least_weak(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            f, g = rng.normal(size=k), rng.normal(size=k)
            ranks = rng.integers(0, 4, size=k)
            weak, _, _ = lsep_one(lsep_rank_loss, f, g, ranks, "weak")
            strong, _, _ = lsep_one(lsep_rank_loss, f, g, ranks, "strong")
            assert strong >= weak - 1e-12

    def test_max_shift_stability(self):
        f = np.array([-800.0, 900.0])
        loss, gf, _ = lsep_one(lsep_rank_loss, f, np.zeros(2), [1, 0], "strong")
        assert np.isfinite(loss) and loss == pytest.approx(1700.0, rel=1e-12)
        assert np.all(np.isfinite(gf))

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            f = rng.normal(size=k)
            ranks = rng.integers(0, 3, size=k)
            mode = "weak" if trial % 2 else "strong"

            def loss_at(x):
                return lsep_one(lsep_rank_loss, x, np.zeros(k), ranks, mode)[0]

            _, gf, gg = lsep_one(lsep_rank_loss, f, np.zeros(k), ranks, mode)
            assert max_rel_error(gf, fd_gradient(loss_at, f)) <= 1e-4
            assert not gg.any()


class TestLsepClassLoss:
    def test_balanced(self):
        heads = np.array([0.3, -0.4])
        loss, _, _ = lsep_one(lsep_class_loss, heads, heads, [1, 0])
        assert loss == pytest.approx(2 * LOG2, abs=1e-12)

    def test_saturated_positive(self):
        loss, _, _ = lsep_one(lsep_class_loss, np.array([10.0]), np.array([0.0]), [1])
        assert loss < 1e-4

    def test_example_value(self):
        loss, _, _ = lsep_one(lsep_class_loss, np.array([1.0, 0.0]), np.array([0.0, 0.0]), [1, 0])
        assert loss == pytest.approx(1.0064088680781682, abs=1e-6)

    def test_score_gradient_identically_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            f, g = rng.normal(size=k), rng.normal(size=k)
            _, gf, _ = lsep_one(lsep_class_loss, f, g, rng.integers(0, 2, size=k))
            assert not gf.any()

    def test_threshold_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            f = rng.normal(size=k)
            g = rng.normal(size=k)
            ranks = rng.integers(0, 2, size=k)
            _, _, gg = lsep_one(lsep_class_loss, f, g, ranks)
            fd = fd_gradient(lambda x: lsep_one(lsep_class_loss, f, x, ranks)[0], g)
            assert max_rel_error(gg, fd) <= 1e-4
