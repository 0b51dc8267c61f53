import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mlrank
from mlrank.baselines import lsep_class_loss
from mlrank.gaussian import q_grads, q_prob
from mlrank.model import (
    AdamState,
    FrontEnd,
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    backward,
    _forward_batch,
    batch_objective,
    head_width,
    init_model,
    load_checkpoint,
    lsep_threshold_objective,
    predict_batch,
    save_checkpoint,
    train,
    train_arrays,
)
from mlrank.synthgen import (
    CanvasConfig,
    RankedInstance,
    canvas_arrays,
    feature_arrays,
)

from oracles import fd_gradient, max_rel_error

# The checkpoints the benchmark's probe workload loads.
COMMITTED_CHECKPOINTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checkpoints")


def flatten(grads):
    return np.concatenate([g.reshape(-1) for dwdb in grads for g in dwdb])


def set_values(params, flat):
    pos = 0
    for arr in params.value_list():
        n = arr.size
        arr[...] = flat[pos : pos + n].reshape(arr.shape)
        pos += n


def get_values(params):
    return np.concatenate([a.reshape(-1) for a in params.value_list()])


class TestHeadWidth:
    def test_widths(self):
        assert head_width("gmlr", 6) == 12
        assert head_width("lsep", 6) == 12
        assert head_width("crpc", 6) == 21
        with pytest.raises(ValueError):
            head_width("other", 6)


class TestForward:
    def test_zero_params_zero_output(self):
        params = init_model(4, 3, "gmlr", hidden=(5,), seed=0)
        for w in params.weights:
            w[...] = 0.0
        out, pred = predict_batch(params, np.ones((1, 4)))
        # zero means and zero log-variances: sigma = 1
        np.testing.assert_array_equal(out, np.zeros((1, 6)))
        np.testing.assert_array_equal(pred.scores, np.zeros((1, 3)))

    def test_affine_no_hidden(self):
        params = init_model(3, 2, "lsep", hidden=(), seed=1)
        x = np.array([[0.3, -1.0, 2.0]])
        out, _ = predict_batch(params, x)
        expect = x @ params.weights[0] + params.biases[0]
        np.testing.assert_allclose(out, expect)

    def test_crpc_head_width(self):
        params = init_model(3, 3, "crpc", hidden=(4,), seed=2)
        out, _ = predict_batch(params, np.zeros((1, 3)))
        assert out.shape == (1, 6)

    def test_deterministic(self):
        params = init_model(5, 2, "gmlr", hidden=(7,), seed=3)
        x = np.random.default_rng(0).normal(size=(1, 5))
        a, _ = predict_batch(params, x)
        b, _ = predict_batch(params, x)
        np.testing.assert_array_equal(a, b)

    def test_dim_mismatch(self):
        params = init_model(5, 2, "gmlr", hidden=(), seed=3)
        with pytest.raises(ValueError):
            predict_batch(params, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            predict_batch(params, np.zeros(5))


class TestBackward:
    def test_zero_head_grad(self):
        params = init_model(4, 2, "gmlr", hidden=(6,), seed=5)
        _, cache = _forward_batch(params, np.ones((1, 4)))
        grads = backward(params, np.zeros((1, 4)), cache)
        assert all(not dw.any() and not db.any() for dw, db in grads)

    def test_linear_gmlr_closed_form(self):
        # no hidden layer, K = 1, single positive instance: the chain rule
        # through mu and log-variance is hand-derivable
        params = init_model(3, 1, "gmlr", hidden=(), seed=6)
        x = np.array([0.5, -1.2, 2.0])
        out, cache = _forward_batch(params, x[None, :])
        mu, sigma = float(out[0, 0]), float(np.exp(0.5 * out[0, 1]))
        q = float(q_prob(mu, sigma))
        _, dq_dmu, dq_dsigma = q_grads(mu, sigma)
        dl_dmu = -float(dq_dmu) / q
        dl_dlv = -float(dq_dsigma) / q * 0.5 * sigma
        grads = backward(params, np.array([[dl_dmu, dl_dlv]]), cache)
        np.testing.assert_allclose(grads[0][0][:, 0], dl_dmu * x)
        np.testing.assert_allclose(grads[0][0][:, 1], dl_dlv * x)
        np.testing.assert_allclose(grads[0][1], [dl_dmu, dl_dlv])

    def test_end_to_end_fd_all_methods(self):
        rng = np.random.default_rng(7)
        for method, mode in (("gmlr", "strong"), ("lsep", "weak"), ("crpc", "strong")):
            params = init_model(5, 3, method, hidden=(6,), seed=11)
            x = rng.normal(size=(3, 5))
            ranks = rng.integers(0, 3, size=(3, 3))
            _, grads = batch_objective(params, x, ranks, mode)

            def loss_at(flat):
                set_values(params, flat)
                value = batch_objective(params, x, ranks, mode)[0]
                return value

            base = get_values(params)
            fd = fd_gradient(loss_at, base.copy())
            set_values(params, base)
            assert max_rel_error(flatten(grads), fd) <= 1e-4


class TestAdam:
    def test_zero_gradient_is_noop(self):
        values = [np.array([1.0, -2.0]), np.array([[0.5]])]
        state = AdamState.for_values(values)
        before = [v.copy() for v in values]
        adam_step(values, [np.zeros(2), np.zeros((1, 1))], state, lr=0.1, weight_decay=0.0)
        for b, a in zip(before, values):
            np.testing.assert_array_equal(a, b)

    def test_first_step_magnitude(self):
        values = [np.array([0.0, 0.0])]
        state = AdamState.for_values(values)
        adam_step(values, [np.array([3.0, -0.004])], state, lr=0.01, weight_decay=0.0)
        np.testing.assert_allclose(np.abs(values[0]), 0.01, rtol=1e-5)
        assert values[0][0] < 0 < values[0][1]

    def test_replay_determinism(self):
        def run():
            values = [np.array([0.4, -0.3])]
            state = AdamState.for_values(values)
            for i in range(5):
                adam_step(values, [np.array([0.1 * i, -0.2])], state, lr=0.05, weight_decay=0.01)
            return values[0], state

        v1, s1 = run()
        v2, s2 = run()
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(s1.m[0], s2.m[0])
        np.testing.assert_array_equal(s1.v[0], s2.v[0])
        assert s1.t == s2.t


    def test_one_flat_step_equals_per_array_steps(self):
        # Adam is elementwise, so one update of the concatenated values
        # must give every array the bits its own update gives it.
        rng = np.random.default_rng(3)
        shapes = [(5, 4), (4,), (4, 7), (7,), (7, 2), (2,)]
        arrays = [rng.normal(size=s) for s in shapes]
        flat = np.concatenate([a.ravel() for a in arrays])
        per_array, one = AdamState.for_values(arrays), AdamState.for_values([flat])
        for step in range(60):
            grads = [rng.normal(scale=10.0 ** rng.integers(-8, 3), size=s) for s in shapes]
            lr = 0.01 * 0.9 ** (step // 6)
            adam_step(arrays, grads, per_array, lr, weight_decay=1e-3)
            adam_step([flat], [np.concatenate([g.ravel() for g in grads])], one, lr, weight_decay=1e-3)
        assert flat.tobytes() == np.concatenate([a.ravel() for a in arrays]).tobytes()
        assert one.m[0].tobytes() == np.concatenate([m.ravel() for m in per_array.m]).tobytes()
        assert one.v[0].tobytes() == np.concatenate([v.ravel() for v in per_array.v]).tobytes()
        assert one.t == per_array.t == 60


class TestTrainConfig:
    @pytest.mark.parametrize("key,value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", -math.inf),
        ("learning_rate", 0.0), ("learning_rate", -1e-3),
        ("weight_decay", math.nan), ("weight_decay", math.inf), ("weight_decay", -1e-5),
    ])
    def test_refuses_a_rate_that_is_not_finite_or_out_of_range(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_accepts_zero_weight_decay(self):
        assert TrainConfig(weight_decay=0.0).weight_decay == 0.0

    @pytest.mark.parametrize("key,value", [
        ("seed", 1.0), ("seed", -1), ("epochs", 1.5), ("epochs", "2"), ("epochs", None), ("batch_size", True),
        ("batch_size", 0), ("stage2_epochs", np.float64(2.0)), ("stage2_epochs", -1),
        ("hidden", (0,)), ("hidden", (4, True)), ("hidden", (2.5,)), ("hidden", 4),
        ("learning_rate", True), ("weight_decay", False), ("lr_decay_per_epoch", True), ("lr_decay_per_epoch", "1"),
        ("method", "sgd"), ("mode", "partial"),
    ])
    def test_refuses_what_it_cannot_train_naming_the_field(self, key, value):
        # Before training starts: a bool batch size would train at 1, and
        # a zero width would fail inside init_model.
        with pytest.raises(ValueError, match=f"'{key}'"):
            TrainConfig(**{key: value})

    def test_accepts_numpy_integers_as_counts(self):
        cfg = TrainConfig(seed=np.int64(3), epochs=np.int32(2), batch_size=np.uint8(4), hidden=[np.int64(5), 6])
        assert (cfg.seed, cfg.epochs, cfg.batch_size, cfg.hidden) == (3, 2, 4, (5, 6))
        assert all(type(v) is int for v in (cfg.seed, cfg.epochs, cfg.batch_size, *cfg.hidden))
        assert TrainConfig(stage2_epochs=None).stage2_epochs is None


class TestTrain:
    def setup_method(self):
        self.dataset = feature_arrays(3, 6, 60, seed=17)[:2]

    @pytest.mark.parametrize("bad", [
        lambda r: r + 0.7,  # 1.7 would train as 1
        lambda r: r.astype(float),  # even integral floats are not cast
        lambda r: np.where(np.arange(r.shape[1]) == 0, -1, r),
        lambda r: r > 0,
        lambda r: np.where(r == r.max(), 2**63, r).astype(np.uint64),
    ])
    def test_refuses_bad_ranks_before_any_work(self, bad, monkeypatch):
        x, ranks = self.dataset
        built = []
        monkeypatch.setattr(mlrank.model, "init_model", lambda *args, **kwargs: built.append(args))
        cfg = TrainConfig(method="gmlr", mode="strong", epochs=1, hidden=(4,), seed=1)
        with pytest.raises(ValueError, match="ranks must be non-negative integers that fit int64"):
            train_arrays(x, bad(ranks), cfg)
        assert built == []

    def test_zero_epochs_keeps_init(self):
        cfg = TrainConfig(method="gmlr", mode="strong", epochs=0, hidden=(4,), seed=2)
        params, log = train_arrays(*self.dataset, cfg)
        init = init_model(6, 3, "gmlr", (4,), seed=2)
        for a, b in zip(params.value_list(), init.value_list()):
            np.testing.assert_array_equal(a, b)
        assert log == []

    def test_descent_sanity(self):
        cfg = TrainConfig(
            method="gmlr", mode="strong", epochs=8, batch_size=16,
            learning_rate=5e-3, hidden=(8,), seed=3,
        )
        _, log = train_arrays(*self.dataset, cfg)
        assert log[-1][2] < log[0][2]

    def test_seeded_determinism(self):
        cfg = TrainConfig(method="crpc", mode="weak", epochs=3, learning_rate=1e-3, hidden=(4,), seed=5)
        p1, log1 = train_arrays(*self.dataset, cfg)
        p2, log2 = train_arrays(*self.dataset, cfg)
        assert log1 == log2
        for a, b in zip(p1.value_list(), p2.value_list()):
            np.testing.assert_array_equal(a, b)

    def test_lsep_stage2_freezes_everything_else(self):
        base = dict(method="lsep", mode="strong", epochs=3, learning_rate=1e-2, hidden=(5,), seed=7)
        stage1_only, _ = train_arrays(*self.dataset, TrainConfig(stage2_epochs=0, **base))
        full, log = train_arrays(*self.dataset, TrainConfig(stage2_epochs=4, **base))
        assert {s for _, s, _, _ in log} == {1, 2}
        k = 3
        # trunk layers bit-identical
        for i in range(len(full.weights) - 1):
            np.testing.assert_array_equal(full.weights[i], stage1_only.weights[i])
            np.testing.assert_array_equal(full.biases[i], stage1_only.biases[i])
        # score half of the head frozen, threshold half trained
        np.testing.assert_array_equal(full.weights[-1][:, :k], stage1_only.weights[-1][:, :k])
        np.testing.assert_array_equal(full.biases[-1][:k], stage1_only.biases[-1][:k])
        assert not np.array_equal(full.weights[-1][:, k:], stage1_only.weights[-1][:, k:])

    @pytest.mark.parametrize("method", ["gmlr", "lsep"])
    def test_parameters_are_views_of_one_flat_vector(self, method):
        cfg = TrainConfig(method=method, mode="strong", epochs=1, hidden=(4, 5), seed=2)
        params, _ = train_arrays(*self.dataset, cfg)
        values = params.value_list()
        flat = values[0].base
        assert flat is not None and flat.ndim == 1 and flat.size == sum(v.size for v in values)
        assert all(v.base is flat for v in values)
        offsets = [v.__array_interface__["data"][0] - flat.__array_interface__["data"][0] for v in values]
        assert offsets == list(np.cumsum([0] + [v.nbytes for v in values[:-1]]))

    def test_nan_abort_diagnostic(self):
        x, ranks = self.dataset
        x = x.copy()
        x[7, 2] = np.nan
        cfg = TrainConfig(method="gmlr", mode="strong", epochs=1, hidden=(4,), seed=1)
        with pytest.raises(TrainingDiverged) as info:
            train_arrays(x, ranks, cfg)
        assert info.value.epoch == 0
        assert "parameter norm" in str(info.value)


def lsep_model(kind):
    """A plain-MLP or canvas-front-end lsep model with a random threshold
    slice, and a batch of five rows for it."""
    rng = np.random.default_rng(23)
    fe = FrontEnd((32, 32, 1)) if kind == "front-end" else None
    dim = 6 if fe is None else fe.input_dim
    params = init_model(dim, 3, "lsep", hidden=(5, 4), seed=13, front_end=fe)
    params.weights[-1][:, 3:] = rng.normal(size=(4, 3))
    params.biases[-1][3:] = rng.normal(size=3)
    x = rng.uniform(size=(5, dim))
    ranks = np.array([[2, 1, 0], [0, 0, 1], [1, 1, 1], [0, 0, 0], [3, 0, 2]])
    return params, x, ranks


@pytest.mark.parametrize("kind", ["plain", "front-end"])
class TestLsepThresholdObjective:
    def test_matches_threshold_slice_of_full_backward(self, kind):
        params, x, ranks = lsep_model(kind)
        out, cache = _forward_batch(params, x)
        losses, head_grads = lsep_class_loss(out, ranks)
        full = backward(params, head_grads / len(x), cache)
        loss, (dw, db) = lsep_threshold_objective(params, x, ranks)
        assert loss == np.sum(losses) / len(x)
        assert np.max(np.abs(dw - full[-1][0][:, 3:])) <= 1e-15
        assert np.max(np.abs(db - full[-1][1][3:])) <= 1e-15
        assert dw.shape == (4, 3) and db.shape == (3,)

    def test_gradients_match_fd(self, kind):
        params, x, ranks = lsep_model(kind)
        w, b = params.weights[-1], params.biases[-1]
        _, (dw, db) = lsep_threshold_objective(params, x, ranks)

        def loss_at(flat):
            w[:, 3:] = flat[:12].reshape(4, 3)
            b[3:] = flat[12:]
            return lsep_threshold_objective(params, x, ranks)[0]

        base = np.concatenate([w[:, 3:].reshape(-1), b[3:]])
        fd = fd_gradient(loss_at, base.copy())
        loss_at(base)
        assert max_rel_error(np.concatenate([dw.reshape(-1), db]), fd) <= 1e-5

    def test_adam_step_moves_only_thresholds(self, kind):
        params, x, ranks = lsep_model(kind)
        before = copy.deepcopy(params)
        thresholds = [params.weights[-1][:, 3:], params.biases[-1][3:]]
        _, grads = lsep_threshold_objective(params, x, ranks)
        adam_step(thresholds, grads, AdamState.for_values(thresholds), lr=0.1, weight_decay=1e-5)
        for i in range(len(params.weights) - 1):
            np.testing.assert_array_equal(params.weights[i], before.weights[i])
            np.testing.assert_array_equal(params.biases[i], before.biases[i])
        np.testing.assert_array_equal(params.weights[-1][:, :3], before.weights[-1][:, :3])
        np.testing.assert_array_equal(params.biases[-1][:3], before.biases[-1][:3])
        assert not np.any(params.weights[-1][:, 3:] == before.weights[-1][:, 3:])
        assert not np.any(params.biases[-1][3:] == before.biases[-1][3:])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_model(5, 3, "crpc", hidden=(4,), seed=9)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, meta={"mode": "weak"})
        loaded, meta = load_checkpoint(path)
        assert meta["mode"] == "weak"
        assert loaded.head == "crpc" and loaded.num_classes == 3
        for a, b in zip(params.value_list(), loaded.value_list()):
            np.testing.assert_array_equal(a, b)

    def test_version_check(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("front_end, array, index, layer", [
        (False, "weights", 1, "affine layer 2"),
        (False, "biases", 0, "affine layer 1"),
        (True, "weights", 0, "convolution 1"),
        (True, "biases", 3, "affine layer 1"),
    ])
    def test_refuses_non_finite_parameters(self, tmp_path, bad, front_end, array, index, layer):
        fe = FrontEnd((32, 32, 1)) if front_end else None
        params = init_model(32 * 32 if front_end else 4, 2, "gmlr", hidden=(3,), seed=1, front_end=fe)
        getattr(params, array)[index].flat[0] = bad
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params)
        with pytest.raises(ValueError, match=f"checkpoint {layer} holds a non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("num_classes", [3.9, 3.0, True, "3", 0, -3, None])
    def test_refuses_num_classes_that_is_not_a_positive_json_integer(self, tmp_path, num_classes):
        # The layers fit 3 classes, so a cast of 3.9, 3.0 or "3" would load,
        # and true would fail the later head-width check instead.
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_model(3, 3, "gmlr", hidden=(4,), seed=1))
        doc = json.loads(path.read_text())
        doc["num_classes"] = num_classes
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint 'num_classes' must be a positive JSON integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault, message", [
        ("a list", "must hold a JSON object, got list"),
        ("nested too deeply", "is not readable JSON"),
        ("version true", "unsupported checkpoint version True"),
        ("front_end a list", "checkpoint 'front_end' must be a JSON object, got list"),
        ("image_shape null", "checkpoint 'image_shape' must be 3 positive JSON integers, got None"),
        ("image_shape floats", r"checkpoint 'image_shape' must be 3 positive JSON integers, got \[32.0, 32, 1\]"),
        ("weights null", "checkpoint 'weights' must be a list of numeric arrays"),
        ("a bias object", "checkpoint 'biases' must be a list of numeric arrays"),
        ("head", "checkpoint 'head' must be one of"),
        ("meta a list", "checkpoint 'meta' must be a JSON object, got list"),
    ])
    def test_refuses_a_malformed_checkpoint_naming_what_is_wrong(self, tmp_path, fault, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_model(32 * 32, 2, "gmlr", hidden=(3,), seed=1, front_end=FrontEnd((32, 32, 1))))
        doc = json.loads(path.read_text())
        if fault == "a list":
            doc = [doc]
        elif fault == "nested too deeply":
            doc["meta"] = "NESTED"
        elif fault == "version true":
            doc["version"] = True
        elif fault == "front_end a list":
            doc["front_end"] = [doc["front_end"]]
        elif fault == "image_shape null":
            doc["front_end"]["image_shape"] = None
        elif fault == "image_shape floats":
            doc["front_end"]["image_shape"] = [32.0, 32, 1]
        elif fault == "weights null":
            doc["weights"] = None
        elif fault == "a bias object":
            doc["biases"][1] = {"b": 1}
        elif fault == "head":
            doc["head"] = ["gmlr"]
        else:
            doc["meta"] = []
        path.write_text(json.dumps(doc).replace('"NESTED"', "[" * 200_000 + "]" * 200_000))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault, message", [
        ("wide second layer", "checkpoint affine layer 2 takes 5 inputs, not affine layer 1's width 4"),
        ("short bias", r"checkpoint affine layer 1 bias has shape \(3,\), not its width \(4,\)"),
        ("short head bias", r"checkpoint affine layer 2 bias has shape \(5,\), not its width \(6,\)"),
        ("vector weight", r"checkpoint affine layer 2 weight has shape \(24,\), not a matrix's"),
        ("missing bias", "checkpoint holds 2 weight matrices but 1 biases"),
        ("no layers", "checkpoint has no affine layer"),
        ("input_dim", "checkpoint affine layer 1 takes 3 inputs, not its input_dim 7"),
        ("float input_dim", "checkpoint affine layer 1 takes 3 inputs, not its input_dim 3.0"),
        ("head width", "checkpoint head width 4 does not match its method 'gmlr'"),
    ])
    def test_refuses_layers_that_do_not_chain(self, tmp_path, fault, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_model(3, 3, "gmlr", hidden=(4,), seed=1))
        doc = json.loads(path.read_text())
        if fault == "wide second layer":
            doc["weights"][1] = np.zeros((5, 6)).tolist()
        elif fault == "short bias":
            doc["biases"][0].pop()
        elif fault == "short head bias":
            doc["biases"][1].pop()
        elif fault == "vector weight":
            doc["weights"][1] = np.zeros(24).tolist()
        elif fault == "missing bias":
            doc["biases"].pop()
        elif fault == "no layers":
            doc["weights"], doc["biases"] = [], []
        elif fault == "input_dim":
            doc["input_dim"] = 7
        elif fault == "float input_dim":
            doc["input_dim"] = 3.0
        elif fault == "head width":
            doc["weights"][1] = np.zeros((4, 4)).tolist()
            doc["biases"][1] = [0.0] * 4
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault, message", [
        ("short convolution bias", r"checkpoint convolution 2 bias has shape \(15,\), not its width \(16,\)"),
        ("narrow first affine layer", "checkpoint affine layer 1 takes 63 inputs, not the front end's out_dim 64"),
        ("missing affine layers", "checkpoint has no affine layer"),
    ])
    def test_refuses_front_end_layers_that_do_not_chain(self, tmp_path, fault, message):
        path = tmp_path / "ckpt.json"
        fe = FrontEnd((32, 32, 1))
        save_checkpoint(path, init_model(fe.input_dim, 2, "gmlr", hidden=(3,), seed=1, front_end=fe))
        doc = json.loads(path.read_text())
        if fault == "short convolution bias":
            doc["biases"][1].pop()
        elif fault == "narrow first affine layer":
            doc["weights"][3].pop()
        else:
            del doc["weights"][3:], doc["biases"][3:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("front_end, key, where, value, message", [
        (False, "weights", (1, 0, 0), "0.5", "checkpoint 'weights' of affine layer 2 must hold JSON numbers, got \"0.5\""),
        (False, "biases", (0, 2), True, "checkpoint 'biases' of affine layer 1 must hold JSON numbers, got true"),
        (False, "weights", (0, 1, 2), False, "checkpoint 'weights' of affine layer 1 must hold JSON numbers, got false"),
        (False, "biases", (1, 0), None, "checkpoint 'biases' of affine layer 2 must hold JSON numbers, got null"),
        (False, "weights", (1, 3, 1), None, "checkpoint 'weights' of affine layer 2 must hold JSON numbers, got null"),
        (True, "weights", (0, 5, 3), "1e-3", "checkpoint 'weights' of convolution 1 must hold JSON numbers, got \"1e-3\""),
        (True, "biases", (2, 0), True, "checkpoint 'biases' of convolution 3 must hold JSON numbers, got true"),
        (True, "biases", (3, 1), "0", "checkpoint 'biases' of affine layer 1 must hold JSON numbers, got \"0\""),
    ], ids=[
        "string weight", "true bias", "false weight", "null bias", "null weight",
        "string kernel", "true convolution bias", "string bias behind a front end",
    ])
    def test_refuses_weights_that_are_not_json_numbers(self, tmp_path, front_end, key, where, value, message):
        # Each value sits among numbers, so a cast to float would load it:
        # "0.5" as 0.5, true as 1.0, and null as NaN, which the finiteness
        # check would name as a non-finite value instead.
        fe = FrontEnd((32, 32, 1)) if front_end else None
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_model(fe.input_dim if fe else 3, 3, "gmlr", hidden=(4,), seed=1, front_end=fe))
        doc = json.loads(path.read_text())
        array = doc[key][where[0]]
        for i in where[1:-1]:
            array = array[i]
        array[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", sorted(os.listdir(COMMITTED_CHECKPOINTS)))
    def test_committed_checkpoints_load_with_their_bits(self, name):
        path = os.path.join(COMMITTED_CHECKPOINTS, name)
        params, _ = load_checkpoint(path)
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("weights", "biases"):
            loaded = getattr(params, key)
            assert len(loaded) == len(doc[key])
            for got, values in zip(loaded, doc[key]):
                want = np.array(values, dtype=np.float64)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden", [[3, "x", None], "absent"])
    def test_committed_checkpoint_with_another_hidden_is_refused(self, tmp_path, hidden):
        with open(os.path.join(COMMITTED_CHECKPOINTS, "feature_gmlr_strong.json")) as fh:
            doc = json.load(fh)
        if hidden == "absent":
            del doc["hidden"]
        else:
            doc["hidden"] = hidden
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint 'hidden' must list"):
            load_checkpoint(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init_model(4, 2, "gmlr", hidden=(3,), seed=10)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, params, meta={"x": 1})
        save_checkpoint(p2, params, meta={"x": 1})
        assert p1.read_bytes() == p2.read_bytes()


class TestPredictBatch:
    def test_dispatch(self):
        for method in ("gmlr", "lsep", "crpc"):
            params = init_model(4, 3, method, hidden=(), seed=3)
            _, pred = predict_batch(params, np.zeros((1, 4)))
            assert pred.scores.shape == (1, 3)
            assert pred.positive_mask.shape == (1, 3)


def small_canvases(n=8, color_mode="gray"):
    """The (x, ranks) of ``n`` 32x32 canvases and their image shape."""
    cfg = CanvasConfig(
        canvas_size=32, glyph_size=8, num_classes=4, digit_count_range=(1, 3),
        scale_range=(1.0, 2.0), color_mode=color_mode, seed=3,
    )
    return (*canvas_arrays(cfg, n)[:2], cfg.image_shape)


class TestFrontEnd:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("method", ["gmlr", "lsep", "crpc"])
    def test_gradients_match_fd(self, method, channels, monkeypatch):
        # The canvas front end's kernels and strides with fewer channels,
        # to keep the finite differences cheap.  40x40 leaves the three
        # convolutions 9x9, 4x4 and 2x2 maps: each slides over several
        # positions and max pooling chooses among four.
        monkeypatch.setattr("mlrank.model.CANVAS_CONVS", ((8, 4, 3), (3, 2, 3), (3, 1, 4)))
        rng = np.random.default_rng(40 + channels)
        fe = FrontEnd((40, 40, channels))
        assert fe.kernel_shapes() == [(64 * channels, 3), (27, 3), (27, 4)]
        params = init_model(fe.input_dim, 3, method, hidden=(5,), seed=12, front_end=fe)
        x = rng.uniform(size=(2, fe.input_dim))
        ranks = np.array([[2, 1, 0], [0, 1, 1]])
        _, grads = batch_objective(params, x, ranks, "strong")
        assert all(dw.any() and db.any() for dw, db in grads[: params.n_convs])

        def loss_at(flat):
            set_values(params, flat)
            return batch_objective(params, x, ranks, "strong")[0]

        base = get_values(params)
        fd = fd_gradient(loss_at, base.copy())
        set_values(params, base)
        assert max_rel_error(flatten(grads), fd) <= 1e-4

    def test_work_buffers_give_the_unbuffered_batches(self):
        # Batches of 5, 3 and 5 rows: the 3-row batch must not write into
        # the 5-row buffers, and the second 5-row batch reuses them.
        fe = FrontEnd((32, 32, 3))
        params = init_model(fe.input_dim, 3, "gmlr", hidden=(4,), seed=1, front_end=fe)
        rng = np.random.default_rng(6)
        work = {}
        for n in (5, 3, 5):
            x = rng.uniform(size=(n, fe.input_dim))
            ranks = rng.integers(0, 3, size=(n, 3))
            loss, grads = batch_objective(params, x, ranks, "strong", work)
            want_loss, want = batch_objective(params, x, ranks, "strong")
            assert loss == want_loss
            assert flatten(grads).tobytes() == flatten(want).tobytes()
            assert [work[j].shape[0] for j in range(params.n_convs)] == [n] * params.n_convs
        kept = [work[j] for j in range(params.n_convs)]
        batch_objective(params, x, ranks, "strong", work)
        assert all(work[j] is kept[j] for j in range(params.n_convs))

    def test_layout(self):
        fe = FrontEnd((64, 64, 3))
        assert fe.min_side == 32
        assert fe.kernel_shapes() == [(8 * 8 * 3, 8), (3 * 3 * 8, 16), (3 * 3 * 16, 32)]
        assert fe.out_dim == 64
        params = init_model(fe.input_dim, 4, "gmlr", hidden=(7,), seed=0, front_end=fe)
        assert params.input_dim == 64 * 64 * 3 and params.hidden == (7,)
        assert [w.shape for w in params.weights] == [(192, 8), (72, 16), (144, 32), (64, 7), (7, 8)]

    def test_too_small_image_names_minimum(self):
        with pytest.raises(ValueError, match="32x32"):
            FrontEnd((31, 40, 1))

    def test_forward_takes_flat_pixels(self):
        fe = FrontEnd((32, 32, 1))
        params = init_model(1024, 3, "gmlr", hidden=(4,), seed=1, front_end=fe)
        x = np.random.default_rng(0).uniform(size=(3, 1024))
        out, _ = batch_objective(params, x, np.array([[1, 0, 0]] * 3), "strong")
        assert np.isfinite(out)
        single, _ = predict_batch(params, x[1:2])
        assert single.shape == (1, 6)
        with pytest.raises(ValueError):
            predict_batch(params, np.zeros((1, 1023)))


class TestFrontEndSelection:
    def test_image_shape_gets_the_front_end(self):
        x, ranks, shape = small_canvases()
        assert shape == (32, 32, 1)
        assert train_arrays(x, ranks, TrainConfig(epochs=0, hidden=(4,)), shape)[0].front_end == FrontEnd(shape)
        cx, cranks, cshape = small_canvases(color_mode="color")
        assert cshape == (32, 32, 3)
        assert train_arrays(cx, cranks, TrainConfig(epochs=0, hidden=(4,)), cshape)[0].front_end == FrontEnd(cshape)
        params, _ = train_arrays(x, ranks, TrainConfig(epochs=1, hidden=(4,), batch_size=4, seed=1), shape)
        assert params.front_end == FrontEnd((32, 32, 1))
        assert params.hidden == (4,)

    def test_features_without_image_shape_train_a_plain_mlp(self):
        x, ranks, _ = small_canvases()
        assert train_arrays(x, ranks, TrainConfig(epochs=0, hidden=(4,)))[0].front_end is None
        params, _ = train_arrays(x, ranks, TrainConfig(epochs=1, hidden=(4,), batch_size=4, seed=1))
        assert params.front_end is None
        assert [w.shape for w in params.weights] == [(1024, 4), (4, 8)]

    def test_train_on_records_is_train_arrays(self):
        # ``train`` is kept for the benchmark's checkpoint script: stacking
        # its records must give train_arrays' parameters bit for bit.
        cfg = TrainConfig(method="lsep", epochs=2, hidden=(4,), batch_size=4, seed=1)
        for x, ranks, shape in (small_canvases(6), (*feature_arrays(3, 6, 20, seed=4)[:2], None)):
            records = [RankedInstance(f, r, shape) for f, r in zip(x, ranks)]
            got, got_log = train(records, cfg)
            want, want_log = train_arrays(x, ranks, cfg, shape)
            assert got.front_end == want.front_end and got_log == want_log
            assert [a.tobytes() for a in got.value_list()] == [a.tobytes() for a in want.value_list()]
        x, ranks, shape = small_canvases(2)
        for other in (None, (16, 64, 1)):
            mixed = [RankedInstance(x[0], ranks[0], shape), RankedInstance(x[1], ranks[1], other)]
            with pytest.raises(ValueError, match="mixes"):
                train(mixed, cfg)

    def test_feature_training_bit_identical(self):
        """Feature-space training runs the plain MLP code unchanged.

        The digests are of the parameters the plain MLP trainer produced
        for these runs before the image front end existed.  They pin
        float bits, so a change that reorders a sum on purpose has to
        record them again and say why.

        Float bits also depend on the BLAS kernel.  The digests were
        recorded with NumPy 2.4.6 and its bundled scipy-openblas 0.3.31
        (the SkylakeX kernel) on an x86-64 Xeon with AVX-512, at 1 and 2
        OpenBLAS threads alike.  Elsewhere a mismatch may come from the
        platform rather than from the code: run this test on the code
        before a change and after it on the same machine to tell which.
        """
        # gmlr and lsep were recorded again when the losses were batched,
        # since their pair sums now run in another order; crpc's per-slot
        # gradients kept their bits.
        expected = {
            "gmlr": "7525db2cf589453ebf0ea7e2832269fbcab4ab7fcb56ffc749a1cde83e75d538",
            "lsep": "b13c3478b67337662a01c8fe48cbb642eef835a8798d2b9c770d36d775d3f7ed",
            "crpc": "99b6859fe64bbe4d375c1556e05ec494f9a17131216f90c421386f9a1dee8698",
        }
        x, ranks, _ = feature_arrays(3, 6, 60, seed=17)
        for method, digest in expected.items():
            cfg = TrainConfig(
                method=method, mode="strong", epochs=3, batch_size=16,
                learning_rate=5e-3, hidden=(5, 4), seed=8,
            )
            params, _ = train_arrays(x, ranks, cfg)
            h = hashlib.sha256()
            for arr in params.value_list():
                h.update(arr.tobytes())
            assert params.front_end is None
            assert h.hexdigest() == digest, f"{method}: see the docstring on platforms"


DETERMINISM_SCRIPT = """
import hashlib
from mlrank.model import TrainConfig, train_arrays
from mlrank.synthgen import CanvasConfig, canvas_arrays, feature_arrays

features = feature_arrays(6, 24, 256, seed=5)[:2]
canvas_cfg = CanvasConfig(seed=3)
canvases = canvas_arrays(canvas_cfg, 96)[:2]
for method in ("gmlr", "crpc", "lsep"):
    for (x, ranks), hidden, shape in ((features, (64, 64), None), (canvases, (16,), canvas_cfg.image_shape)):
        cfg = TrainConfig(method=method, epochs=2, batch_size=32, learning_rate=5e-3, seed=1, hidden=hidden)
        params, _ = train_arrays(x, ranks, cfg, shape)
        print(hashlib.sha256(b"".join(a.tobytes() for a in params.value_list())).hexdigest())
"""


class TestDeterminism:
    def test_training_bit_identical_at_1_and_2_blas_threads(self):
        """The determinism contract (README, Determinism): on one machine
        gmlr, crpc and lsep each train a feature MLP and a canvas model
        (96 canvases of 64x64) to the same parameter bytes at 1 and 2
        OpenBLAS threads.  It claims nothing across machines, whose BLAS
        kernels may differ.  OpenBLAS reads its thread count when it
        loads, so each count trains in its own process."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(mlrank.__file__)))
        digests = []
        for threads in ("1", "2"):
            path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-c", DETERMINISM_SCRIPT], env=env, capture_output=True,
                text=True, timeout=600, check=True,
            )
            digests.append(done.stdout.split())
        assert len(digests[0]) == 6
        assert digests[0] == digests[1]


class TestFrontEndCheckpoint:
    def test_round_trip_identical_predictions(self, tmp_path):
        x, ranks, shape = small_canvases(color_mode="color")
        params, _ = train_arrays(x, ranks, TrainConfig(method="lsep", epochs=1, hidden=(4,), seed=2), shape)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, meta={"mode": "strong"})
        doc = json.loads(path.read_text())
        assert doc["version"] == 2
        assert doc["front_end"] == {
            "image_shape": [32, 32, 3], "convs": [[8, 4, 8], [3, 2, 16], [3, 1, 32]],
        }
        assert doc["input_dim"] == 3072 and doc["hidden"] == [4]
        loaded, _ = load_checkpoint(path)
        assert loaded.front_end == params.front_end
        for a, b in zip(params.value_list(), loaded.value_list()):
            np.testing.assert_array_equal(a, b)
        _, want = predict_batch(params, x)
        _, got = predict_batch(loaded, x)
        np.testing.assert_array_equal(got.scores, want.scores)
        np.testing.assert_array_equal(got.positive_mask, want.positive_mask)

    def test_mlp_checkpoint_stays_version_1(self, tmp_path):
        params = init_model(2, 1, "gmlr", hidden=(), seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())
        assert doc["version"] == 1 and "front_end" not in doc
        legacy = tmp_path / "v1.json"
        legacy.write_text(json.dumps({
            "version": 1, "head": "gmlr", "num_classes": 1, "input_dim": 2, "hidden": [],
            "weights": [[[1.0, 0.0], [0.0, 0.0]]], "biases": [[-0.5, 0.0]], "meta": {},
        }))
        loaded, _ = load_checkpoint(legacy)
        assert loaded.front_end is None and loaded.input_dim == 2
        assert predict_batch(loaded, np.array([[2.0, 7.0]]))[1].scores.tolist() == [[1.5]]

    def test_other_convolutions_rejected(self, tmp_path):
        fe = FrontEnd((32, 32, 1))
        params = init_model(1024, 2, "gmlr", hidden=(3,), seed=0, front_end=fe)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())
        doc["front_end"]["convs"] = [[8, 4, 8], [3, 1, 16]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="convolutions"):
            load_checkpoint(path)

    def test_kernel_mismatch_rejected(self, tmp_path):
        fe = FrontEnd((32, 32, 1))
        params = init_model(1024, 2, "gmlr", hidden=(3,), seed=0, front_end=fe)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())
        doc["front_end"]["image_shape"] = [32, 32, 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="kernels"):
            load_checkpoint(path)
