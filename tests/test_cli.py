import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mlrank.cli
import mlrank.model
import mlrank.synthgen
from mlrank.cli import main
from mlrank.dataio import write_dataset_jsonl
from mlrank.model import (
    FrontEnd,
    ModelParams,
    TrainConfig,
    init_model,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train_arrays,
)
from mlrank.synthgen import (
    CALIBRATION_SCALES,
    CanvasConfig,
    canvas_arrays,
    generate_calibration_set,
    iter_adjust_sweeps,
)


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def snapshot(directory):
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            p = os.path.join(root, name)
            out[os.path.relpath(p, directory)] = open(p, "rb").read()
    return out


def make_identity_dataset(path, n=40, k=3, seed=0):
    """All classes positive with distinct factors; features equal the factors,
    so a fixed affine checkpoint recovers everything exactly.  The commands
    read it through the binary copy the writer puts beside it."""
    factors = np.random.default_rng(seed).uniform(0.5, 2.0, size=(n, k))
    ranks = np.argsort(np.argsort(factors, axis=1), axis=1) + 1  # dense 1..k by ascending factor
    write_dataset_jsonl(path, factors, ranks, generator={"kind": "test-identity"})


def make_affine_gmlr_checkpoint(path, k=3, bias=-0.25):
    """mu = x - 0.25 elementwise, log_var = 0: a perfect linear scorer."""
    w = np.zeros((k, 2 * k))
    w[:, :k] = np.eye(k)
    b = np.zeros(2 * k)
    b[:k] = bias
    params = ModelParams(weights=[w], biases=[b], head="gmlr", num_classes=k)
    save_checkpoint(path, params, meta={"mode": "strong"})
    return params


SMALL_CANVAS = {"canvas_size": 32, "glyph_size": 8, "setup": "S"}
# tests/test_acceptance.py CANVAS_CFG
ACCEPTANCE_CANVAS = {
    "canvas_size": 64, "glyph_size": 18, "setup": "S", "scale_range": (1.0, 2.5), "digit_count_range": (3, 4),
}


def make_plain_canvas_checkpoint(path):
    """An untrained plain MLP over the pixels of one 32x32 gray canvas."""
    params = init_model(32 * 32, 10, "gmlr", hidden=(4,), seed=0)
    save_checkpoint(path, params, meta={"mode": "strong"})


class TestGenerate:
    def test_feature_count_and_rerun_identical(self, tmp_path):
        out = tmp_path / "gen"
        argv = ("generate", "--kind", "feature", "--n", "50", "--seed", "7", "--out", str(out))
        assert run(*argv) == 0
        first = snapshot(out)
        assert run(*argv) == 0
        assert snapshot(out) == first
        assert (out / "dataset.jsonl.npy").exists()  # in the rerun's byte-identical snapshot
        lines = (out / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 51
        assert json.loads(lines[0])["k"] == 6
        assert (out / "resolved_config.json").exists()

    def test_canvas_with_images_and_mix_sidecar(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "kind": "canvas", "n": 5,
            "canvas": {"canvas_size": 48, "glyph_size": 12, "setup": "B-mix", "color_mode": "color"},
        }))
        out = tmp_path / "gen"
        assert run("generate", "--config", str(cfgp), "--seed", "3", "--out", str(out),
                   "--dump-images") == 0
        images = os.listdir(out / "images")
        assert sum(1 for f in images if f.endswith(".ppm")) == 5
        rows = [json.loads(l) for l in (out / "images" / "labels.jsonl").read_text().splitlines()]
        for row in rows:
            for rec in row["factors"]:
                assert "scale" in rec and "brightness" in rec and "hue" in rec
            # ranks follow brightness only
            by_digit = {rec["digit"]: rec for rec in row["factors"]}
            positives = [c for c, r in enumerate(row["ranks"]) if r > 0]
            ordered = sorted(positives, key=lambda c: row["ranks"][c])
            vals = [by_digit[c]["brightness"] for c in ordered]
            assert vals == sorted(vals)

    def test_small_variance_kind(self, tmp_path):
        out = tmp_path / "gen"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"canvas": {"canvas_size": 48, "glyph_size": 12, "setup": "S"}}))
        assert run("generate", "--config", str(cfgp), "--kind", "small-variance",
                   "--n", "4", "--seed", "1", "--out", str(out)) == 0
        header = json.loads((out / "dataset.jsonl").read_text().splitlines()[0])
        assert header["generator"]["kind"] == "small-variance"

    @pytest.mark.parametrize("canvas, message", [
        ({"canvas_size": 48, "glyph_size": 12, "setup": "B"},
         "setup mismatch: the small-variance dataset requires a scale-ranked 'canvas.setup', got 'B'"),
        # The narrowed scale range reaches 1.5, and 24 * 1.5 exceeds 32.
        ({"canvas_size": 32, "glyph_size": 24, "scale_range": [1.0, 1.2]}, "placement infeasible"),
    ])
    def test_small_variance_refuses_its_canvas_before_out_exists(self, tmp_path, capsys, canvas, message):
        out = tmp_path / "gen"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"canvas": canvas}))
        assert run("generate", "--config", str(cfgp), "--kind", "small-variance",
                   "--n", "4", "--seed", "1", "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bytes_do_not_depend_on_output_directory(self, tmp_path):
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps({"kind": "canvas", "canvas": {
            "canvas_size": 32, "glyph_size": 8, "setup": "S", "num_classes": 4,
            "digit_count_range": [1, 3],
        }}))
        written = []
        for where in ("a/gen", "elsewhere"):
            gen, out = tmp_path / where, tmp_path / where / "run"
            assert run("generate", "--config", str(cfgp), "--n", "6", "--seed", "4",
                       "--out", str(gen)) == 0
            assert run("train", "--dataset", str(gen / "dataset.jsonl"), "--method", "gmlr",
                       "--mode", "strong", "--epochs", "1", "--batch-size", "4", "--seed", "5",
                       "--out", str(out)) == 0
            written.append(((gen / "dataset.jsonl").read_bytes(), (out / "checkpoint.json").read_bytes()))
            assert json.loads((gen / "resolved_config.json").read_text())["out"] == str(gen)
        assert written[0] == written[1]


class TestTrain:
    def _gen(self, tmp_path, n=30):
        out = tmp_path / "data"
        assert run("generate", "--kind", "feature", "--n", str(n), "--seed", "2",
                   "--out", str(out)) == 0
        return str(out / "dataset.jsonl")

    def test_gmlr_head_width(self, tmp_path):
        ds = self._gen(tmp_path)
        out = tmp_path / "run"
        assert run("train", "--dataset", ds, "--method", "gmlr", "--mode", "strong",
                   "--epochs", "1", "--seed", "4", "--out", str(out)) == 0
        params, meta = load_checkpoint(out / "checkpoint.json")
        assert params.weights[-1].shape[1] == 12  # 2K, K=6
        assert meta["mode"] == "strong"
        assert meta["trained_on"]["kind"] == "feature"

    def test_crpc_head_width(self, tmp_path):
        ds = self._gen(tmp_path)
        out = tmp_path / "run"
        assert run("train", "--dataset", ds, "--method", "crpc", "--mode", "weak",
                   "--epochs", "1", "--seed", "4", "--out", str(out)) == 0
        params, _ = load_checkpoint(out / "checkpoint.json")
        assert params.weights[-1].shape[1] == 21  # (K+1)K/2, K=6

    def test_lsep_two_stage_log(self, tmp_path):
        ds = self._gen(tmp_path)
        out = tmp_path / "run"
        cfgp = tmp_path / "t.json"
        cfgp.write_text(json.dumps({
            "dataset": ds, "method": "lsep", "mode": "weak",
            "epochs": 2, "stage2_epochs": 3, "hidden": [4],
        }))
        assert run("train", "--config", str(cfgp), "--seed", "4", "--out", str(out)) == 0
        rows = read_csv(out / "loss_log.csv")
        assert rows[0] == ["epoch", "stage", "loss", "lr"]
        stages = [r[1] for r in rows[1:]]
        assert stages == ["1", "1", "2", "2", "2"]

    def test_rerun_identical(self, tmp_path):
        ds = self._gen(tmp_path)
        out = tmp_path / "run"
        argv = ("train", "--dataset", ds, "--method", "gmlr", "--mode", "weak",
                "--epochs", "2", "--seed", "9", "--out", str(out))
        assert run(*argv) == 0
        first = snapshot(out)
        assert run(*argv) == 0
        assert snapshot(out) == first


class TestCanvasTrain:
    @pytest.mark.parametrize("color_mode,channels", [("gray", 1), ("color", 3)])
    def test_front_end_matches_library_path(self, tmp_path, color_mode, channels):
        canvas = {"canvas_size": 32, "glyph_size": 8, "setup": "S", "num_classes": 4,
                  "digit_count_range": [1, 3], "scale_range": [1.0, 2.0],
                  "color_mode": color_mode}
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps({"kind": "canvas", "canvas": canvas}))
        gen = tmp_path / "gen"
        assert run("generate", "--config", str(cfgp), "--n", "6", "--seed", "4",
                   "--out", str(gen)) == 0
        out = tmp_path / "run"
        assert run("train", "--dataset", str(gen / "dataset.jsonl"), "--method", "crpc",
                   "--mode", "strong", "--epochs", "2", "--batch-size", "4", "--seed", "5",
                   "--out", str(out)) == 0
        params, _ = load_checkpoint(out / "checkpoint.json")
        assert params.front_end == FrontEnd((32, 32, channels))
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in canvas.items()}
        cfg = CanvasConfig(seed=4, **kwargs)
        library, _ = train_arrays(
            *canvas_arrays(cfg, 6)[:2],
            TrainConfig(method="crpc", mode="strong", epochs=2, batch_size=4, seed=5),
            cfg.image_shape,
        )
        assert library.front_end == params.front_end
        for a, b in zip(library.value_list(), params.value_list()):
            np.testing.assert_array_equal(a, b)

    def test_canvas_too_small_is_data_error(self, tmp_path, capsys):
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps({"kind": "canvas", "canvas": {
            "canvas_size": 24, "glyph_size": 8, "setup": "S", "scale_range": [1.0, 2.0],
        }}))
        gen = tmp_path / "gen"
        assert run("generate", "--config", str(cfgp), "--n", "3", "--seed", "1",
                   "--out", str(gen)) == 0
        capsys.readouterr()
        assert run("train", "--dataset", str(gen / "dataset.jsonl"), "--method", "gmlr",
                   "--mode", "strong", "--epochs", "1", "--seed", "1",
                   "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "minimum canvas size is 32x32" in err

    def test_declared_image_shape_trains_behind_front_end(self, tmp_path):
        # An external image dataset: a header with image_shape and no
        # generator echo.
        rng = np.random.default_rng(3)
        ds = tmp_path / "images.jsonl"
        lines = [json.dumps({"k": 3, "d": 32 * 32, "image_shape": [32, 32, 1]})]
        for _ in range(6):
            ranks = rng.permutation([0, 1, 2]).tolist()
            lines.append(json.dumps({"features": np.round(rng.uniform(size=1024), 3).tolist(), "ranks": ranks}))
        ds.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run("train", "--dataset", str(ds), "--method", "gmlr", "--mode", "strong",
                   "--epochs", "1", "--batch-size", "4", "--seed", "1", "--out", str(out)) == 0
        params, _ = load_checkpoint(out / "checkpoint.json")
        assert params.front_end == FrontEnd((32, 32, 1))

    @pytest.mark.parametrize("shape", ["[32,32]", "[32,16,1]", "[32,32,1.0]", "[32,32,true]",
                                       "[0,32,1]", '"32x32x1"', "null"])
    def test_bad_image_shape_is_data_error(self, tmp_path, capsys, shape):
        ds = tmp_path / "images.jsonl"
        ds.write_text(f'{{"d":1024,"image_shape":{shape},"k":2}}\n'
                      f'{{"features":{json.dumps([0.5] * 1024)},"ranks":[1,0]}}\n')
        out = tmp_path / "run"
        assert run("train", "--dataset", str(ds), "--method", "gmlr", "--mode", "strong",
                   "--epochs", "1", "--seed", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{ds}:1" in err and "image_shape" in err
        assert not (out / "checkpoint.json").exists()

    def test_feature_dataset_trains_plain_mlp(self, tmp_path):
        gen = tmp_path / "gen"
        assert run("generate", "--kind", "feature", "--n", "10", "--seed", "2",
                   "--out", str(gen)) == 0
        out = tmp_path / "run"
        assert run("train", "--dataset", str(gen / "dataset.jsonl"), "--method", "gmlr",
                   "--mode", "weak", "--epochs", "1", "--seed", "4", "--out", str(out)) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["version"] == 1 and "front_end" not in doc


class TestEval:
    def test_perfect_oracle_scores(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "c.json"
        make_affine_gmlr_checkpoint(ckpt)
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)) == 0
        rows = read_csv(out / "metrics.csv")
        got = dict(zip(rows[0], rows[1]))
        assert float(got["tau_b"]) == pytest.approx(100.0, abs=1e-9)
        assert float(got["s_rho"]) == pytest.approx(100.0, abs=1e-9)
        assert float(got["gamma"]) == pytest.approx(100.0, abs=1e-9)
        assert float(got["hl"]) == 0.0
        assert float(got["m1"]) == 0.0
        assert float(got["f1"]) == pytest.approx(100.0, abs=1e-9)
        assert got["skipped_tau_b"] == "0"

    def test_raw_flag(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "c.json"
        make_affine_gmlr_checkpoint(ckpt)
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                   "--out", str(out), "--raw") == 0
        rows = read_csv(out / "metrics.csv")
        got = dict(zip(rows[0], rows[1]))
        assert float(got["tau_b"]) == pytest.approx(1.0, abs=1e-9)

    def test_constant_score_predictor_skips_correlations(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, n=15)
        params = ModelParams(
            weights=[np.zeros((3, 6))], biases=[np.zeros(6)], head="gmlr", num_classes=3
        )
        ckpt = tmp_path / "c.json"
        save_checkpoint(ckpt, params, meta={})
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)) == 0
        got = dict(zip(*read_csv(out / "metrics.csv")))
        assert got["skipped_tau_b"] == "15"
        assert got["skipped_s_rho"] == "15"
        assert got["skipped_gamma"] == "15"
        assert math.isnan(float(got["tau_b"]))

    def test_random_constant_scores_near_zero_tau(self, tmp_path):
        # class-wise random biases, zero weights: scores are instance-independent,
        # so correlations against i.i.d. ground truths average toward zero
        gen = tmp_path / "gen"
        assert run("generate", "--kind", "feature", "--n", "800", "--seed", "21",
                   "--out", str(gen)) == 0
        rng = np.random.default_rng(5)
        w = np.zeros((24, 12))
        b = np.concatenate([rng.normal(size=6), np.zeros(6)])
        ckpt = tmp_path / "c.json"
        save_checkpoint(ckpt, ModelParams(weights=[w], biases=[b], head="gmlr", num_classes=6), {})
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(gen / "dataset.jsonl"),
                   "--out", str(out)) == 0
        got = dict(zip(*read_csv(out / "metrics.csv")))
        assert abs(float(got["tau_b"])) <= 5.0

    def test_class_count_mismatch_is_data_error(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, k=3)
        ckpt = tmp_path / "c.json"
        make_affine_gmlr_checkpoint(ckpt, k=3)
        # dataset with a different class count
        ds4 = tmp_path / "d4.jsonl"
        make_identity_dataset(ds4, k=4)
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds4),
                   "--out", str(tmp_path / "e")) == 2

    @pytest.mark.parametrize("command", ["eval", "extract-sig"])
    @pytest.mark.parametrize("trained,declared,ok", [
        ((32, 32, 1), [32, 32, 1], True),
        ((32, 32, 1), [16, 64, 1], False),
        ((32, 32, 1), None, False),
        (None, [32, 32, 1], False),
    ])
    def test_declared_image_shape_must_match_checkpoint(
        self, tmp_path, capsys, command, trained, declared, ok
    ):
        ckpt = tmp_path / "c.json"
        fe = None if trained is None else FrontEnd(trained)
        save_checkpoint(ckpt, init_model(1024, 3, "gmlr", hidden=(4,), seed=1, front_end=fe))
        ds = tmp_path / "d.jsonl"
        pixels = np.round(np.random.default_rng(2).uniform(size=(5, 1024)), 3)
        write_dataset_jsonl(ds, pixels, np.tile([2, 1, 0], (5, 1)), image_shape=declared)
        args = ["--class-index", "0", "--n-checkpoints", "2"] if command == "extract-sig" else []
        code = run(command, "--checkpoint", str(ckpt), "--dataset", str(ds), *args,
                   "--out", str(tmp_path / "o"))
        assert code == (0 if ok else 2)
        if not ok:
            err = capsys.readouterr().err
            want = None if trained is None else list(trained)
            assert f"'image_shape': {declared}" in err and f"'image_shape': {want}" in err


class TestExperiments:
    def _canvas_checkpoint(self, tmp_path, method="gmlr"):
        gen = tmp_path / "cdata"
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps({
            "kind": "canvas", "canvas": {"canvas_size": 32, "glyph_size": 8, "setup": "S"},
        }))
        assert run("generate", "--config", str(cfgp), "--n", "12", "--seed", "2",
                   "--out", str(gen)) == 0
        rund = tmp_path / "crun"
        cfgt = tmp_path / "t.json"
        cfgt.write_text(json.dumps({
            "dataset": str(gen / "dataset.jsonl"), "method": method, "mode": "strong",
            "epochs": 1, "hidden": [4], "batch_size": 4,
        }))
        assert run("train", "--config", str(cfgt), "--seed", "3", "--out", str(rund)) == 0
        return rund / "checkpoint.json"

    def test_adjust_exp_shape_and_determinism(self, tmp_path):
        ckpt = self._canvas_checkpoint(tmp_path)
        cfgp = tmp_path / "a.json"
        cfgp.write_text(json.dumps({
            "canvas": {"canvas_size": 32, "glyph_size": 8, "setup": "S"},
            "n_sequences": 4, "steps": 6,
        }))
        out = tmp_path / "adj"
        argv = ("adjust-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                "--seed", "11", "--out", str(out))
        assert run(*argv) == 0
        rows = read_csv(out / "adjust.csv")
        assert rows[0] == ["step", "mean_score_low_digit", "mean_score_middle_digit",
                           "mean_score_high_digit"]
        assert len(rows) == 7
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, 7)]
        first = snapshot(out)
        assert run(*argv) == 0
        assert snapshot(out) == first

    def test_calib_exp_shape(self, tmp_path):
        ckpt = self._canvas_checkpoint(tmp_path)
        canvas = {"canvas_size": 32, "glyph_size": 8, "setup": "S"}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({"canvas": canvas, "n": 6}))
        out = tmp_path / "cal"
        assert run("calib-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--seed", "13", "--out", str(out)) == 0
        rows = read_csv(out / "calibration.csv")
        assert rows[0] == ["level", "mean", "std", "mean_pred_sigma"]
        assert [r[0] for r in rows[1:]] == ["1.0", "1.5", "2.0", "2.5"]
        # Each level's scores, gathered digit by digit from the records'
        # placements, give the statistics calib-exp takes by level mask.
        params, _ = load_checkpoint(ckpt)
        samples = generate_calibration_set(CanvasConfig(seed=13, **canvas), 6)
        head_out, pred = predict_batch(params, np.stack([s.pixels for s in samples]))
        sigma = np.exp(0.5 * head_out[:, params.num_classes :])
        for row, level in zip(rows[1:], CALIBRATION_SCALES, strict=True):
            at = [(i, pf.digit) for i, s in enumerate(samples) for pf in s.factors if pf.scale == level]
            scores = [pred.scores[i, c] for i, c in at]
            want = [np.mean(scores), np.std(scores, ddof=1), np.mean([sigma[i, c] for i, c in at])]
            np.testing.assert_allclose([float(v) for v in row[1:]], want, rtol=1e-12)

    def test_calib_exp_sigma_nan_for_crpc(self, tmp_path):
        ckpt = self._canvas_checkpoint(tmp_path, method="crpc")
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps({
            "canvas": {"canvas_size": 32, "glyph_size": 8, "setup": "S"}, "n": 4,
        }))
        out = tmp_path / "cal"
        assert run("calib-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--seed", "13", "--out", str(out)) == 0
        rows = read_csv(out / "calibration.csv")
        assert all(math.isnan(float(r[3])) for r in rows[1:])

    def test_calib_exp_one_forward_per_chunk(self, tmp_path, monkeypatch):
        ckpt = self._canvas_checkpoint(tmp_path)
        calls = []
        real = mlrank.model._forward_batch

        def counting(params, x):
            calls.append(len(x))
            return real(params, x)

        monkeypatch.setattr(mlrank.model, "_forward_batch", counting)
        cfgp = tmp_path / "c.json"
        n = mlrank.model.PREDICT_CHUNK + 1
        cfgp.write_text(json.dumps({
            "canvas": {"canvas_size": 32, "glyph_size": 8, "setup": "S"}, "n": n,
        }))
        assert run("calib-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--seed", "13", "--out", str(tmp_path / "cal")) == 0
        # sigma comes from the same head output: no second pass per canvas
        assert calls == [mlrank.model.PREDICT_CHUNK, 1]

    def test_adjust_exp_matches_per_sample_scores(self, tmp_path):
        ckpt = self._canvas_checkpoint(tmp_path)
        canvas = {"canvas_size": 32, "glyph_size": 8, "setup": "S"}
        cfgp = tmp_path / "a.json"
        cfgp.write_text(json.dumps({"canvas": canvas, "n_sequences": 3, "steps": 5}))
        out = tmp_path / "adj"
        assert run("adjust-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--seed", "11", "--out", str(out)) == 0
        params, _ = load_checkpoint(ckpt)
        want = np.zeros((5, 3))
        for digits, _, _, block, index in iter_adjust_sweeps(CanvasConfig(seed=11, **canvas), 3, 5):
            for step, pixels in enumerate(block[index]):
                want[step] += predict_batch(params, pixels[None])[1].scores[0, list(digits)]
        got = np.array([[float(v) for v in r[1:]] for r in read_csv(out / "adjust.csv")[1:]])
        np.testing.assert_allclose(got, want / 3, rtol=1e-12, atol=1e-14)

    def test_adjust_means_refuses_no_sequences(self, tmp_path):
        # A direct call, without the command's own check, must not
        # average over zero sweeps.
        params, _ = load_checkpoint(self._canvas_checkpoint(tmp_path))
        canvas = CanvasConfig(seed=11, canvas_size=32, glyph_size=8, setup="S")
        with pytest.raises(ValueError, match="n_sequences must be at least 1"):
            mlrank.cli.adjust_means(params, canvas, 0, 5)

    def test_adjust_exp_forwards_each_distinct_sweep_canvas_once(self, tmp_path, monkeypatch):
        # Glyphs are drawn at whole-pixel sizes: over 50 scale steps the
        # acceptance canvas draws 28 distinct (low, high) size pairs, and
        # every brightness step is distinct.
        ckpt = tmp_path / "ckpt.json"
        params = init_model(64 * 64, 10, "gmlr", hidden=(8,), seed=0, front_end=FrontEnd((64, 64, 1)))
        save_checkpoint(ckpt, params, meta={"mode": "strong"})
        built = []

        def counted(name, real):
            def call(*args, **kwargs):
                built.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("dense_ranks", "GeneratedSample"):
            monkeypatch.setattr(mlrank.synthgen, name, counted(name, getattr(mlrank.synthgen, name)))
        rows, real_predict = [], mlrank.cli.predict_batch

        def predict(params, x):
            rows.append(len(x))
            return real_predict(params, x)

        monkeypatch.setattr(mlrank.cli, "predict_batch", predict)
        for setup, fresh in (("S", 28), ("B", 50)):
            rows.clear()
            canvas = {**ACCEPTANCE_CANVAS, "setup": setup}
            cfgp = tmp_path / f"{setup}.json"
            cfgp.write_text(json.dumps({"canvas": canvas, "n_sequences": 2, "steps": 50}))
            out = tmp_path / setup
            assert run("adjust-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                       "--seed", "11", "--out", str(out)) == 0
            assert rows == [fresh, fresh]
            # Every step forwarded, one full block per sweep, gives the same bytes.
            sums = np.zeros((50, 3))
            for digits, _, _, block, index in iter_adjust_sweeps(CanvasConfig(seed=11, **canvas), 2, 50):
                sums += real_predict(params, block[index])[1].scores[:, list(digits)]
            want = [[str(step + 1), *(repr(float(v)) for v in means)] for step, means in enumerate(sums / 2)]
            assert read_csv(out / "adjust.csv")[1:] == want
        assert built == []

    def test_adjust_csv_bit_identical_at_1_and_2_blas_threads(self, tmp_path):
        """The determinism contract (README, Determinism) for adjust-exp
        at the acceptance canvas config, on one machine.  OpenBLAS reads
        its thread count when it loads, so each count runs in its own
        process."""
        ckpt = tmp_path / "ckpt.json"
        params = init_model(64 * 64, 10, "gmlr", hidden=(16,), seed=1, front_end=FrontEnd((64, 64, 1)))
        save_checkpoint(ckpt, params, meta={"mode": "strong"})
        cfgp = tmp_path / "a.json"
        cfgp.write_text(json.dumps({"canvas": ACCEPTANCE_CANVAS, "n_sequences": 3, "steps": 50}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(mlrank.__file__)))
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"adj{threads}"
            path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run(
                [sys.executable, "-m", "mlrank.cli", "adjust-exp", "--config", str(cfgp),
                 "--checkpoint", str(ckpt), "--seed", "302", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600, check=True,
            )
            texts.append((out / "adjust.csv").read_bytes())
        assert texts[0].count(b"\n") == 51
        assert texts[0] == texts[1]

    def test_one_config_serves_both_probe_commands(self, tmp_path):
        # shaped like the benchmark's probe.json: keys of both commands
        ckpt = tmp_path / "ckpt.json"
        make_plain_canvas_checkpoint(ckpt)
        cfgp = tmp_path / "probe.json"
        cfgp.write_text(json.dumps({"canvas": SMALL_CANVAS, "n_sequences": 2, "steps": 3, "n": 4}))
        for command, csv_name in (("adjust-exp", "adjust.csv"), ("calib-exp", "calibration.csv")):
            out = tmp_path / command
            assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt),
                       "--seed", "5", "--out", str(out)) == 0
            assert (out / csv_name).exists()

    def test_setup_mismatch_warning(self, tmp_path, capsys):
        ckpt = self._canvas_checkpoint(tmp_path)
        cfgp = tmp_path / "a.json"
        cfgp.write_text(json.dumps({
            "canvas": {"canvas_size": 32, "glyph_size": 8, "setup": "B"},
            "n_sequences": 2, "steps": 3,
        }))
        assert run("adjust-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--seed", "11", "--out", str(tmp_path / "adj")) == 0
        assert "warning" in capsys.readouterr().err


class TestExtractSig:
    def test_equidistant_positions(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, n=400)
        ckpt = tmp_path / "c.json"
        make_affine_gmlr_checkpoint(ckpt)
        out = tmp_path / "sig"
        assert run("extract-sig", "--checkpoint", str(ckpt), "--dataset", str(ds),
                   "--class-index", "1", "--n-checkpoints", "10", "--out", str(out)) == 0
        rows = read_csv(out / "significance.csv")
        positions = [int(r[0]) for r in rows[1:]]
        assert positions == [0, 44, 88, 133, 177, 221, 266, 310, 354, 399]
        scores = [float(r[2]) for r in rows[1:]]
        assert scores == sorted(scores)

    def test_single_checkpoint(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, n=10)
        ckpt = tmp_path / "c.json"
        make_affine_gmlr_checkpoint(ckpt)
        out = tmp_path / "sig"
        assert run("extract-sig", "--checkpoint", str(ckpt), "--dataset", str(ds),
                   "--class-index", "0", "--n-checkpoints", "1", "--out", str(out)) == 0
        rows = read_csv(out / "significance.csv")
        assert [int(r[0]) for r in rows[1:]] == [0]

    def test_too_many_checkpoints(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, n=5)
        ckpt = tmp_path / "c.json"
        make_affine_gmlr_checkpoint(ckpt)
        assert run("extract-sig", "--checkpoint", str(ckpt), "--dataset", str(ds),
                   "--class-index", "0", "--n-checkpoints", "6",
                   "--out", str(tmp_path / "s")) == 2


class TestExitCodes:
    def test_missing_seed_is_usage_error(self, tmp_path):
        assert run("generate", "--kind", "feature", "--n", "5",
                   "--out", str(tmp_path / "x")) == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run("train", "--dataset", str(tmp_path / "nope.jsonl"), "--method", "gmlr",
                   "--mode", "weak", "--epochs", "1", "--seed", "1",
                   "--out", str(tmp_path / "x")) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("generate", "--frobnicate") == 1

    def test_numeric_abort_is_exit_3(self, tmp_path, capsys):
        # features large enough to overflow the first matmul
        ds = tmp_path / "huge.jsonl"
        write_dataset_jsonl(ds, np.full((4, 8), 1e308), np.tile([1, 0], (4, 1)))
        out = tmp_path / "run"
        code = run("train", "--dataset", str(ds), "--method", "gmlr", "--mode", "weak",
                   "--epochs", "1", "--seed", "1", "--out", str(out))
        assert code == 3
        assert "numeric abort: variance head overflow at epoch 0, batch 0" in capsys.readouterr().err

    def test_trailing_blank_line_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "blank.jsonl"
        write_dataset_jsonl(ds, np.zeros((3, 4)), np.tile([1, 0], (3, 1)))
        ds.write_text(ds.read_text() + "\n")
        code = run("train", "--dataset", str(ds), "--method", "gmlr", "--mode", "strong",
                   "--epochs", "1", "--seed", "1", "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{ds}:5: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1.7", "1.0", "true", "false"])
    def test_non_integer_rank_is_data_error(self, tmp_path, capsys, bad):
        ds = tmp_path / "bad.jsonl"
        ds.write_text(
            '{"d":2,"generator":{},"k":2}\n'
            '{"features":[0.1,0.2],"ranks":[1,0]}\n'
            f'{{"features":[0.3,0.4],"ranks":[{bad},0]}}\n'
        )
        code = run("train", "--dataset", str(ds), "--method", "gmlr", "--mode", "strong",
                   "--epochs", "1", "--seed", "1", "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{ds}:3" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,key", [
        ({"canvass": {"canvas_size": 32}}, "canvass"),
        ({"kind": "feature", "feature": {"dims": 30}}, "dims"),
    ])
    def test_unknown_generate_config_key_is_usage_error(self, tmp_path, capsys, setting, key):
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps(setting))
        out = tmp_path / "gen"
        assert run("generate", "--config", str(cfgp), "--n", "3", "--seed", "1", "--out", str(out)) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (out / "dataset.jsonl").exists()

    @pytest.mark.parametrize("command", ["eval", "extract-sig", "adjust-exp", "calib-exp"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, command):
        # every other setting is valid; the misspelt key alone is refused
        ckpt = tmp_path / "ckpt.json"
        if command in ("adjust-exp", "calib-exp"):
            make_plain_canvas_checkpoint(ckpt)
            setting = {"canvas": SMALL_CANVAS, "n_sequences": 1, "steps": 2, "n": 2, "seed": 1}
        else:
            make_affine_gmlr_checkpoint(ckpt)
            make_identity_dataset(tmp_path / "d.jsonl")
            setting = {"dataset": str(tmp_path / "d.jsonl")}
            if command == "extract-sig":
                setting["class_index"] = 0
        setting["n_checkpoint"] = 3
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(setting))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt), "--out", str(out)) == 1
        assert "'n_checkpoint'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        None, b"[1, 2]", b'{"n": "\xff"}', pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep"),
    ])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, content):
        cfgp = tmp_path / "c.json"
        if content is not None:
            cfgp.write_bytes(content)
        assert run("generate", "--config", str(cfgp), "--kind", "feature", "--n", "3",
                   "--seed", "1", "--out", str(tmp_path / "gen")) == 1
        assert str(cfgp) in capsys.readouterr().err

    def test_header_without_rows_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "empty.jsonl"
        ds.write_text('{"d":2,"generator":{},"k":2}\n')
        out = tmp_path / "run"
        assert run("train", "--dataset", str(ds), "--method", "gmlr", "--mode", "strong",
                   "--epochs", "1", "--seed", "1", "--out", str(out)) == 2
        assert str(ds) in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_class_index_out_of_range_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, k=6)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt, k=6)
        assert run("extract-sig", "--checkpoint", str(ckpt), "--dataset", str(ds),
                   "--class-index", "6", "--out", str(tmp_path / "s")) == 2
        assert "class index 6" in capsys.readouterr().err

    def test_canvas_size_other_than_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        make_plain_canvas_checkpoint(ckpt)
        cfgp = tmp_path / "a.json"
        cfgp.write_text(json.dumps({"canvas": {**SMALL_CANVAS, "canvas_size": 48}, "steps": 2}))
        assert run("adjust-exp", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--seed", "1", "--out", str(tmp_path / "adj")) == 2
        assert "feature-length mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["adjust-exp", "calib-exp"])
    @pytest.mark.parametrize("checkpoint_k,canvas_k", [(4, 10), (10, 4)])
    def test_class_count_other_than_checkpoint_is_data_error(self, tmp_path, capsys, command, checkpoint_k,
                                                              canvas_k):
        # A K=4 checkpoint on a K=10 canvas used to index its scores with
        # digits up to 9: an IndexError traceback and exit 1.
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_model(32 * 32, checkpoint_k, "gmlr", hidden=(4,), seed=0))
        cfgp = tmp_path / "p.json"
        canvas = {**SMALL_CANVAS, "num_classes": canvas_k, "digit_count_range": [1, 4]}
        cfgp.write_text(json.dumps({"canvas": canvas, "steps": 2, "n": 2}))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt), "--seed", "1",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"class-count mismatch: checkpoint has {checkpoint_k} classes, canvas has {canvas_k}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["adjust-exp", "calib-exp"])
    @pytest.mark.parametrize("trained_on,key", [
        ("S", "meta.trained_on"),
        ([], "meta.trained_on"),
        ({"canvas": "S"}, "meta.trained_on.canvas"),
        ({"canvas": None}, "meta.trained_on.canvas"),
    ])
    def test_trained_on_that_is_not_an_object_is_data_error(self, tmp_path, capsys, command, trained_on, key):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_model(32 * 32, 10, "gmlr", hidden=(4,), seed=0), meta={"trained_on": trained_on})
        cfgp = tmp_path / "p.json"
        cfgp.write_text(json.dumps({"canvas": SMALL_CANVAS, "steps": 2, "n": 2}))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt), "--seed", "1",
                   "--out", str(out)) == 2
        assert f"checkpoint '{key}' must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "adjust-exp", "calib-exp"])
    def test_canvas_seed_is_usage_error(self, tmp_path, capsys, command):
        # The seed is the command's own setting.  A canvas seed used to be
        # accepted and then silently replaced by it.
        ckpt = tmp_path / "ckpt.json"
        make_plain_canvas_checkpoint(ckpt)
        setting = {"canvas": {**SMALL_CANVAS, "seed": 5}, "n": 2}
        args = ["--config", str(tmp_path / "c.json"), "--seed", "1", "--out", str(tmp_path / "out")]
        if command != "generate":
            setting["steps"] = 2
            args += ["--checkpoint", str(ckpt)]
        (tmp_path / "c.json").write_text(json.dumps(setting))
        assert run(command, *args) == 1
        assert "unknown canvas config keys: ['seed']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, canvas, key", [
        ("calib-exp", {"setup": "B"}, "canvas.setup"),
        ("calib-exp", {"num_classes": 3, "digit_count_range": [1, 3]}, "canvas.num_classes"),
        ("calib-exp", {"glyph_size": 14, "scale_range": [1.0, 2.0]}, "canvas.glyph_size"),
        ("adjust-exp", {"num_classes": 2, "digit_count_range": [1, 2]}, "canvas.num_classes"),
    ], ids=["calib-brightness-setup", "calib-3-classes", "calib-glyph-too-large", "adjust-2-classes"])
    def test_canvas_without_room_for_the_probe_set_is_data_error(self, tmp_path, capsys, command, canvas, key):
        # Each used to fail after --out existed, the class counts with
        # NumPy's "Cannot take a larger sample than population".
        canvas = {**SMALL_CANVAS, **canvas}
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_model(32 * 32, canvas.get("num_classes", 10), "gmlr", hidden=(4,), seed=0))
        cfgp = tmp_path / "p.json"
        cfgp.write_text(json.dumps({"canvas": canvas, "steps": 2, "n": 2}))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt), "--seed", "1",
                   "--out", str(out)) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", [{"early_stop": True}, {"learning_rat": 0.1}])
    def test_unknown_train_config_key_is_usage_error(self, tmp_path, capsys, setting):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, n=8)
        cfgp = tmp_path / "t.json"
        cfgp.write_text(json.dumps({"dataset": str(ds), "method": "gmlr", **setting}))
        out = tmp_path / "run"
        assert run("train", "--config", str(cfgp), "--seed", "1", "--out", str(out)) == 1
        assert next(iter(setting)) in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_seed_is_not_an_eval_or_extract_sig_flag(self, tmp_path):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt)
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--seed", "3",
                   "--out", str(tmp_path / "e")) == 1
        assert run("extract-sig", "--checkpoint", str(ckpt), "--dataset", str(ds),
                   "--class-index", "0", "--seed", "3", "--out", str(tmp_path / "s")) == 1
        assert not (tmp_path / "e").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("header,row,line", [
        ('{"d":2,"generator":{},"k":2.9}', '{"features":[0.1,0.2],"ranks":[1,0]}', 1),
        ('5', '{"features":[0.1,0.2],"ranks":[1,0]}', 1),
        ('{"d":2,"generator":{},"k":2}', '[[0.1,0.2],[1,0]]', 2),
        ('{"d":2,"generator":{},"k":2}', '{"features":["0.1",0.2],"ranks":[1,0]}', 2),
        ('{"d":2,"generator":{},"k":2}', '{"features":[0.1,true],"ranks":[1,0]}', 2),
        ('{"d":2,"generator":{},"k":2}', '{"features":[0.1,0.2],"ranks":[100000000000000000000,0]}', 2),
        pytest.param('{"d":2,"generator":{},"k":2}', '{"features":[0.1,' + "9" * 400 + '],"ranks":[1,0]}', 2,
                     id="400-digit-feature"),
        pytest.param("[" * 200_000 + "]" * 200_000, '{"features":[0.1,0.2],"ranks":[1,0]}', 1, id="deep-header"),
        pytest.param('{"d":2,"generator":{},"k":2}', "[" * 200_000 + "]" * 200_000, 2, id="deep-row"),
    ])
    def test_malformed_header_or_row_is_data_error(self, tmp_path, capsys, header, row, line):
        ds = tmp_path / "bad.jsonl"
        ds.write_text(f"{header}\n{row}\n")
        out = tmp_path / "run"
        assert run("train", "--dataset", str(ds), "--method", "gmlr", "--mode", "strong",
                   "--epochs", "1", "--seed", "1", "--out", str(out)) == 2
        assert f"{ds}:{line}" in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("canvas", [
        {"setup": "S", "scale_range": [2.0, 2.0]},
        {"setup": "B", "brightness_range": [0.5, 0.5]},
    ])
    def test_degenerate_factor_range_is_data_error(self, tmp_path, capsys, canvas):
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps({"kind": "canvas", "canvas": canvas}))
        assert run("generate", "--config", str(cfgp), "--n", "5", "--seed", "1",
                   "--out", str(tmp_path / "x")) == 2
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_too_few_instances_is_data_error(self, tmp_path, capsys, n):
        out = tmp_path / "gen"
        assert run("generate", "--kind", "feature", "--n", n, "--seed", "1", "--out", str(out)) == 2
        assert f"'n' must be at least 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, setting, message", [
        ("calib-exp", {"n": 1}, "'n' must be at least 2"),
        ("calib-exp", {"n": 0}, "'n' must be at least 2"),
        ("adjust-exp", {"n_sequences": 0}, "'n_sequences' must be at least 1"),
    ], ids=["calib-n-1", "calib-n-0", "adjust-n_sequences-0"])
    def test_too_small_probe_count_is_data_error(self, tmp_path, capsys, command, setting, message):
        ckpt = tmp_path / "ckpt.json"
        make_plain_canvas_checkpoint(ckpt)
        cfgp = tmp_path / "probe.json"
        cfgp.write_text(json.dumps({"canvas": SMALL_CANVAS, "steps": 3, **setting}))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--seed", "1", "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_infeasible_canvas_is_data_error(self, tmp_path):
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps({
            "kind": "canvas", "canvas": {"canvas_size": 16, "glyph_size": 16,
                                          "scale_range": [1.0, 3.0], "setup": "S"},
        }))
        assert run("generate", "--config", str(cfgp), "--n", "2", "--seed", "1",
                   "--out", str(tmp_path / "x")) == 2


class TestSettingTypes:
    """Integer settings are JSON integers (not bools, not 1.0), widths are
    at least 1 and rates and ranges finite numbers; anything else is a
    data error that names the key, raised before any output."""

    @pytest.mark.parametrize("setting, key", [
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": -1}, "batch_size"),
        ({"epochs": -1}, "epochs"),
        ({"seed": 1.9}, "seed"),
        ({"batch_size": True}, "batch_size"),
        ({"epochs": 1.5}, "epochs"),
        ({"epochs": "2"}, "epochs"),
        ({"method": "lsep", "stage2_epochs": 1.5}, "stage2_epochs"),
        ({"hidden": [2.5]}, "hidden"),
        ({"hidden": [0]}, "hidden"),
        ({"hidden": 4}, "hidden"),
        ({"learning_rate": "0.1"}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"weight_decay": float("inf")}, "weight_decay"),
        ({"lr_decay_per_epoch": True}, "lr_decay_per_epoch"),
    ])
    def test_train(self, tmp_path, capsys, setting, key):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, n=8)
        cfgp = tmp_path / "t.json"
        cfgp.write_text(json.dumps({"dataset": str(ds), "method": "gmlr", "seed": 1, "epochs": 1, **setting}))
        out = tmp_path / "run"
        assert run("train", "--config", str(cfgp), "--out", str(out)) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_learning_rate_flag(self, tmp_path, capsys):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds, n=8)
        out = tmp_path / "run"
        assert run("train", "--dataset", str(ds), "--method", "gmlr", "--epochs", "1",
                   "--seed", "1", "--learning-rate", "nan", "--out", str(out)) == 2
        assert "'learning_rate'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, key", [
        ({"n": 2.7}, "n"),
        ({"seed": True}, "seed"),
        ({"kind": "feature", "feature": {"num_classes": 6.9}}, "feature.num_classes"),
        ({"kind": "feature", "feature": {"factor_range": [0.5, float("inf")]}}, "feature.factor_range"),
        ({"kind": "feature", "feature": {"factor_range": [3.0, 0.5]}}, "feature.factor_range"),
        ({"kind": "feature", "feature": {"factor_range": [0.0, 1.0]}}, "feature.factor_range"),
        ({"kind": "feature", "feature": {"dim": 5}}, "feature.dim"),
        ({"kind": "feature", "feature": {"noise": -0.05}}, "feature.noise"),
        ({"kind": "feature", "feature": 3}, "feature"),
        ({"canvas": {**SMALL_CANVAS, "canvas_size": 64.5}}, "canvas.canvas_size"),
        ({"canvas": {**SMALL_CANVAS, "scale_range": 5}}, "canvas.scale_range"),
        ({"canvas": {**SMALL_CANVAS, "digit_count_range": [1.0, 3]}}, "canvas.digit_count_range"),
        ({"canvas": {**SMALL_CANVAS, "setup": ["S"]}}, "canvas.setup"),
        ({"canvas": SMALL_CANVAS, "dump_images": "no"}, "dump_images"),
    ])
    def test_generate(self, tmp_path, capsys, setting, key):
        cfgp = tmp_path / "g.json"
        cfgp.write_text(json.dumps({"n": 3, "seed": 1, **setting}))
        out = tmp_path / "gen"
        assert run("generate", "--config", str(cfgp), "--out", str(out)) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, setting, key", [
        ("adjust-exp", {"n_sequences": 2.5}, "n_sequences"),
        ("adjust-exp", {"steps": 3.0}, "steps"),
        ("calib-exp", {"n": True}, "n"),
        ("calib-exp", {"seed": 1.5}, "seed"),
    ])
    def test_probe(self, tmp_path, capsys, command, setting, key):
        ckpt = tmp_path / "ckpt.json"
        make_plain_canvas_checkpoint(ckpt)
        cfgp = tmp_path / "probe.json"
        cfgp.write_text(json.dumps({"canvas": SMALL_CANVAS, "seed": 1, "n": 2, "n_sequences": 1,
                                    "steps": 2, **setting}))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt), "--out", str(out)) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, key", [
        ({"class_index": True}, "class_index"),
        ({"n_checkpoints": 3.9}, "n_checkpoints"),
    ])
    def test_extract_sig(self, tmp_path, capsys, setting, key):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt)
        cfgp = tmp_path / "s.json"
        cfgp.write_text(json.dumps({"class_index": 0, **setting}))
        out = tmp_path / "s"
        assert run("extract-sig", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--dataset", str(ds), "--out", str(out)) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_raw_string(self, tmp_path, capsys):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt)
        cfgp = tmp_path / "e.json"
        cfgp.write_text(json.dumps({"raw": "false"}))
        out = tmp_path / "e"
        assert run("eval", "--config", str(cfgp), "--checkpoint", str(ckpt),
                   "--dataset", str(ds), "--out", str(out)) == 2
        assert "'raw'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_checkpoint_is_data_error(self, tmp_path, capsys):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt)
        doc = json.loads(ckpt.read_text())
        doc["weights"][0][1][1] = float("nan")
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "e"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)) == 2
        assert "checkpoint affine layer 1 holds a non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("num_classes", [3.9, True, "3"])
    def test_checkpoint_num_classes_must_be_a_json_integer(self, tmp_path, capsys, num_classes):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt)
        doc = json.loads(ckpt.read_text())
        doc["num_classes"] = num_classes
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "e"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)) == 2
        assert "checkpoint 'num_classes' must be a positive JSON integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, where, value, message", [
        ("weights", (0, 1, 0), "0.5", "checkpoint 'weights' of affine layer 1 must hold JSON numbers, got \"0.5\""),
        ("biases", (0, 2), True, "checkpoint 'biases' of affine layer 1 must hold JSON numbers, got true"),
        ("weights", (0, 0, 1), None, "checkpoint 'weights' of affine layer 1 must hold JSON numbers, got null"),
    ], ids=["string weight", "true bias", "null weight"])
    def test_checkpoint_weights_must_be_json_numbers(self, tmp_path, capsys, key, where, value, message):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt)
        doc = json.loads(ckpt.read_text())
        array = doc[key][where[0]]
        for i in where[1:-1]:
            array = array[i]
        array[where[-1]] = value
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "e"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hidden", [[3, "x", None], "absent", [4.0], [5], [4, 4], "4"])
    def test_checkpoint_hidden_must_list_its_layer_widths(self, tmp_path, capsys, hidden):
        # load_checkpoint used to ignore the key.
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, init_model(3, 3, "gmlr", hidden=(4,), seed=1))
        doc = json.loads(ckpt.read_text())
        if hidden == "absent":
            del doc["hidden"]
        else:
            doc["hidden"] = hidden
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "e"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)) == 2
        assert "checkpoint 'hidden' must list its hidden affine layers' widths [4]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault, message", [
        ("a list", "must hold a JSON object, got list"),
        ("front_end a number", "checkpoint 'front_end' must be a JSON object, got int"),
        ("image_shape null", "checkpoint 'image_shape' must be 3 positive JSON integers, got None"),
        ("nested too deeply", "is not readable JSON"),
    ])
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, fault, message):
        ds = tmp_path / "d.jsonl"
        make_identity_dataset(ds)
        ckpt = tmp_path / "ckpt.json"
        make_affine_gmlr_checkpoint(ckpt)
        doc = json.loads(ckpt.read_text())
        if fault == "a list":
            text = json.dumps([doc])
        elif fault == "nested too deeply":
            text = "[" * 200_000 + "]" * 200_000
        else:
            doc["version"] = 2
            doc["front_end"] = 7 if fault == "front_end a number" else {"image_shape": None}
            text = json.dumps(doc)
        ckpt.write_text(text)
        out = tmp_path / "e"
        assert run("eval", "--checkpoint", str(ckpt), "--dataset", str(ds), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err
        assert fault != "nested too deeply" or str(ckpt) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "extract-sig", "adjust-exp", "calib-exp"])
    @pytest.mark.parametrize("fault, message", [
        ("wide second layer", "checkpoint affine layer 2 takes 5 inputs, not affine layer 1's width 4"),
        ("short bias", "checkpoint affine layer 1 bias has shape (3,), not its width (4,)"),
    ])
    def test_checkpoint_layers_that_do_not_chain_are_data_errors(self, tmp_path, capsys, command, fault, message):
        ckpt = tmp_path / "ckpt.json"
        if command in ("adjust-exp", "calib-exp"):
            make_plain_canvas_checkpoint(ckpt)
            setting = {"canvas": SMALL_CANVAS, "n_sequences": 1, "steps": 2, "n": 2, "seed": 1}
        else:
            save_checkpoint(ckpt, init_model(3, 3, "gmlr", hidden=(4,), seed=1))
            make_identity_dataset(tmp_path / "d.jsonl")
            setting = {"dataset": str(tmp_path / "d.jsonl")}
            if command == "extract-sig":
                setting["class_index"] = 0
        doc = json.loads(ckpt.read_text())
        if fault == "wide second layer":
            doc["weights"][1] = np.zeros((5, len(doc["weights"][1][0]))).tolist()
        else:
            doc["biases"][0].pop()
        ckpt.write_text(json.dumps(doc))
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(setting))
        out = tmp_path / "out"
        assert run(command, "--config", str(cfgp), "--checkpoint", str(ckpt), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
