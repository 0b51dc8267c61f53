"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Training-backed
criteria (5-8) share module-scoped fixtures; their dataset shapes are
fixed here and their training configs were calibrated once by pilot runs
and frozen.  They take minutes and are marked ``slow``, so
``pytest -m "not slow"`` skips them.
"""

import math
import time

import numpy as np
import pytest

from mlrank.buckets import pair_mask
from mlrank.cli import adjust_means
from mlrank.gaussian import q_prob
from mlrank.gmlr import bucket_likelihood
from mlrank.metrics import (
    evaluate_dataset,
    goodman_kruskal_gamma,
    kendall_tau_b,
    spearman_rho,
)
from mlrank.model import (
    TrainConfig,
    batch_objective,
    init_model,
    predict_batch,
    train_arrays,
)
from mlrank.synthgen import (
    CALIBRATION_SCALES,
    CanvasConfig,
    calibration_arrays,
    canvas_arrays,
    feature_arrays,
)

from oracles import (
    bucket_likelihood_oracle,
    fd_gradient,
    gamma_brute,
    kendall_tau_b_brute,
    max_rel_error,
    ordered_partitions,
    partition_ranks,
    q_prob_quadrature,
    spearman_brute,
)


def report(num, name, ok, detail=""):
    print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# Shared training fixtures (configs frozen after pilot calibration)

FEATURE_SEED = 101
FEATURE_CFG = dict(num_classes=6, dim=24, factor_range=(0.5, 3.0), noise=0.05)
FEATURE_TRAIN = dict(
    epochs=120, batch_size=32, learning_rate=5e-3, weight_decay=1e-5,
    lr_decay_per_epoch=1.0, seed=7, hidden=(64, 64),
)

CANVAS_CFG = dict(
    canvas_size=64, glyph_size=18, setup="S", scale_range=(1.0, 2.5),
    digit_count_range=(3, 4),
)
CANVAS_SEED = 201
CANVAS_N_TRAIN = 12000
CANVAS_TRAIN = dict(
    epochs=100, batch_size=64, learning_rate=1e-3, weight_decay=1e-5,
    lr_decay_per_epoch=0.98, seed=11, hidden=(64, 64),
)
CALIB_SEED = 301
ADJUST_SEED = 302


@pytest.fixture(scope="module")
def feature_split():
    """The (x, ranks) train and test row slices of one feature dataset."""
    x, ranks, _ = feature_arrays(n=5000, seed=FEATURE_SEED, **FEATURE_CFG)
    return (x[:4000], ranks[:4000]), (x[4000:], ranks[4000:])


@pytest.fixture(scope="module")
def feature_models(feature_split):
    (x, ranks), _ = feature_split
    out = {}
    for mode in ("strong", "weak"):
        cfg = TrainConfig(method="gmlr", mode=mode, **FEATURE_TRAIN)
        out[mode], _ = train_arrays(x, ranks, cfg)
    return out


@pytest.fixture(scope="module")
def canvas_model():
    # The arrays the generate and train commands build, held once.
    cfg = CanvasConfig(seed=CANVAS_SEED, **CANVAS_CFG)
    x, ranks, _ = canvas_arrays(cfg, CANVAS_N_TRAIN)
    cfg_train = TrainConfig(method="gmlr", mode="strong", **CANVAS_TRAIN)
    params, _ = train_arrays(x, ranks, cfg_train, cfg.image_shape)
    return params


def positive_pair_accuracy(params, x, ranks):
    """The share of strictly ranked pairs of positive classes (u above v)
    that the scores order the same way."""
    _, preds = predict_batch(params, x)
    s = preds.scores
    pairs = pair_mask(ranks, "strong") & (ranks > 0)[:, None, :]
    return int((s[:, :, None] > s[:, None, :])[pairs].sum()) / int(pairs.sum())


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_bucket_likelihood_closure():
    start = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for k in range(1, 6):
        for blocks in ordered_partitions(range(k)):
            mu = np.empty((100, k))
            sigma = np.empty((100, k))
            for row in range(100):
                mu[row] = rng.normal(scale=1.5, size=k)
                sigma[row] = rng.uniform(0.2, 3.0, size=k)
            ranks = np.tile(partition_ranks(blocks, k), (100, 1))
            a = bucket_likelihood(mu, sigma, ranks)
            b = bucket_likelihood_oracle(mu, sigma, ranks)
            rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-300)
            worst = max(worst, float(rel.max()))
            checked += len(rel)
    elapsed = time.time() - start
    report(
        1, "bucket-likelihood closure",
        worst <= 1e-9 and elapsed < 10.0,
        f"{checked} cases, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_exactness():
    start = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for method in ("gmlr", "lsep", "crpc"):
        for mode in ("weak", "strong"):
            for _ in range(20):
                k = int(rng.integers(2, 6))
                d = int(rng.integers(3, 8))
                params = init_model(d, k, method, hidden=(6,), seed=int(rng.integers(1 << 30)))
                x = rng.normal(size=(2, d))
                ranks = rng.integers(0, 3, size=(2, k))
                _, grads = batch_objective(params, x, ranks, method, mode)
                flat_grads = np.concatenate(
                    [g.reshape(-1) for dwdb in grads for g in dwdb]
                )

                values = params.value_list()

                def loss_at(flat):
                    pos = 0
                    for arr in values:
                        arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
                        pos += arr.size
                    return batch_objective(params, x, ranks, method, mode)[0]

                base = np.concatenate([a.reshape(-1) for a in values])
                fd = fd_gradient(loss_at, base.copy())
                loss_at(base)  # restore
                worst = max(worst, max_rel_error(flat_grads, fd))
    elapsed = time.time() - start
    report(
        2, "end-to-end gradient exactness",
        worst <= 1e-4 and elapsed < 60.0,
        f"6 configs x 20 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_q_accuracy():
    worst = 0.0
    for sigma in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for mu in np.arange(-5.0, 5.0 + 1e-9, 0.25):
            got = float(q_prob(float(mu), sigma))
            want = q_prob_quadrature(float(mu), sigma)
            worst = max(worst, abs(got - min(max(want, 1e-12), 1 - 1e-12)))
    report(3, "Q probability accuracy", worst <= 1e-6, f"worst abs err {worst:.2e}")


def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    checked = 0
    while checked < 1000:
        k = int(rng.integers(2, 9))
        gt = rng.integers(0, 4, size=k)
        scores = np.round(rng.normal(size=k), 1)
        if np.all(gt == gt[0]) or np.all(scores == scores[0]):
            continue
        checked += 1
        worst = max(worst, abs(kendall_tau_b(gt, scores) - kendall_tau_b_brute(gt, scores)))
        worst = max(worst, abs(spearman_rho(gt, scores) - spearman_brute(gt, scores)))
        pairs = [
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if (gt[i] - gt[j]) * (scores[i] - scores[j]) != 0
        ]
        if pairs:
            worst = max(
                worst, abs(goodman_kruskal_gamma(gt, scores) - gamma_brute(gt, scores))
            )
    gt = [2, 1, 0, 0]
    sc = [0.9, 0.5, 0.1, 0.2]
    exact = (
        abs(kendall_tau_b(gt, sc) - 5 / math.sqrt(30)) <= 1e-12
        and abs(goodman_kruskal_gamma(gt, sc) - 1.0) <= 1e-12
        and abs(spearman_rho(gt, sc) - 0.95) <= 1e-12
    )
    report(
        4, "metric oracles",
        worst <= 1e-12 and exact,
        f"1000 tied instances, worst abs err {worst:.2e}, worked example ok={exact}",
    )


@pytest.mark.slow
def test_criterion_05_strong_beats_weak(feature_split, feature_models):
    start = time.time()
    _, (x, ranks) = feature_split
    taus = {}
    ppas = {}
    for mode in ("strong", "weak"):
        params = feature_models[mode]
        _, preds = predict_batch(params, x)
        rep = evaluate_dataset(preds, ranks)
        taus[mode] = rep.tau_b * 100
        ppas[mode] = positive_pair_accuracy(params, x, ranks)
    gap = taus["strong"] - taus["weak"]
    ok = gap >= 15.0 and ppas["strong"] >= 0.85 and 0.35 <= ppas["weak"] <= 0.65
    report(
        5, "strong beats weak on ranking",
        ok,
        f"tau strong={taus['strong']:.2f} weak={taus['weak']:.2f} gap={gap:.2f} (>=15); "
        f"pp-acc strong={ppas['strong']:.3f} (>=0.85) weak={ppas['weak']:.3f} (in [0.35,0.65]); "
        f"eval {time.time() - start:.0f}s",
    )


@pytest.mark.slow
def test_criterion_06_calibration_monotonicity(canvas_model):
    x, _, factors = calibration_arrays(CanvasConfig(seed=CALIB_SEED, **CANVAS_CFG), 50)
    # mu and sigma from the head output, grouped by level as calib-exp groups them
    out, _ = predict_batch(canvas_model, x)
    k = canvas_model.num_classes
    mu, sigma = out[:, :k], np.exp(0.5 * out[:, k:])
    means = [float(np.mean(mu[factors == lv])) for lv in CALIBRATION_SCALES]
    increasing = all(a < b for a, b in zip(means, means[1:]))
    mean_sig = [float(np.mean(sigma[factors == lv])) for lv in CALIBRATION_SCALES]
    sigma_increasing = all(a < b for a, b in zip(mean_sig, mean_sig[1:]))
    # variance observation is reported, not gated
    print(
        f"\n  [soft] mean predicted sigma per level: "
        f"{[f'{s:.4f}' for s in mean_sig]} (increasing: {sigma_increasing})"
    )
    report(
        6, "calibration monotonicity",
        increasing,
        f"level means {[f'{m:.4f}' for m in means]} strictly increasing={increasing}",
    )


@pytest.mark.slow
def test_criterion_07_adjusting_effects(canvas_model):
    # the sweep scoring adjust-exp runs
    means = adjust_means(canvas_model, CanvasConfig(seed=ADJUST_SEED, **CANVAS_CFG), n_sequences=50, steps=50)
    steps = np.arange(1, 51)
    rho_low = spearman_rho(steps, means[:, 0])
    rho_high = spearman_rho(steps, means[:, 2])
    ranges = means.max(axis=0) - means.min(axis=0)
    mid_frac = ranges[1] / ((ranges[0] + ranges[2]) / 2)
    ok = rho_low >= 0.9 and rho_high <= -0.9 and mid_frac <= 0.25
    report(
        7, "adjusting-significance pattern",
        ok,
        f"rho_low={rho_low:.3f} (>=0.9) rho_high={rho_high:.3f} (<=-0.9) "
        f"middle range fraction={mid_frac:.3f} (<=0.25)",
    )


@pytest.mark.slow
def test_criterion_08_classification_quality(feature_split, feature_models):
    _, (x, ranks) = feature_split
    params = feature_models["strong"]
    _, preds = predict_batch(params, x)
    rep = evaluate_dataset(preds, ranks)
    f1 = rep.f1 * 100
    hl = rep.hamming_loss * 100
    report(
        8, "classification quality",
        f1 >= 97.0 and hl <= 3.0,
        f"F1={f1:.2f} (>=97) HL={hl:.2f} (<=3)",
    )


def test_criterion_09_cli_determinism(tmp_path):
    import json
    import os

    from mlrank.cli import main

    def snapshot(d):
        out = {}
        for root, _, files in os.walk(d):
            for name in files:
                p = os.path.join(root, name)
                out[os.path.relpath(p, d)] = open(p, "rb").read()
        return out

    def rerun_identical(*argv):
        argv = [str(a) for a in argv]
        assert main(argv) == 0
        first = snapshot(argv[argv.index("--out") + 1])
        assert main(argv) == 0
        return snapshot(argv[argv.index("--out") + 1]) == first

    gen = tmp_path / "gen"
    ok_gen = rerun_identical(
        "generate", "--kind", "feature", "--n", "40", "--seed", "5", "--out", gen
    )
    cgen = tmp_path / "cgen"
    ccfg = tmp_path / "canvas.json"
    ccfg.write_text(json.dumps({
        "kind": "canvas",
        "canvas": {"canvas_size": 32, "glyph_size": 8, "setup": "S"},
    }))
    ok_cgen = rerun_identical(
        "generate", "--config", ccfg, "--n", "6", "--seed", "5", "--out", cgen,
        "--dump-images",
    )
    run = tmp_path / "run"
    tcfg = tmp_path / "train.json"
    tcfg.write_text(json.dumps({
        "dataset": str(gen / "dataset.jsonl"), "method": "lsep", "mode": "strong",
        "epochs": 2, "hidden": [6], "batch_size": 8,
    }))
    ok_train = rerun_identical("train", "--config", tcfg, "--seed", "3", "--out", run)
    ok_eval = rerun_identical(
        "eval", "--checkpoint", run / "checkpoint.json",
        "--dataset", gen / "dataset.jsonl", "--out", tmp_path / "ev",
    )
    crun = tmp_path / "crun"
    tcfg2 = tmp_path / "train2.json"
    tcfg2.write_text(json.dumps({
        "dataset": str(cgen / "dataset.jsonl"), "method": "gmlr", "mode": "strong",
        "epochs": 1, "hidden": [4], "batch_size": 4,
    }))
    ok_ctrain = rerun_identical("train", "--config", tcfg2, "--seed", "3", "--out", crun)
    acfg = tmp_path / "adj.json"
    acfg.write_text(json.dumps({
        "canvas": {"canvas_size": 32, "glyph_size": 8, "setup": "S"},
        "n_sequences": 3, "steps": 4,
    }))
    ok_adj = rerun_identical(
        "adjust-exp", "--config", acfg, "--checkpoint", crun / "checkpoint.json",
        "--seed", "9", "--out", tmp_path / "adj",
    )
    ok_cal = rerun_identical(
        "calib-exp", "--config", acfg, "--checkpoint", crun / "checkpoint.json",
        "--seed", "9", "--out", tmp_path / "cal",
    )
    ok_sig = rerun_identical(
        "extract-sig", "--checkpoint", run / "checkpoint.json",
        "--dataset", gen / "dataset.jsonl", "--class-index", "0",
        "--n-checkpoints", "5", "--out", tmp_path / "sig",
    )
    all_ok = all([ok_gen, ok_cgen, ok_train, ok_eval, ok_ctrain, ok_adj, ok_cal, ok_sig])
    report(
        9, "command determinism",
        all_ok,
        f"generate={ok_gen} canvas-generate={ok_cgen} train={ok_train} eval={ok_eval} "
        f"canvas-train={ok_ctrain} adjust={ok_adj} calib={ok_cal} extract={ok_sig}",
    )


def test_criterion_10_lsep_two_stage_contract():
    x, ranks, _ = feature_arrays(4, 8, 80, seed=23)
    base = dict(method="lsep", mode="strong", epochs=4, learning_rate=1e-2,
                hidden=(6,), seed=13)
    stage1_only, _ = train_arrays(x, ranks, TrainConfig(stage2_epochs=0, **base))
    full, _ = train_arrays(x, ranks, TrainConfig(stage2_epochs=5, **base))
    k = 4
    frozen_identical = all(
        np.array_equal(full.weights[i], stage1_only.weights[i])
        and np.array_equal(full.biases[i], stage1_only.biases[i])
        for i in range(len(full.weights) - 1)
    ) and np.array_equal(
        full.weights[-1][:, :k], stage1_only.weights[-1][:, :k]
    ) and np.array_equal(full.biases[-1][:k], stage1_only.biases[-1][:k])
    thresholds_moved = not np.array_equal(
        full.weights[-1][:, k:], stage1_only.weights[-1][:, k:]
    )
    report(
        10, "lsep two-stage freeze",
        frozen_identical and thresholds_moved,
        f"non-threshold parameters bit-identical={frozen_identical}, "
        f"threshold head trained={thresholds_moved}",
    )
