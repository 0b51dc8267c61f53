"""Command-line harness: dataset generation, training, evaluation, and
the behavioural experiments.

Every command takes a declarative JSON config (``--config``), lays each
flag given on the command line over it (``_settings``), and refuses any
key the command does not read.  ``adjust-exp`` and ``calib-exp`` read
one shared key set, so one config file serves both.  Every command
requires an output directory and writes a ``resolved_config.json``
echo next to its outputs; re-running any command with the same
resolved config and seed reproduces its output files byte for byte.
``adjust-exp`` forwards each sweep's block of distinct canvases once
(``adjust_means``); each step takes the scores of its row of the block.
One worker thread paints the next sweep while the current one is
forwarded; it alone advances the sweeps, so the outputs do not depend on
the scheduling.

Each setting has one rule, kept where the setting is used: ``TrainConfig``,
``CanvasConfig``, ``feature_arrays``, the canvas generators and
``iter_adjust_sweeps`` refuse what they cannot use, naming the config
key.  A command checks, with the same rules (``settings``), only what no
library call does: ``raw`` and ``dump_images``, the ``canvas`` and
``feature`` sections, a probe checkpoint's ``meta.trained_on``,
calib-exp's ``n`` of at least 2, ``class_index`` and ``n_checkpoints``.
``generate``, ``adjust-exp`` and ``calib-exp`` draw their arrays before
they create ``--out``, so a refusal leaves none.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .buckets import MODES
from .dataio import read_dataset_jsonl, write_dataset_jsonl
from .metrics import evaluate_dataset
from .model import (
    METHODS,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train_arrays,
)
from .synthgen import (
    CALIBRATION_SCALES,
    CanvasConfig,
    calibration_arrays,
    canvas_arrays,
    feature_arrays,
    iter_adjust_sweeps,
    small_variance_config,
)
from .settings import flag, integer, json_object


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    # ValueError covers a JSON or a text decoding error.
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise UsageError(f"missing required setting '{key}' (config key or flag)")
    return cfg[key]


def _out_dir(cfg: dict) -> str:
    out = _require(cfg, "out")
    os.makedirs(out, exist_ok=True)
    return out


def _write_echo(out: str, command: str, resolved: dict) -> None:
    doc = {"command": command, **resolved}
    with open(os.path.join(out, "resolved_config.json"), "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _refuse_unknown(cfg: dict, known, what: str) -> None:
    unknown = set(cfg) - set(known)
    if unknown:
        raise UsageError(f"unknown {what} config keys: {sorted(unknown)}")


def _settings(args, known) -> dict:
    """The ``--config`` file with every flag given on the command line
    laid over it; a key outside ``known`` is a usage error."""
    cfg = _load_config(args.config)
    for key, value in vars(args).items():
        if key not in ("command", "func", "config") and value is not None:
            cfg[key] = value
    _refuse_unknown(cfg, known, args.command)
    return cfg


def _canvas_config(d: dict, seed) -> CanvasConfig:
    # The seed is the command's own setting, not a canvas key.
    _refuse_unknown(d, (f.name for f in dataclasses.fields(CanvasConfig) if f.name != "seed"), "canvas")
    return CanvasConfig(**d, seed=seed)


_TRAIN_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig))
# adjust-exp and calib-exp read one config file, so they share one key set.
_PROBE_KEYS = ("seed", "out", "checkpoint", "canvas", "n", "n_sequences", "steps")


def _feature_config(d: dict) -> dict:
    defaults = {"num_classes": 6, "dim": 24, "factor_range": [0.5, 3.0], "noise": 0.05}
    _refuse_unknown(d, defaults, "feature")
    return {**defaults, **d}


def _load_model_and_data(cfg):
    """(params, x, ranks) of a checkpoint and a dataset of its k, d and image_shape."""
    params, _ = load_checkpoint(_require(cfg, "checkpoint"))
    header, x, ranks = read_dataset_jsonl(_require(cfg, "dataset"))
    shape = None if params.front_end is None else list(params.front_end.image_shape)
    want = {"k": params.num_classes, "d": params.input_dim, "image_shape": shape}
    got = {key: header.get(key) for key in want}
    if got != want:
        raise ValueError(f"dataset {got} does not match the checkpoint's {want}")
    return params, x, ranks


def _probe_setup(cfg: dict):
    """(params, canvas) of a probe experiment: a canvas and a checkpoint
    of its classes and feature length; warns when the checkpoint was
    trained on another setup.  The probe set's generator refuses a
    canvas it cannot be drawn on; a missing ``out`` is refused before."""
    canvas = _canvas_config(json_object(cfg.get("canvas", {}), "canvas"), _require(cfg, "seed"))
    params, section = load_checkpoint(_require(cfg, "checkpoint"))
    # The setup of meta.trained_on.canvas, when the checkpoint records one.
    key = "meta"
    for part in ("trained_on", "canvas"):
        key = f"{key}.{part}"
        section = json_object(section.get(part, {}), key)
    setup = section.get("setup")
    if setup is not None and setup != canvas.setup:
        print(
            f"warning: checkpoint was trained on setup {setup!r}, experiment uses {canvas.setup!r}",
            file=sys.stderr,
        )
    if canvas.num_classes != params.num_classes:
        raise ValueError(
            f"class-count mismatch: checkpoint has {params.num_classes} classes, canvas has {canvas.num_classes}"
        )
    if canvas.feature_length != params.input_dim:
        raise ValueError(
            f"feature-length mismatch: checkpoint expects {params.input_dim}, canvas yields {canvas.feature_length}"
        )
    _require(cfg, "out")
    return params, canvas


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(args) -> int:
    cfg = _settings(args, ("seed", "out", "n", "kind", "dump_images", "canvas", "feature"))
    seed, n, out = _require(cfg, "seed"), _require(cfg, "n"), _require(cfg, "out")
    kind = cfg.get("kind", "canvas")
    dump_images = flag(cfg.get("dump_images", False), "dump_images")
    # No ``out`` in the header's echo: the bytes must not depend on it.
    resolved: dict = {"kind": kind, "n": n, "seed": seed}
    image_shape = None
    if kind == "feature":
        feature = _feature_config(json_object(cfg.get("feature", {}), "feature"))
        x, ranks, _ = feature_arrays(n=n, seed=seed, **feature)
        # Built once the settings are accepted, so float() sees no bad noise.
        resolved["feature"] = {**feature, "noise": float(feature["noise"])}
    elif kind in ("canvas", "small-variance"):
        canvas = _canvas_config(json_object(cfg.get("canvas", {}), "canvas"), seed)
        resolved["canvas"] = canvas.to_dict()
        if dump_images:
            resolved["dump_images"] = True
        image_dir = os.path.join(out, "images") if dump_images else None
        drawn = small_variance_config(canvas) if kind == "small-variance" else canvas
        x, ranks, _ = canvas_arrays(drawn, n, image_dir)
        image_shape = canvas.image_shape
    else:
        raise UsageError(f"unknown dataset kind {kind!r}")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "dataset.jsonl")
    write_dataset_jsonl(path, x, ranks, generator=resolved, image_shape=image_shape)
    _write_echo(out, "generate", {**resolved, "out": out})
    print(f"wrote {len(x)} instances to {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _settings(args, ("dataset", "out", *_TRAIN_FIELDS))
    _require(cfg, "seed")
    tc = TrainConfig(**{k: cfg[k] for k in _TRAIN_FIELDS if k in cfg})
    header, x, ranks = read_dataset_jsonl(_require(cfg, "dataset"))
    out = _out_dir(cfg)
    params, log = train_arrays(x, ranks, tc, header.get("image_shape"))
    meta = {
        "mode": tc.mode,
        "train_config": dataclasses.asdict(tc),
        "trained_on": header.get("generator", {}),
    }
    save_checkpoint(os.path.join(out, "checkpoint.json"), params, meta)
    _write_csv(
        os.path.join(out, "loss_log.csv"),
        ["epoch", "stage", "loss", "lr"],
        [(e, s, repr(l), repr(lr)) for e, s, l, lr in log],
    )
    resolved = {"dataset": cfg["dataset"], "out": out, **dataclasses.asdict(tc)}
    _write_echo(out, "train", resolved)
    print(f"trained {tc.method}/{tc.mode} for {len(log)} epochs; checkpoint in {out}")
    return 0


_METRIC_COLUMNS = ("tau_b", "s_rho", "gamma", "hl", "m1", "f1")


def cmd_eval(args) -> int:
    cfg = _settings(args, ("out", "checkpoint", "dataset", "raw"))
    raw = flag(cfg.get("raw", False), "raw")
    params, x, ranks = _load_model_and_data(cfg)
    out = _out_dir(cfg)
    _, preds = predict_batch(params, x)
    report = evaluate_dataset(preds, ranks)
    scale = 1.0 if raw else 100.0
    values = [
        report.tau_b * scale,
        report.spearman_rho * scale,
        report.gamma * scale,
        report.hamming_loss * scale,
        report.max1 * scale,
        report.f1 * scale,
    ]
    row = (
        [report.n_instances]
        + [repr(v) for v in values]
        + [report.skipped_tau_b, report.skipped_spearman_rho, report.skipped_gamma, report.skipped_max1]
    )
    header = (
        ["n_instances"]
        + list(_METRIC_COLUMNS)
        + ["skipped_tau_b", "skipped_s_rho", "skipped_gamma", "skipped_m1"]
    )
    _write_csv(os.path.join(out, "metrics.csv"), header, [row])
    resolved = {"checkpoint": cfg["checkpoint"], "dataset": cfg["dataset"], "out": out, "raw": raw}
    _write_echo(out, "eval", resolved)
    print(", ".join(f"{k}={v}" for k, v in zip(header, row)))
    return 0


def adjust_means(params, canvas: CanvasConfig, n_sequences: int, steps: int) -> np.ndarray:
    """(steps, 3) mean scores of the low, middle and high digits over the
    ``iter_adjust_sweeps`` of ``canvas``.

    One worker thread paints the sweeps, at most one ahead, into two
    blocks allocated on this thread (``ring``): it paints sweep i+1 while
    this thread forwards sweep i, whose BLAS products release the GIL.
    Only the worker advances the sweeps and only this thread adds up
    their scores, in sweep order, so the result does not depend on the
    scheduling.  An error in either is raised here once the worker has
    stopped.  A sweep's block of distinct canvases forwards as one batch,
    and each step takes the scores of its row (``index``).  The scores are
    those of forwarding every step wherever the BLAS gives a row the same
    bits in a product of either row count, and otherwise differ from them
    by rounding alone."""
    # The worker paints sweep i+2 only once this thread has added up
    # sweep i, so two blocks serve every sweep.
    sweeps = iter_adjust_sweeps(canvas, n_sequences=n_sequences, steps=steps, ring=2)
    sums = np.zeros((steps, 3))
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(next, sweeps)
        for i in range(n_sequences):
            digits, _, _, block, index = ahead.result()
            if i + 1 < n_sequences:
                ahead = worker.submit(next, sweeps)
            _, pred = predict_batch(params, block)
            sums += pred.scores[index][:, list(digits)]
    return sums / n_sequences


def cmd_adjust_exp(args) -> int:
    cfg = _settings(args, _PROBE_KEYS)
    n_sequences, steps = cfg.get("n_sequences", 50), cfg.get("steps", 50)
    params, canvas = _probe_setup(cfg)
    means = adjust_means(params, canvas, n_sequences, steps)
    out = _out_dir(cfg)
    rows = [
        (step + 1, repr(float(means[step, 0])), repr(float(means[step, 1])), repr(float(means[step, 2])))
        for step in range(steps)
    ]
    _write_csv(
        os.path.join(out, "adjust.csv"),
        ["step", "mean_score_low_digit", "mean_score_middle_digit", "mean_score_high_digit"],
        rows,
    )
    resolved = {
        "checkpoint": cfg["checkpoint"], "out": out, "seed": canvas.seed,
        "n_sequences": n_sequences, "steps": steps, "canvas": canvas.to_dict(),
    }
    _write_echo(out, "adjust-exp", resolved)
    print(f"wrote {steps} step rows to {os.path.join(out, 'adjust.csv')}")
    return 0


def cmd_calib_exp(args) -> int:
    cfg = _settings(args, _PROBE_KEYS)
    # Every sample puts one digit at each level; a std needs two.
    n = integer(cfg.get("n", 50), "n", 2)
    params, canvas = _probe_setup(cfg)
    x, _, factors = calibration_arrays(canvas, n)
    out_heads, pred = predict_batch(params, x)
    # gmlr's second head is the log-variance; other methods have no sigma.
    sigma = np.exp(0.5 * out_heads[:, params.num_classes :]) if params.head == "gmlr" else None
    rows = []
    for lv in CALIBRATION_SCALES:
        at = factors == lv
        vals = pred.scores[at]
        mean_sigma = float(np.mean(sigma[at])) if sigma is not None else float("nan")
        rows.append((lv, repr(float(np.mean(vals))), repr(float(np.std(vals, ddof=1))), repr(mean_sigma)))
    out = _out_dir(cfg)
    _write_csv(
        os.path.join(out, "calibration.csv"),
        ["level", "mean", "std", "mean_pred_sigma"],
        rows,
    )
    resolved = {
        "checkpoint": cfg["checkpoint"], "out": out, "seed": canvas.seed, "n": n,
        "canvas": canvas.to_dict(),
    }
    _write_echo(out, "calib-exp", resolved)
    print(f"wrote {len(rows)} level rows to {os.path.join(out, 'calibration.csv')}")
    return 0


def cmd_extract_sig(args) -> int:
    cfg = _settings(args, ("out", "checkpoint", "dataset", "class_index", "n_checkpoints"))
    class_index = integer(_require(cfg, "class_index"), "class_index")
    n_checkpoints = integer(cfg.get("n_checkpoints", 10), "n_checkpoints", 1)
    params, x, _ = _load_model_and_data(cfg)
    if class_index >= params.num_classes:
        raise ValueError(
            f"'class_index' must be below the checkpoint's {params.num_classes} classes, got {class_index}"
        )
    n = len(x)
    if n_checkpoints > n:
        raise ValueError(f"'n_checkpoints' must be at most the dataset's {n} instances, got {n_checkpoints}")
    out = _out_dir(cfg)
    _, pred = predict_batch(params, x)
    scores = pred.scores[:, class_index]
    order = np.argsort(scores, kind="stable")
    if n_checkpoints == 1:
        positions = [0]
    else:
        positions = [math.floor(i * (n - 1) / (n_checkpoints - 1)) for i in range(n_checkpoints)]
    rows = [
        (pos, int(order[pos]), repr(float(scores[order[pos]]))) for pos in positions
    ]
    _write_csv(
        os.path.join(out, "significance.csv"),
        ["sorted_position", "dataset_index", "score"],
        rows,
    )
    resolved = {
        "checkpoint": cfg["checkpoint"], "dataset": cfg["dataset"], "out": out,
        "class_index": class_index, "n_checkpoints": n_checkpoints,
    }
    _write_echo(out, "extract-sig", resolved)
    print(f"wrote {len(rows)} checkpoints to {os.path.join(out, 'significance.csv')}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlrank", description="Multi-label ranking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, help="PRNG seed (overrides config)")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("generate", help="generate a synthetic ranked dataset")
    common(p)
    p.add_argument("--n", type=int, help="number of instances")
    p.add_argument("--kind", choices=("canvas", "feature", "small-variance"))
    p.add_argument("--dump-images", action="store_true", default=None, dest="dump_images")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a JSONL dataset")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p, seed=False)
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")
    p.add_argument("--raw", action="store_true", default=None, help="emit [0,1] scale instead of x100")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("adjust-exp", help="averaged scores along factor sweeps")
    common(p)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_adjust_exp)

    p = sub.add_parser("calib-exp", help="score statistics per significance level")
    common(p)
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_calib_exp)

    p = sub.add_parser("extract-sig", help="equidistant checkpoints along one class's scores")
    common(p, seed=False)
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")
    p.add_argument("--class-index", type=int, dest="class_index")
    p.add_argument("--n-checkpoints", type=int, dest="n_checkpoints")
    p.set_defaults(func=cmd_extract_sig)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
