"""Remake the checkpoints that the ``probe`` workload reads.

They use the acceptance suite's data and training settings
(``tests/test_acceptance.py``): the canvas model is its gmlr strong
model behind the image front end (12,000 canvases of seed 201, 100
epochs), and the strong gmlr, crpc and lsep feature models are trained
like its feature models (the first 4000 of 5000 feature instances of
seed 101, 120 epochs).  Training is seeded and runs at one OpenBLAS
thread.

    python3 perfbench/remake_checkpoints.py            # all four
    python3 perfbench/remake_checkpoints.py canvas     # one of them

On a shared 2-core x86-64 Xeon the canvas model took 543 s and the
three feature models 107, 45 and 51 s.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mlrank.model import TrainConfig, save_checkpoint, train  # noqa: E402
from mlrank.synthgen import CanvasConfig, generate_canvas_dataset, generate_feature_dataset  # noqa: E402

CHECKPOINTS = os.path.join(HERE, "checkpoints")

# The acceptance suite's datasets and training settings.
FEATURE_SEED = 101
FEATURE_N = 5000
FEATURE_N_TRAIN = 4000
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

MODELS = ("canvas", "gmlr", "crpc", "lsep")


def checkpoint_path(name: str) -> str:
    if name == "canvas":
        return os.path.join(CHECKPOINTS, "canvas_gmlr_strong.json")
    return os.path.join(CHECKPOINTS, f"feature_{name}_strong.json")


def _save(name, params, cfg: TrainConfig, trained_on: dict) -> None:
    meta = {"mode": cfg.mode, "train_config": dataclasses.asdict(cfg), "trained_on": trained_on}
    save_checkpoint(checkpoint_path(name), params, meta)


def remake(name: str) -> None:
    start = time.perf_counter()
    if name == "canvas":
        canvas = CanvasConfig(seed=CANVAS_SEED, **CANVAS_CFG)
        data = [s.to_instance() for s in generate_canvas_dataset(canvas, CANVAS_N_TRAIN)]
        cfg = TrainConfig(method="gmlr", mode="strong", **CANVAS_TRAIN)
        trained_on = {"kind": "canvas", "n": CANVAS_N_TRAIN, "seed": CANVAS_SEED, "canvas": canvas.to_dict()}
    else:
        data = generate_feature_dataset(n=FEATURE_N, seed=FEATURE_SEED, **FEATURE_CFG)[:FEATURE_N_TRAIN]
        cfg = TrainConfig(method=name, mode="strong", **FEATURE_TRAIN)
        trained_on = {
            "kind": "feature", "n": FEATURE_N, "seed": FEATURE_SEED, "train_slice": [0, FEATURE_N_TRAIN],
            "feature": {**FEATURE_CFG, "factor_range": list(FEATURE_CFG["factor_range"])},
        }
    params, _ = train(data, cfg)
    _save(name, params, cfg, trained_on)
    print(f"{name}: wrote {checkpoint_path(name)} in {time.perf_counter() - start:.0f} s", flush=True)


def main(argv) -> int:
    names = argv or list(MODELS)
    unknown = [n for n in names if n not in MODELS]
    if unknown:
        print(f"unknown model(s) {unknown}; choose from {MODELS}", file=sys.stderr)
        return 1
    os.makedirs(CHECKPOINTS, exist_ok=True)
    for name in names:
        remake(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
