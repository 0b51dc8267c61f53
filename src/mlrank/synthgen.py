"""Deterministic synthetic ranked-dataset generators.

Canvas datasets place unique stroke digits (or IDX-loaded glyphs) on a
square canvas; an importance factor (digit scale or brightness) induces
the ground-truth ranks.  Setups: "S" varies scale only, "B" brightness
only, "S-mix"/"B-mix" vary both but rank by the named factor alone.  A
fast feature-space generator provides a linear surrogate for loss and
training studies.  Sequence and calibration generators build the probe
sets for the behavioural experiments.

All randomness flows through numpy's PCG64 generator seeded from the
config, so a (config, seed, n) triple reproduces byte-identical output
everywhere.  Canvas pixels are rounded to 3 decimals before leaving the
generator, which keeps the JSONL dumps compact; JSON round-trips floats
exactly, so files and in-memory datasets always agree.

JSONL dataset layout (also the loader contract for external data):
the first line is a header object {"k": classes, "d": feature length,
"generator": config echo}, plus "image_shape": [height, width, channels]
when the features are channels-last images, which then train behind the
image front end; every following line is one instance {"features":
[...], "ranks": [...]} with 0-based class positions.  ``k``, ``d``, the
shape's sizes and the ranks must be JSON integers: ``1.7``, ``1.0`` and
``true`` are data errors, not truncated or cast.  Features must be
finite and ranks non-negative.  The reader returns, and the writer
takes, the (n, d) features and (n, k) ranks as arrays.  Canvas files
written before the header declared ``image_shape`` read as feature data
and must be regenerated.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .buckets import RankedInstance
from .glyphs import GlyphBank, builtin_bank, hsv_to_rgb, load_idx_glyphs

SETUPS = ("S", "B", "S-mix", "B-mix")
CALIBRATION_SCALES = (1.0, 1.5, 2.0, 2.5)
# Brightness draws and sweeps start here at least, so every digit shows.
BRIGHTNESS_FLOOR = 0.05


@dataclass(frozen=True)
class CanvasConfig:
    canvas_size: int = 64
    num_classes: int = 10
    digit_count_range: tuple[int, int] = (1, 10)
    scale_range: tuple[float, float] = (1.0, 3.0)
    brightness_range: tuple[float, float] = (0.0, 1.0)
    color_mode: str = "gray"
    setup: str = "S"
    glyph_source: str = "builtin"
    seed: int = 0
    glyph_size: int = 16
    idx_images: str | None = None
    idx_labels: str | None = None

    def __post_init__(self):
        if self.setup not in SETUPS:
            raise ValueError(f"setup must be one of {SETUPS}")
        if self.color_mode not in ("gray", "color"):
            raise ValueError("color_mode must be 'gray' or 'color'")
        if self.glyph_source not in ("builtin", "idx-file"):
            raise ValueError("glyph_source must be 'builtin' or 'idx-file'")
        if not 1 <= self.num_classes <= 10:
            raise ValueError("num_classes must be within 1..10")
        lo, hi = self.digit_count_range
        if not 1 <= lo <= hi <= self.num_classes:
            raise ValueError("digit_count_range must satisfy 1 <= lo <= hi <= num_classes")
        if self.scale_range[0] < 1.0 or self.scale_range[0] > self.scale_range[1]:
            raise ValueError("scale_range must satisfy 1 <= lo <= hi")
        blo, bhi = self.brightness_range
        if not (0.0 <= blo <= bhi <= 1.0):
            raise ValueError("brightness_range must lie within [0, 1]")
        if self.uses_brightness and bhi < BRIGHTNESS_FLOOR:
            raise ValueError(f"brightness_range must reach the brightness floor {BRIGHTNESS_FLOOR}")
        flo, fhi = self.scale_range if self.ranked_factor == "scale" else self.brightness_bounds
        if flo == fhi and self.digit_count_range[1] > 1:
            raise ValueError(
                f"{self.ranked_factor} range [{flo}, {fhi}] is degenerate: digits would tie in rank"
            )
        if self.glyph_size < 4:
            raise ValueError("glyph_size must be at least 4")
        max_scale = self.scale_range[1] if self.uses_scale else 1.0
        if int(round(self.glyph_size * max_scale)) > self.canvas_size:
            raise ValueError(
                "placement infeasible: glyph_size * max scale exceeds canvas_size"
            )

    @property
    def uses_scale(self) -> bool:
        return self.setup in ("S", "S-mix", "B-mix")

    @property
    def uses_brightness(self) -> bool:
        return self.setup in ("B", "S-mix", "B-mix")

    @property
    def brightness_bounds(self) -> tuple[float, float]:
        """The range brightness is drawn and swept over."""
        return max(self.brightness_range[0], BRIGHTNESS_FLOOR), self.brightness_range[1]

    @property
    def ranked_factor(self) -> str:
        return "scale" if self.setup.startswith("S") else "brightness"

    @property
    def channels(self) -> int:
        return 3 if self.color_mode == "color" else 1

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return (self.canvas_size, self.canvas_size, self.channels)

    @property
    def feature_length(self) -> int:
        return self.canvas_size * self.canvas_size * self.channels

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class DigitFactors:
    digit: int
    scale: float
    brightness: float
    top: int
    left: int
    hue: float | None = None
    saturation: float | None = None

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if self.hue is None:
            d.pop("hue")
            d.pop("saturation")
        return d


@dataclass(frozen=True)
class GeneratedSample:
    pixels: np.ndarray
    ranks: np.ndarray
    factors: tuple[DigitFactors, ...]
    image_shape: tuple[int, int, int]

    def to_instance(self) -> RankedInstance:
        return RankedInstance(features=self.pixels, ranks=self.ranks, image_shape=self.image_shape)


@dataclass(frozen=True)
class AdjustSequence:
    """One probe sequence: the swept digits (low, middle, high roles) and
    the per-step samples."""

    digits: tuple[int, int, int]
    samples: tuple[GeneratedSample, ...]


def _glyph_bank(cfg: CanvasConfig) -> GlyphBank:
    if cfg.glyph_source == "builtin":
        return builtin_bank()
    if not cfg.idx_images or not cfg.idx_labels:
        raise ValueError("glyph source unavailable: idx-file requires idx_images and idx_labels")
    return load_idx_glyphs(cfg.idx_images, cfg.idx_labels)


def _ranks_from_factors(num_classes: int, digits, factors) -> np.ndarray:
    """Dense positive ranks 1..m by ascending factor; exact factor ties
    break by ascending digit index."""
    ranks = np.zeros(num_classes, dtype=int)
    order = sorted(range(len(digits)), key=lambda i: (factors[i], digits[i]))
    for rank, i in enumerate(order, start=1):
        ranks[digits[i]] = rank
    return ranks


def _digit(cfg: CanvasConfig, rng, digit: int, scale: float, brightness: float) -> DigitFactors:
    """Draw a digit's hue and saturation (colour canvases only), then a
    position that fits it at ``scale``; returns its factors."""
    hue = float(rng.uniform()) if cfg.color_mode == "color" else None
    sat = float(rng.uniform()) if cfg.color_mode == "color" else None
    px = max(4, int(round(cfg.glyph_size * scale)))
    top = int(rng.integers(0, cfg.canvas_size - px + 1))
    left = int(rng.integers(0, cfg.canvas_size - px + 1))
    return DigitFactors(
        digit=digit, scale=scale, brightness=brightness, top=top, left=left, hue=hue, saturation=sat
    )


def _sample(cfg: CanvasConfig, bank: GlyphBank, placed: list[DigitFactors], rng=None) -> GeneratedSample:
    """The sample of the placed digits: ranks by the setup's named factor
    (exact ties break by ascending digit index), and the digits rendered
    onto a fresh canvas (max compositing)."""
    factors = [getattr(pf, cfg.ranked_factor) for pf in placed]
    ranks = _ranks_from_factors(cfg.num_classes, [pf.digit for pf in placed], factors)
    size = cfg.canvas_size
    if cfg.color_mode == "color":
        canvas = np.zeros((size, size, 3))
    else:
        canvas = np.zeros((size, size))
    if rng is None and bank.glyphs is not None:
        # Only stored banks draw from the rng: which glyph to use.
        rng = np.random.default_rng(0)
    for pf in placed:
        px = max(4, int(round(cfg.glyph_size * pf.scale)))
        glyph = bank.render(pf.digit, px, rng) * pf.brightness
        region = (slice(pf.top, pf.top + px), slice(pf.left, pf.left + px))
        if cfg.color_mode == "color":
            patch = hsv_to_rgb(pf.hue, pf.saturation, glyph)
            canvas[region] = np.maximum(canvas[region], patch)
        else:
            canvas[region] = np.maximum(canvas[region], glyph)
    return GeneratedSample(
        pixels=np.round(canvas, 3).reshape(-1), ranks=ranks,
        factors=tuple(placed), image_shape=cfg.image_shape,
    )


def _one_canvas_sample(cfg: CanvasConfig, bank: GlyphBank, rng) -> GeneratedSample:
    lo, hi = cfg.digit_count_range
    count = int(rng.integers(lo, hi + 1))
    placed = []
    for digit in rng.choice(cfg.num_classes, size=count, replace=False):
        scale = float(rng.uniform(*cfg.scale_range)) if cfg.uses_scale else 1.0
        brightness = float(rng.uniform(*cfg.brightness_bounds)) if cfg.uses_brightness else 1.0
        placed.append(_digit(cfg, rng, int(digit), scale, brightness))
    factors = [getattr(pf, cfg.ranked_factor) for pf in placed]
    if len(set(factors)) != len(factors):
        raise ValueError("tied importance factors: widen the ranked factor's range")
    return _sample(cfg, bank, placed, rng)


def generate_canvas_dataset(cfg: CanvasConfig, n: int) -> list[GeneratedSample]:
    """n canvas samples; digit count uniform over the configured range,
    digits unique per image, ranks induced by the setup's named factor."""
    bank = _glyph_bank(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    return [_one_canvas_sample(cfg, bank, rng) for _ in range(n)]


def generate_small_variance_dataset(cfg: CanvasConfig, n: int) -> list[GeneratedSample]:
    """Scale-ranked canvas dataset with the scale range narrowed to [1, 1.5]."""
    if not cfg.setup.startswith("S"):
        raise ValueError("setup mismatch: small-variance dataset requires a scale-ranked setup")
    return generate_canvas_dataset(dataclasses.replace(cfg, scale_range=(1.0, 1.5)), n)


def generate_calibration_set(cfg: CanvasConfig, n: int = 50) -> list[GeneratedSample]:
    """Samples with exactly 4 positive digits whose scales are a random
    bijection onto {1.0, 1.5, 2.0, 2.5}; ranks follow the scale levels."""
    if not cfg.setup.startswith("S"):
        raise ValueError("setup mismatch: calibration requires a scale-ranked setup")
    if int(round(cfg.glyph_size * max(CALIBRATION_SCALES))) > cfg.canvas_size:
        raise ValueError("placement infeasible: calibration scales exceed canvas_size")
    bank = _glyph_bank(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    samples = []
    for _ in range(n):
        digits = rng.choice(cfg.num_classes, size=4, replace=False)
        scales = [CALIBRATION_SCALES[int(i)] for i in rng.permutation(4)]
        placed = [_digit(cfg, rng, int(d), scale, 1.0) for d, scale in zip(digits, scales)]
        samples.append(_sample(cfg, bank, placed, rng))
    return samples


def generate_adjust_sequences(
    cfg: CanvasConfig, n_sequences: int = 50, steps: int = 50
) -> list[AdjustSequence]:
    """Every sequence of ``iter_adjust_sequences``, as a list."""
    return list(iter_adjust_sequences(cfg, n_sequences, steps))


def iter_adjust_sequences(cfg: CanvasConfig, n_sequences: int = 50, steps: int = 50):
    """Yields probe sequences of 3 digits at fixed positions whose named
    factors sweep linearly: the low digit from the range minimum to its
    maximum, the high digit the opposite way, the middle digit constant.
    Each sequence is built only when it is asked for."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    bank = _glyph_bank(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    by_scale = cfg.ranked_factor == "scale"
    lo, hi = cfg.scale_range if by_scale else cfg.brightness_bounds
    mid = 0.5 * (lo + hi)
    for _ in range(n_sequences):
        digits = tuple(int(d) for d in rng.choice(cfg.num_classes, size=3, replace=False))
        # Each role is placed to fit its largest sweep extent.
        roles = [
            _digit(cfg, rng, digit, extent if by_scale else 1.0, 1.0)
            for digit, extent in zip(digits, (hi, mid, hi))
        ]
        samples = []
        for step in range(steps):
            t = step / (steps - 1)
            factors = (lo + t * (hi - lo), mid, hi - t * (hi - lo))
            placed = [
                DigitFactors(
                    digit=r.digit, scale=f if by_scale else 1.0, brightness=1.0 if by_scale else f,
                    top=r.top, left=r.left, hue=r.hue, saturation=r.saturation,
                )
                for r, f in zip(roles, factors)
            ]
            samples.append(_sample(cfg, bank, placed))
        yield AdjustSequence(digits=digits, samples=tuple(samples))


def generate_feature_dataset(
    num_classes: int,
    dim: int,
    n: int,
    factor_range: tuple[float, float] = (0.5, 3.0),
    seed: int = 0,
    noise: float = 0.05,
) -> list[RankedInstance]:
    """Linear surrogate dataset: every class owns a fixed random unit
    direction; an instance is the sum of factor * direction over its
    present classes plus Gaussian noise, ranked by factor.

    Class presence is a uniform random subset, redrawn when empty so
    every instance has at least one positive.
    """
    if dim < num_classes:
        raise ValueError("dim must be at least num_classes")
    if factor_range[0] <= 0 or factor_range[0] >= factor_range[1]:
        raise ValueError("factor_range must satisfy 0 < lo < hi")
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.standard_normal((num_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    instances = []
    for _ in range(n):
        mask = rng.integers(0, 2, size=num_classes).astype(bool)
        while not mask.any():
            mask = rng.integers(0, 2, size=num_classes).astype(bool)
        factors = rng.uniform(factor_range[0], factor_range[1], size=num_classes) * mask
        features = factors @ directions
        if noise:
            features = features + noise * rng.standard_normal(dim)
        present = np.flatnonzero(mask)
        values = factors[present]
        if len(set(values.tolist())) != len(values):
            raise RuntimeError("tied factors; ranks would not be dense")
        ranks = _ranks_from_factors(num_classes, present.tolist(), values.tolist())
        instances.append(RankedInstance(features=features, ranks=ranks))
    return instances


# ---------------------------------------------------------------------------
# Serialization


def _checked_header(header) -> tuple[int, int]:
    """(k, d) of a dataset header that keeps the layout's rules (above)."""
    if not isinstance(header, dict):
        raise ValueError(f"header must be a JSON object, got {header!r}")
    # bool is an int subclass; only true JSON integers count here.
    for key in ("k", "d"):
        if type(header.get(key)) is not int or header[key] < 1:
            raise ValueError(f"header '{key}' must be a positive JSON integer, got {header.get(key)!r}")
    k, d, shape = header["k"], header["d"], header.get("image_shape")
    if "image_shape" in header and not (
        isinstance(shape, list) and len(shape) == 3 and all(type(v) is int and v > 0 for v in shape)
        and shape[0] * shape[1] * shape[2] == d
    ):
        raise ValueError(f"image_shape must be 3 positive JSON integers of product d={d}, got {shape!r}")
    return k, d


def write_dataset_jsonl(path, x, ranks, generator: dict | None = None, image_shape=None) -> None:
    """Write the (n, d) features and (n, k) ranks behind a {"k", "d",
    "generator"} header, plus "image_shape" when the features are images.
    What the reader would refuse is refused before anything is written."""
    x = np.asarray(x, dtype=float)
    ranks = np.asarray(ranks)
    if x.ndim != 2 or ranks.ndim != 2 or len(x) != len(ranks) or not len(x):
        raise ValueError(f"need (n, d) features and (n, k) ranks, n >= 1; got {x.shape}, {ranks.shape}")
    if not np.issubdtype(ranks.dtype, np.integer) or np.any(ranks < 0) or not np.all(np.isfinite(x)):
        raise ValueError("features must be finite and ranks non-negative integers")
    header = {"k": ranks.shape[1], "d": x.shape[1], "generator": generator or {}}
    if image_shape is not None:
        header["image_shape"] = list(image_shape)
    _checked_header(header)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        # Row by row: x.tolist() would hold every value as a Python float.
        for feats, row_ranks in zip(x, ranks):
            row = {"features": feats.tolist(), "ranks": row_ranks.tolist()}
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def read_dataset_jsonl(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read a JSONL dataset; returns (header, x, ranks), the (n, d) float
    features and the (n, k) int ranks.

    A malformed header or row, a non-finite feature or a negative rank is
    a ValueError that names ``file:line``.  A row's features become an
    array as its line is read, so they are never all Python floats at once.
    """
    rows, rank_rows = [], []
    with open(path, "r", encoding="ascii") as fh:
        lineno = 1
        try:
            header = json.loads(fh.readline())
            k, d = _checked_header(header)
            for lineno, line in enumerate(fh, start=2):
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(f"an instance must be a JSON object, got {type(row).__name__}")
                ranks = row.get("ranks")
                if not isinstance(ranks, list) or not all(type(r) is int and r >= 0 for r in ranks):
                    raise ValueError(f"ranks must be a list of non-negative JSON integers, got {ranks!r}")
                feats = np.asarray(row.get("features"), dtype=float)
                if feats.ndim != 1 or feats.size != d or len(ranks) != k:
                    raise ValueError("instance shape does not match header")
                if not np.all(np.isfinite(feats)):
                    raise ValueError("features must be finite")
                rows.append(feats)
                rank_rows.append(ranks)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: dataset has a header but no instances")
    return header, np.stack(rows), np.array(rank_rows, dtype=int)


def write_pgm(path, img: np.ndarray) -> None:
    """Binary PGM (P5) from a 2-d array in [0, 1]."""
    data = np.clip(np.round(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_ppm(path, img: np.ndarray) -> None:
    """Binary PPM (P6) from an (h, w, 3) array in [0, 1]."""
    data = np.clip(np.round(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    h, w, _ = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def dump_images(directory, samples) -> None:
    """One PPM (3 channels) or PGM (1 channel) per sample plus a
    labels.jsonl sidecar with ranks and the per-digit factor records."""
    import os

    os.makedirs(directory, exist_ok=True)
    sidecar = os.path.join(directory, "labels.jsonl")
    with open(sidecar, "w", encoding="ascii", newline="\n") as fh:
        for i, sample in enumerate(samples):
            img = sample.pixels.reshape(sample.image_shape)
            if img.shape[2] == 3:
                name = f"{i:05d}.ppm"
                write_ppm(os.path.join(directory, name), img)
            else:
                name = f"{i:05d}.pgm"
                write_pgm(os.path.join(directory, name), img[:, :, 0])
            row = {
                "image": name,
                "ranks": sample.ranks.tolist(),
                "factors": [pf.to_dict() for pf in sample.factors],
            }
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
