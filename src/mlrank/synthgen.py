"""Deterministic synthetic ranked-dataset generators.

Canvas datasets place unique stroke digits (or IDX-loaded glyphs) on a
square canvas; an importance factor (digit scale or brightness) induces
the ground-truth ranks.  Setups: "S" varies scale only, "B" brightness
only, "S-mix"/"B-mix" vary both but rank by the named factor alone.  A
fast feature-space generator provides a linear surrogate for loss and
training studies.  Sequence and calibration generators build the probe
sets for the behavioural experiments.  Every dataset generator
(``feature_arrays``, ``canvas_arrays``, ``calibration_arrays``) returns
``(x, ranks, factors)``: a factor row holds the ranked factor of each
present class and 0 for an absent one, and the one rank rule,
``buckets.dense_ranks(factors, factors > 0)``, ranks each row dense 1..m
by ascending factor, exact ties broken by class index: of two tied
classes the lower index takes the higher rank.  Each fills its arrays a
row at a time, painting every canvas into its row of one block through
``_paint``.  Glyphs are drawn at whole-pixel sizes (``_glyph_px``), so
an adjusting sweep's consecutive steps often draw the same canvas; its
block holds each distinct canvas once, and an index maps steps to rows.
``RankedInstance`` and the record wrappers (``generate_*``) serve only the
benchmark's scripts; their records are views over the same rows.

All randomness flows through numpy's PCG64 generator seeded from the
config, so a (config, seed, n) triple reproduces byte-identical output
everywhere.  Canvas pixels are rounded to 3 decimals before leaving the
generator, which keeps the JSONL dumps compact; JSON round-trips floats
exactly, so files and in-memory datasets always agree.  The dataset
files and the canvas images are written and read by ``dataio``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .buckets import checked_ranks, dense_ranks
from .dataio import _PNM, write_pnm
from .glyphs import GlyphBank, builtin_bank, hsv_to_rgb, load_idx_glyphs
from .settings import integer, number, pair

SETUPS = ("S", "B", "S-mix", "B-mix")
CALIBRATION_SCALES = (1.0, 1.5, 2.0, 2.5)
# Brightness draws and sweeps start here at least, so every digit shows.
BRIGHTNESS_FLOOR = 0.05


@dataclass(frozen=True)
class CanvasConfig:
    """A canvas dataset's generator settings, one field per key of a
    config file's ``canvas`` object (``seed`` is the command's own key).
    Construction refuses, naming the key (``'canvas.glyph_size'``), a
    size, count or seed that is no integer, a range that is not two
    finite numbers (``settings``; a list is taken as the pair), an
    unknown setup, colour mode or glyph source, and settings no canvas
    can be painted with."""

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
        # Frozen: each checked setting is stored back as its plain value.
        for name, minimum in (("seed", 0), ("canvas_size", 1), ("num_classes", 1), ("glyph_size", 4)):
            key = name if name == "seed" else f"canvas.{name}"
            object.__setattr__(self, name, integer(getattr(self, name), key, minimum))
        for name, rule in (("digit_count_range", integer), ("scale_range", number), ("brightness_range", number)):
            object.__setattr__(self, name, pair(getattr(self, name), f"canvas.{name}", rule))
        for name, choices in (
            ("setup", SETUPS), ("color_mode", ("gray", "color")), ("glyph_source", ("builtin", "idx-file"))
        ):
            if getattr(self, name) not in choices:
                raise ValueError(f"'canvas.{name}' must be one of {choices}, got {getattr(self, name)!r}")
        for name in ("idx_images", "idx_labels"):
            if getattr(self, name) is not None and not isinstance(getattr(self, name), str):
                raise ValueError(f"'canvas.{name}' must be a string, got {getattr(self, name)!r}")
        if self.num_classes > 10:
            raise ValueError(f"'canvas.num_classes' must be within 1..10, got {self.num_classes}")
        lo, hi = self.digit_count_range
        if not 1 <= lo <= hi <= self.num_classes:
            raise ValueError(f"'canvas.digit_count_range' must satisfy 1 <= lo <= hi <= num_classes, got {[lo, hi]}")
        if self.scale_range[0] < 1.0 or self.scale_range[0] > self.scale_range[1]:
            raise ValueError(f"'canvas.scale_range' must satisfy 1 <= lo <= hi, got {list(self.scale_range)}")
        blo, bhi = self.brightness_range
        if not (0.0 <= blo <= bhi <= 1.0):
            raise ValueError(f"'canvas.brightness_range' must lie within [0, 1], got {[blo, bhi]}")
        if self.uses_brightness and bhi < BRIGHTNESS_FLOOR:
            raise ValueError(f"'canvas.brightness_range' must reach the brightness floor {BRIGHTNESS_FLOOR}")
        flo, fhi = self.scale_range if self.ranked_factor == "scale" else self.brightness_bounds
        if flo == fhi and self.digit_count_range[1] > 1:
            raise ValueError(
                f"'canvas.{self.ranked_factor}_range' [{flo}, {fhi}] is degenerate: digits would tie in rank"
            )
        max_scale = self.scale_range[1] if self.uses_scale else 1.0
        if _glyph_px(self, max_scale) > self.canvas_size:
            raise ValueError(
                "placement infeasible: 'canvas.glyph_size' * max scale exceeds 'canvas.canvas_size'"
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
class RankedInstance:
    """A feature vector plus one natural-number rank per class (0 = negative).

    ``image_shape`` is (height, width, channels) when the features are a
    flattened image in that channels-last order, and None otherwise.
    ``train`` passes it on to the image front end, which checks it.
    """

    features: np.ndarray
    ranks: np.ndarray
    image_shape: tuple[int, int, int] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        ranks = checked_ranks(self.ranks)
        if ranks.ndim != 1 or ranks.size == 0:
            raise ValueError("ranks must be a non-empty 1-d vector")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "ranks", ranks)


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


def _glyph_px(cfg: CanvasConfig, scale: float) -> int:
    """The side in pixels of a glyph drawn at ``scale``: glyphs are drawn
    at whole-pixel sizes."""
    return int(round(cfg.glyph_size * scale))


def _digit(cfg: CanvasConfig, rng, digit: int, scale: float, brightness: float) -> DigitFactors:
    """Draw a digit's hue and saturation (colour canvases only), then a
    position that fits it at ``scale``; returns its factors."""
    hue = float(rng.uniform()) if cfg.color_mode == "color" else None
    sat = float(rng.uniform()) if cfg.color_mode == "color" else None
    px = _glyph_px(cfg, scale)
    top = int(rng.integers(0, cfg.canvas_size - px + 1))
    left = int(rng.integers(0, cfg.canvas_size - px + 1))
    return DigitFactors(
        digit=digit, scale=scale, brightness=brightness, top=top, left=left, hue=hue, saturation=sat
    )


def _paint(cfg: CanvasConfig, bank: GlyphBank, canvas: np.ndarray, rng, digit: int, scale: float,
           brightness: float, top: int, left: int, hue: float | None, saturation: float | None) -> None:
    """Max-composites ``digit`` at ``scale`` and ``brightness`` into the
    (size, size, channels) ``canvas`` view with its top-left corner at
    (``top``, ``left``); colour canvases tint it at ``hue`` and
    ``saturation``.  ``rng`` picks stored glyphs and is unused otherwise."""
    px = _glyph_px(cfg, scale)
    glyph = bank.render(digit, px, rng)
    if brightness != 1.0:
        glyph = glyph * brightness
    glyph = hsv_to_rgb(hue, saturation, glyph) if cfg.color_mode == "color" else glyph[:, :, None]
    region = canvas[top : top + px, left : left + px]
    np.maximum(region, glyph, out=region)


def _dataset_placements(cfg: CanvasConfig, rng) -> tuple[DigitFactors, ...]:
    """A dataset canvas's unique digits, as many as a uniform draw over
    the configured range, each placed after its factors are drawn."""
    lo, hi = cfg.digit_count_range
    count = int(rng.integers(lo, hi + 1))
    placed = []
    for digit in rng.choice(cfg.num_classes, size=count, replace=False):
        scale = float(rng.uniform(*cfg.scale_range)) if cfg.uses_scale else 1.0
        brightness = float(rng.uniform(*cfg.brightness_bounds)) if cfg.uses_brightness else 1.0
        placed.append(_digit(cfg, rng, int(digit), scale, brightness))
    return tuple(placed)


def _calibration_placements(cfg: CanvasConfig, rng) -> tuple[DigitFactors, ...]:
    """A calibration canvas's digits: 4 unique digits whose scales are a
    random bijection onto ``CALIBRATION_SCALES``."""
    digits = rng.choice(cfg.num_classes, size=4, replace=False)
    scales = [CALIBRATION_SCALES[int(i)] for i in rng.permutation(4)]
    return tuple(_digit(cfg, rng, int(d), scale, 1.0) for d, scale in zip(digits, scales))


def _paint_canvases(cfg: CanvasConfig, n: int, draw):
    """The (n, d) pixels, (n, K) ranks and (n, K) factors of n canvases,
    and each canvas's placements.  For canvas i, ``draw(cfg, rng)``
    places its digits, row i of the factors takes each digit's named
    factor, and the digits are painted (the rng picks stored glyphs)
    straight into row i of one zeroed block, which is then rounded in
    place.  The ranks follow from the factors (``dense_ranks``)."""
    n = integer(n, "n", 1)
    bank = _glyph_bank(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    x = np.zeros((n, cfg.feature_length))
    factors = np.zeros((n, cfg.num_classes))
    placements = []
    for pixels, row_factors in zip(x, factors):
        placed = draw(cfg, rng)
        canvas = pixels.reshape(cfg.image_shape)
        for pf in placed:
            row_factors[pf.digit] = getattr(pf, cfg.ranked_factor)
            _paint(cfg, bank, canvas, rng, pf.digit, pf.scale, pf.brightness, pf.top, pf.left, pf.hue, pf.saturation)
        np.round(pixels, 3, out=pixels)
        placements.append(placed)
    return x, dense_ranks(factors, factors > 0), factors, placements


def _samples(cfg: CanvasConfig, n: int, draw) -> list[GeneratedSample]:
    """The records of ``_paint_canvases``' rows and placements."""
    x, ranks, _, placements = _paint_canvases(cfg, n, draw)
    return [
        GeneratedSample(pixels=pixels, ranks=row_ranks, factors=placed, image_shape=cfg.image_shape)
        for pixels, row_ranks, placed in zip(x, ranks, placements)
    ]


def small_variance_config(cfg: CanvasConfig) -> CanvasConfig:
    """The small-variance dataset's config: a scale-ranked setup with its
    scale range narrowed to [1, 1.5]."""
    if not cfg.setup.startswith("S"):
        raise ValueError(
            f"setup mismatch: the small-variance dataset requires a scale-ranked 'canvas.setup', got {cfg.setup!r}"
        )
    return dataclasses.replace(cfg, scale_range=(1.0, 1.5))


def generate_canvas_dataset(cfg: CanvasConfig, n: int) -> list[GeneratedSample]:
    """The canvases of ``canvas_arrays`` as records: each one's pixels
    and ranks are its rows, and its factors are its digits' placements."""
    return _samples(cfg, n, _dataset_placements)


def _check_probe_canvas(cfg: CanvasConfig, probe: str) -> None:
    """Refuses, naming the canvas key, a canvas that the calibration set
    (``probe="calib"``) or the adjusting sweeps (``"adjust"``) cannot be
    drawn on."""
    digits = len(CALIBRATION_SCALES) if probe == "calib" else 3
    if cfg.num_classes < digits:
        raise ValueError(
            f"'canvas.num_classes' must be at least {digits}, the digits of a {probe} canvas, got {cfg.num_classes}"
        )
    if probe == "calib" and not cfg.setup.startswith("S"):
        raise ValueError(f"setup mismatch: calibration requires a scale-ranked 'canvas.setup', got {cfg.setup!r}")
    if probe == "calib" and _glyph_px(cfg, max(CALIBRATION_SCALES)) > cfg.canvas_size:
        raise ValueError(
            f"placement infeasible: 'canvas.glyph_size' {cfg.glyph_size} at the calibration scale "
            f"{max(CALIBRATION_SCALES)} exceeds canvas_size {cfg.canvas_size}"
        )


def calibration_arrays(cfg: CanvasConfig, n: int = 50) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, d) pixels, (n, K) ranks and (n, K) factors of n calibration
    canvases: exactly 4 positive digits each, whose scales are a random
    bijection onto ``CALIBRATION_SCALES``, so ``factors == level`` marks
    one digit per canvas at each level."""
    _check_probe_canvas(cfg, "calib")
    return _paint_canvases(cfg, n, _calibration_placements)[:3]


def generate_calibration_set(cfg: CanvasConfig, n: int = 50) -> list[GeneratedSample]:
    """The canvases of ``calibration_arrays`` as records, as
    ``generate_canvas_dataset`` gives them."""
    _check_probe_canvas(cfg, "calib")
    return _samples(cfg, n, _calibration_placements)


def iter_adjust_sweeps(cfg: CanvasConfig, n_sequences: int = 50, steps: int = 50, ring: int | None = None):
    """Yields the adjusting experiment's sweeps: 3 digits at fixed
    positions whose named factors sweep linearly, the low digit from the
    range minimum to its maximum, the high digit the opposite way, the
    middle digit constant.

    Each sweep is ``(digits, roles, factors, block, index)``: the low,
    middle and high digits; their placements (position, hue and
    saturation, with the scale each was placed to fit); the ``steps``
    (low, middle, high) factor triples; a fresh block of the sweep's
    distinct canvases, painted in place and rounded once; and the
    read-only (steps,) block row of each step's canvas, one array shared
    by every sweep.  Glyphs are drawn at whole-pixel sizes, so a step
    whose glyph sizes and brightnesses are those of the step before it
    shares its row.  Stored glyph banks pick each canvas's glyphs from a
    fresh ``default_rng(0)``, so every step picks the same glyphs.  Each
    sweep is built only when it is asked for; the settings and the canvas
    are refused at the call.

    With ``ring``, the sweeps are painted in turn into ``ring`` blocks
    allocated at the call, in place of a fresh block each: sweep i's block
    is painted over by sweep i + ``ring``, so a caller must be done with
    it by then.  The sweeps' bits are the same either way."""
    n_sequences, steps = integer(n_sequences, "n_sequences", 1), integer(steps, "steps", 2)
    _check_probe_canvas(cfg, "adjust")
    bank = _glyph_bank(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    by_scale = cfg.ranked_factor == "scale"
    lo, hi = cfg.scale_range if by_scale else cfg.brightness_bounds
    mid = 0.5 * (lo + hi)
    ts = [step / (steps - 1) for step in range(steps)]
    factors = tuple((lo + t * (hi - lo), mid, hi - t * (hi - lo)) for t in ts)
    # Each step's (scale, brightness) per role, and the (pixel size,
    # brightness) each role's glyph is drawn at.
    looks = [tuple((f, 1.0) if by_scale else (1.0, f) for f in step_factors) for step_factors in factors]
    drawn = [tuple((_glyph_px(cfg, s), b) for s, b in step_looks) for step_looks in looks]
    fresh = [step == 0 or drawn[step] != drawn[step - 1] for step in range(steps)]
    index = np.cumsum(fresh) - 1
    index.flags.writeable = False
    painted = [step_looks for step_looks, new in zip(looks, fresh) if new]
    shape = (len(painted), cfg.feature_length)
    kept = None if ring is None else [np.zeros(shape) for _ in range(integer(ring, "ring", 1))]

    def sweep(i):
        digits = tuple(int(d) for d in rng.choice(cfg.num_classes, size=3, replace=False))
        # Each role is placed to fit its largest sweep extent.
        roles = tuple(
            _digit(cfg, rng, digit, extent if by_scale else 1.0, 1.0)
            for digit, extent in zip(digits, (hi, mid, hi))
        )
        if kept is None:
            block = np.zeros(shape)
        else:
            block = kept[i % len(kept)]
            block[...] = 0.0
        for row, step_looks in zip(block, painted):
            canvas = row.reshape(cfg.image_shape)
            glyph_rng = None if bank.glyphs is None else np.random.default_rng(0)
            for r, (scale, brightness) in zip(roles, step_looks):
                _paint(cfg, bank, canvas, glyph_rng, r.digit, scale, brightness, r.top, r.left, r.hue, r.saturation)
        return digits, roles, factors, np.round(block, 3, out=block), index

    return (sweep(i) for i in range(n_sequences))


def generate_adjust_sequences(
    cfg: CanvasConfig, n_sequences: int = 50, steps: int = 50
) -> list[AdjustSequence]:
    """``iter_adjust_sweeps`` as a list of ``AdjustSequence`` records: one
    ``GeneratedSample`` per step, whose pixels are a view of its block row
    and whose ranks are ``dense_ranks``' of its factors."""
    by_scale = cfg.ranked_factor == "scale"
    sequences = []
    for digits, roles, factors, block, index in iter_adjust_sweeps(cfg, n_sequences, steps):
        swept = np.zeros((steps, cfg.num_classes))
        swept[:, list(digits)] = factors
        samples = []
        for row, ranks, step_factors in zip(index, dense_ranks(swept, swept > 0), factors):
            placed = tuple(
                DigitFactors(
                    digit=r.digit, scale=f if by_scale else 1.0, brightness=1.0 if by_scale else f,
                    top=r.top, left=r.left, hue=r.hue, saturation=r.saturation,
                )
                for r, f in zip(roles, step_factors)
            )
            samples.append(GeneratedSample(pixels=block[row], ranks=ranks, factors=placed, image_shape=cfg.image_shape))
        sequences.append(AdjustSequence(digits=digits, samples=tuple(samples)))
    return sequences


def feature_arrays(
    num_classes: int,
    dim: int,
    n: int,
    factor_range: tuple[float, float] = (0.5, 3.0),
    seed: int = 0,
    noise: float = 0.05,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, dim) features, (n, num_classes) ranks and (n, num_classes)
    factors of the linear surrogate dataset, written a row at a time:
    every class owns a fixed random unit direction; an instance is the
    sum of factor * direction over its present classes plus Gaussian
    noise, ranked by factor (``dense_ranks``).

    Class presence is a uniform random subset, redrawn when empty so
    every instance has at least one positive.  Refused, naming the config
    key (``'feature.noise'``, ``'n'``): counts and a seed that are no
    integers (``settings``), ``n`` or ``num_classes`` below 1, ``dim``
    below ``num_classes``, and a ``factor_range`` or ``noise`` that is
    not finite or breaks 0 < lo < hi or noise >= 0.
    """
    num_classes = integer(num_classes, "feature.num_classes", 1)
    dim = integer(dim, "feature.dim", num_classes)
    n, seed = integer(n, "n", 1), integer(seed, "seed")
    lo, hi = pair(factor_range, "feature.factor_range", number)
    if not 0 < lo < hi:
        raise ValueError(f"'feature.factor_range' must satisfy 0 < lo < hi, got {[lo, hi]!r}")
    if number(noise, "feature.noise") < 0:
        raise ValueError(f"'feature.noise' must be at least 0, got {noise!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.standard_normal((num_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    x = np.empty((n, dim))
    factors = np.empty((n, num_classes))
    for features, row_factors in zip(x, factors):
        mask = rng.integers(0, 2, size=num_classes).astype(bool)
        while not mask.any():
            mask = rng.integers(0, 2, size=num_classes).astype(bool)
        row_factors[:] = drawn = rng.uniform(lo, hi, size=num_classes) * mask
        features[:] = drawn @ directions
        if noise:
            features += noise * rng.standard_normal(dim)
    return x, dense_ranks(factors, factors > 0), factors


def generate_feature_dataset(*args, **kwargs) -> list[RankedInstance]:
    """The rows of ``feature_arrays``, as records over its arrays."""
    return [RankedInstance(features=f, ranks=r) for f, r, _ in zip(*feature_arrays(*args, **kwargs))]


def canvas_arrays(cfg: CanvasConfig, n: int, image_dir=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, d) pixels, (n, K) ranks and (n, K) factors of n dataset
    canvases: digit count uniform over the configured range, digits
    unique per canvas, ranks by the setup's named factor.  With
    ``image_dir``, each canvas's PPM (3 channels) or PGM (1 channel)
    image and its labels row (ranks and per-digit placements) are
    written there once all are painted."""
    x, ranks, factors, placements = _paint_canvases(cfg, n, _dataset_placements)
    if image_dir is not None:
        os.makedirs(image_dir, exist_ok=True)
        with open(os.path.join(image_dir, "labels.jsonl"), "w", encoding="ascii", newline="\n") as labels:
            for i, (pixels, row_ranks, placed) in enumerate(zip(x, ranks, placements)):
                name = f"{i:05d}.{_PNM[cfg.channels][1]}"
                write_pnm(os.path.join(image_dir, name), pixels.reshape(cfg.image_shape))
                row = {"image": name, "ranks": row_ranks.tolist(), "factors": [pf.to_dict() for pf in placed]}
                labels.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return x, ranks, factors
