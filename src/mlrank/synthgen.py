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
present class and 0 for an absent one, and one batched rule
(``_factor_ranks``) ranks each row dense 1..m by ascending factor, exact
ties broken by ascending class index.  Each fills its arrays a row at a
time, painting every canvas into its row of one block through ``_paint``.
``RankedInstance`` and the record wrappers (``generate_*``) serve only the
benchmark's scripts; their records are views over the same rows.

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
finite JSON numbers (a string or ``true`` is a data error, not cast),
ranks non-negative, and every number must fit its float64 or int64
slot.  The reader returns, and the writer takes, the (n, d) features
and (n, k) ranks as arrays, and neither holds a second copy of them.
Canvas files written before the header declared ``image_shape`` read as
feature data and must be regenerated.

The writer writes ``max(32, 8192 // d)`` rows at a time, each the line
``json.dumps`` gives it (``_block_lines``).  A block whose values
repeat, such as canvases, takes ``float.__repr__`` once per distinct
bit pattern and gathers its bytes from one table; a block whose values
mostly differ, such as features, joins each row's reprs.  The reader
parses the rows of a text file a block of about 8192 values at a time:
one ``json.loads`` of the block's lines joined into one JSON array,
then one array each for its features and ranks, checked as arrays
(``_parse_block``).  A block that fails a check is walked line by line
with the per-row checks (``_read_row``), which name the first bad line;
the walk also reads the rare valid rows the block checks leave to it,
such as one with another key or a space after it.

Beside each dataset file the writer puts a binary copy, ``<file>.npy``:
three ``np.save`` records, the sha256 of the dataset file's bytes, the
features as float64 and the ranks as int64.  The reader takes the arrays
from it only while that digest matches the file; otherwise it parses the
file, so the copy is a cache that can be deleted and is never named as
input.
"""

from __future__ import annotations

import array
import dataclasses
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

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
        ranks = np.asarray(self.ranks, dtype=int)
        if ranks.ndim != 1 or ranks.size == 0:
            raise ValueError("ranks must be a non-empty 1-d vector")
        if np.any(ranks < 0):
            raise ValueError("ranks must be non-negative")
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


def _factor_ranks(factors: np.ndarray) -> np.ndarray:
    """The (n, K) ranks of an (n, K) factor matrix.  In each row the
    present classes (factor > 0) take the dense ranks 1..m by ascending
    factor, exact ties broken by ascending class index, and the absent
    classes 0: class u's rank counts the present v with (f_v, v) <=
    (f_u, u), all in one (n, K, K) comparison."""
    present = factors > 0
    f_u, f_v = factors[:, :, None], factors[:, None, :]
    classes = np.arange(factors.shape[1])
    before = (f_v < f_u) | ((f_v == f_u) & (classes <= classes[:, None]))
    return np.where(present, (before & present[:, None, :]).sum(axis=2), 0)


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


def _paint(cfg: CanvasConfig, bank: GlyphBank, canvas: np.ndarray, rng, digit: int, scale: float,
           brightness: float, top: int, left: int, hue: float | None, saturation: float | None) -> None:
    """Max-composites ``digit`` at ``scale`` and ``brightness`` into the
    (size, size, channels) ``canvas`` view with its top-left corner at
    (``top``, ``left``); colour canvases tint it at ``hue`` and
    ``saturation``.  ``rng`` picks stored glyphs and is unused otherwise."""
    px = max(4, int(round(cfg.glyph_size * scale)))
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
    place.  The ranks follow from the factors (``_factor_ranks``)."""
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
    return x, _factor_ranks(factors), factors, placements


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
        raise ValueError("setup mismatch: small-variance dataset requires a scale-ranked setup")
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
    if probe == "calib" and int(round(cfg.glyph_size * max(CALIBRATION_SCALES))) > cfg.canvas_size:
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


def iter_adjust_sweeps(cfg: CanvasConfig, n_sequences: int = 50, steps: int = 50):
    """Yields the adjusting experiment's sweeps: 3 digits at fixed
    positions whose named factors sweep linearly, the low digit from the
    range minimum to its maximum, the high digit the opposite way, the
    middle digit constant.

    Each sweep is ``(digits, roles, factors, block)``: the low, middle
    and high digits; their placements (position, hue and saturation,
    with the scale each was placed to fit); the ``steps`` (low, middle,
    high) factor triples; and a fresh (steps, d) block whose row i is
    step i's canvas, painted in place and rounded once.  Stored glyph
    banks pick each step's glyphs from a fresh ``default_rng(0)``.  Each
    sweep is built only when it is asked for."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    _check_probe_canvas(cfg, "adjust")
    bank = _glyph_bank(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    by_scale = cfg.ranked_factor == "scale"
    lo, hi = cfg.scale_range if by_scale else cfg.brightness_bounds
    mid = 0.5 * (lo + hi)
    ts = [step / (steps - 1) for step in range(steps)]
    factors = tuple((lo + t * (hi - lo), mid, hi - t * (hi - lo)) for t in ts)
    for _ in range(n_sequences):
        digits = tuple(int(d) for d in rng.choice(cfg.num_classes, size=3, replace=False))
        # Each role is placed to fit its largest sweep extent.
        roles = tuple(
            _digit(cfg, rng, digit, extent if by_scale else 1.0, 1.0)
            for digit, extent in zip(digits, (hi, mid, hi))
        )
        block = np.zeros((steps, cfg.feature_length))
        for canvas, step_factors in zip(block.reshape(steps, *cfg.image_shape), factors):
            glyph_rng = None if bank.glyphs is None else np.random.default_rng(0)
            for r, f in zip(roles, step_factors):
                _paint(cfg, bank, canvas, glyph_rng, r.digit, f if by_scale else 1.0, 1.0 if by_scale else f,
                       r.top, r.left, r.hue, r.saturation)
        yield digits, roles, factors, np.round(block, 3, out=block)


def generate_adjust_sequences(
    cfg: CanvasConfig, n_sequences: int = 50, steps: int = 50
) -> list[AdjustSequence]:
    """``iter_adjust_sweeps`` as a list of ``AdjustSequence`` records: one
    ``GeneratedSample`` per step, whose pixels are that step's row of the
    sweep's block and whose ranks are ``_factor_ranks``' of its factors."""
    by_scale = cfg.ranked_factor == "scale"
    sequences = []
    for digits, roles, factors, block in iter_adjust_sweeps(cfg, n_sequences, steps):
        swept = np.zeros((steps, cfg.num_classes))
        swept[:, list(digits)] = factors
        samples = []
        for pixels, ranks, step_factors in zip(block, _factor_ranks(swept), factors):
            placed = tuple(
                DigitFactors(
                    digit=r.digit, scale=f if by_scale else 1.0, brightness=1.0 if by_scale else f,
                    top=r.top, left=r.left, hue=r.hue, saturation=r.saturation,
                )
                for r, f in zip(roles, step_factors)
            )
            samples.append(GeneratedSample(pixels=pixels, ranks=ranks, factors=placed, image_shape=cfg.image_shape))
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
    noise, ranked by factor (``_factor_ranks``).

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
    x = np.empty((n, dim))
    factors = np.empty((n, num_classes))
    for features, row_factors in zip(x, factors):
        mask = rng.integers(0, 2, size=num_classes).astype(bool)
        while not mask.any():
            mask = rng.integers(0, 2, size=num_classes).astype(bool)
        row_factors[:] = drawn = rng.uniform(factor_range[0], factor_range[1], size=num_classes) * mask
        features[:] = drawn @ directions
        if noise:
            features += noise * rng.standard_normal(dim)
    return x, _factor_ranks(factors), factors


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


# Rows are parsed, checked for finiteness and written in blocks of
# about this many values, so a block's scratch and text stay small.
_BLOCK_VALUES = 1 << 13
# A written block holds at least this many rows, so a block of canvases
# shares one text table between a few dozen of them.
_WRITE_BLOCK_ROWS = 32
# A block is written from a text table when at most one value in this
# many is a distinct bit pattern (canvases).  Otherwise (features) each
# value's repr is taken in place: gathering values that nearly all
# differ from a table costs more than the reprs it saves.
_TABLE_VALUES_PER_DISTINCT = 2


def _block_lines(block: np.ndarray, block_ranks: np.ndarray) -> bytes:
    """The dataset lines of a C-contiguous float block and its ranks,
    each row as ``json.dumps`` writes it.  A block whose values repeat
    is written from a table of its distinct values' texts, any other one
    a value at a time."""
    rank_texts = [",".join(map(str, row)) for row in block_ranks.tolist()]
    # Keying on the bits, not the values, keeps -0.0 apart from 0.0.  A
    # sort, not np.unique: its hash table is many times slower here.
    ordered = np.sort(block.view(np.int64), axis=None)
    distinct = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    if len(distinct) * _TABLE_VALUES_PER_DISTINCT > block.size:
        return _repr_lines(block, rank_texts)
    return _table_lines(block, distinct, rank_texts)


def _repr_lines(block: np.ndarray, rank_texts: list[str]) -> bytes:
    """``_block_lines`` for a block whose values mostly differ: JSON
    writes a float as its ``float.__repr__``."""
    return "".join(
        '{"features":[' + ",".join(map(float.__repr__, row)) + '],"ranks":[' + row_ranks + "]}\n"
        for row, row_ranks in zip(block.tolist(), rank_texts)
    ).encode("ascii")


def _table_lines(block: np.ndarray, distinct: np.ndarray, rank_texts: list[str]) -> bytes:
    """``_block_lines`` for a block whose values repeat, given the sorted
    distinct bit patterns of its values: ``float.__repr__`` runs once per
    pattern into a NUL-padded table of ","-prefixed texts, the values'
    texts are gathered from it in one pass, and each row is cut out by
    its byte length."""
    texts = ["," + text for text in map(float.__repr__, distinct.view(np.float64).tolist())]
    codes = np.searchsorted(distinct, block.view(np.int64))
    data = memoryview(np.array(texts, dtype=bytes)[codes].tobytes().translate(None, b"\0"))
    # A text is at most 25 bytes, so its width fits a byte.
    ends = np.cumsum(np.array(list(map(len, texts)), dtype=np.uint8)[codes].sum(axis=1)).tolist()
    parts = []
    for start, end, row_ranks in zip([0, *ends], ends, rank_texts):
        # A row's text starts after its first value's comma.
        parts += (b'{"features":[', data[start + 1 : end], b'],"ranks":[' + row_ranks.encode("ascii") + b"]}\n")
    return b"".join(parts)


def _sidecar(path) -> str:
    """The binary copy of the dataset file at ``path`` (module docstring)."""
    return os.fspath(path) + ".npy"


def write_dataset_jsonl(path, x, ranks, generator: dict | None = None, image_shape=None) -> None:
    """Write the (n, d) features and (n, k) ranks behind a {"k", "d",
    "generator"} header, plus "image_shape" when the features are images,
    then the binary copy bound to the file's sha256.  What the reader
    would refuse is refused before anything is written.  Each row is the
    line ``json.dumps`` writes for it, byte for byte."""
    x = np.ascontiguousarray(x, dtype=float)
    ranks = np.asarray(ranks)
    if x.ndim != 2 or ranks.ndim != 2 or len(x) != len(ranks) or not len(x):
        raise ValueError(f"need (n, d) features and (n, k) ranks, n >= 1; got {x.shape}, {ranks.shape}")
    if (
        not np.issubdtype(ranks.dtype, np.integer) or np.any(ranks < 0)
        or np.any(ranks > np.iinfo(np.int64).max) or not np.all(np.isfinite(x))
    ):
        raise ValueError("features must be finite and ranks non-negative integers that fit int64")
    header = {"k": ranks.shape[1], "d": x.shape[1], "generator": generator or {}}
    if image_shape is not None:
        header["image_shape"] = list(image_shape)
    _checked_header(header)
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"
    step = max(_WRITE_BLOCK_ROWS, _BLOCK_VALUES // x.shape[1])
    blocks = (_block_lines(x[i : i + step], ranks[i : i + step]) for i in range(0, len(x), step))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in itertools.chain([header_line], blocks):
            digest.update(data)
            fh.write(data)
    with open(_sidecar(path), "wb") as fh:
        for record in (np.frombuffer(digest.digest(), dtype=np.uint8), x, ranks.astype(np.int64)):
            np.save(fh, record, allow_pickle=False)


def _line_count(path) -> int:
    """The lines text-mode reading splits ``path`` into: each LF, CR or
    CR LF ends one, and so does the end of a file that ends in another
    byte.  Counted on bytes, a block at a time into one buffer; the CR
    counts run only on a block that holds a CR."""
    count, last, buf = 0, b"", bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            count += buf.count(b"\n", 0, size)
            if buf.find(b"\r", 0, size) >= 0:
                count += buf.count(b"\r", 0, size) - buf.count(b"\r\n", 0, size)
            if last == b"\r" and buf.startswith(b"\n"):
                count -= 1
            last = buf[size - 1 : size]
    return count + (last not in (b"", b"\n", b"\r"))


def _json_line(line: str):
    """``json.loads`` of one line of a dataset file, which is ASCII."""
    if not line.isascii():
        raise ValueError("dataset files are ASCII; this line is not")
    try:
        return json.loads(line)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def _parse_block(lines: list[str], x: np.ndarray, ranks: np.ndarray) -> bool:
    """Fills ``x`` and ``ranks``, one row per line, from one ``json.loads``
    of ``lines`` joined by commas inside brackets, and returns True, when
    every check below holds; then each row is the one the line walk in
    ``read_dataset_jsonl`` takes from its line.  Otherwise it returns
    False, with the views in any state, and the caller walks the lines.

    - Every row has the keys "features" and "ranks", so exactly four
      quotes a row mean that no other string exists: no row has another
      key or a repeated one, and no brace or letter sits in a string.
    - A row's only braces are then its own, so with every line but the
      last ending in "}" and its newline, each inserted comma falls
      between two rows: no line holds two rows or part of one.
    - JSON writes booleans and null only as the bare literals.  A "true"
      adds a "u" beside the one each "features" key holds, and a "false"
      or "null" brings an "l"; the walk names either exactly.
    - The features form a float64 (rows, d) array and the ranks a signed
      integer (rows, k) one with no negative entry; as in the walk, an
      integer feature is rounded once to float64.
    - The views hold a row for every line: a block that runs past the
      room the reader's size cap left is walked.
    """
    m = len(lines)
    text = "[" + ",".join(lines) + "]"
    if (
        len(x) != m
        or not text.isascii()
        or not all(map(str.endswith, lines[:-1], itertools.repeat("}\n")))
        or text.count('"') != 4 * m
        or text.count("u") != m
        or "l" in text
    ):
        return False
    try:
        rows = json.loads(text)
        block_x = np.array([row["features"] for row in rows], dtype=np.float64)
        block_ranks = np.array([row["ranks"] for row in rows])
    # A ragged block is a ValueError from NumPy 1.24 on.
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return False
    if (
        block_x.shape != x.shape or block_ranks.shape != ranks.shape
        or block_ranks.dtype.kind != "i" or np.any(block_ranks < 0)
    ):
        return False
    x[...] = block_x
    ranks[...] = block_ranks
    return True


def _check_finite(path, x, stop) -> None:
    """A ValueError naming the line of the first row of ``x[:stop]`` that
    holds a non-finite value (row i is line i + 2), if any does.  Checked
    in blocks of about ``_BLOCK_VALUES`` values, so the scratch mask stays
    small."""
    rows, step = x[:stop], max(1, _BLOCK_VALUES // x.shape[1])
    for start in range(0, len(rows), step):
        bad = np.flatnonzero(~np.isfinite(rows[start : start + step]).all(axis=1))
        if bad.size:
            raise ValueError(f"{path}:{start + int(bad[0]) + 2}: features must be finite")


def _sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.digest()


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}


def _npy_record(fh, dtype, shape) -> np.ndarray | None:
    """The next ``np.save`` record of ``fh`` if it is a C-order array of
    exactly ``dtype`` and ``shape`` (None matches any size) whose data the
    file holds, else None.  The record's header is checked before any of
    its data is read or allocated."""
    read_header = _NPY_HEADERS.get(np.lib.format.read_magic(fh))
    if read_header is None:
        return None
    got, fortran_order, got_dtype = read_header(fh)
    if fortran_order or got_dtype != dtype or len(got) != len(shape):
        return None
    if any(want is not None and size != want for size, want in zip(got, shape)):
        return None
    if math.prod(got) * got_dtype.itemsize > os.fstat(fh.fileno()).st_size - fh.tell():
        return None
    out = np.empty(got, dtype)
    return out if fh.readinto(out) == out.nbytes else None


def _sidecar_arrays(path, k: int, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(x, ranks) from the binary copy of ``path`` when it holds the sha256
    of the file's bytes, C-order float64 (n, d) features and int64 (n, k)
    ranks, n >= 1, and nothing the JSON path refuses; else None."""
    try:
        with open(_sidecar(path), "rb") as fh:
            stored = _npy_record(fh, np.dtype(np.uint8), (32,))
            if stored is None or stored.tobytes() != _sha256(path):
                return None
            x = _npy_record(fh, np.dtype(np.float64), (None, d))
            ranks = None if x is None else _npy_record(fh, np.dtype(np.int64), (len(x), k))
            if ranks is None or not len(x) or fh.read(1) or np.any(ranks < 0):
                return None
        _check_finite(path, x, len(x))
    except (OSError, ValueError):
        return None
    return x, ranks


def _read_row(line: str, x: np.ndarray, ranks: np.ndarray, i: int) -> None:
    """Row ``i`` of ``x`` and ``ranks`` from its line, with every check of
    the loader contract (module docstring); a TypeError or ValueError
    says what the line breaks.  The line walk of ``read_dataset_jsonl``."""
    row = _json_line(line)
    if not isinstance(row, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(row).__name__}")
    row_ranks = row.get("ranks")
    if not isinstance(row_ranks, list) or not all(type(r) is int and r >= 0 for r in row_ranks):
        raise ValueError(f"ranks must be a list of non-negative JSON integers, got {row_ranks!r}")
    values = row.get("features")
    try:
        # Takes real numbers only, so strings, null and nested
        # lists fail here; a bool passes and is refused below.
        feats = array.array("d", values)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"features must be a list of JSON numbers that fit float64: {exc}") from None
    if len(feats) != x.shape[1] or len(row_ranks) != ranks.shape[1]:
        raise ValueError("instance shape does not match header")
    # JSON writes a boolean only as the bare literal true or false, so a
    # line without either holds none; the exact test costs a sixth of a
    # canvas read when run on every line.
    if ("true" in line or "false" in line) and bool in map(type, values):
        raise ValueError("features must be JSON numbers, not true or false")
    x[i] = feats
    try:
        ranks[i] = row_ranks
    except OverflowError:
        raise ValueError(f"ranks must fit int64, got {row_ranks!r}") from None


def read_dataset_jsonl(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read a JSONL dataset; returns (header, x, ranks), the (n, d) float64
    features and the (n, k) int64 ranks.

    The header line is always parsed and checked.  The arrays then come
    from the binary copy ``write_dataset_jsonl`` puts beside the file
    when it holds the sha256 of the file's bytes and arrays of the
    header's k and d that pass the row checks below.  In every other case
    (no copy, a stale digest, an unreadable or mismatched copy) the
    file's rows are parsed, so both ways return the same arrays.

    A malformed header or row, a feature that is not a JSON number or is
    not finite, a negative rank or a number too large for its array is a
    ValueError that names the first such line as ``file:line``.  The rows
    are counted first, so each block of rows (module docstring) is parsed
    straight into its slots of the two matrices and the dataset is never
    held twice.  Finiteness is checked once over the filled rows, after
    the last row or before a malformed line is named.
    """
    # Latin-1 decodes any byte, so a non-ASCII one fails on its own line
    # and not on the line where the decoder's read-ahead meets it.
    with open(path, "r", encoding="latin-1") as fh:
        lineno = 1
        try:
            header = _json_line(fh.readline())
            k, d = _checked_header(header)
            stored = _sidecar_arrays(path, k, d)
            if stored is not None:
                return (header, *stored)
            # A valid row spends over 2(d + k) bytes on its values and
            # commas, so a header cannot make room for more rows than the
            # file could hold: a row past that room fails its checks.
            n = min(_line_count(path) - 1, os.path.getsize(path) // (2 * (d + k)))
            x = np.empty((n, d))
            ranks = np.empty((n, k), dtype=np.int64)
            step, start = max(1, _BLOCK_VALUES // d), 0
            while lines := list(itertools.islice(fh, step)):
                stop = start + len(lines)
                if not _parse_block(lines, x[start:stop], ranks[start:stop]):
                    for lineno, line in enumerate(lines, start=start + 2):
                        _read_row(line, x, ranks, lineno - 2)
                start = stop
        except (TypeError, ValueError) as exc:
            if lineno > 2:
                _check_finite(path, x, lineno - 2)
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    _check_finite(path, x, start)
    if not n:
        raise ValueError(f"{path}: dataset has a header but no instances")
    return header, x, ranks


# (magic number, file suffix) per channel count.
_PNM = {1: ("P5", "pgm"), 3: ("P6", "ppm")}


def write_pnm(path, img: np.ndarray) -> None:
    """Binary PGM (P5) from an (h, w, 1) array or PPM (P6) from an
    (h, w, 3) array, with values in [0, 1]."""
    data = np.clip(np.round(np.asarray(img) * 255.0), 0, 255).astype(np.uint8)
    h, w, c = data.shape
    with open(path, "wb") as fh:
        fh.write(f"{_PNM[c][0]}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
