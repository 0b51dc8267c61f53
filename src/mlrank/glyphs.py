"""Digit glyph sources for the synthetic canvas datasets.

The builtin bank rasterizes a fixed seven-segment-style stroke set for
the digits 0..9 at any requested pixel size, so the generators work
without any external data.  Alternatively a bank can be loaded from a
pair of IDX files (the standard big-endian image/label layout); those
28x28 glyphs are bilinearly resized to the requested size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Polyline strokes per digit in unit coordinates (x, y), y down.  The
# shapes deliberately mix horizontals, verticals, and diagonals so the
# ten silhouettes stay distinguishable even under scaling and overlap.
_DIGIT_STROKES = {
    0: [((0.22, 0.14), (0.78, 0.14)), ((0.78, 0.14), (0.78, 0.86)),
        ((0.78, 0.86), (0.22, 0.86)), ((0.22, 0.86), (0.22, 0.14))],
    1: [((0.32, 0.30), (0.52, 0.14)), ((0.52, 0.14), (0.52, 0.86))],
    2: [((0.22, 0.14), (0.78, 0.14)), ((0.78, 0.14), (0.78, 0.45)),
        ((0.78, 0.45), (0.22, 0.86)), ((0.22, 0.86), (0.78, 0.86))],
    3: [((0.22, 0.14), (0.78, 0.14)), ((0.78, 0.14), (0.78, 0.86)),
        ((0.78, 0.86), (0.22, 0.86)), ((0.40, 0.50), (0.78, 0.50))],
    4: [((0.55, 0.14), (0.22, 0.58)), ((0.22, 0.58), (0.78, 0.58)),
        ((0.62, 0.30), (0.62, 0.86))],
    5: [((0.78, 0.14), (0.22, 0.14)), ((0.22, 0.14), (0.22, 0.50)),
        ((0.22, 0.50), (0.70, 0.50)), ((0.70, 0.50), (0.70, 0.86)),
        ((0.70, 0.86), (0.22, 0.86))],
    6: [((0.70, 0.14), (0.30, 0.50)), ((0.30, 0.50), (0.30, 0.86)),
        ((0.30, 0.86), (0.74, 0.86)), ((0.74, 0.86), (0.74, 0.55)),
        ((0.74, 0.55), (0.30, 0.55))],
    7: [((0.22, 0.14), (0.78, 0.14)), ((0.78, 0.14), (0.34, 0.86))],
    8: [((0.26, 0.14), (0.74, 0.14)), ((0.74, 0.14), (0.74, 0.86)),
        ((0.74, 0.86), (0.26, 0.86)), ((0.26, 0.86), (0.26, 0.14)),
        ((0.26, 0.50), (0.74, 0.50))],
    9: [((0.70, 0.45), (0.26, 0.45)), ((0.26, 0.45), (0.26, 0.14)),
        ((0.26, 0.14), (0.70, 0.14)), ((0.70, 0.14), (0.70, 0.86)),
        ((0.70, 0.86), (0.30, 0.86))],
}


@lru_cache(maxsize=1024)
def rasterize_digit(digit: int, size: int) -> np.ndarray:
    """Render one stroke digit as a read-only (size, size) float array in
    [0, 1].

    Each stroke is drawn as a soft-edged thick line via its distance
    field; strokes composite by per-pixel maximum.  The glyph depends on
    (digit, size) alone, so it is rendered once and shared: copy it
    before writing to it.
    """
    if digit not in _DIGIT_STROKES:
        raise ValueError(f"unknown digit {digit}")
    if size < 4:
        raise ValueError("glyph size must be at least 4 pixels")
    # Pixel centers in unit coordinates.
    c = (np.arange(size) + 0.5) / size
    px, py = np.meshgrid(c, c)
    img = np.zeros((size, size))
    # Stroke width grows sublinearly with glyph size so big glyphs stay
    # stroke-like instead of blob-like; lit mass still grows with size.
    half_width = min(0.075, (1.2 + 0.035 * size) / size)
    aa = 1.0 / size
    for (x0, y0), (x1, y1) in _DIGIT_STROKES[digit]:
        dx, dy = x1 - x0, y1 - y0
        length_sq = dx * dx + dy * dy
        t = np.clip(((px - x0) * dx + (py - y0) * dy) / length_sq, 0.0, 1.0)
        dist = np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))
        img = np.maximum(img, np.clip((half_width - dist) / aa + 0.5, 0.0, 1.0))
    img.flags.writeable = False
    return img


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a 2-d array with bilinear interpolation (pixel-center aligned)."""
    img = np.asarray(img, dtype=float)
    in_h, in_w = img.shape
    if (out_h, out_w) == (in_h, in_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


@dataclass(frozen=True)
class GlyphBank:
    """Digit glyph source; ``glyphs`` is None for the builtin stroke set,
    otherwise a dict digit -> (n, h, w) array of stored glyphs."""

    glyphs: dict[int, np.ndarray] | None = None

    def render(self, digit: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """A (size, size) glyph for ``digit``; stored banks pick one of the
        digit's glyphs uniformly at random before resizing."""
        if self.glyphs is None:
            return rasterize_digit(digit, size)
        stock = self.glyphs.get(int(digit))
        if stock is None or len(stock) == 0:
            raise ValueError(f"glyph bank has no samples for digit {digit}")
        chosen = stock[int(rng.integers(len(stock)))]
        return bilinear_resize(chosen, size, size)


def builtin_bank() -> GlyphBank:
    return GlyphBank(glyphs=None)


def _read_be_u32(data: bytes, offset: int) -> int:
    if offset + 4 > len(data):
        raise ValueError(f"IDX file truncated at byte {offset}")
    return struct.unpack_from(">I", data, offset)[0]


def load_idx_glyphs(images_path, labels_path) -> GlyphBank:
    """Load a glyph bank from IDX image/label files (values scaled to [0, 1])."""
    with open(images_path, "rb") as fh:
        img_data = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_data = fh.read()
    magic = _read_be_u32(img_data, 0)
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"bad image magic 0x{magic:08x} at byte 0")
    n = _read_be_u32(img_data, 4)
    rows = _read_be_u32(img_data, 8)
    cols = _read_be_u32(img_data, 12)
    expected = 16 + n * rows * cols
    if len(img_data) != expected:
        raise ValueError(
            f"image payload length {len(img_data)} != {expected} expected from header at byte 16"
        )
    magic = _read_be_u32(lbl_data, 0)
    if magic != IDX_LABEL_MAGIC:
        raise ValueError(f"bad label magic 0x{magic:08x} at byte 0")
    n_lbl = _read_be_u32(lbl_data, 4)
    if n_lbl != n:
        raise ValueError(f"label count {n_lbl} != image count {n}")
    if len(lbl_data) != 8 + n:
        raise ValueError(f"label payload length {len(lbl_data)} != {8 + n} expected at byte 8")
    images = np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(n, rows, cols)
    labels = np.frombuffer(lbl_data, dtype=np.uint8, offset=8)
    glyphs: dict[int, np.ndarray] = {}
    for digit in range(10):
        sel = images[labels == digit]
        if len(sel):
            glyphs[digit] = sel.astype(float) / 255.0
    return GlyphBank(glyphs=glyphs)


def hsv_to_rgb(h: float, s: float, v: np.ndarray) -> np.ndarray:
    """Map a value-channel array to RGB (last axis 3) at fixed hue/saturation."""
    v = np.asarray(v, dtype=float)
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    table = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)]
    r, g, b = table[i]
    return np.stack([r, g, b], axis=-1)
