import dataclasses
import hashlib
import io
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlrank.dataio as dataio
import mlrank.synthgen as synthgen
from mlrank.buckets import dense_ranks
from mlrank.dataio import read_dataset_jsonl, write_dataset_jsonl, write_pnm
from mlrank.glyphs import bilinear_resize, load_idx_glyphs, rasterize_digit
from mlrank.metrics import spearman_rho
from mlrank.synthgen import (
    BRIGHTNESS_FLOOR,
    CALIBRATION_SCALES,
    SETUPS,
    CanvasConfig,
    RankedInstance,
    calibration_arrays,
    canvas_arrays,
    feature_arrays,
    generate_adjust_sequences,
    generate_calibration_set,
    generate_canvas_dataset,
    generate_feature_dataset,
    iter_adjust_sweeps,
    small_variance_config,
)

from oracles import ranks_by_sort


def small_cfg(**kw):
    base = dict(canvas_size=48, glyph_size=12, seed=5)
    base.update(kw)
    return CanvasConfig(**base)


def write_idx(tmp_path, images, labels):
    img_path = tmp_path / "img.idx"
    lbl_path = tmp_path / "lbl.idx"
    n, h, w = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def idx_bank_cfg(tmp_path, **kw):
    """``small_cfg`` on a stored bank of two random glyphs per digit."""
    images = np.random.default_rng(6).integers(0, 256, size=(20, 28, 28))
    img_path, lbl_path = write_idx(tmp_path, images, np.tile(np.arange(10), 2))
    return small_cfg(glyph_source="idx-file", idx_images=str(img_path), idx_labels=str(lbl_path), **kw)


@pytest.fixture(params=["gray", "color", "idx-bank"])
def sweep_cfg(request, tmp_path):
    """``small_cfg`` on gray builtin glyphs, colour builtin glyphs, or a
    stored bank of two random glyphs per digit."""

    def make(**kw):
        if request.param == "color":
            kw["color_mode"] = "color"
        elif request.param == "idx-bank":
            return idx_bank_cfg(tmp_path, **kw)
        return small_cfg(**kw)

    return make


class TestGlyphs:
    def test_rasterize_distinct_digits(self):
        imgs = [rasterize_digit(d, 16) for d in range(10)]
        for img in imgs:
            assert img.shape == (16, 16)
            assert 0.0 <= img.min() and img.max() <= 1.0
            assert img.max() > 0.5
        for a in range(10):
            for b in range(a + 1, 10):
                assert np.abs(imgs[a] - imgs[b]).max() > 0.2

    def test_cached_glyph_equals_fresh_render_and_is_read_only(self):
        for size in range(4, 46):
            for digit in range(10):
                cached = rasterize_digit(digit, size)
                assert rasterize_digit(digit, size) is cached
                np.testing.assert_array_equal(cached, rasterize_digit.__wrapped__(digit, size))
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 1.0

    def test_bilinear_resize_identity_and_constant(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(9, 9))
        np.testing.assert_array_equal(bilinear_resize(img, 9, 9), img)
        np.testing.assert_allclose(bilinear_resize(np.full((5, 5), 0.7), 11, 11), 0.7)


class TestCanvasConfig:
    def test_placement_infeasible(self):
        with pytest.raises(ValueError, match="placement infeasible"):
            CanvasConfig(canvas_size=32, glyph_size=16, scale_range=(1.0, 3.0))

    def test_brightness_setup_ignores_scale_bound(self):
        # setup B never scales, so a big scale range is irrelevant
        CanvasConfig(canvas_size=16, glyph_size=16, setup="B", scale_range=(1.0, 3.0))

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            CanvasConfig(scale_range=(0.5, 2.0))
        with pytest.raises(ValueError):
            CanvasConfig(brightness_range=(0.2, 1.5))
        with pytest.raises(ValueError):
            CanvasConfig(digit_count_range=(0, 5))
        with pytest.raises(ValueError):
            CanvasConfig(setup="X")

    @pytest.mark.parametrize("kw", [
        {"setup": "S", "scale_range": (2.0, 2.0)},
        {"setup": "S-mix", "scale_range": (1.5, 1.5)},
        {"setup": "B", "brightness_range": (0.5, 0.5)},
        # the floor lifts the draws to [0.05, 0.05]
        {"setup": "B-mix", "brightness_range": (0.0, BRIGHTNESS_FLOOR)},
    ])
    def test_degenerate_ranked_range_rejected(self, kw):
        with pytest.raises(ValueError, match="degenerate"):
            CanvasConfig(**kw)
        # one digit per canvas cannot tie
        CanvasConfig(digit_count_range=(1, 1), **kw)

    @pytest.mark.parametrize("setup", ["B", "S-mix", "B-mix"])
    def test_brightness_range_below_floor_rejected(self, setup):
        with pytest.raises(ValueError, match="brightness floor"):
            CanvasConfig(setup=setup, brightness_range=(0.0, 0.01))
        CanvasConfig(setup="S", brightness_range=(0.0, 0.01))


class TestCanvasDataset:
    def test_shapes_and_rank_consistency(self):
        cfg = small_cfg(setup="S")
        samples = generate_canvas_dataset(cfg, 30)
        assert len(samples) == 30
        for s in samples:
            assert s.pixels.shape == (cfg.feature_length,)
            assert s.pixels.min() >= 0.0 and s.pixels.max() <= 1.0
            positives = np.flatnonzero(s.ranks > 0)
            assert len(positives) == len(s.factors)
            # dense positive ranks 1..m
            assert sorted(s.ranks[positives].tolist()) == list(range(1, len(positives) + 1))
            # ranks follow the named factor
            by_digit = {pf.digit: pf for pf in s.factors}
            ordered = sorted(positives, key=lambda c: s.ranks[c])
            factors = [by_digit[c].scale for c in ordered]
            assert factors == sorted(factors)
            assert np.unique(s.ranks[positives]).size == positives.size  # tie-free positives

    def test_setup_pins_unranked_factor(self):
        for setup, pinned in (("S", "brightness"), ("B", "scale")):
            samples = generate_canvas_dataset(small_cfg(setup=setup), 10)
            for s in samples:
                for pf in s.factors:
                    assert getattr(pf, pinned) == 1.0

    def test_brightness_ranking(self):
        samples = generate_canvas_dataset(small_cfg(setup="B"), 20)
        for s in samples:
            by_digit = {pf.digit: pf for pf in s.factors}
            positives = sorted(np.flatnonzero(s.ranks > 0), key=lambda c: s.ranks[c])
            vals = [by_digit[c].brightness for c in positives]
            assert vals == sorted(vals)
            assert all(v >= BRIGHTNESS_FLOOR for v in vals)

    @pytest.mark.parametrize("setup", ["B", "B-mix"])
    @pytest.mark.parametrize("color_mode", ["gray", "color"])
    def test_brightness_setups_generate_at_default_config(self, setup, color_mode):
        # Brightness draws used to be clamped up to the floor, so every
        # draw below it tied with the others and generation failed.
        cfg = CanvasConfig(setup=setup, color_mode=color_mode)
        samples = generate_canvas_dataset(cfg, 2000)
        assert len(samples) == 2000
        lo, hi = cfg.brightness_bounds
        assert all(lo <= pf.brightness <= hi for s in samples for pf in s.factors)

    @pytest.mark.parametrize("color_mode,digest", [
        ("gray", "0b4e02f386983e4210eac63feb61ec91ef6140f8528d4b014691e3d8184aa175"),
        ("color", "c2d2393a01d359a6a602d33bc798f1baa0a6196631fb496d20f3638e4c352d40"),
    ])
    def test_scale_setup_bytes_pinned(self, color_mode, digest):
        # Pins the bytes of the S-setup datasets, calibration sets and
        # sweeps, which one painting helper renders for all three.
        cfg = small_cfg(setup="S", color_mode=color_mode)
        samples = generate_canvas_dataset(cfg, 20) + generate_calibration_set(cfg, 10)
        samples += [s for seq in generate_adjust_sequences(cfg, n_sequences=3, steps=6) for s in seq.samples]
        h = hashlib.sha256()
        for s in samples:
            assert s.image_shape == cfg.image_shape
            h.update(s.pixels.tobytes())
            h.update(s.ranks.astype("<i8").tobytes())
        assert h.hexdigest() == digest

    def test_determinism(self):
        cfg = small_cfg(setup="S-mix")
        a = generate_canvas_dataset(cfg, 8)
        b = generate_canvas_dataset(cfg, 8)
        for sa, sb in zip(a, b, strict=True):
            np.testing.assert_array_equal(sa.pixels, sb.pixels)
            np.testing.assert_array_equal(sa.ranks, sb.ranks)
            assert sa.factors == sb.factors

    def test_color_mode(self):
        cfg = small_cfg(color_mode="color")
        samples = generate_canvas_dataset(cfg, 5)
        for s in samples:
            assert s.pixels.shape == (48 * 48 * 3,)
            for pf in s.factors:
                assert pf.hue is not None and 0.0 <= pf.hue <= 1.0
                assert pf.saturation is not None

    def test_mix_unranked_factor_independent_of_rank(self):
        cfg = small_cfg(setup="S-mix", digit_count_range=(3, 8))
        samples = generate_canvas_dataset(cfg, 1000)
        ranks, other = [], []
        for s in samples:
            for pf in s.factors:
                ranks.append(int(s.ranks[pf.digit]))
                other.append(pf.brightness)
        rho = spearman_rho(np.array(ranks), np.array(other))
        assert abs(rho) <= 0.1

    @pytest.mark.parametrize("cfg", [small_cfg(setup="B-mix", color_mode="color"),
                                     small_variance_config(small_cfg())])
    def test_arrays_are_the_stacked_samples(self, tmp_path, cfg):
        samples = generate_canvas_dataset(cfg, 6)
        x, ranks, _ = canvas_arrays(cfg, 6, image_dir=tmp_path / "images")
        np.testing.assert_array_equal(x, np.stack([s.pixels for s in samples]))
        np.testing.assert_array_equal(ranks, np.stack([s.ranks for s in samples]))
        labels = (tmp_path / "images" / "labels.jsonl").read_text().splitlines()
        assert [json.loads(row)["ranks"] for row in labels] == ranks.tolist()
        assert len(list((tmp_path / "images").glob("0000[0-5].p?m"))) == 6

    @pytest.mark.parametrize("records", ["canvas", "calibration"])
    def test_records_are_the_rows_of_one_block(self, records):
        cfg = small_cfg(color_mode="color")
        if records == "canvas":
            samples = generate_canvas_dataset(cfg, 6)
        else:
            samples = generate_calibration_set(cfg, 6)
        own = samples[0].pixels.base
        assert own.shape == (6, cfg.feature_length) and own.flags.c_contiguous
        for i, sample in enumerate(samples):
            assert sample.pixels.base is own and np.shares_memory(sample.pixels, own[i])
        assert own.tobytes() == np.stack([s.pixels for s in samples]).tobytes()


class TestSmallVariance:
    def test_scale_window(self):
        samples = generate_canvas_dataset(small_variance_config(small_cfg(setup="S")), 40)
        for s in samples:
            for pf in s.factors:
                assert 1.0 <= pf.scale <= 1.5
            positives = np.flatnonzero(s.ranks > 0)
            assert sorted(s.ranks[positives].tolist()) == list(range(1, len(positives) + 1))

    def test_requires_scale_setup(self):
        with pytest.raises(ValueError, match="setup mismatch"):
            small_variance_config(small_cfg(setup="B"))

    def test_determinism(self):
        a = canvas_arrays(small_variance_config(small_cfg()), 6)[0]
        b = canvas_arrays(small_variance_config(small_cfg()), 6)[0]
        np.testing.assert_array_equal(a, b)


class TestAdjustSequences:
    def test_sweep_structure(self, sweep_cfg):
        cfg = sweep_cfg(setup="S", scale_range=(1.0, 3.0))
        sweeps = list(iter_adjust_sweeps(cfg, n_sequences=4, steps=11))
        assert len(sweeps) == 4
        for digits, roles, factors, block, index in sweeps:
            assert len(set(digits)) == 3 and tuple(r.digit for r in roles) == digits
            assert len(factors) == len(index) == 11 and len(block) == index[-1] + 1
            # low rises from the range minimum, high falls from its maximum
            assert factors[0] == pytest.approx((1.0, 2.0, 3.0))
            assert factors[-1] == pytest.approx((3.0, 2.0, 1.0))
            # middle factor constant at the midpoint across every step
            assert all(mid == pytest.approx(2.0) for _, mid, _ in factors)
            # crossing step: odd step count hits the exact midpoint
            low, _, high = factors[5]
            assert low == pytest.approx(high)
            # each role is placed once, to fit its largest extent
            for role, extent in zip(roles, (3.0, 2.0, 3.0)):
                px = int(round(cfg.glyph_size * extent))
                assert role.top + px <= cfg.canvas_size and role.left + px <= cfg.canvas_size

    def test_determinism(self, sweep_cfg):
        cfg = sweep_cfg(setup="B")
        a = iter_adjust_sweeps(cfg, n_sequences=2, steps=5)
        b = iter_adjust_sweeps(cfg, n_sequences=2, steps=5)
        for (digits_a, roles_a, _, *arrays_a), (digits_b, roles_b, _, *arrays_b) in zip(a, b, strict=True):
            assert digits_a == digits_b and roles_a == roles_b
            assert [x.tobytes() for x in arrays_a] == [x.tobytes() for x in arrays_b]

    @pytest.mark.parametrize("setup", ["S", "B"])
    def test_records_are_the_sweep_blocks(self, sweep_cfg, setup):
        # ``generate_adjust_sequences`` is kept for the benchmark's probe
        # check: its records must be the sweeps' digits and block rows.
        cfg = sweep_cfg(setup=setup)
        sweeps = zip(iter_adjust_sweeps(cfg, n_sequences=3, steps=6), generate_adjust_sequences(cfg, 3, 6), strict=True)
        for (digits, roles, factors, block, index), seq in sweeps:
            assert block.shape == (index[-1] + 1, cfg.feature_length) and block.flags.c_contiguous
            assert seq.digits == digits == tuple(r.digit for r in roles)
            assert np.stack([s.pixels for s in seq.samples]).tobytes() == block[index].tobytes()
            # The records' pixels are the rows of one block, not copies.
            own = seq.samples[0].pixels.base
            assert own.shape == block.shape
            for step, (sample, step_factors) in enumerate(zip(seq.samples, factors, strict=True)):
                assert sample.pixels.base is own and np.shares_memory(sample.pixels, own[index[step]])
                swept = [pf.scale if setup == "S" else pf.brightness for pf in sample.factors]
                assert swept == list(step_factors)

    @pytest.mark.parametrize("setup", ["S", "B"])
    def test_records_are_the_samples_of_their_factors(self, sweep_cfg, setup):
        # Each step's record equals the canvas the dataset painter gives
        # its placed digits: bytes and ranks.  A sweep picks stored glyphs
        # from default_rng(0), the painter from its config's seed.
        cfg = sweep_cfg(setup=setup)
        painter_cfg = dataclasses.replace(cfg, seed=0)
        for seq in generate_adjust_sequences(cfg, n_sequences=3, steps=6):
            for sample in seq.samples:
                x, ranks, _, _ = synthgen._paint_canvases(painter_cfg, 1, lambda cfg, rng: sample.factors)
                assert sample.pixels.tobytes() == x[0].tobytes()
                np.testing.assert_array_equal(sample.ranks, ranks[0])
                assert sample.image_shape == cfg.image_shape

    @pytest.mark.parametrize("setup", ["S", "B"])
    def test_every_row_is_the_canvas_of_its_step(self, sweep_cfg, setup, monkeypatch):
        # At 50 steps the scale sweep's glyph sizes repeat, and a step of
        # the sizes and brightnesses of the step before it shares that
        # step's block row; brightness steps are all distinct.  A block
        # holds each distinct canvas once, and each step's row must equal
        # the canvas the dataset painter gives its step's placed digits.
        # 12 * (1 + 2.7) is not whole, so the low and high sizes change
        # at different steps.
        cfg = sweep_cfg(setup=setup, scale_range=(1.0, 2.7))
        painted, real_paint = [], synthgen._paint

        def paint(*args):
            painted.append(args)
            real_paint(*args)

        monkeypatch.setattr(synthgen, "_paint", paint)
        sweeps = list(iter_adjust_sweeps(cfg, n_sequences=2, steps=50))
        if setup == "S":
            assert 0 < len(painted) < 2 * 50 * 3
        else:
            assert len(painted) == 2 * 50 * 3
        assert len(painted) == 3 * sum(len(block) for *_, block, _ in sweeps)
        painter_cfg = dataclasses.replace(cfg, seed=0)
        for _, roles, factors, block, index in sweeps:
            assert index is sweeps[0][4] and not index.flags.writeable
            assert (block[1:] != block[:-1]).any(axis=1).all()
            for pixels, step_factors in zip(block[index], factors, strict=True):
                placed = tuple(
                    dataclasses.replace(r, scale=f, brightness=1.0) if setup == "S"
                    else dataclasses.replace(r, scale=1.0, brightness=f)
                    for r, f in zip(roles, step_factors)
                )
                x = synthgen._paint_canvases(painter_cfg, 1, lambda cfg, rng: placed)[0]
                assert pixels.tobytes() == x[0].tobytes()

    @pytest.mark.parametrize("n_sequences, steps, message", [(0, 5, "n_sequences"), (1, 1, "steps")])
    def test_refuses_an_empty_sweep(self, n_sequences, steps, message):
        with pytest.raises(ValueError, match=f"{message} must be at least"):
            next(iter_adjust_sweeps(small_cfg(), n_sequences, steps))

    def test_repeated_steps_share_one_row(self):
        cfg = small_cfg(setup="S", scale_range=(1.0, 2.7))
        for seq in generate_adjust_sequences(cfg, n_sequences=2, steps=50):
            pixels = [s.pixels for s in seq.samples]
            repeats = [step for step in range(1, 50) if np.shares_memory(pixels[step], pixels[step - 1])]
            assert 0 < len(repeats) < 49
            for step in range(1, 50):
                same = pixels[step].tobytes() == pixels[step - 1].tobytes()
                assert same == (step in repeats)

    def test_refuses_fewer_than_three_classes(self):
        with pytest.raises(ValueError, match="'canvas.num_classes' must be at least 3"):
            next(iter_adjust_sweeps(small_cfg(num_classes=2, digit_count_range=(1, 2)), 2, 5))

    def test_builtin_bank_builds_no_rng(self, monkeypatch):
        # Sweep canvases are composed without an rng; only stored glyph
        # banks need one, so builtin glyphs must not build it per canvas.
        def refuse(*args, **kwargs):
            raise AssertionError("np.random.default_rng called")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for setup, color_mode in (("S", "gray"), ("B", "color")):
            cfg = small_cfg(setup=setup, color_mode=color_mode)
            sweeps = iter_adjust_sweeps(cfg, n_sequences=2, steps=5)
            assert [len(index) for *_, index in sweeps] == [5, 5]


class TestCalibrationSet:
    def test_four_positives_bijection(self):
        cfg = small_cfg(setup="S")
        samples = generate_calibration_set(cfg, 20)
        assert len(samples) == 20
        for s in samples:
            positives = np.flatnonzero(s.ranks > 0)
            assert len(positives) == 4
            scales = sorted(pf.scale for pf in s.factors)
            assert scales == list(CALIBRATION_SCALES)
            for pf in s.factors:
                expected_rank = 1 + CALIBRATION_SCALES.index(pf.scale)
                assert s.ranks[pf.digit] == expected_rank

    def test_requires_scale_setup(self):
        with pytest.raises(ValueError, match="setup mismatch"):
            generate_calibration_set(small_cfg(setup="B"), 5)

    @pytest.mark.parametrize("canvas, key", [
        ({"num_classes": 3, "digit_count_range": (1, 3)}, "canvas.num_classes"),
        ({"glyph_size": 20, "scale_range": (1.0, 2.0)}, "canvas.glyph_size"),
    ])
    def test_refuses_a_canvas_without_room_for_it(self, canvas, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            generate_calibration_set(small_cfg(**canvas), 5)

    def test_determinism(self):
        a = generate_calibration_set(small_cfg(), 5)
        b = generate_calibration_set(small_cfg(), 5)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.pixels, sb.pixels)


class TestFeatureDataset:
    def test_noise_free_single_class(self):
        # with one class present and no noise the features are factor * direction
        x, ranks, _ = feature_arrays(1, 4, 50, factor_range=(0.5, 2.0), seed=3, noise=0.0)
        norms = np.linalg.norm(x, axis=1)
        np.testing.assert_allclose(x / norms[:, None], np.tile(x[0] / norms[0], (50, 1)), atol=1e-12)
        assert ((0.5 <= norms) & (norms <= 2.0)).all()
        assert ranks.tolist() == [[1]] * 50

    def test_ranks_follow_factors(self):
        x, ranks, _ = feature_arrays(5, 8, 100, seed=4, noise=0.0)
        # recover factors by projecting onto the (regenerated) directions
        rng = np.random.Generator(np.random.PCG64(4))
        dirs = rng.standard_normal((5, 8))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pinv = np.linalg.pinv(dirs)
        for features, row_ranks in zip(x, ranks):
            factors = features @ pinv
            positives = np.flatnonzero(row_ranks > 0)
            ordered = sorted(positives, key=lambda c: row_ranks[c])
            vals = [factors[c] for c in ordered]
            assert vals == sorted(vals)
            assert len(positives) >= 1

    def test_determinism(self):
        xa, ranks_a, _ = feature_arrays(4, 6, 20, seed=9)
        xb, ranks_b, _ = feature_arrays(4, 6, 20, seed=9)
        assert xa.tobytes() == xb.tobytes()
        np.testing.assert_array_equal(ranks_a, ranks_b)

    def test_dim_check(self):
        with pytest.raises(ValueError):
            feature_arrays(6, 4, 10)

    @pytest.mark.parametrize("num_classes", [0, -1])
    def test_refuses_fewer_than_one_class(self, num_classes):
        # With no class to draw, the redraw of an empty class mask never ends.
        with pytest.raises(ValueError, match="num_classes must be at least 1"):
            feature_arrays(num_classes, 4, 10)


def assert_factors_of_records(cfg, factors, records):
    """Row i of ``factors`` holds the named factor of each digit placed on
    record i and 0 for every other class."""
    assert factors.shape == (len(records), cfg.num_classes) and factors.dtype == np.float64
    for row, record in zip(factors, records, strict=True):
        want = np.zeros(cfg.num_classes)
        for pf in record.factors:
            want[pf.digit] = getattr(pf, cfg.ranked_factor)
        assert row.tobytes() == want.tobytes()


class TestFactors:
    """Every generator's (n, K) factor matrix holds the ranked factor of
    each present class and 0 for an absent one, and its ranks are
    ``dense_ranks(factors, factors > 0)``, which a per-row sort on
    (factor, -class) reproduces."""

    def test_the_rule_on_a_worked_example(self):
        factors = np.array([[0.0, 2.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.5, 0.0]])
        ranks = dense_ranks(factors, factors > 0)
        assert ranks.dtype == np.dtype(int)
        assert ranks.tolist() == [[0, 3, 1, 2], [0, 0, 0, 0], [2, 0, 1, 0]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=5, max_size=5), min_size=1, max_size=12))
    def test_the_rule_is_a_sort_on_factor_then_class(self, rows):
        factors = np.array(rows)
        np.testing.assert_array_equal(dense_ranks(factors, factors > 0), ranks_by_sort(factors, factors > 0))

    @pytest.mark.parametrize("cfg", [
        *(pytest.param(small_cfg(setup=setup, color_mode=mode), id=f"{setup}-{mode}")
          for setup in SETUPS for mode in ("gray", "color")),
        pytest.param(small_variance_config(small_cfg(seed=8)), id="small-variance"),
    ])
    def test_canvas_factors_are_the_records_placements(self, cfg):
        x, ranks, factors = canvas_arrays(cfg, 12)
        records = generate_canvas_dataset(cfg, 12)
        assert x.tobytes() == np.stack([r.pixels for r in records]).tobytes()
        assert_factors_of_records(cfg, factors, records)
        np.testing.assert_array_equal(ranks, np.stack([r.ranks for r in records]))
        np.testing.assert_array_equal(ranks, ranks_by_sort(factors, factors > 0))

    def test_calibration_factors_are_the_records_placements(self):
        cfg = small_cfg(color_mode="color")
        x, ranks, factors = calibration_arrays(cfg, 12)
        records = generate_calibration_set(cfg, 12)
        assert x.tobytes() == np.stack([r.pixels for r in records]).tobytes()
        assert_factors_of_records(cfg, factors, records)
        np.testing.assert_array_equal(ranks, np.stack([r.ranks for r in records]))
        np.testing.assert_array_equal(ranks, ranks_by_sort(factors, factors > 0))
        # A mask per level marks one digit of every canvas.
        for level in CALIBRATION_SCALES:
            assert (factors == level).sum(axis=1).tolist() == [1] * 12

    @pytest.mark.parametrize("setup", ["S", "B"])
    @pytest.mark.parametrize("steps", [3, 5, 50])
    def test_sweep_records_take_the_ranks_of_their_factors(self, setup, steps):
        cfg = small_cfg(setup=setup)
        sweeps = iter_adjust_sweeps(cfg, 2, steps)
        for (digits, _, factors, _, _), seq in zip(sweeps, generate_adjust_sequences(cfg, 2, steps), strict=True):
            swept = np.zeros((steps, cfg.num_classes))
            swept[:, list(digits)] = factors
            assert_factors_of_records(cfg, swept, seq.samples)
            np.testing.assert_array_equal(np.stack([s.ranks for s in seq.samples]), ranks_by_sort(swept, swept > 0))

    def test_a_three_step_sweep_breaks_its_tie_by_class_index(self):
        cfg = small_cfg(setup="S", scale_range=(1.0, 3.0))
        seqs = generate_adjust_sequences(cfg, 4, 3)
        assert any(list(seq.digits) != sorted(seq.digits) for seq in seqs)
        for seq in seqs:
            middle = seq.samples[1]
            # At t = 0.5 all three digits share the scale 2.0.
            assert [pf.scale for pf in middle.factors] == [2.0, 2.0, 2.0]
            assert middle.ranks[sorted(seq.digits)].tolist() == [3, 2, 1]

    @pytest.mark.parametrize("args,kwargs", [
        ((6, 24, 500), {"seed": 101}),
        ((4, 8, 300), {"seed": 7, "noise": 0.0, "factor_range": (0.25, 4.0)}),
    ])
    def test_feature_factors_make_the_rows_and_their_ranks(self, args, kwargs):
        k, d, n = args
        x, ranks, factors = feature_arrays(*args, **kwargs)
        assert factors.shape == (n, k) and factors.dtype == np.float64
        np.testing.assert_array_equal(factors > 0, ranks > 0)
        lo, hi = kwargs.get("factor_range", (0.5, 3.0))
        present = factors[factors > 0]
        assert ((lo <= present) & (present <= hi)).all()
        np.testing.assert_array_equal(ranks, ranks_by_sort(factors, factors > 0))
        if not kwargs.get("noise", 0.05):
            # Without noise a row is its factors times the class directions.
            directions = np.random.Generator(np.random.PCG64(kwargs["seed"])).standard_normal((k, d))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            np.testing.assert_allclose(x, factors @ directions, rtol=0, atol=1e-12)


def sha256_of(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """The bytes of every dataset generator's arrays, records and dumped
    images, recorded before the generators filled their own matrices: a
    change to how they are filled may move no byte."""

    @pytest.mark.parametrize("case,digest", [
        ("color B-mix", "28ad5fd7d4c1acac6033727770149d8b1f15c2b6d1af34c2f10af9a9643bbb46"),
        ("gray S-mix", "005f6076e963ca4f0a68e79d08be99d3feb1f5eef057b1dea5e4de11f27fd3c7"),
        ("small-variance", "e4e29253052528327deba5476b66ffcfba4eaab4b1dbb97f1b6ebb47d2821a26"),
        # The stored glyph picks share the rng with the placement draws.
        ("idx bank", "c9467fbdf5610570529278d3175046dc65b675fce17b2a661ac9803ca69a04a6"),
    ])
    def test_canvas_arrays(self, tmp_path, case, digest):
        cfg = {
            "color B-mix": lambda: small_cfg(setup="B-mix", color_mode="color"),
            "gray S-mix": lambda: small_cfg(setup="S-mix", digit_count_range=(2, 8)),
            "small-variance": lambda: small_variance_config(small_cfg(seed=8)),
            "idx bank": lambda: idx_bank_cfg(tmp_path, setup="S-mix"),
        }[case]()
        x, ranks, _ = canvas_arrays(cfg, 24)
        assert x.shape == (24, cfg.feature_length) and x.dtype == np.float64
        assert ranks.shape == (24, cfg.num_classes) and ranks.dtype == np.dtype(int)
        assert sha256_of(x, ranks.astype("<i8")) == digest

    # Taken before a sweep step copied the row of the step before it.
    @pytest.mark.parametrize("case,digest", [
        ("gray S", "3b8190c08e26a25fbf188f4b7249742d59464bf012a661c2bf59fc615735d74c"),
        ("color S-mix", "6b97e0cf9155b2ea456e6315945f00714f7cb62ee5a838d4838cc9c94ae795af"),
        ("gray B", "f64ce9ad3f8859ddcd787c0295aa50990c34d318f4f5d598f582c1dd68983afe"),
    ])
    def test_adjust_sweeps(self, case, digest):
        cfg = {
            "gray S": lambda: small_cfg(setup="S"),
            "color S-mix": lambda: small_cfg(setup="S-mix", color_mode="color"),
            "gray B": lambda: small_cfg(setup="B"),
        }[case]()
        blocks = [block[index] for *_, block, index in iter_adjust_sweeps(cfg, n_sequences=3, steps=50)]
        assert sha256_of(*blocks) == digest

    def test_calibration_set_from_idx_bank(self, tmp_path):
        cfg = idx_bank_cfg(tmp_path)
        samples = generate_calibration_set(cfg, 12)
        assert all(s.pixels.dtype == np.float64 and s.image_shape == cfg.image_shape for s in samples)
        rows = [a for s in samples for a in (s.pixels, s.ranks.astype("<i8"))]
        factors = json.dumps([[pf.to_dict() for pf in s.factors] for s in samples]).encode()
        digest = sha256_of(*rows, np.frombuffer(factors, dtype=np.uint8))
        assert digest == "461a49f7ca1dce64e82ffce1487bd8e44ef539d2f6ddb645dbcaafbb156daa58"

    @pytest.mark.parametrize("args,kwargs,digest", [
        ((6, 24, 5000), {"seed": 101}, "3fc4696ca035281fb6d5c2950dd54f77852f470176e0d132d0309fe51262d3ef"),
        ((4, 8, 300), {"seed": 7, "noise": 0.0, "factor_range": (0.25, 4.0)},
         "863397767fd99a795329d73f4f7ecb3149ef56ed7ebec3748b45190b5ef605e6"),
    ])
    def test_feature_arrays(self, args, kwargs, digest):
        x, ranks, _ = feature_arrays(*args, **kwargs)
        assert x.shape == (args[2], args[1]) and x.dtype == np.float64
        assert ranks.shape == (args[2], args[0]) and ranks.dtype == np.dtype(int)
        assert sha256_of(x, ranks.astype("<i8")) == digest

    @pytest.mark.parametrize("color_mode,digest", [
        ("gray", "1418dd69bdbb3f71090c6aec97a5e14896c908817a0a219856e0a0bb50d970b5"),
        ("color", "4688d597253fc1dbb02c7c3b6711af243d42f8854229cadce529343119ca5297"),
    ])
    def test_dumped_images(self, tmp_path, color_mode, digest):
        cfg = small_cfg(setup="S-mix", color_mode=color_mode)
        canvas_arrays(cfg, 7, image_dir=tmp_path / "images")
        h = hashlib.sha256()
        for path in sorted((tmp_path / "images").iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        assert h.hexdigest() == digest


class TestRecordWrappers:
    """The record-shaped generators the benchmark's checkpoint script
    imports, each pinned to the arrays the commands build."""

    def test_canvas_records_are_the_canvas_arrays(self):
        cfg = small_cfg(setup="B-mix", color_mode="color")
        records = [s.to_instance() for s in generate_canvas_dataset(cfg, 6)]
        x, ranks, _ = canvas_arrays(cfg, 6)
        assert all(r.image_shape == cfg.image_shape for r in records)
        assert np.stack([r.features for r in records]).tobytes() == x.tobytes()
        assert np.stack([r.ranks for r in records]).tobytes() == ranks.tobytes()

    def test_feature_records_are_the_feature_arrays(self):
        records = generate_feature_dataset(4, 6, 30, seed=9)
        x, ranks, _ = feature_arrays(4, 6, 30, seed=9)
        assert all(r.image_shape is None for r in records)
        assert np.stack([r.features for r in records]).tobytes() == x.tobytes()
        assert np.stack([r.ranks for r in records]).tobytes() == ranks.tobytes()


class TestRankedInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankedInstance(features=np.zeros(2), ranks=np.array([-1, 0]))
        with pytest.raises(ValueError):
            RankedInstance(features=np.array([np.inf]), ranks=np.array([1]))
        with pytest.raises(ValueError):
            RankedInstance(features=np.zeros(2), ranks=np.array([], dtype=int))


BAD_ROWS = [
    "non-finite", "negative rank", "rank overflow", "wrong length", "broken JSON",
    "string feature", "boolean feature", "null feature", "boolean rank",
]


def reference_lines(d, n, seed, bad):
    """``n`` rows of ``d`` features and 2 ranks as JSON lines, with row
    ``row % n`` broken in the way ``kind`` names for each (row, kind) of
    ``bad``."""
    rng = np.random.default_rng(seed)
    rows = [
        {"features": (rng.integers(-9, 10, size=d) / 4).tolist(), "ranks": rng.integers(0, 4, size=2).tolist()}
        for _ in range(n)
    ]
    lines = [json.dumps(r) for r in rows]
    for row, kind in bad:
        row, col = row % n, int(rng.integers(d))
        features, row_ranks = rows[row]["features"], rows[row]["ranks"]
        if kind == "broken JSON":
            lines[row] = lines[row][:-1]
            continue
        if kind == "non-finite":
            features[col] = [np.inf, -np.inf, np.nan][col % 3]
        elif kind == "negative rank":  # slices: a row may have lost a rank
            row_ranks[:1] = [-1]
        elif kind == "rank overflow":
            row_ranks[-1:] = [2**63]
        elif kind == "wrong length" and col % 2:
            features.append(0.5)
        elif kind == "wrong length":
            row_ranks.pop()
        elif kind == "string feature":
            features[col] = str(features[col])
        elif kind == "boolean feature":
            features[col] = bool(col % 2)
        elif kind == "null feature":
            features[col] = None
        elif kind == "boolean rank":
            row_ranks[-1:] = [bool(col % 2)]
        lines[row] = json.dumps(rows[row])
    return lines


def write_lines(path, d, lines, newline="\n"):
    """A dataset file of 2 classes and ``d`` features holding ``lines``,
    with no binary copy."""
    with open(path, "w", newline="") as fh:
        fh.write(newline.join([json.dumps({"k": 2, "d": d}), *lines]) + newline)


def walked_read(path):
    """``read_dataset_jsonl(path)`` with every block left to the line walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_parse_block", lambda *args: False)
        return read_dataset_jsonl(path)


def assert_reads_as_reference(path):
    """The reader takes ``path`` as ``reference_read`` does, with the same
    bits and the same message as a read that walks every line."""
    want = reference_read(path)
    if isinstance(want, int):
        with pytest.raises(ValueError, match=re.escape(f"{os.path.basename(path)}:{want}: ")) as got:
            read_dataset_jsonl(path)
        with pytest.raises(ValueError) as walked:
            walked_read(path)
        assert str(got.value) == str(walked.value)
    else:
        for header, x, ranks in (read_dataset_jsonl(path), walked_read(path)):
            assert header == want[0]
            assert x.tobytes() == want[1].tobytes()
            np.testing.assert_array_equal(ranks, want[2])


def reference_read(path):
    """The reader's contract, one line at a time: (header, x, ranks), or
    the number of the first line that breaks it.  The header is taken as
    valid."""
    with open(path) as fh:
        lines = fh.read().split("\n")[:-1]
    header = json.loads(lines[0])
    xs, rs = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line)
        except ValueError:
            return lineno
        features = row.get("features") if isinstance(row, dict) else None
        row_ranks = row.get("ranks") if isinstance(row, dict) else None
        if not (
            isinstance(features, list) and len(features) == header["d"]
            and all(type(v) in (int, float) and math.isfinite(v) for v in features)
            and isinstance(row_ranks, list) and len(row_ranks) == header["k"]
            and all(type(r) is int and 0 <= r < 2**63 for r in row_ranks)
        ):
            return lineno
        xs.append(features)
        rs.append(row_ranks)
    return header, np.array(xs, dtype=float), np.array(rs)


def read_and_way(path):
    """``read_dataset_jsonl(path)`` and the way its arrays came: "binary"
    from the file's binary copy, "parsed" from its rows."""
    ways = []
    real = dataio._sidecar_arrays

    def spy(*args):
        got = real(*args)
        ways.append("parsed" if got is None else "binary")
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_sidecar_arrays", spy)
        result = read_dataset_jsonl(path)
    return result, ways[0]


def assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SIDECAR_FAULTS = [
    "empty", "garbage", "a directory", "npz archive", "truncated digest", "truncated features",
    "truncated ranks", "a trailing byte", "other digest", "float32 features", "int32 ranks",
    "big-endian features", "Fortran-order features", "other d", "other k", "row counts differ",
    "no rows", "rows past the end", "non-finite feature", "negative rank",
]


def faulty_sidecar(path, x, ranks, fault) -> None:
    """Replace the binary copy of ``path`` (written from ``x``, ``ranks``)
    with one that has ``fault``."""
    sidecar = path.with_name(path.name + ".npy")
    digest = np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), dtype=np.uint8)
    good = sidecar.read_bytes()
    sidecar.unlink()
    records = [digest, x, ranks]
    if fault == "empty":
        records = []
    elif fault == "garbage":
        records = [b"\x93NUMPY garbage " * 40]
    elif fault == "a directory":
        os.mkdir(sidecar)
        return
    elif fault == "npz archive":
        with open(sidecar, "wb") as fh:
            np.savez(fh, digest=digest, x=x, ranks=ranks)
        return
    elif fault.startswith("truncated"):
        cut = {"digest": 100, "features": len(good) - ranks.nbytes - 200, "ranks": len(good) - 8}[fault.split()[1]]
        records = [good[:cut]]
    elif fault == "a trailing byte":
        records = [good + b"\0"]
    elif fault == "other digest":
        records[0] = np.frombuffer(hashlib.sha256(b"another file").digest(), dtype=np.uint8)
    elif fault == "float32 features":
        records[1] = x.astype(np.float32)
    elif fault == "int32 ranks":
        records[2] = ranks.astype(np.int32)
    elif fault == "big-endian features":
        records[1] = x.astype(">f8")
    elif fault == "Fortran-order features":
        records[1] = np.asfortranarray(x)
    elif fault == "other d":
        records[1] = x[:, :-1]
    elif fault == "other k":
        records[2] = ranks[:, :-1]
    elif fault == "row counts differ":
        records[2] = ranks[:-1]
    elif fault == "no rows":
        records[1:] = [x[:0], ranks[:0]]
    elif fault == "rows past the end":
        # A header that declares far more rows than the file holds.
        with open(sidecar, "wb") as fh:
            np.save(fh, digest)
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (10**12, x.shape[1])})
            fh.write(x.tobytes())
        return
    elif fault == "non-finite feature":
        records[1] = x.copy()
        records[1][-1, 0] = np.nan
    elif fault == "negative rank":
        records[2] = ranks.copy()
        records[2][0, 0] = -1
    with open(sidecar, "wb") as fh:
        for record in records:
            if isinstance(record, bytes):
                fh.write(record)
            else:
                np.save(fh, record)


def write_and_ways(path, x, ranks, image_shape=None):
    """``write_dataset_jsonl`` with a spy on its two ways of writing a
    block; returns (rows, "table" or "repr") per written block."""
    taken = []

    def spy(way, real):
        def wrapped(block, *args):
            taken.append((len(block), way))
            return real(block, *args)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_table_lines", spy("table", dataio._table_lines))
        mp.setattr(dataio, "_repr_lines", spy("repr", dataio._repr_lines))
        write_dataset_jsonl(path, x, ranks, image_shape=image_shape)
    return taken


def assert_written_as_reference(path, x, ranks, image_shape=None):
    """The file at ``path``, written from ``x`` and ``ranks``, holds the
    sorted compact header and then each row as ``json.dumps`` writes it,
    and its binary copy the ``np.save`` records of that text's sha256,
    ``x`` as float64 and ``ranks`` as int64."""
    header = {"d": x.shape[1], "generator": {}, "k": ranks.shape[1]}
    if image_shape is not None:
        header["image_shape"] = list(image_shape)
    lines = path.read_bytes().decode("ascii").split("\n")
    assert lines[0] == json.dumps(header, sort_keys=True, separators=(",", ":"))
    assert lines[-1] == "" and len(lines) == len(x) + 2
    for line, row, row_ranks in zip(lines[1:], x.tolist(), ranks.tolist()):
        assert line == json.dumps({"features": row, "ranks": row_ranks}, separators=(",", ":"))
    want = io.BytesIO()
    for record in (np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), dtype=np.uint8),
                   x.astype(np.float64), ranks.astype(np.int64)):
        np.save(want, record, allow_pickle=False)
    assert path.with_name(path.name + ".npy").read_bytes() == want.getvalue()


def block_values(rng, kind, shape):
    """Values whose blocks repeat ("repeated", at most 12 distinct ones)
    or all differ ("distinct"), both holding 0.0 and -0.0."""
    if kind == "repeated":
        values = np.round(rng.uniform(-0.5, 0.5, size=shape), 1)
    else:
        values = rng.standard_normal(size=shape)
    values.flat[:2] = [0.0, -0.0]
    values.flat[-2:] = [-0.0, 0.0]
    return values


class TestJsonl:
    def test_round_trip_and_byte_determinism(self, tmp_path):
        x, ranks, _ = feature_arrays(3, 5, 12, seed=1)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_dataset_jsonl(p1, x, ranks, generator={"kind": "feature"})
        write_dataset_jsonl(p2, x, ranks, generator={"kind": "feature"})
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.jsonl.npy").read_bytes() == (tmp_path / "b.jsonl.npy").read_bytes()
        (header, x_back, ranks_back), way = read_and_way(p1)
        assert way == "binary"
        assert header["k"] == 3 and header["d"] == 5
        np.testing.assert_array_equal(x_back, x)
        np.testing.assert_array_equal(ranks_back, ranks)
        assert x_back.dtype == np.float64 and np.issubdtype(ranks_back.dtype, np.integer)

    def test_header_line_count(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset_jsonl(path, *feature_arrays(2, 3, 7, seed=2)[:2])
        lines = path.read_text().splitlines()
        assert len(lines) == 8
        assert json.loads(lines[0])["k"] == 2

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"k":2,"d":3,"generator":{}}\n{"features":[1.0,2.0],"ranks":[1,0]}\n'
        )
        with pytest.raises(ValueError, match="shape"):
            read_dataset_jsonl(path)

    def test_image_shape_round_trip(self, tmp_path):
        cfg = small_cfg(color_mode="color")
        pixels, ranks, _ = canvas_arrays(cfg, 4)
        path = tmp_path / "c.jsonl"
        write_dataset_jsonl(path, pixels, ranks, image_shape=cfg.image_shape)
        # The header line is parsed on both ways; this is the binary one.
        (header, x, _), way = read_and_way(path)
        assert way == "binary"
        assert header["image_shape"] == [48, 48, 3]
        np.testing.assert_array_equal(x, pixels)
        features = tmp_path / "f.jsonl"
        write_dataset_jsonl(features, *feature_arrays(3, 5, 4, seed=1)[:2])
        (header, _, _), way = read_and_way(features)
        assert way == "binary"
        assert "image_shape" not in header

    @pytest.mark.parametrize("kind", ["gray", "colour B-mix", "small-variance", "feature"])
    def test_both_ways_read_the_same_arrays(self, tmp_path, kind):
        if kind == "feature":
            (x, ranks, _), shape = feature_arrays(6, 24, 40, seed=3), None
        else:
            cfg = {
                "gray": small_cfg(), "colour B-mix": small_cfg(setup="B-mix", color_mode="color"),
                "small-variance": small_variance_config(small_cfg()),
            }[kind]
            (x, ranks, _), shape = canvas_arrays(cfg, 12), cfg.image_shape
        path = tmp_path / "d.jsonl"
        write_dataset_jsonl(path, x, ranks, image_shape=shape)
        (header, x_binary, ranks_binary), way = read_and_way(path)
        assert way == "binary"
        os.remove(tmp_path / "d.jsonl.npy")
        (parsed_header, x_parsed, ranks_parsed), way = read_and_way(path)
        assert way == "parsed"
        assert header == parsed_header
        assert_same_arrays(x_binary, x_parsed)
        assert_same_arrays(ranks_binary, ranks_parsed)
        assert x_binary.dtype == np.float64 and ranks_binary.dtype == np.int64
        assert x_binary.flags.c_contiguous and x_binary.flags.writeable
        assert x_parsed.tobytes() == x.tobytes()
        np.testing.assert_array_equal(ranks_parsed, ranks)

    @pytest.mark.parametrize("old,new,row,col", [("0.25", "0.75", 1, 0), ("[2", "[3", 2, 0)])
    def test_an_edited_file_is_parsed(self, tmp_path, old, new, row, col):
        x, ranks = np.full((4, 3), 0.25), np.tile([2, 1], (4, 1))
        path = tmp_path / "d.jsonl"
        write_dataset_jsonl(path, x, ranks)
        lines = path.read_text().splitlines(keepends=True)
        lines[row + 1] = lines[row + 1].replace(old, new, 1)
        path.write_text("".join(lines))
        (_, x_back, ranks_back), way = read_and_way(path)
        assert way == "parsed"
        edited = x_back if old == "0.25" else ranks_back
        assert edited[row, col] == float(new.strip("["))
        edited[row, col] = float(old.strip("["))
        assert_same_arrays(x_back, x)
        np.testing.assert_array_equal(ranks_back, ranks)

    @pytest.mark.parametrize("fault", SIDECAR_FAULTS)
    def test_a_binary_copy_that_does_not_hold_the_file_is_ignored(self, tmp_path, fault):
        x, ranks, _ = feature_arrays(3, 5, 6, seed=1)
        path = tmp_path / "d.jsonl"
        write_dataset_jsonl(path, x, ranks)
        faulty_sidecar(path, x, ranks, fault)
        (_, x_back, ranks_back), way = read_and_way(path)
        assert way == "parsed"
        assert_same_arrays(x_back, x)
        np.testing.assert_array_equal(ranks_back, ranks)

    def test_a_malformed_file_beside_a_stale_copy_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset_jsonl(path, *feature_arrays(3, 5, 6, seed=1)[:2])
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3][:-3] + "\n"
        path.write_text("".join(lines))
        assert (tmp_path / "d.jsonl.npy").exists()
        with pytest.raises(ValueError, match="d.jsonl:4: "):
            read_dataset_jsonl(path)

    @pytest.mark.parametrize("x,ranks,shape,match", [
        (np.zeros((2, 64)), np.ones((2, 2), dtype=int), (4, 4, 1), "image_shape"),
        (np.zeros((2, 64)), np.ones((2, 2), dtype=int), (8, 8, 1.0), "image_shape"),
        (np.zeros((3, 64)), np.ones((2, 2), dtype=int), None, "n, d"),
        (np.zeros(64), np.ones(2, dtype=int), None, "n, d"),
        (np.zeros((0, 64)), np.ones((0, 2), dtype=int), None, "n, d"),
        (np.zeros((2, 0)), np.ones((2, 2), dtype=int), None, "'d'"),
        (np.array([[0.0], [np.inf]]), np.ones((2, 1), dtype=int), None, "finite"),
        (np.array([[0.0], [np.nan]]), np.ones((2, 1), dtype=int), None, "finite"),
        (np.zeros((2, 1)), np.array([[1], [-1]]), None, "non-negative"),
        (np.zeros((2, 1)), np.array([[1.0], [0.0]]), None, "integers"),
        (np.zeros((2, 1)), np.array([[1], [2**63]], dtype=np.uint64), None, "int64"),
    ])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, x, ranks, shape, match):
        path = tmp_path / "bad.jsonl"
        with pytest.raises(ValueError, match=match):
            write_dataset_jsonl(path, x, ranks, image_shape=shape)
        assert not path.exists() and not (tmp_path / "bad.jsonl.npy").exists()

    @pytest.mark.parametrize("header,row,line", [
        ('', '', 1),
        ('5', '{"features":[0.1],"ranks":[1]}', 1),
        ('[1]', '{"features":[0.1],"ranks":[1]}', 1),
        ('{"k":2.9,"d":1}', '{"features":[0.1],"ranks":[1,0]}', 1),
        ('{"k":1,"d":true}', '{"features":[0.1],"ranks":[1]}', 1),
        ('{"k":0,"d":1}', '{"features":[0.1],"ranks":[]}', 1),
        ('{"d":1}', '{"features":[0.1],"ranks":[1]}', 1),
        ('{"k":1,"d":4,"image_shape":[2,2]}', '{"features":[0,0,0,0],"ranks":[1]}', 1),
        ('{"k":1,"d":4,"image_shape":[2,2,2]}', '{"features":[0,0,0,0],"ranks":[1]}', 1),
        ('{"k":1,"d":4,"image_shape":[4,1,1.0]}', '{"features":[0,0,0,0],"ranks":[1]}', 1),
        ('{"k":1,"d":4,"image_shape":[-2,-2,1]}', '{"features":[0,0,0,0],"ranks":[1]}', 1),
        ('{"k":1,"d":4,"image_shape":"2x2x1"}', '{"features":[0,0,0,0],"ranks":[1]}', 1),
        ('{"k":1,"d":1}', '[[0.1],[1]]', 2),
        ('{"k":1,"d":1}', '{"features":{"a":1},"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"features":[[0.1]],"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"features":["x"],"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"features":[0.1],"ranks":[1]', 2),
        ('{"k":1,"d":1}', '{"features":[0.1],"ranks":[1]}\n{"features":[Infinity],"ranks":[1]}', 3),
        ('{"k":1,"d":1}', '{"features":[NaN],"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"features":[0.1],"ranks":[-1]}', 2),
        ('{"k":1,"d":1}', '{"features":[0.1],"ranks":[1]}\n', 3),
        # A header larger than the file could hold makes no room for it.
        ('{"k":1,"d":1000000000000}', '{"features":[0.1],"ranks":[1]}', 2),
        # Features are JSON numbers: no string or boolean is cast.
        ('{"k":1,"d":1}', '{"features":["1.5"],"ranks":[1]}', 2),
        ('{"k":1,"d":2}', '{"features":[0.5,true],"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"features":[false],"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"feat\\u0075res":[true],"ranks":[1]}', 2),
        ('{"k":1,"d":1}', '{"features":[null],"ranks":[1]}', 2),
        # Numbers too large for their float64 or int64 slot.
        ('{"k":1,"d":1}', '{"features":[0.1],"ranks":[100000000000000000000]}', 2),
        pytest.param('{"k":1,"d":1}', '{"features":[' + "7" * 400 + '],"ranks":[1]}', 2, id="400-digit-feature"),
        # A non-finite row is named before a later malformed one.
        ('{"k":1,"d":1}', '{"features":[0.1],"ranks":[1]}\n{"features":[NaN],"ranks":[1]}\n[', 3),
    ])
    def test_malformed_header_or_row_names_the_line(self, tmp_path, header, row, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.jsonl:{line}: "):
            read_dataset_jsonl(path)

    def test_a_non_ascii_byte_is_named_on_its_line(self, tmp_path):
        # The byte sits far past the first text block a decoder reads.
        rows = ['{"features":[0.5],"ranks":[0]}'] * 2000
        rows[1500] = '{"features":[0.5],"ranks":[0],"note":"\u00e9"}'
        path = tmp_path / "na.jsonl"
        path.write_text('{"k":1,"d":1}\n' + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="na.jsonl:1502: .*ASCII"):
            read_dataset_jsonl(path)

    def test_non_finite_rows_are_named_in_any_block(self, tmp_path):
        # 8192 // 3000 = 2 rows per finiteness block.
        x, ranks = np.zeros((7, 3000)), np.ones((7, 1), dtype=int)
        path = tmp_path / "wide.jsonl"
        write_dataset_jsonl(path, x, ranks)
        lines = path.read_text().splitlines()
        # Each edit leaves the binary copy stale, so the rows are parsed.
        for row in range(7):
            bad = list(lines)
            bad[row + 1] = bad[row + 1].replace("0.0]", "-Infinity]")
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(ValueError, match=f"wide.jsonl:{row + 2}: features must be finite"):
                read_dataset_jsonl(path)

    # d = 3000 and 8193 put 2 rows and 1 row in each finiteness block.
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([1, 3, 24, 700, 3000, 8193]),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        bad=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(BAD_ROWS)), max_size=2),
    )
    # A non-finite row above a malformed one, in the malformed row's
    # finiteness block and in an earlier block.
    @example(d=3, n=5, seed=0, bad=[(1, "non-finite"), (3, "broken JSON")])
    @example(d=3000, n=5, seed=0, bad=[(4, "wrong length"), (2, "non-finite")])
    @example(d=1, n=1, seed=0, bad=[(0, "wrong length"), (0, "rank overflow")])
    def test_reader_matches_a_per_line_reference(self, d, n, seed, bad):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.jsonl")
            write_lines(path, d, reference_lines(d, n, seed, bad))
            assert_reads_as_reference(path)

    # d = 24 puts 341 rows in each parse block: rows 0-340, 341-681, ...
    @pytest.mark.parametrize("bad", [
        *(pytest.param([(row, kind)], id=f"{row}-{kind}") for row in (0, 340, 341, 681, 699) for kind in BAD_ROWS),
        pytest.param([(100, "non-finite"), (341, "broken JSON")], id="100-non-finite-341-broken JSON"),
        pytest.param([(341, "non-finite"), (681, "wrong length")], id="341-non-finite-681-wrong length"),
    ])
    def test_a_bad_row_at_a_block_edge_is_named_as_the_reference(self, tmp_path, bad):
        path = tmp_path / "r.jsonl"
        write_lines(path, 24, reference_lines(24, 700, bad[0][0], bad))
        assert_reads_as_reference(path)

    @pytest.mark.parametrize("unusual", [
        "extra key holding true", "integer features", "integer beyond int64", "CRLF",
        "ranks first", "spaces", "escaped key",
    ])
    def test_unusual_valid_rows_read_as_the_reference(self, tmp_path, unusual):
        lines = reference_lines(24, 700, 3, [])
        newline = "\r\n" if unusual == "CRLF" else "\n"
        for row in (0, 340, 341, 500):
            doc = json.loads(lines[row])
            if unusual == "extra key holding true":
                doc["note"] = "true"
            elif unusual == "integer features":
                doc["features"] = list(range(-12, 12))
            elif unusual == "integer beyond int64":
                # 2**70 + 1 rounds to 2**70; -(2**64) - 3 to -(2**64).
                doc["features"][:2] = [2**70 + 1, -(2**64) - 3]
            elif unusual == "ranks first":
                doc = {"ranks": doc["ranks"], "features": doc["features"]}
            lines[row] = json.dumps(doc, separators=(",", ":"))
            if unusual == "spaces":
                lines[row] = " \t" + json.dumps(doc, indent=None) + "  "
            elif unusual == "escaped key":
                lines[row] = lines[row].replace('"features"', '"feat\\u0075res"')
        path = tmp_path / "u.jsonl"
        write_lines(path, 24, lines, newline)
        assert not isinstance(reference_read(path), int)
        assert_reads_as_reference(path)

    @pytest.mark.parametrize("row", [200, 340])  # inside a parse block, and across two
    @pytest.mark.parametrize("fault", [
        "two rows on one line", "a row split over two lines", "a repeated key across a line end",
    ])
    def test_a_line_that_is_not_one_row_is_named(self, tmp_path, row, fault):
        # Each fault keeps the number of lines; the last two also keep the
        # number of rows the joined lines parse into.
        lines = reference_lines(24, 700, 4, [])
        a, b = lines[row], lines[row + 1]
        if fault == "two rows on one line":
            lines[row] = a + "," + b
        elif fault == "a row split over two lines":
            cut = a.index(",", 20)
            lines[row], lines[row + 1] = a[:cut], a[cut + 1 :] + "," + b
        else:
            lines[row] = a[: a.index('"ranks"')] + '"ranks": [{}'
            lines[row + 1] = "{}], " + a[a.index('"ranks"') :] + "," + b
        path = tmp_path / "two.jsonl"
        write_lines(path, 24, lines)
        assert reference_read(path) == row + 2
        assert_reads_as_reference(path)

    def test_lines_past_the_room_are_walked(self, tmp_path):
        # Three lines that join into one valid row, with a quote pair and a
        # "u" per line, in a file whose size leaves room for one row.
        path = tmp_path / "room.jsonl"
        path.write_text(
            '{"k":1,"d":50}\n'
            '{"features":[' + ",".join(["0"] * 50) + '],"ranks":[0],"xu":[{}\n'
            '{"u":"a"}\n'
            '"a"]}\n'
        )
        assert dataio._line_count(path) - 1 > os.path.getsize(path) // (2 * 51)
        with pytest.raises(ValueError, match="room.jsonl:2: "):
            read_dataset_jsonl(path)

    def test_written_rows_are_parsed_a_block_at_a_time(self, tmp_path):
        x, ranks, _ = feature_arrays(6, 24, 700, seed=3)
        path = tmp_path / "w.jsonl"
        write_dataset_jsonl(path, x, ranks)
        os.remove(tmp_path / "w.jsonl.npy")
        taken = []
        real = dataio._parse_block

        def spy(lines, *args):
            taken.append((len(lines), real(lines, *args)))
            return taken[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_parse_block", spy)
            _, back, ranks_back = read_dataset_jsonl(path)
        assert taken == [(341, True), (341, True), (18, True)]
        assert back.tobytes() == x.tobytes()
        np.testing.assert_array_equal(ranks_back, ranks)

    @pytest.mark.parametrize("line, text", [
        (1, "[" * 200_000 + "]" * 200_000),
        (3, "[" * 200_000 + "]" * 200_000),
        (3, '{"features":' + "[" * 200_000 + "]" * 200_000 + ',"ranks":[0,1]}'),
    ])
    def test_json_nested_too_deeply_names_its_line(self, tmp_path, line, text):
        lines = reference_lines(24, 5, 0, [])
        path = tmp_path / "deep.jsonl"
        if line == 1:
            path.write_text(text + "\n" + "\n".join(lines) + "\n")
        else:
            lines[line - 2] = text
            write_lines(path, 24, lines)
        with pytest.raises(ValueError, match=f"deep.jsonl:{line}: JSON is nested too deeply"):
            read_dataset_jsonl(path)

    def test_line_count_matches_text_mode_across_read_blocks(self, tmp_path):
        rng = np.random.default_rng(9)
        data = bytearray(rng.choice(list(b"ab\r\n"), size=(1 << 21) + 5).astype(np.uint8).tobytes())
        data[(1 << 20) - 1 : (1 << 20) + 1] = b"\r\n"  # a CR LF split between two reads
        for end in (b"", b"\r", b"\n", b"a"):
            path = tmp_path / "lines.txt"
            path.write_bytes(bytes(data) + end)
            with open(path, encoding="latin-1") as fh:
                assert dataio._line_count(path) == sum(1 for _ in fh)

    def test_rows_are_written_as_json_dumps(self, tmp_path):
        # Write blocks hold 32 rows of 1000 values.  The first block's
        # values repeat; the second block's are all distinct but for its
        # zeros.  Both blocks hold 0.0 and -0.0.
        rng = np.random.default_rng(8)
        x = np.round(rng.uniform(-1, 1, size=(64, 1000)), 1)
        x[32:] = rng.uniform(size=(32, 1000))
        x[:33, :2] = [0.0, -0.0]
        x[-1, -2:] = [-0.0, 0.0]
        assert len(np.unique(x[32:].view(np.int64))) == x[32:].size - 2
        ranks = np.arange(128).reshape(64, 2)
        path = tmp_path / "z.jsonl"
        assert write_and_ways(path, x, ranks) == [(32, "table"), (32, "repr")]
        assert_written_as_reference(path, x, ranks)
        os.remove(tmp_path / "z.jsonl.npy")
        (_, back, _), way = read_and_way(path)
        assert way == "parsed"
        assert back.tobytes() == x.tobytes()

    @pytest.mark.parametrize("kind", ["repeated", "distinct"])
    @pytest.mark.parametrize("d, n, block", [(1, 8192 + 37, 8192), (24, 700, 341), (4096, 70, 32), (12288, 33, 32)])
    def test_every_row_and_the_binary_copy_are_the_reference_bytes(self, tmp_path, kind, d, n, block):
        # n is no multiple of the block, so the last block is short.
        rng = np.random.default_rng(d)
        x = block_values(rng, kind, (n, d))
        ranks = rng.integers(0, 4, size=(n, 3))
        path = tmp_path / "r.jsonl"
        shape = (64, 64, d // 4096) if d >= 4096 else None
        way = {"repeated": "table", "distinct": "repr"}[kind]
        sizes = [block] * (n // block) + [n % block]
        assert write_and_ways(path, x, ranks, image_shape=shape) == [(rows, way) for rows in sizes]
        assert_written_as_reference(path, x, ranks, image_shape=shape)

    def test_signed_zeros_in_one_block_keep_their_signs(self, tmp_path):
        zeros = np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0]])
        rng = np.random.default_rng(1)
        for values, way in ((np.tile(zeros, (20, 1)), "table"), (np.vstack([zeros, rng.uniform(size=(38, 4))]), "repr")):
            path = tmp_path / f"{way}.jsonl"
            ranks = np.zeros((len(values), 1), dtype=np.int64)
            assert write_and_ways(path, values, ranks) == [(40, way)]
            assert_written_as_reference(path, values, ranks)
            assert b"[-0.0,-0.0,0.0,0.0]" in path.read_bytes()

    def test_reprs_of_mixed_width_share_one_table_block(self, tmp_path):
        values = np.array([5e-324, 1e-05, 0.1, 1e16, 1.7976931348623157e308, -2.5, -0.0, 0.0])
        x = values[np.random.default_rng(2).integers(len(values), size=(40, 24))]
        x[0, : len(values)] = values
        ranks = np.tile([2, 0, 1], (40, 1))
        path = tmp_path / "w.jsonl"
        assert write_and_ways(path, x, ranks) == [(40, "table")]
        assert_written_as_reference(path, x, ranks)
        assert path.read_text().splitlines()[1].startswith(
            '{"features":[5e-324,1e-05,0.1,1e+16,1.7976931348623157e+308,-2.5,-0.0,0.0,')

    def test_a_file_whose_blocks_switch_way(self, tmp_path):
        rng = np.random.default_rng(3)
        x = block_values(rng, "distinct", (1000, 24))
        x[:341] = block_values(rng, "repeated", (341, 24))
        x[682:] = block_values(rng, "repeated", (318, 24))
        ranks = rng.integers(0, 7, size=(1000, 6))
        path = tmp_path / "s.jsonl"
        assert write_and_ways(path, x, ranks) == [(341, "table"), (341, "repr"), (318, "table")]
        assert_written_as_reference(path, x, ranks)

    def test_canvases_take_the_table_and_features_the_reprs(self, tmp_path):
        cfg = CanvasConfig(canvas_size=64, glyph_size=18, scale_range=(1.0, 2.5), seed=4)
        canvases, canvas_ranks, _ = canvas_arrays(cfg, 40)
        assert write_and_ways(tmp_path / "c.jsonl", canvases, canvas_ranks, cfg.image_shape) == [
            (32, "table"), (8, "table")]
        features, feature_ranks, _ = feature_arrays(6, 24, 700, seed=3)
        assert write_and_ways(tmp_path / "f.jsonl", features, feature_ranks) == [
            (341, "repr"), (341, "repr"), (18, "repr")]
        assert_written_as_reference(tmp_path / "c.jsonl", canvases, canvas_ranks, cfg.image_shape)
        assert_written_as_reference(tmp_path / "f.jsonl", features, feature_ranks)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings_and_a_missing_last_one_read_the_same(self, tmp_path, newline):
        lf = tmp_path / "lf.jsonl"
        write_dataset_jsonl(lf, *feature_arrays(3, 5, 4, seed=1)[:2])
        want, way = read_and_way(lf)
        assert way == "binary"
        text = lf.read_text().replace("\n", newline)
        for i, body in enumerate((text, text[: -len(newline)])):
            path = tmp_path / f"{i}.jsonl"  # no binary copy: its rows are parsed
            path.write_bytes(body.encode("ascii"))
            header, x, ranks = read_dataset_jsonl(path)
            assert header == want[0]
            np.testing.assert_array_equal(x, want[1])
            np.testing.assert_array_equal(ranks, want[2])

    def test_dataset_is_held_once(self, tmp_path):
        cfg = CanvasConfig(canvas_size=64, glyph_size=18, scale_range=(1.0, 2.5), seed=4)
        path = tmp_path / "c.jsonl"
        canvas_arrays(cfg, 2)  # the glyph bank's caches are not the dataset's

        def peak_of(step):
            """What ``step`` allocated at its peak, and its result."""
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = step()
            return tracemalloc.get_traced_memory()[1] - start, result

        tracemalloc.start()
        try:
            generate_peak, (x, ranks, _) = peak_of(lambda: canvas_arrays(cfg, 200))
            write_dataset_jsonl(path, x, ranks, image_shape=cfg.image_shape)
            del x, ranks
            binary_peak, ((_, x, _), binary_way) = peak_of(lambda: read_and_way(path))
            del x
            os.remove(tmp_path / "c.jsonl.npy")
            parsed_peak, ((_, x, _), parsed_way) = peak_of(lambda: read_and_way(path))
        finally:
            tracemalloc.stop()
        assert (binary_way, parsed_way) == ("binary", "parsed")
        assert x.nbytes == 200 * 64 * 64 * 8
        assert generate_peak < 1.5 * x.nbytes
        assert binary_peak < 1.5 * x.nbytes
        assert parsed_peak < 1.5 * x.nbytes


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(6, 28, 28)).astype(np.uint8)
        labels = np.array([0, 1, 1, 2, 0, 1], dtype=np.uint8)
        img_path, lbl_path = write_idx(tmp_path, images, labels)
        bank = load_idx_glyphs(img_path, lbl_path)
        assert set(bank.glyphs) == {0, 1, 2}
        assert bank.glyphs[1].shape == (3, 28, 28)
        np.testing.assert_allclose(bank.glyphs[0][0], images[0] / 255.0)

    def test_bad_magic(self, tmp_path):
        img_path = tmp_path / "img.idx"
        img_path.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 2, 2) + bytes(4))
        lbl_path = tmp_path / "lbl.idx"
        lbl_path.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
        with pytest.raises(ValueError, match="magic"):
            load_idx_glyphs(img_path, lbl_path)

    def test_truncated(self, tmp_path):
        img_path = tmp_path / "img.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(100))
        lbl_path = tmp_path / "lbl.idx"
        lbl_path.write_bytes(struct.pack(">II", 0x801, 2) + bytes(2))
        with pytest.raises(ValueError, match="length"):
            load_idx_glyphs(img_path, lbl_path)

    def test_generation_from_idx_bank(self, tmp_path):
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, size=(20, 28, 28)).astype(np.uint8)
        labels = np.tile(np.arange(10, dtype=np.uint8), 2)
        img_path, lbl_path = write_idx(tmp_path, images, labels)
        cfg = small_cfg(glyph_source="idx-file", idx_images=str(img_path), idx_labels=str(lbl_path))
        x = canvas_arrays(cfg, 5)[0]
        assert x.shape == (5, cfg.feature_length) and x.any()

    def test_adjust_sequences_from_idx_bank_pinned(self, tmp_path):
        # Each sweep canvas picks its stored glyphs from a fresh
        # default_rng(0); the digest pins those bytes.
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, size=(20, 28, 28)).astype(np.uint8)
        labels = np.tile(np.arange(10, dtype=np.uint8), 2)
        img_path, lbl_path = write_idx(tmp_path, images, labels)
        cfg = small_cfg(setup="S", glyph_source="idx-file", idx_images=str(img_path), idx_labels=str(lbl_path))
        h = hashlib.sha256()
        for *_, block, index in iter_adjust_sweeps(cfg, n_sequences=3, steps=5):
            h.update(block[index].tobytes())
        assert h.hexdigest() == "78c676aab0e01f82a4640c79f7a4cf71505e3e05bcee53af2e50962d48f17ebc"

    def test_missing_paths(self):
        with pytest.raises(ValueError, match="glyph source unavailable"):
            canvas_arrays(small_cfg(glyph_source="idx-file"), 2)


class TestImageDump:
    def test_pgm_ppm_headers(self, tmp_path):
        write_pnm(tmp_path / "x.pgm", np.zeros((4, 6, 1)))
        data = (tmp_path / "x.pgm").read_bytes()
        assert data.startswith(b"P5\n6 4\n255\n")
        assert len(data) == len(b"P5\n6 4\n255\n") + 24
        write_pnm(tmp_path / "x.ppm", np.zeros((4, 6, 3)))
        data = (tmp_path / "x.ppm").read_bytes()
        assert data.startswith(b"P6\n6 4\n255\n")
        assert len(data) == len(b"P6\n6 4\n255\n") + 72
