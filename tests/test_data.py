"""Synthetic data determinism, mask bounds, and perturbation calibration."""

import numpy as np
import pytest

from vindet.config import ExperimentConfig
from vindet.data import (
    generate_dataset,
    jpeg_quant_table,
    load_dataset,
    make_clip,
    perturb_gaussian,
    perturb_jpeg,
    psnr,
    save_dataset,
)
from vindet.frequency import dct2, idct2
from vindet.tokenizer import VideoClip


CFG = ExperimentConfig()


def _perturb_jpeg_loop(clip: VideoClip, quality: int) -> VideoClip:
    """JPEG round-trip one frame, channel and 8x8 block at a time, as the
    blockwise version replaced it."""
    q = jpeg_quant_table(quality)
    t, h, w, c = clip.frames.shape
    ph = (8 - h % 8) % 8
    pw = (8 - w % 8) % 8
    out = np.empty_like(clip.frames)
    for f in range(t):
        for ch in range(c):
            plane = clip.frames[f, :, :, ch] * 255.0 - 128.0
            plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
            rec = np.empty_like(plane)
            for by in range(0, plane.shape[0], 8):
                for bx in range(0, plane.shape[1], 8):
                    block = plane[by:by + 8, bx:bx + 8]
                    coeffs = np.round(dct2(block) / q) * q
                    rec[by:by + 8, bx:bx + 8] = idct2(coeffs)
            out[f, :, :, ch] = (rec[:h, :w] + 128.0) / 255.0
    return VideoClip(np.clip(out, 0.0, 1.0))


class TestGenerator:
    def test_same_seed_is_bit_identical(self):
        a = generate_dataset(4, 7, CFG)
        b = generate_dataset(4, 7, CFG)
        for x, y in zip(a, b):
            assert np.array_equal(x.clip.frames, y.clip.frames)
            assert np.array_equal(x.gt_mask, y.gt_mask)

    def test_mask_fraction_bounds(self):
        for sc in generate_dataset(16, 3, CFG):
            assert 0.02 <= sc.gt_mask.mean() <= 0.4

    @pytest.mark.parametrize("side, patch", [(22, 2), (24, 8), (16, 8), (30, 3)])
    def test_any_side_and_patch_the_config_admits(self, side, patch):
        # sides off the texture's 4-pixel pitch, and frames under about 3.2
        # patches a side, whose masks shrink to one patch-aligned cell
        cfg = ExperimentConfig()
        cfg.geometry.height = cfg.geometry.width = side
        cfg.geometry.patch = patch
        for sc in generate_dataset(4, 2, cfg):
            assert sc.clip.frames.shape == (3, side, side, 3)
            assert 0.02 <= sc.gt_mask.mean() <= 0.4

    def test_frame_of_one_patch_rejected(self):
        cfg = ExperimentConfig()
        cfg.geometry.height = cfg.geometry.width = cfg.geometry.patch = 16
        with pytest.raises(ValueError, match="16x16 frame leaves no 16-pixel-aligned mask"):
            make_clip(0, cfg)

    def test_authentic_twin_differs_only_in_target_track(self):
        sc = make_clip(11, CFG)
        auth, _ = sc.recipe.render(False)
        diff = np.abs(sc.clip.frames - auth).max(axis=(0, 3))
        mid_mask = sc.gt_mask > 0.5
        # the middle-frame mask region must be among the changed pixels
        assert diff[mid_mask].max() > 0.01

    def test_flicker_between_frames(self):
        # the fill is resampled per frame: static background, changing hole
        sc = make_clip(12, CFG)
        mask = sc.gt_mask > 0.5
        f = sc.clip.frames
        inside = np.abs(f[1] - f[0]).mean(axis=-1)[mask].mean()
        assert inside > 0.005

    def test_values_in_range(self):
        for sc in generate_dataset(4, 5, CFG):
            assert sc.clip.frames.min() >= 0.0 and sc.clip.frames.max() <= 1.0

    def test_dataset_roundtrip(self, tmp_path):
        clips = generate_dataset(3, 9, CFG)
        save_dataset(tmp_path, clips)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 3
        for (name, clip, mask), sc in zip(loaded, clips):
            np.testing.assert_allclose(clip.frames, sc.clip.frames, atol=1 / 255)
            np.testing.assert_array_equal(mask, sc.gt_mask)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_dataset(0, 0, CFG)

    def test_desk_set_generates_quickly(self):
        import time
        t0 = time.time()
        generate_dataset(8, 42, CFG)
        assert time.time() - t0 < 5.0


class TestJpeg:
    def _clip(self, seed=0):
        return generate_dataset(1, seed, CFG)[0].clip

    def test_q100_near_lossless(self):
        clip = self._clip()
        out = perturb_jpeg(clip, 100)
        assert psnr(clip.frames, out.frames) >= 50.0

    def test_quality_ordering_per_frame(self):
        clip = self._clip(1)
        q90 = perturb_jpeg(clip, 90)
        q70 = perturb_jpeg(clip, 70)
        for f in range(clip.t):
            assert psnr(clip.frames[f], q90.frames[f]) > psnr(clip.frames[f], q70.frames[f])

    def test_constant_frame_dc_bound(self):
        # quantization can move the DC coefficient at most q/2; in pixel units
        # that is q[0,0]/2/255 for a constant input
        clip = VideoClip(np.full((1, 16, 16, 3), 0.43))
        for q in (70, 90):
            table = jpeg_quant_table(q)
            out = perturb_jpeg(clip, q)
            bound = table[0, 0] / 2.0 / 255.0 + 1e-12
            assert np.abs(out.frames - 0.43).max() <= bound

    @pytest.mark.parametrize("t, h, w, c", [(3, 32, 32, 3), (2, 64, 64, 3), (1, 40, 40, 1),
                                            (2, 20, 20, 3), (1, 36, 44, 3), (2, 5, 13, 2),
                                            (1, 16, 24, 3)])
    def test_blockwise_matches_loop(self, t, h, w, c):
        frames = np.random.default_rng(h * w + c).uniform(size=(t, h, w, c))
        clip = VideoClip(frames)
        for quality in (1, 10, 49, 50, 70, 90, 100):
            assert np.array_equal(perturb_jpeg(clip, quality).frames,
                                  _perturb_jpeg_loop(clip, quality).frames)

    def test_q100_table_is_all_ones(self):
        np.testing.assert_array_equal(jpeg_quant_table(100), np.ones((8, 8)))

    def test_quality_range_enforced(self):
        with pytest.raises(ValueError):
            jpeg_quant_table(0)
        with pytest.raises(ValueError):
            jpeg_quant_table(101)


class TestGaussian:
    def test_snr_definition(self):
        clip = generate_dataset(1, 2, CFG)[0].clip
        sp = np.mean(clip.frames ** 2)
        _, measured = perturb_gaussian(clip, 20.0, 5)
        assert measured == pytest.approx(20.0, abs=0.3)

    def test_calibration_large_sample(self):
        rng = np.random.default_rng(3)
        clip = VideoClip(rng.uniform(0.2, 0.8, size=(4, 64, 64, 3)))
        for snr in (20.0, 25.0, 30.0):
            _, measured = perturb_gaussian(clip, snr, 11)
            assert measured == pytest.approx(snr, abs=0.3)

    def test_huge_snr_is_identity(self):
        clip = generate_dataset(1, 4, CFG)[0].clip
        out, _ = perturb_gaussian(clip, 1e9, 1)
        np.testing.assert_allclose(out.frames, clip.frames, atol=1e-6)

    def test_seeded_noise_reproducible(self):
        clip = generate_dataset(1, 5, CFG)[0].clip
        a, _ = perturb_gaussian(clip, 22.0, 9)
        b, _ = perturb_gaussian(clip, 22.0, 9)
        assert np.array_equal(a.frames, b.frames)

    def test_non_finite_rejected(self):
        clip = generate_dataset(1, 6, CFG)[0].clip
        with pytest.raises(ValueError):
            perturb_gaussian(clip, float("nan"), 0)
