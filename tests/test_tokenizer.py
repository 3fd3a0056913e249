"""Tubelet tokenization and clip file round-trips."""

import numpy as np
import pytest

from vindet import tensor as T
from vindet.config import ExperimentConfig
from vindet.gradcheck import finite_diff_check
from vindet.tensor import Tensor, backward
from vindet.tokenizer import (
    TubeletEmbed,
    VideoClip,
    _write_netpbm,
    load_clip,
    read_pgm,
    read_ppm,
    save_clip,
)


class TestTubeletCount:
    @staticmethod
    def _tokens(view, t, side):
        emb = TubeletEmbed(view, 4, 3, 2, np.random.default_rng(view))
        grid = emb(Tensor(np.zeros((1, t, side, side, 3))))
        return int(np.prod(grid.shape[1:4]))

    def test_paper_scale_sizes(self):
        assert self._tokens(1, 3, 224) == 9408
        assert self._tokens(3, 3, 224) == 3136

    def test_floor_semantics(self):
        assert self._tokens(2, 3, 32) == 64

    def test_zero_divisor_rejected(self):
        # tubelet lengths come from geometry.views, checked before any build
        cfg = ExperimentConfig()
        cfg.geometry.views = (0, 1, 2)
        with pytest.raises(ValueError, match="views"):
            cfg.validate()


def _clip(seed=0, t=3, h=16, w=16):
    rng = np.random.default_rng(seed)
    return VideoClip(rng.uniform(0, 1, size=(t, h, w, 3)))


class TestTokenizeView:
    def test_averaging_kernel_on_constant_clip(self):
        clip = VideoClip(np.full((3, 16, 16, 3), 0.6))
        rng = np.random.default_rng(0)
        emb = TubeletEmbed(1, 4, 3, 8, rng)
        emb.proj.w.data[:] = 1.0 / (1 * 4 * 4 * 3)
        emb.proj.b.data[:] = 0.0
        grid = emb(Tensor(clip.frames[None]))
        np.testing.assert_allclose(grid.data, 0.6, atol=1e-12)

    def test_full_length_view_collapses_time(self):
        clip = _clip()
        emb = TubeletEmbed(3, 4, 3, 8, np.random.default_rng(1))
        grid = emb(Tensor(clip.frames[None]))
        assert grid.shape == (1, 1, 4, 4, 8)

    def test_three_view_temporal_axes(self):
        clip = _clip()
        for view, expect in [(1, 3), (2, 1), (3, 1)]:
            emb = TubeletEmbed(view, 4, 3, 8, np.random.default_rng(view))
            grid = emb(Tensor(clip.frames[None]))
            assert grid.shape[1] == expect

    @pytest.mark.usefixtures("float64")
    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(3)
        emb = TubeletEmbed(2, 4, 3, 8, rng)
        emb.proj.b.data[:] = 0.0
        a, b = 1.7, -0.4
        f1 = rng.uniform(0, 1, size=(1, 3, 16, 16, 3))
        f2 = rng.uniform(0, 1, size=(1, 3, 16, 16, 3))
        mix = emb(Tensor(a * f1 + b * f2)).data
        sep = a * emb(Tensor(f1)).data + b * emb(Tensor(f2)).data
        np.testing.assert_allclose(mix, sep, atol=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        emb = TubeletEmbed(2, 4, 3, 4, rng)
        x0 = Tensor(rng.uniform(0, 1, size=(1, 3, 8, 8, 3)))
        rep = finite_diff_check(
            lambda x: T.reduce_sum(emb(x) ** 2), x0, eps=1e-6, tol=1e-5
        )
        assert rep.passed, rep

    def test_kernel_gradient_reaches_weights(self):
        rng = np.random.default_rng(5)
        emb = TubeletEmbed(1, 4, 3, 4, rng)
        backward(T.reduce_sum(emb(Tensor(_clip().frames[None])) ** 2))
        assert np.any(emb.proj.w.grad != 0)


class TestClipIO:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = np.round(rng.uniform(0, 1, size=(8, 10, 3)) * 255) / 255
        p = tmp_path / "img.ppm"
        _write_netpbm(p, img, "P6")
        np.testing.assert_allclose(read_ppm(p), img, atol=1e-12)

    def test_pgm_roundtrip(self, tmp_path):
        mask = (np.random.default_rng(7).uniform(size=(8, 10)) > 0.5).astype(float)
        p = tmp_path / "m.pgm"
        _write_netpbm(p, mask, "P5")
        np.testing.assert_array_equal(read_pgm(p), mask)

    def test_clip_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        frames = np.round(rng.uniform(0, 1, size=(3, 8, 8, 3)) * 255) / 255
        clip = VideoClip(frames)
        mask = (rng.uniform(size=(8, 8)) > 0.6).astype(float)
        save_clip(tmp_path / "c0", clip, mask)
        loaded, lmask = load_clip(tmp_path / "c0")
        np.testing.assert_allclose(loaded.frames, frames, atol=1e-12)
        np.testing.assert_array_equal(lmask, mask)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VideoClip(np.full((1, 4, 4, 3), 1.5))
