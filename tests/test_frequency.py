"""DCT, band partition, and frequency pyramid invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vindet import tensor as T
from vindet.frequency import (
    band_masks,
    dct2,
    frequency_features,
    idct2,
    middle_frame_index,
)


class TestDct:
    def test_constant_image_is_dc_only(self):
        b = 8
        v = 0.7
        coeffs = dct2(np.full((b, b), v))
        assert coeffs[0, 0] == pytest.approx(b * v, abs=1e-10)
        coeffs[0, 0] = 0.0
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(32, 32))
        np.testing.assert_allclose(idct2(dct2(x)), x, atol=1e-8)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(32, 32))
        assert np.sum(x**2) == pytest.approx(np.sum(dct2(x) ** 2), abs=1e-8)

    def test_rectangular(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 20))
        np.testing.assert_allclose(idct2(dct2(x)), x, atol=1e-10)


class TestBandMasks:
    def test_partition(self):
        low, mid, high = band_masks(16, 16)
        np.testing.assert_array_equal(low + mid + high, np.ones((16, 16)))
        assert np.max(low * mid) == 0 and np.max(mid * high) == 0 and np.max(low * high) == 0

    def test_dc_in_low(self):
        low, _, _ = band_masks(8, 8)
        assert low[0, 0] == 1.0

    def test_8x8_third_cutoffs(self):
        low, _, _ = band_masks(8, 8, (1 / 3, 2 / 3))
        u, v = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        np.testing.assert_array_equal(low, ((u + v) <= 4).astype(float))

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            band_masks(8, 8, (0.7, 0.3))
        with pytest.raises(ValueError):
            band_masks(8, 8, (0.0, 0.5))

    @given(st.integers(4, 24), st.integers(4, 24))
    @settings(max_examples=25, deadline=None)
    def test_partition_any_size(self, h, w):
        low, mid, high = band_masks(h, w)
        np.testing.assert_array_equal(low + mid + high, np.ones((h, w)))


class TestFrequencyFeatures:
    def _frames(self, seed=0, b=1, h=32, w=32, c=3):
        """A batch of (B,H,W,C) middle frames."""
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 1, size=(b, h, w, c))

    @pytest.mark.usefixtures("float64")
    def test_band_sum_reconstructs_frame(self):
        frames = self._frames(0, b=10)
        [full] = frequency_features(frames, stage_sides=[32])
        c = frames.shape[-1]
        recon = full[..., :c] + full[..., c:2 * c] + full[..., 2 * c:]
        np.testing.assert_allclose(recon, frames, atol=1e-8)

    def test_channel_count_triples(self):
        full, pooled = frequency_features(self._frames(b=2), stage_sides=[32, 8])
        assert full.shape == (2, 32, 32, 9)
        assert pooled.shape == (2, 8, 8, 9)

    def test_constant_frame_has_dc_only(self):
        frames = np.full((2, 16, 16, 3), 0.25)
        [full] = frequency_features(frames, stage_sides=[16])
        np.testing.assert_allclose(full[..., 3:], 0.0, atol=1e-10)
        np.testing.assert_allclose(full[..., :3], 0.25, atol=1e-10)

    def test_pooling_preserves_mean(self):
        frames = np.random.default_rng(3).uniform(0, 1, size=(3, 32, 32, 3))[1:2]
        full, *pooled = frequency_features(frames, stage_sides=[32, 8, 4])
        for p in pooled:
            assert p.mean() == pytest.approx(full.mean(), abs=1e-10)

    @pytest.mark.parametrize("side, sides", [(32, [8, 4]), (40, [10, 5])])
    def test_batch_rows_match_single_clips(self, side, sides):
        # the model hands over a strided view of its compute-dtype clips
        rng = np.random.default_rng(4)
        clips = rng.uniform(size=(4, 3, side, side, 3)).astype(T.compute_dtype())
        frames = clips[:, middle_frame_index(3)]
        batched = frequency_features(frames, sides)
        for b in range(4):
            for whole, one in zip(batched, frequency_features(frames[b:b + 1], sides)):
                np.testing.assert_array_equal(whole[b:b + 1], one)

    @pytest.mark.parametrize("h, w, side", [(32, 32, 12), (32, 32, 64), (36, 36, 4),
                                            (33, 33, 16)])
    def test_unreachable_side_raises(self, h, w, side):
        with pytest.raises(ValueError, match=f"stage side {side} unreachable"):
            frequency_features(self._frames(h=h, w=w), stage_sides=[side])

    def test_middle_frame_selection(self):
        assert middle_frame_index(3) == 1
        assert middle_frame_index(1) == 0
        assert middle_frame_index(4) == 1
        assert middle_frame_index(5) == 2

    def test_no_learnable_state(self):
        levels = frequency_features(self._frames(), stage_sides=[32, 8])
        assert type(levels) is list
        assert all(type(a) is np.ndarray for a in levels)
