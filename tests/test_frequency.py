"""DCT, band partition, and frequency pyramid invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vindet.frequency import (
    FrequencyFeatures,
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
    def _clip(self, seed=0, t=3, h=32, w=32, c=3):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 1, size=(t, h, w, c))

    @pytest.mark.usefixtures("float64")
    def test_band_sum_reconstructs_frame(self):
        for seed in range(10):
            frames = self._clip(seed)
            ff = frequency_features(frames, stage_sides=[8, 4])
            full = ff.full
            c = frames.shape[-1]
            recon = full[:, :, :c] + full[:, :, c:2 * c] + full[:, :, 2 * c:]
            np.testing.assert_allclose(recon, frames[1], atol=1e-8)

    def test_channel_count_triples(self):
        ff = frequency_features(self._clip(), stage_sides=[8])
        assert ff.full.shape == (32, 32, 9)
        assert ff.pyramid[0].shape == (8, 8, 9)

    def test_constant_frame_has_dc_only(self):
        frames = np.full((3, 16, 16, 3), 0.25)
        ff = frequency_features(frames, stage_sides=[4])
        np.testing.assert_allclose(ff.full[:, :, 3:], 0.0, atol=1e-10)
        np.testing.assert_allclose(ff.full[:, :, :3], 0.25, atol=1e-10)

    def test_pooling_preserves_mean(self):
        frames = self._clip(3)
        ff = frequency_features(frames, stage_sides=[8, 4])
        for p in ff.pyramid:
            assert p.mean() == pytest.approx(ff.full.mean(), abs=1e-10)

    def test_middle_frame_selection(self):
        assert middle_frame_index(3) == 1
        assert middle_frame_index(1) == 0
        assert middle_frame_index(4) == 1
        assert middle_frame_index(5) == 2

    def test_no_learnable_state(self):
        ff = frequency_features(self._clip(), stage_sides=[8])
        assert isinstance(ff, FrequencyFeatures)
        assert all(type(a) is np.ndarray for a in [ff.full, *ff.pyramid])
