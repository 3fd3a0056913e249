"""Decoder fusion blocks, gating degeneracies, and the prediction head."""

import numpy as np
import pytest

from vindet import tensor as T
from vindet.config import DecoderConfig, ExperimentConfig
from vindet.decoder import FrequencyFusion, PyramidDecoder, TffBlock, _expand_temporal
from vindet.tensor import Tensor


def _views(rng, side=8, chans=(16, 24, 32), times=(3, 1, 1)):
    return [Tensor(rng.normal(size=(1, t, side, side, c))) for t, c in zip(times, chans)]


class TestTemporalExpand:
    def test_replicates_singletons(self):
        x = Tensor(np.arange(8.0).reshape(1, 1, 2, 2, 2))
        y = _expand_temporal(x, 3)
        assert y.shape == (1, 3, 2, 2, 2)
        for j in range(3):
            np.testing.assert_array_equal(y.data[:, j], x.data[:, 0])

    def test_identity_when_full(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 2, 2, 2)))
        assert _expand_temporal(x, 3) is x

    def test_two_to_three(self):
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 2, 2, 1)))
        y = _expand_temporal(x, 3)
        np.testing.assert_array_equal(y.data[:, 0], x.data[:, 0])
        np.testing.assert_array_equal(y.data[:, 1], x.data[:, 0])
        np.testing.assert_array_equal(y.data[:, 2], x.data[:, 1])


class TestTff:
    def test_output_shape(self):
        rng = np.random.default_rng(2)
        tff = TffBlock(16 + 24 + 32, 32, np.random.default_rng(3))
        f = tff(_views(rng))
        assert f.shape == (1, 8, 8, 32)

    def test_single_view_degenerates_to_conv_norm(self):
        rng = np.random.default_rng(4)
        tff = TffBlock(16, 32, np.random.default_rng(5))
        z = Tensor(rng.normal(size=(1, 3, 8, 8, 16)))
        out = tff([z])
        manual = tff.norm(tff.conv(z)).mean(axis=1)
        np.testing.assert_array_equal(out.data, manual.data)

    def test_mismatched_sides_rejected(self):
        rng = np.random.default_rng(6)
        tff = TffBlock(8, 16, np.random.default_rng(7))
        with pytest.raises(T.ShapeError):
            tff([Tensor(rng.normal(size=(1, 1, 8, 8, 4))),
                 Tensor(rng.normal(size=(1, 1, 4, 4, 4)))])


class TestFrequencyFusion:
    def test_zeroed_return_is_identity(self):
        rng = np.random.default_rng(8)
        fuse = FrequencyFusion(16, 9, np.random.default_rng(9))
        fuse.ret.w.data[:] = 0.0
        f_c = Tensor(rng.normal(size=(1, 8, 8, 16)))
        f_a = Tensor(rng.normal(size=(1, 8, 8, 9)))
        np.testing.assert_array_equal(fuse(f_c, f_a).data, f_c.data)

    def test_zero_band_features_change_nothing(self):
        rng = np.random.default_rng(10)
        fuse = FrequencyFusion(16, 9, np.random.default_rng(11))
        fuse.ret.w.data[:] = rng.normal(size=fuse.ret.w.shape)
        f_c = Tensor(rng.normal(size=(1, 8, 8, 16)))
        out = fuse(f_c, Tensor(np.zeros((1, 8, 8, 9))))
        np.testing.assert_allclose(out.data, f_c.data, atol=1e-12)

    def test_band_channel_count_is_triple_input(self):
        cfg = ExperimentConfig()
        dec = PyramidDecoder(cfg, np.random.default_rng(12))
        for fuse in dec.freq_fuse:
            assert fuse.lk.w.shape[3] == 9  # 3 bands x 3 channels

    def test_side_mismatch_rejected(self):
        fuse = FrequencyFusion(8, 9, np.random.default_rng(13))
        with pytest.raises(T.ShapeError):
            fuse(Tensor(np.zeros((1, 8, 8, 8))), Tensor(np.zeros((1, 4, 4, 9))))


class TestAccumulate:
    def _decoder(self, seed=14):
        return PyramidDecoder(ExperimentConfig(), np.random.default_rng(seed))

    def test_single_stage_passthrough(self):
        cfg = ExperimentConfig(decoder=DecoderConfig(use_tff=False))
        dec = PyramidDecoder(cfg, np.random.default_rng(15))
        f = Tensor(np.random.default_rng(16).normal(size=(1, 4, 4, 48)))
        out = dec.accumulate([f])
        assert out[0] is f

    def test_saturated_gate_passes_features(self):
        dec = self._decoder()
        dec.gates[0].w.data[:] = 0.0
        dec.gates[0].b.data[:] = 20.0
        rng = np.random.default_rng(17)
        fs = [Tensor(rng.normal(size=(1, 8, 8, 32))), Tensor(rng.normal(size=(1, 4, 4, 48)))]
        out = dec.accumulate(fs)
        assert np.max(np.abs(out[0].data - fs[0].data)) <= 1e-8

    def test_zero_gate_halves_features(self):
        dec = self._decoder()
        dec.gates[0].w.data[:] = 0.0
        dec.gates[0].b.data[:] = 0.0
        rng = np.random.default_rng(18)
        fs = [Tensor(rng.normal(size=(1, 8, 8, 32))), Tensor(rng.normal(size=(1, 4, 4, 48)))]
        out = dec.accumulate(fs)
        np.testing.assert_allclose(out[0].data, 0.5 * fs[0].data, atol=1e-12)


def _decoder_inputs(rng, cfg):
    stage_views = []
    for l in range(cfg.encoder.stages):
        side = cfg.grid_side(l)
        chans = cfg.view_channels(l)
        times = [cfg.geometry.frames // v for v in cfg.geometry.views]
        stage_views.append(
            [Tensor(rng.normal(size=(1, t, side, side, c))) for t, c in zip(times, chans)]
        )
    pyramid = [Tensor(rng.normal(size=(1, cfg.grid_side(l), cfg.grid_side(l),
                                       3 * cfg.geometry.channels)))
               for l in range(cfg.encoder.stages)]
    f_h = Tensor(rng.normal(size=(1, cfg.geometry.height // cfg.glob.patch,
                                  cfg.geometry.width // cfg.glob.patch, cfg.glob.dim)))
    return stage_views, pyramid, f_h


class TestFullDecoder:
    def test_output_shape_and_range(self):
        cfg = ExperimentConfig()
        dec = PyramidDecoder(cfg, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        sv, pyr, fh = _decoder_inputs(rng, cfg)
        m = dec(sv, pyr, fh, (32, 32))
        assert m.shape == (1, 32, 32)
        assert np.all(m.data >= 0.0) and np.all(m.data <= 1.0)

    def test_zero_head_gives_half(self):
        cfg = ExperimentConfig()
        dec = PyramidDecoder(cfg, np.random.default_rng(21))
        dec.head_out.w.data[:] = 0.0
        dec.head_out.b.data[:] = 0.0
        sv, pyr, fh = _decoder_inputs(np.random.default_rng(22), cfg)
        m = dec(sv, pyr, fh, (32, 32))
        np.testing.assert_allclose(m.data, 0.5, atol=1e-15)

    def test_no_tff_uses_only_final_stage(self):
        cfg = ExperimentConfig(decoder=DecoderConfig(use_tff=False))
        dec = PyramidDecoder(cfg, np.random.default_rng(23))
        assert dec.stages_used == [1]
        assert len(dec.gates) == 0 and len(dec.guide) == 0
        sv, pyr, fh = _decoder_inputs(np.random.default_rng(24), cfg)
        m = dec(sv, pyr, fh, (32, 32))
        assert m.shape == (1, 32, 32)

    def test_neutral_values_reduce_to_plain_fpn(self):
        """Saturated gates + zeroed frequency path == reference top-down FPN."""
        cfg = ExperimentConfig()
        dec = PyramidDecoder(cfg, np.random.default_rng(25))
        for gate in dec.gates:
            gate.w.data[:] = 0.0
            gate.b.data[:] = 20.0
        for fuse in dec.freq_fuse:
            fuse.ret.w.data[:] = 0.0
        rng = np.random.default_rng(26)
        sv, pyr, fh = _decoder_inputs(rng, cfg)
        got = dec(sv, pyr, fh, (32, 32)).data

        # reference: fuse stages, then a bare top-down pyramid with the same convs
        fs = [f.data for f in dec.fuse_stages(sv)]
        def conv(mod, x):
            return T.conv(Tensor(x), mod.w, mod.b).data
        high = conv(dec.proj_high, fh.data)
        g = conv(dec.fuse_high, np.concatenate([fs[1], high], axis=-1))
        up = T.upsample_bilinear2d(Tensor(g), (8, 8)).data
        g = conv(dec.guide[0], np.concatenate([fs[0], up], axis=-1))
        y = conv(dec.head_conv, g)
        y = T.upsample_bilinear2d(Tensor(y), (32, 32)).data
        y = conv(dec.head_out, y)[..., 0]
        ref = 1.0 / (1.0 + np.exp(-y))
        assert np.max(np.abs(got - ref)) <= 1e-8
