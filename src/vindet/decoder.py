"""Multi-pyramid decoder: per-stage view fusion, deep-feature gating,
frequency-guided attention, high-level guidance, and the prediction head.

Every input carries a leading batch axis: stage views are (B,T,S,S,c),
fused stage features, band features and guidance features are (B,S,S,c),
and the output is (B,H,W).

Stage features flow deep-to-shallow. The product with accumulated deep
semantics goes through a sigmoid gate so raw feature magnitudes cannot blow
up; the band-feature product enters through a bias-free 1x1 return and adds
residually. Zeroing the gates and that return reduces the whole decoder to
a plain top-down pyramid, which the tests exploit.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .config import FUSION_GROUPS, ExperimentConfig
from .frequency import band_channels
from .tensor import Tensor


def _expand_temporal(x: Tensor, v: int) -> Tensor:
    """Stretch the temporal axis of (B,T,S,S,c) to length v by repeating
    frames: output frame j takes the tokens of frame j * T // v."""
    b, t, s, _, c = x.shape
    if t == v:
        return x
    idx = ((np.arange(v) * t) // v)[:, None] * (s * s) + np.arange(s * s)
    return T.take_tokens(x, idx.reshape(-1), b, (b, v, s, s, c))


class TffBlock(nn.Module):
    """Fuse all views at one stage: realign time, concat channels, 3D conv,
    group norm, then reduce the temporal axis by mean."""

    KERNEL = (3, 3, 3)

    def __init__(self, c_in_total: int, c_out: int, rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv(c_in_total, c_out, self.KERNEL, rng)
        self.norm = nn.GroupNorm(c_out, FUSION_GROUPS)

    def forward(self, views: list[Tensor]) -> Tensor:
        side = views[0].shape[2]
        for z in views:
            if z.shape[2] != side or z.shape[3] != side:
                raise T.ShapeError(
                    f"view fusion: spatial sides differ, {[tuple(v.shape) for v in views]}"
                )
        v = max(z.shape[1] for z in views)
        x = T.concat([_expand_temporal(z, v) for z in views], axis=-1)
        y = self.norm(self.conv(x))
        return y.mean(axis=1)


class FrequencyFusion(nn.Module):
    """Inject band-pass features: large-kernel conv, product, 1x1 return."""

    LK = 7

    def __init__(self, c: int, bands: int, rng: np.random.Generator):
        super().__init__()
        self.lk = nn.Conv(c, bands, (self.LK, self.LK), rng)
        # bias-free return: zero band features must contribute exactly nothing
        self.ret = nn.Conv(bands, c, (1, 1), rng, bias=False)

    def forward(self, f_c: Tensor, f_a: Tensor) -> Tensor:
        if f_c.shape[:3] != f_a.shape[:3]:
            raise T.ShapeError(
                f"frequency fusion: sides differ, {f_c.shape} vs {f_a.shape}"
            )
        return f_c + self.ret(self.lk(f_c) * f_a)


class PyramidDecoder(nn.Module):
    """Emit the detection map for each clip's middle frame."""

    def __init__(self, cfg: ExperimentConfig, rng: np.random.Generator):
        super().__init__()
        k = cfg.encoder.stages
        self.use_freq = cfg.decoder.use_frequency
        self.stages_used = cfg.decoder_stages()
        ch = cfg.decoder.channels
        bands = band_channels(cfg.geometry.channels)

        self.tff = nn.ModuleList(
            TffBlock(sum(cfg.view_channels(l)), ch[l], rng) for l in self.stages_used
        )
        self.gates = nn.ModuleList()
        for l in self.stages_used[:-1]:
            deeper = sum(ch[j] for j in self.stages_used if j > l)
            self.gates.append(nn.Conv(deeper, ch[l], (1, 1), rng))
        if self.use_freq:
            self.freq_fuse = nn.ModuleList(
                FrequencyFusion(ch[l], bands, rng) for l in self.stages_used
            )
        self.proj_high = nn.Conv(cfg.glob.dim, ch[k - 1], (1, 1), rng)
        self.fuse_high = nn.Conv(2 * ch[k - 1], ch[k - 1], (1, 1), rng)
        self.guide = nn.ModuleList()
        for prev, cur in zip(self.stages_used, self.stages_used[1:]):
            self.guide.append(nn.Conv(ch[prev] + ch[cur], ch[prev], (3, 3), rng))
        c_head = ch[self.stages_used[0]]
        self.head_conv = nn.Conv(c_head, c_head, (3, 3), rng)
        # zero logits at start: M == 0.5 everywhere, no saturated pixels
        self.head_out = nn.Conv(c_head, 1, (1, 1), rng, zero_init=True)

    def fuse_stages(self, stage_views: list[list[Tensor]]) -> list[Tensor]:
        return [self.tff[i](stage_views[l]) for i, l in enumerate(self.stages_used)]

    def accumulate(self, fs: list[Tensor]) -> list[Tensor]:
        """Gate each stage by upsampled deeper semantics; deepest passes through."""
        out = list(fs)
        for i in range(len(fs) - 1):
            side = fs[i].shape[1]
            ups = [T.upsample_bilinear2d(fs[j], (side, side)) for j in range(i + 1, len(fs))]
            gate = T.sigmoid(self.gates[i](T.concat(ups, axis=-1)))
            out[i] = fs[i] * gate
        return out

    def forward(self, stage_views: list[list[Tensor]],
                freq_pyramid: list[Tensor] | None, f_high: Tensor,
                out_hw: tuple[int, int]) -> Tensor:
        fs = self.fuse_stages(stage_views)
        fc = self.accumulate(fs)
        if self.use_freq:
            if freq_pyramid is None:
                raise ValueError("decoder built with frequency fusion but no pyramid given")
            fc = [self.freq_fuse[i](fc[i], freq_pyramid[l])
                  for i, l in enumerate(self.stages_used)]

        side_k = fc[-1].shape[1]
        high = self.proj_high(f_high)
        if high.shape[1] != side_k:
            high = T.upsample_bilinear2d(high, (side_k, side_k))
        g = self.fuse_high(T.concat([fc[-1], high], axis=-1))
        for i in range(len(fc) - 2, -1, -1):
            side = fc[i].shape[1]
            assert side == 2 * g.shape[1], "pyramid sides must double stage to stage"
            up = T.upsample_bilinear2d(g, (side, side))
            g = self.guide[i](T.concat([fc[i], up], axis=-1))

        y = self.head_conv(g)
        y = T.upsample_bilinear2d(y, out_hw)
        y = self.head_out(y)
        return T.sigmoid(y.reshape(y.shape[0], out_hw[0], out_hw[1]))
