"""Analytic parameter and FLOP counts derived from a config alone.

Parameters are exact and cross-checked against the live registry in tests.
FLOPs count multiply-accumulates of matmuls and convolutions times two plus
bias adds, with attention score/value products included; normalizations,
activations, softmax, and resampling are excluded from the tally.
"""

from __future__ import annotations

import math

from .config import ExperimentConfig
from .decoder import FrequencyFusion, TffBlock
from .encoder import MLP_RATIO
from .frequency import band_channels
from .interaction import OffsetNet


class _Tally:
    def __init__(self):
        self.params = 0
        self.flops = 0
        self.items: list[tuple[str, int, int]] = []

    def add(self, label: str, params: int, flops: int = 0):
        self.params += params
        self.flops += flops
        self.items.append((label, params, flops))


def _conv(t: _Tally, label: str, kelems: int, ci: int, co: int, n_out: int,
          bias: bool = True):
    """A conv of ``kelems`` kernel elements; a dense layer has one."""
    p = kelems * ci * co + (co if bias else 0)
    f = n_out * (2 * kelems * ci * co + (co if bias else 0))
    t.add(label, p, f)


def _norm(t: _Tally, label: str, c: int):
    t.add(label, 2 * c, 0)


def _attention_core(t: _Tally, label: str, n_tokens: int, window_tokens: int, c: int):
    # scores q@k^T and the value product, 2 MACs per element
    t.add(label, 0, 4 * n_tokens * window_tokens * c)


def count_params_flops(cfg: ExperimentConfig) -> dict:
    """{"params": int, "flops_per_clip": int, "breakdown": [(label, p, f)]}"""
    cfg.validate()
    t = _Tally()
    g, e = cfg.geometry, cfg.encoder
    views = list(g.views)
    k = e.stages
    s1 = cfg.grid_side(0)
    bands = band_channels(g.channels)
    times = [g.frames // v for v in views]
    v_max = max(times)

    # tubelet embeddings
    for i, (v, d) in enumerate(zip(views, e.dims)):
        n = times[i] * s1 * s1
        _conv(t, f"embed{i}", v * g.patch * g.patch, g.channels, d, n)

    # view branches
    for i, d in enumerate(e.dims):
        for l in range(k):
            c = d * (2 ** l)
            side = cfg.grid_side(l)
            n = times[i] * side * side
            if l > 0:
                cp = d * (2 ** (l - 1))
                _norm(t, f"view{i}.merge{l}.ln", 4 * cp)
                _conv(t, f"view{i}.merge{l}.reduce", 1, 4 * cp, 2 * cp, n, bias=False)
            for b in range(2 * e.depths[l]):
                tag = f"view{i}.stage{l}.block{b}"
                _norm(t, f"{tag}.ln1", c)
                for w in ("wq", "wk", "wv", "wo"):
                    _conv(t, f"{tag}.attn.{w}", 1, c, c, n)
                t.add(f"{tag}.attn.bias_table",
                      (2 * e.window - 1) ** 2 * e.heads[l])
                _attention_core(t, f"{tag}.attn.core", n, e.window ** 2, c)
                _norm(t, f"{tag}.ln2", c)
                _conv(t, f"{tag}.mlp.fc1", 1, c, MLP_RATIO * c, n)
                _conv(t, f"{tag}.mlp.fc2", 1, MLP_RATIO * c, c, n)

    # cross-view interaction
    if cfg.uses_dwti():
        cc = cfg.dwti.common_dim
        hid = OffsetNet.hidden(cc)
        for l in range(k):
            side = cfg.grid_side(l)
            n = side * side
            chans = cfg.view_channels(l)
            for i in range(len(views) - 1):
                tag = f"dwti.stage{l}.pair{i}"
                _conv(t, f"{tag}.align_small", 1, chans[i], cc, n)
                _conv(t, f"{tag}.align_large", 1, chans[i + 1], cc, n)
                for w in ("wq", "wk", "wv"):
                    _conv(t, f"{tag}.{w}", 1, cc, cc, n)
                _conv(t, f"{tag}.theta.fc1", 1, cc, hid, n)
                _conv(t, f"{tag}.theta.fc2", 1, hid, 2, n)
                _attention_core(t, f"{tag}.core", n, cfg.dwti.window ** 2, cc)
                _conv(t, f"{tag}.back", 1, cc, chans[i + 1], n)

    # global encoder
    cg = cfg.glob.dim
    ng = (g.height // cfg.glob.patch) * (g.width // cfg.glob.patch)
    _conv(t, "global.embed", cfg.glob.patch ** 2, g.channels, cg, ng)
    for b in range(cfg.glob.depth):
        tag = f"global.block{b}"
        _norm(t, f"{tag}.ln1", cg)
        for w in ("wq", "wk", "wv", "wo"):
            _conv(t, f"{tag}.attn.{w}", 1, cg, cg, ng)
        _attention_core(t, f"{tag}.attn.core", ng, ng, cg)
        _norm(t, f"{tag}.ln2", cg)
        _conv(t, f"{tag}.mlp.fc1", 1, cg, MLP_RATIO * cg, ng)
        _conv(t, f"{tag}.mlp.fc2", 1, MLP_RATIO * cg, cg, ng)

    # decoder
    ch = cfg.decoder.channels
    used = cfg.decoder_stages()
    for l in used:
        side = cfg.grid_side(l)
        _conv(t, f"dec.tff{l}.conv", math.prod(TffBlock.KERNEL), sum(cfg.view_channels(l)),
              ch[l], v_max * side * side)
        _norm(t, f"dec.tff{l}.gn", ch[l])
    for l in used[:-1]:
        side = cfg.grid_side(l)
        deeper = sum(ch[j] for j in used if j > l)
        _conv(t, f"dec.gate{l}", 1, deeper, ch[l], side * side)
    if cfg.decoder.use_frequency:
        for l in used:
            side = cfg.grid_side(l)
            _conv(t, f"dec.freq{l}.lk", FrequencyFusion.LK ** 2, ch[l], bands, side * side)
            _conv(t, f"dec.freq{l}.ret", 1, bands, ch[l], side * side, bias=False)
    sk = cfg.grid_side(k - 1)
    _conv(t, "dec.proj_high", 1, cg, ch[k - 1], sk * sk)
    _conv(t, "dec.fuse_high", 1, 2 * ch[k - 1], ch[k - 1], sk * sk)
    for prev, cur in zip(used, used[1:]):
        side = cfg.grid_side(prev)
        _conv(t, f"dec.guide{prev}", 9, ch[prev] + ch[cur], ch[prev], side * side)
    c_head = ch[used[0]]
    side_head = cfg.grid_side(used[0])
    _conv(t, "dec.head_conv", 9, c_head, c_head, side_head * side_head)
    _conv(t, "dec.head_out", 1, c_head, 1, g.height * g.width)

    return {"params": t.params, "flops_per_clip": t.flops, "breakdown": t.items}
