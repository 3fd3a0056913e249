"""The fused engine primitives against the unfused chains they replace.

``linear``, ``attention`` and ``take_tokens`` (window partition and merge,
patch merging) each stand for a chain of reshape, permute, matmul,
softmax, roll and slice ops. The reference
layers below rebuild those chains from the remaining unfused primitives
(a cyclic roll from two slices and a concat), are patched into the model,
and must give the same bits: the output map and every parameter gradient
of one batched training step.
"""

from collections import Counter

import numpy as np
import pytest

from vindet import encoder, interaction, nn, train
from vindet import tensor as T
from vindet.config import ExperimentConfig
from vindet.data import generate_dataset
from vindet.model import InpaintingDetector
from vindet.objectives import total_loss
from vindet.tensor import Tensor, backward


def _roll(x, shift, axis):
    n = x.shape[axis]
    shift %= n
    if not shift:
        return x
    return T.concat([T.slice_axis(x, axis, n - shift, n), T.slice_axis(x, axis, 0, n - shift)],
                    axis=axis)


def _partition(x, m):
    b, s, _, c = x.shape
    pad = (m - s % m) % m
    if pad:
        x = T.pad(x, ((0, 0), (0, pad), (0, pad), (0, 0)))
    k = (s + pad) // m
    y = T.permute(x.reshape(b, k, m, k, m, c), (0, 1, 3, 2, 4, 5))
    return y.reshape(b * k * k, m * m, c), (b, s, s + pad, m, c)


def _merge(windows, meta):
    b, s, sp, m, c = meta
    k = sp // m
    y = T.permute(windows.reshape(b, k, k, m, m, c), (0, 1, 3, 2, 4, 5)).reshape(b, sp, sp, c)
    if sp != s:
        y = T.slice_axis(T.slice_axis(y, 1, 0, s), 2, 0, s)
    return y


def ref_linear(self, x):
    lead = x.shape[:-1]
    w = self.w
    y = T.matmul(x.reshape(-1, w.shape[0]), w)
    if self.b is not None:
        y = y + self.b
    return y.reshape(*lead, w.shape[1])


def ref_window_attention(self, windows, mask=None, keep_attn=False):
    n, q, c = windows.shape
    h, d = self.heads, c // self.heads

    def split(x):
        return T.permute(x.reshape(n, q, h, d), (0, 2, 1, 3))

    qh, kh, vh = split(self.wq(windows)), split(self.wk(windows)), split(self.wv(windows))
    scores = T.matmul(qh, T.permute(kh, (0, 1, 3, 2))) * self.scale
    if self.window is not None:
        bias = T.gather_rows(self.bias_table, encoder._relative_index(self.window))
        scores = scores + T.permute(bias.reshape(q, q, h), (2, 0, 1)).reshape(1, h, q, q)
    if mask is not None:
        k = mask.shape[0]
        scores = scores + Tensor(
            np.broadcast_to(mask[None, :, None], (n // k, k, 1, q, q)).reshape(n, 1, q, q))
    out = T.matmul(T.softmax(scores, axis=-1), vh)
    return self.wo(T.permute(out, (0, 2, 1, 3)).reshape(n, q, c))


def ref_swin_block(self, x, keep_attn=False):
    s, m = x.shape[1], self.window
    shift = m // 2 if self.shifted and s > m else 0
    y = _roll(_roll(self.ln1(x), -shift, 1), -shift, 2)
    windows, meta = _partition(y, m)
    mask = encoder._shift_mask(meta[2], m, shift, s)
    y = _roll(_roll(_merge(self.attn(windows, mask), meta), shift, 1), shift, 2)
    x = x + y
    return x + self.mlp(self.ln2(x))


def ref_cross_attention(self, small, large):
    m = self.window
    wins_small, _ = _partition(small, m)
    wins_large, meta = _partition(large, m)
    n = wins_small.shape[0]
    q = self.wq(wins_large)
    offsets = self.theta(q) * (self.max_offset * 2.0 / m)
    points = Tensor(interaction._cell_center_grid(m)[None]) + offsets
    sampled = T.grid_sample_bilinear(wins_small.reshape(n, m, m, self.c), points)
    k, v = self.wk(sampled), self.wv(sampled)
    scores = T.matmul(q, T.permute(k, (0, 2, 1))) * self.scale
    return _merge(T.matmul(T.softmax(scores, axis=-1), v), meta)


def ref_patch_merging(self, x):
    b, s, _, c = x.shape
    y = T.permute(x.reshape(b, s // 2, 2, s // 2, 2, c), (0, 1, 3, 2, 4, 5))
    return self.reduce(self.ln(y.reshape(b, s // 2, s // 2, 4 * c)))


def _use_reference(mp):
    mp.setattr(nn.Linear, "forward", ref_linear)
    mp.setattr(encoder.PatchMerging, "forward", ref_patch_merging)
    mp.setattr(encoder.WindowAttention, "forward", ref_window_attention)
    mp.setattr(encoder.SwinBlock, "forward", ref_swin_block)
    mp.setattr(interaction.DeformableWindowCrossAttention, "forward", ref_cross_attention)


def _config(side):
    cfg = ExperimentConfig()
    cfg.geometry.height = cfg.geometry.width = side
    return cfg.validate()


def _step(cfg):
    """Output map and parameter gradients of one B=2 step. The parameters
    are jittered first: the zero-initialised head would otherwise stop every
    gradient short of the decoder."""
    model = InpaintingDetector(cfg, seed=3)
    rng = np.random.default_rng(4)
    for p in model.registry().values():
        p.data[...] += rng.normal(0.0, 0.05, p.data.shape)
    clips = generate_dataset(2, 5, cfg)
    maps = model(np.stack([c.clip.frames for c in clips]))
    backward(total_loss(maps, Tensor(np.stack([c.gt_mask for c in clips])), cfg.loss))
    return maps.data, {name: p.grad for name, p in model.registry().items()}


# 32: shifted 8x8 grid and an unshifted single window; 40: both stages padded
# (10 -> 12, 5 -> 8) and shifted
@pytest.mark.parametrize("side", [32, 40])
def test_fused_model_matches_unfused_reference_bitwise(side):
    cfg = _config(side)
    got_map, got_grads = _step(cfg)
    with pytest.MonkeyPatch.context() as mp:
        _use_reference(mp)
        want_map, want_grads = _step(cfg)
    assert np.array_equal(got_map, want_map)
    assert got_grads.keys() == want_grads.keys()
    differ = [n for n in want_grads if not np.array_equal(got_grads[n], want_grads[n])]
    assert not differ, differ
    assert all(np.any(g) for g in want_grads.values())


def test_kept_attention_weights_match_numpy_reference():
    block = encoder.SwinBlock(8, 2, 4, True, np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 8, 8)))
    block(x, keep_attn=True)
    fused = block.attn.last_attn
    windows, _ = _partition(_roll(_roll(block.ln1(x), -2, 1), -2, 2), 4)
    n, q, c = windows.shape
    wq, wk = ref_linear(block.attn.wq, windows), ref_linear(block.attn.wk, windows)
    scores = np.matmul(wq.data.reshape(n, q, 2, 4).transpose(0, 2, 1, 3),
                       wk.data.reshape(n, q, 2, 4).transpose(0, 2, 3, 1)) * block.attn.scale
    table = block.attn.bias_table.data[encoder._relative_index(4)]
    scores = scores + table.reshape(q, q, 2).transpose(2, 0, 1)
    scores = scores + np.tile(encoder._shift_mask(8, 4, 2, 8), (2, 1, 1))[:, None]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(fused, e / e.sum(axis=-1, keepdims=True), atol=1e-14)


def _tape_ops(root):
    counts, seen, stack = Counter(), set(), [root._entry]
    while stack:
        entry = stack.pop()
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        counts[entry.name] += 1
        stack.extend(t._entry for t in entry.inputs if t._entry is not None)
    return counts


def test_desk_forward_tape_op_budget():
    # the unfused chains recorded 1 685 ops per desk forward
    cfg = ExperimentConfig()
    model = InpaintingDetector(cfg)
    clips = generate_dataset(4, 1, cfg)
    ops = _tape_ops(model(np.stack([c.clip.frames for c in clips])))
    assert sum(ops.values()) <= 600, ops
    assert ops["attention"] == 30


def test_desk_train_step_tape_op_budget(monkeypatch):
    # one loss call on the (B,H,W) maps; a loss per sliced clip recorded 635
    cfg = ExperimentConfig()
    ds = [(f"clip_{i}", sc.clip, sc.gt_mask)
          for i, sc in enumerate(generate_dataset(cfg.train.batch, 1, cfg))]
    losses = []
    monkeypatch.setattr(train, "backward", losses.append)
    train._train_step(InpaintingDetector(cfg), ds, np.arange(cfg.train.batch),
                      np.random.default_rng(0), cfg, 0)
    ops = _tape_ops(losses[0])
    assert sum(ops.values()) <= 560, ops
