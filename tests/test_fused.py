"""The fused engine primitives against the unfused chains they replace.

``linear``, ``attention`` and ``take_tokens`` (window partition and merge,
patch merging) each stand for a chain of reshape, permute, matmul,
softmax, roll and slice ops. The reference layers below rebuild those
chains from the unfused engine primitives (a cyclic roll from two slices
and a concat) and the test-only ``matmul`` and ``row_softmax`` of
``reference_ops``, are patched into the model, and must give the same
bits: the output map and every parameter gradient of one batched training
step.
"""

import dataclasses
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
import reference_ops as R
from reference_ops import _assert_within_rounding, capture_attention, matmul, row_softmax


def _roll(x, shift, axis):
    n = x.shape[axis]
    shift %= n
    if not shift:
        return x
    return T.concat([R.slice_axis(x, axis, n - shift, n), R.slice_axis(x, axis, 0, n - shift)],
                    axis=axis)


def _partition(x, m):
    b, s, _, c = x.shape
    pad = (m - s % m) % m
    if pad:
        x = R.pad(x, ((0, 0), (0, pad), (0, pad), (0, 0)))
    k = (s + pad) // m
    y = R.permute(x.reshape(b, k, m, k, m, c), (0, 1, 3, 2, 4, 5))
    return y.reshape(b * k * k, m * m, c), (b, s, s + pad, m, c)


def _merge(windows, meta):
    b, s, sp, m, c = meta
    k = sp // m
    y = R.permute(windows.reshape(b, k, k, m, m, c), (0, 1, 3, 2, 4, 5)).reshape(b, sp, sp, c)
    if sp != s:
        y = R.slice_axis(R.slice_axis(y, 1, 0, s), 2, 0, s)
    return y


def ref_linear(self, x):
    lead = x.shape[:-1]
    w = self.w
    y = matmul(x.reshape(-1, w.shape[0]), w)
    if self.b is not None:
        y = y + self.b
    return y.reshape(*lead, w.shape[1])


def attention_chain(q, k, v, heads, table=None, index=None, mask=None):
    """``tensor.attention`` as the unfused chain: (output, weights)."""
    n, nq, c = q.shape
    d = c // heads
    scale = d ** -0.5

    def split(x):
        return R.permute(x.reshape(n, nq, heads, d), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = matmul(qh, R.permute(kh, (0, 1, 3, 2))) * scale
    if table is not None:
        bias = R.gather_rows(table, index)
        bias = R.permute(bias.reshape(nq, nq, heads), (2, 0, 1))
        scores = scores + bias.reshape(1, heads, nq, nq)
    if mask is not None:
        km = mask.shape[0]
        scores = scores + Tensor(
            np.broadcast_to(mask[None, :, None], (n // km, km, 1, nq, nq)).reshape(n, 1, nq, nq))
    weights = row_softmax(scores)
    out = matmul(weights, vh)
    return R.permute(out, (0, 2, 1, 3)).reshape(n, nq, c), weights


def ref_window_attention(self, windows, mask=None):
    index = None if self.window is None else encoder._relative_index(self.window)
    table = None if self.window is None else self.bias_table
    out, _ = attention_chain(self.wq(windows), self.wk(windows), self.wv(windows),
                             self.heads, table, index, mask)
    return self.wo(out)


def ref_swin_block(self, x):
    if self.window is None:
        x = x + self.attn(self.ln1(x))
        return x + self.mlp(self.ln2(x))
    lead, (s, _, c), m = x.shape[:-3], x.shape[-3:], self.window
    x = x.reshape(-1, s, s, c)
    shift = m // 2 if self.shifted and s > m else 0
    y = _roll(_roll(self.ln1(x), -shift, 1), -shift, 2)
    windows, meta = _partition(y, m)
    mask = encoder._shift_mask(meta[2], m, shift, s, T.compute_dtype())
    y = _roll(_roll(_merge(self.attn(windows, mask), meta), shift, 1), shift, 2)
    x = x + y
    return (x + self.mlp(self.ln2(x))).reshape(*lead, s, s, c)


def ref_cross_attention(self, small, large):
    m = self.window
    wins_small, _ = _partition(small, m)
    wins_large, meta = _partition(large, m)
    n = wins_small.shape[0]
    q = self.wq(wins_large)
    offsets = self.theta(q) * (self.max_offset * 2.0 / m)
    points = Tensor(interaction._cell_center_grid(m, T.compute_dtype())[None]) + offsets
    sampled = T.grid_sample_bilinear(wins_small.reshape(n, m, m, self.c), points)
    k, v = self.wk(sampled), self.wv(sampled)
    scores = matmul(q, R.permute(k, (0, 2, 1))) * self.c ** -0.5
    return _merge(matmul(row_softmax(scores), v), meta)


def ref_patch_merging(self, x):
    *lead, s, _, c = x.shape
    y = R.permute(x.reshape(-1, s // 2, 2, s // 2, 2, c), (0, 1, 3, 2, 4, 5))
    return self.reduce(self.ln(y.reshape(*lead, s // 2, s // 2, 4 * c)))


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
    model = InpaintingDetector(dataclasses.replace(cfg, seed=3))
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


@pytest.mark.usefixtures("float64")
def test_kept_attention_weights_match_numpy_reference(monkeypatch):
    block = encoder.SwinBlock(8, 2, 4, True, np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 8, 8)))
    weights = capture_attention(monkeypatch)
    block(x)
    fused, = weights
    windows, _ = _partition(_roll(_roll(block.ln1(x), -2, 1), -2, 2), 4)
    n, q, c = windows.shape
    wq, wk = ref_linear(block.attn.wq, windows), ref_linear(block.attn.wk, windows)
    scores = np.matmul(wq.data.reshape(n, q, 2, 4).transpose(0, 2, 1, 3),
                       wk.data.reshape(n, q, 2, 4).transpose(0, 2, 3, 1)) * 4 ** -0.5
    table = block.attn.bias_table.data[encoder._relative_index(4)]
    scores = scores + table.reshape(q, q, 2).transpose(2, 0, 1)
    scores = scores + np.tile(encoder._shift_mask(8, 4, 2, 8, T.compute_dtype()),
                              (2, 1, 1))[:, None]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    # the same positive terms summed in numpy's order: each denominator lies
    # within (q-1)·eps/2 of the exact sum relative to itself, and each
    # division adds eps/2, so a weight w moves by at most q·eps·w
    want = e / e.sum(axis=-1, keepdims=True)
    _assert_within_rounding(fused, want, want, q)


# (sets N, tokens Q, channels, heads, window of the bias table or None,
# shifted-window mask side or None)
ATTENTION_CASES = {
    "shift_mask": (8, 16, 16, 2, 4, 8),
    "nan_row": (2, 16, 16, 2, 4, None),
    "one_token": (3, 1, 8, 2, None, None),
    "window7": (2, 49, 16, 2, 7, None),
    "global64": (2, 64, 32, 2, None, None),
}


@pytest.mark.parametrize("name", sorted(ATTENTION_CASES))
def test_attention_matches_unfused_chain_bitwise(name):
    n, nq, c, heads, window, side = ATTENTION_CASES[name]
    rng = np.random.default_rng(len(name))
    q, k, v = (Tensor(rng.normal(size=(n, nq, c))) for _ in range(3))
    if name == "nan_row":
        k.data[1, 5, 0] = np.nan          # one NaN key entry in every row of a head
    table = index = mask = None
    if window is not None:
        table = Tensor(rng.normal(size=((2 * window - 1) ** 2, heads)))
        index = encoder._relative_index(window)
    if side is not None:
        # the -1e9 entries cut every shifted window of an 8x8 grid
        mask = encoder._shift_mask(side, window, window // 2, side, T.compute_dtype())
        assert (mask == encoder.MASK_NEG).any()
    out, weights = T.attention(q, k, v, heads, table, index, mask)
    want_out, want_weights = attention_chain(q, k, v, heads, table, index, mask)
    assert out.data.tobytes() == want_out.data.tobytes()
    assert weights.tobytes() == want_weights.data.tobytes()
    assert np.isnan(weights).any() == (name == "nan_row")


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


def _train_step_ops(cfg, monkeypatch):
    """The tape ops one training step at ``train.batch`` records."""
    ds = [(f"clip_{i}", sc.clip, sc.gt_mask)
          for i, sc in enumerate(generate_dataset(cfg.train.batch, 1, cfg))]
    losses = []
    monkeypatch.setattr(train, "backward", losses.append)
    train._train_step(InpaintingDetector(cfg), ds, np.arange(cfg.train.batch),
                      np.random.default_rng(0), cfg, 0)
    return _tape_ops(losses[0])


def test_desk_train_step_tape_op_budget(monkeypatch):
    # one loss call on the (B,H,W) maps; a loss per sliced clip recorded 635
    ops = _train_step_ops(ExperimentConfig(), monkeypatch)
    assert sum(ops.values()) <= 560, ops


@pytest.mark.parametrize("idx", [0, 1])
def test_view_branch_stage_records_no_reshape(idx):
    # the window ops take the (B,T) axes as they come; folding them into
    # the window batch and back recorded two reshapes per stage
    branch = encoder.ViewBranch(8, [encoder.StagePlan(1, 2, 2)] * 2, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8, 8)), requires_grad=True)
    ops = _tape_ops(branch.run_stage(x, idx))
    assert ops["reshape"] == 0 and ops["attention"] == 2, ops


def test_unfolded_branches_tape_op_budget(monkeypatch):
    # folding (B,T) in every stage recorded 511 ops per desk forward and 541
    # per step, at 32x32 and at 40x40
    cfg = ExperimentConfig()
    clips = generate_dataset(4, 1, cfg)
    forward = _tape_ops(InpaintingDetector(cfg)(np.stack([c.clip.frames for c in clips])))
    assert sum(forward.values()) <= 499, forward
    for side in (32, 40):
        step = _train_step_ops(_config(side), monkeypatch)
        assert sum(step.values()) <= 529, (side, step)


def test_ragged_train_step_records_no_pad(monkeypatch):
    # 40x40 pads the windows of both stages (10 -> 12, 5 -> 8) through
    # take_tokens' fill entries, so it records no pad op and no more ops
    # than the unpadded 32x32 step; a pad op per padded partition recorded
    # 573 against 541
    even = _train_step_ops(_config(32), monkeypatch)
    ragged = _train_step_ops(_config(40), monkeypatch)
    assert "pad" not in ragged, ragged
    assert sum(ragged.values()) <= sum(even.values()), (ragged, even)
