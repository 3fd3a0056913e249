"""Per-view shifted-window transformer branches and the global encoder.

Each temporal view runs its own k-stage branch. A stage is ``depth`` pairs
of window-attention blocks, the first of each pair unshifted, the second
cyclically shifted by half a window with cross-boundary pairs masked out.
Attention runs independently per clip and temporal slice of the token grid:
a branch folds the (B, T) axes of its (B,T,S,S,c) input into the window
batch. Temporal mixing happens in tokenization and in the cross-view
interaction. A plain full-attention transformer over each clip's middle
frame supplies high-level guidance features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor

MASK_NEG = -1e9


def window_partition(x: Tensor, m: int):
    """(B,S,S,c) -> windows (B*K, m*m, c); zero-pads ragged sides.

    Returns (windows, meta); feed meta to :func:`window_merge` to invert.
    """
    b, s, s2, c = x.shape
    if s != s2:
        raise T.ShapeError(f"window_partition: expected square grid, got {x.shape}")
    pad = (m - s % m) % m
    if pad:
        x = T.pad(x, ((0, 0), (0, pad), (0, pad), (0, 0)))
    sp = s + pad
    k = sp // m
    y = x.reshape(b, k, m, k, m, c)
    y = T.permute(y, (0, 1, 3, 2, 4, 5))
    windows = y.reshape(b * k * k, m * m, c)
    return windows, (b, s, sp, m, c)


def window_merge(windows: Tensor, meta) -> Tensor:
    b, s, sp, m, c = meta
    k = sp // m
    y = windows.reshape(b, k, k, m, m, c)
    y = T.permute(y, (0, 1, 3, 2, 4, 5))
    y = y.reshape(b, sp, sp, c)
    if sp != s:
        y = T.slice_axis(T.slice_axis(y, 1, 0, s), 2, 0, s)
    return y


@lru_cache(maxsize=64)
def _relative_index(m: int) -> np.ndarray:
    """Flat lookup index into the (2m-1)^2 relative-offset bias table."""
    coords = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    rel = rel + (m - 1)
    return (rel[0] * (2 * m - 1) + rel[1]).reshape(-1)


@lru_cache(maxsize=64)
def _shift_mask(s_pad: int, m: int, shift: int, s_real: int):
    """Additive attention mask (K, m*m, m*m) for a shifted, padded grid.

    Tokens attend only within their pre-shift region; padded cells form a
    region of their own. Returns None when no mask is needed.
    """
    if shift == 0 and s_pad == s_real:
        return None
    region = np.full((s_pad, s_pad), -1.0)
    if shift:
        bounds = (slice(0, -m), slice(-m, -shift), slice(-shift, None))
        rid = 0
        for hs in bounds:
            for ws in bounds:
                region[hs, ws] = rid
                rid += 1
        region[s_real:, :] = -1.0
        region[:, s_real:] = -1.0
        region = np.roll(region, (-shift, -shift), axis=(0, 1))
    else:
        region[:s_real, :s_real] = 0.0
    k = s_pad // m
    win = region.reshape(k, m, k, m).transpose(0, 2, 1, 3).reshape(k * k, m * m)
    diff = win[:, :, None] != win[:, None, :]
    return np.where(diff, MASK_NEG, 0.0)


class WindowAttention(nn.Module):
    """Multi-head attention inside windows with a relative position bias.

    With ``window=None`` the bias table is dropped and the module acts as
    plain full attention over whatever token count it is given.
    """

    def __init__(self, c: int, heads: int, window: int | None, rng: np.random.Generator):
        super().__init__()
        if c % heads:
            raise ValueError(f"channels {c} not divisible by heads {heads}")
        self.c, self.heads, self.window = c, heads, window
        self.head_dim = c // heads
        self.scale = self.head_dim ** -0.5
        self.wq = nn.Linear(c, c, rng)
        self.wk = nn.Linear(c, c, rng)
        self.wv = nn.Linear(c, c, rng)
        self.wo = nn.Linear(c, c, rng)
        if window is not None:
            self.bias_table = nn.Parameter(
                rng.normal(0.0, 0.02, size=((2 * window - 1) ** 2, heads)))
        self.last_attn: np.ndarray | None = None

    def _split_heads(self, x: Tensor, n: int, q: int) -> Tensor:
        return T.permute(x.reshape(n, q, self.heads, self.head_dim), (0, 2, 1, 3))

    def __call__(self, windows: Tensor, mask: np.ndarray | None = None,
                 keep_attn: bool = False) -> Tensor:
        n, q, c = windows.shape
        qh = self._split_heads(self.wq(windows), n, q)
        kh = self._split_heads(self.wk(windows), n, q)
        vh = self._split_heads(self.wv(windows), n, q)
        scores = T.matmul(qh, T.permute(kh, (0, 1, 3, 2))) * self.scale
        if self.window is not None:
            bias = T.gather_rows(self.bias_table.tensor, _relative_index(self.window))
            bias = T.permute(bias.reshape(q, q, self.heads), (2, 0, 1)).reshape(1, self.heads, q, q)
            scores = scores + bias
        if mask is not None:
            k = mask.shape[0]
            tiled = np.broadcast_to(mask[None, :, None], (n // k, k, 1, q, q)).reshape(n, 1, q, q)
            scores = scores + Tensor(tiled)
        attn = T.softmax(scores, axis=-1)
        if keep_attn:
            self.last_attn = attn.data.copy()
        out = T.matmul(attn, vh)
        out = T.permute(out, (0, 2, 1, 3)).reshape(n, q, c)
        return self.wo(out)


class SwinBlock(nn.Module):
    """One pre-norm attention block over a spatial grid, optionally shifted."""

    def __init__(self, c: int, heads: int, window: int, shifted: bool,
                 rng: np.random.Generator, mlp_ratio: int = 4):
        super().__init__()
        self.window = window
        self.shifted = shifted
        self.ln1 = nn.LayerNorm(c)
        self.attn = WindowAttention(c, heads, window, rng)
        self.ln2 = nn.LayerNorm(c)
        self.mlp = nn.Mlp(c, mlp_ratio * c, rng)

    def __call__(self, x: Tensor, keep_attn: bool = False) -> Tensor:
        b, s, _, c = x.shape
        m = self.window
        if s < m:
            raise T.ShapeError(f"grid side {s} smaller than window {m}")
        # a single-window grid has nothing to shift across
        shift = m // 2 if self.shifted and s > m else 0
        y = self.ln1(x)
        if shift:
            y = T.roll(T.roll(y, -shift, 1), -shift, 2)
        windows, meta = window_partition(y, m)
        mask = _shift_mask(meta[2], m, shift, s)
        y = window_merge(self.attn(windows, mask, keep_attn), meta)
        if shift:
            y = T.roll(T.roll(y, shift, 1), shift, 2)
        x = x + y
        return x + self.mlp(self.ln2(x))


class PatchMerging(nn.Module):
    """Concat 2x2 neighborhoods (row-major), LN, linear 4c -> 2c."""

    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        self.ln = nn.LayerNorm(4 * c)
        self.reduce = nn.Linear(4 * c, 2 * c, rng, bias=False)

    def __call__(self, x: Tensor) -> Tensor:
        b, s, _, c = x.shape
        if s % 2:
            raise T.ShapeError(f"patch merging needs even side, got {s}")
        y = x.reshape(b, s // 2, 2, s // 2, 2, c)
        y = T.permute(y, (0, 1, 3, 2, 4, 5)).reshape(b, s // 2, s // 2, 4 * c)
        return self.reduce(self.ln(y))


@dataclass
class StagePlan:
    depth: int        # number of block pairs
    window: int
    heads: int


class ViewBranch(nn.Module):
    """k-stage branch for one temporal view; channels double per merge."""

    def __init__(self, c0: int, stages: list[StagePlan], rng: np.random.Generator):
        super().__init__()
        self.stage_channels = [c0 * (2 ** i) for i in range(len(stages))]
        self.merges = nn.ModuleList()
        self.stages = nn.ModuleList()
        for i, plan in enumerate(stages):
            c = self.stage_channels[i]
            if i > 0:
                self.merges.append(PatchMerging(self.stage_channels[i - 1], rng))
            blocks = nn.ModuleList()
            for _ in range(plan.depth):
                blocks.append(SwinBlock(c, plan.heads, plan.window, False, rng))
                blocks.append(SwinBlock(c, plan.heads, plan.window, True, rng))
            self.stages.append(blocks)

    def run_stage(self, x: Tensor, idx: int) -> Tensor:
        """Stage ``idx`` on (B,T,S,S,c) tokens; returns (B,T,S',S',c')."""
        b, t = x.shape[:2]
        x = x.reshape(b * t, *x.shape[2:])
        if idx > 0:
            x = self.merges[idx - 1](x)
        for block in self.stages[idx]:
            x = block(x)
        return x.reshape(b, t, *x.shape[1:])


class GlobalEncoder(nn.Module):
    """Plain pre-norm transformer over middle-frame patches (no positions)."""

    def __init__(self, c_in: int, patch: int, dim: int, depth: int, heads: int,
                 rng: np.random.Generator):
        super().__init__()
        self.patch, self.dim = patch, dim
        self.embed = nn.Conv(c_in, dim, (patch, patch), rng, stride=patch)
        self.blocks = nn.ModuleList()
        for _ in range(depth):
            blk = nn.Module()
            blk.ln1 = nn.LayerNorm(dim)
            blk.attn = WindowAttention(dim, heads, None, rng)
            blk.ln2 = nn.LayerNorm(dim)
            blk.mlp = nn.Mlp(dim, 4 * dim, rng)
            self.blocks.append(blk)

    def __call__(self, frame: Tensor) -> Tensor:
        """(B,H,W,C) frames -> (B,H/p,W/p,dim); attention stays within a frame."""
        g = self.embed(frame)
        b, gh, gw, c = g.shape
        x = g.reshape(b, gh * gw, c)
        for blk in self.blocks:
            x = x + blk.attn(blk.ln1(x))
            x = x + blk.mlp(blk.ln2(x))
        return x.reshape(b, gh, gw, c)
