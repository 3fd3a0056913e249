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


@lru_cache(maxsize=64)
def _window_index(s: int, m: int, shift: int):
    """(gather, scatter) indices between an (S,S) grid and its m x m windows.

    The grid is cyclically shifted by ``-shift`` and zero-padded at the end
    to a multiple of m. Window cell j (over all windows in order) takes
    padded-grid cell ``gather[j]``; grid cell p takes back window cell
    ``scatter[p]``, which also undoes the shift and drops the padding.
    """
    sp = s + (m - s % m) % m
    r = np.arange(sp)
    src = np.where(r < s, (r + shift) % s, r)
    cells = (src[:, None] * sp + src[None, :]).reshape(sp // m, m, sp // m, m)
    gather = cells.transpose(0, 2, 1, 3).reshape(-1)
    return gather, np.argsort(gather).reshape(sp, sp)[:s, :s].reshape(-1)


def window_partition(x: Tensor, m: int, shift: int = 0):
    """(B,S,S,c) -> windows (B*K, m*m, c) of the grid cyclically shifted by
    ``-shift``; zero-pads ragged sides.

    Returns (windows, meta); feed meta to :func:`window_merge` to invert.
    """
    b, s, s2, c = x.shape
    if s != s2:
        raise T.ShapeError(f"window_partition: expected square grid, got {x.shape}")
    pad = (m - s % m) % m
    if pad:
        x = T.pad(x, ((0, 0), (0, pad), (0, pad), (0, 0)))
    gather, scatter = _window_index(s, m, shift)
    return T.take_tokens(x, gather, b, (-1, m * m, c)), (b, s, s + pad, scatter)


def window_merge(windows: Tensor, meta) -> Tensor:
    """Windows back to the (B,S,S,c) grid, unshifted and unpadded."""
    b, s, _, scatter = meta
    return T.take_tokens(windows, scatter, b, (b, s, s, windows.shape[-1]))


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
    """Additive attention mask (K, m*m, m*m) for the windows that
    :func:`window_partition` cuts from an (s_real, s_real) grid shifted by
    ``-shift`` and padded to ``s_pad``.

    As in Swin, only the wrap seam separates tokens: on each axis, the first
    ``shift`` rows (columns), which the shift moves past the far edge, form
    one band and the rest another, and two real tokens attend when they
    share both bands. Padded cells form a region of their own. The region
    map is laid out on the unshifted, padded grid and moved into windows by
    the same index as the data, so each window cell's label is that of the
    token it holds. Returns None when no mask is needed.
    """
    if shift == 0 and s_pad == s_real:
        return None
    band = np.full(s_pad, -1)           # seam band per row/column, -1 = pad
    band[:s_real] = 0
    band[:shift] = 1
    pad = (band[:, None] < 0) | (band[None, :] < 0)
    region = np.where(pad, -1, 2 * band[:, None] + band[None, :])
    win = region.reshape(-1)[_window_index(s_real, m, shift)[0]].reshape(-1, m * m)
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
        self.heads, self.window = heads, window
        self.scale = (c // heads) ** -0.5
        self.wq = nn.Linear(c, c, rng)
        self.wk = nn.Linear(c, c, rng)
        self.wv = nn.Linear(c, c, rng)
        self.wo = nn.Linear(c, c, rng)
        if window is not None:
            self.bias_table = nn.Parameter(
                rng.normal(0.0, 0.02, size=((2 * window - 1) ** 2, heads)))
        self.last_attn: np.ndarray | None = None

    def forward(self, windows: Tensor, mask: np.ndarray | None = None,
                keep_attn: bool = False) -> Tensor:
        table = index = None
        if self.window is not None:
            table, index = self.bias_table, _relative_index(self.window)
        out, attn = T.attention(self.wq(windows), self.wk(windows), self.wv(windows),
                                self.heads, self.scale, table, index, mask)
        if keep_attn:
            self.last_attn = attn.copy()
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

    def forward(self, x: Tensor, keep_attn: bool = False) -> Tensor:
        b, s, _, c = x.shape
        m = self.window
        if s < m:
            raise T.ShapeError(f"grid side {s} smaller than window {m}")
        # a single-window grid has nothing to shift across
        shift = m // 2 if self.shifted and s > m else 0
        windows, meta = window_partition(self.ln1(x), m, shift)
        mask = _shift_mask(meta[2], m, shift, s)
        x = x + window_merge(self.attn(windows, mask, keep_attn), meta)
        return x + self.mlp(self.ln2(x))


class PatchMerging(nn.Module):
    """Concat 2x2 neighborhoods (row-major), LN, linear 4c -> 2c."""

    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        self.ln = nn.LayerNorm(4 * c)
        self.reduce = nn.Linear(4 * c, 2 * c, rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        b, s, _, c = x.shape
        if s % 2:
            raise T.ShapeError(f"patch merging needs even side, got {s}")
        y = T.take_tokens(x, _window_index(s, 2, 0)[0], b, (b, s // 2, s // 2, 4 * c))
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
        self.embed = nn.PatchEmbed(c_in, dim, (patch, patch), rng)
        self.blocks = nn.ModuleList()
        for _ in range(depth):
            blk = nn.Module()
            blk.ln1 = nn.LayerNorm(dim)
            blk.attn = WindowAttention(dim, heads, None, rng)
            blk.ln2 = nn.LayerNorm(dim)
            blk.mlp = nn.Mlp(dim, 4 * dim, rng)
            self.blocks.append(blk)

    def forward(self, frame: Tensor) -> Tensor:
        """(B,H,W,C) frames -> (B,H/p,W/p,dim); attention stays within a frame."""
        g = self.embed(frame)
        b, gh, gw, c = g.shape
        x = g.reshape(b, gh * gw, c)
        for blk in self.blocks:
            x = x + blk.attn(blk.ln1(x))
            x = x + blk.mlp(blk.ln2(x))
        return x.reshape(b, gh, gw, c)
