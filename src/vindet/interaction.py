"""Deformable window-based interaction between adjacent temporal views.

Each larger view absorbs features from its adjacent smaller view: inside
every window, queries from the larger view drive an offset network whose
deformed points sample the smaller view bilinearly; sampled features become
keys and values of a cross-attention. The update enters the larger view as
a residual through a zero-initialized back-projection, so a freshly built
module is exactly inert.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import nn
from . import tensor as T
from .encoder import window_merge, window_partition
from .tensor import Tensor


@lru_cache(maxsize=32)
def _cell_center_grid(m: int) -> np.ndarray:
    """(m*m, 2) reference points at window cell centers, in [-1,1]."""
    idx = np.arange(m)
    centers = (2 * idx + 1) / m - 1.0
    gy, gx = np.meshgrid(centers, centers, indexing="ij")
    return np.stack([gx.reshape(-1), gy.reshape(-1)], axis=-1)


class OffsetNet(nn.Module):
    """Two linear layers with a tanh-bounded 2D offset output.

    Output is scaled to ``max_offset`` window cells in normalized units.
    The final layer starts at zero so initial offsets vanish.
    """

    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        hidden = max(c // 2, 2)
        self.fc1 = nn.Linear(c, hidden, rng)
        self.fc2 = nn.Linear(hidden, 2, rng, zero_init=True)

    def forward(self, q: Tensor) -> Tensor:
        return T.tanh(self.fc2(T.gelu(self.fc1(q))))


class DeformableWindowCrossAttention(nn.Module):
    """Single-head windowed cross-attention with deformable sampling."""

    def __init__(self, c: int, window: int, max_offset: float,
                 rng: np.random.Generator):
        super().__init__()
        self.c, self.window, self.max_offset = c, window, max_offset
        self.scale = c ** -0.5
        self.wq = nn.Linear(c, c, rng)
        self.wk = nn.Linear(c, c, rng)
        self.wv = nn.Linear(c, c, rng)
        self.theta = OffsetNet(c, rng)

    def forward(self, small: Tensor, large: Tensor) -> Tensor:
        """(B,S,S,c) maps -> (B,S,S,c); the windows of all clips form one batch."""
        if small.shape != large.shape:
            raise T.ShapeError(
                f"deformable attention: aligned maps differ, {small.shape} vs {large.shape}"
            )
        m = self.window
        wins_small, _ = window_partition(small, m)
        wins_large, meta_l = window_partition(large, m)

        q = self.wq(wins_large)                      # (B*K, m*m, c)
        # one deformed point per query position, bounded to max_offset cells
        offsets = self.theta(q) * (self.max_offset * 2.0 / m)
        points = Tensor(_cell_center_grid(m)[None]) + offsets
        sampled = T.grid_sample_bilinear(
            wins_small.reshape(-1, m, m, self.c), points
        )                                            # (B*K, m*m, c)
        h, _ = T.attention(q, self.wk(sampled), self.wv(sampled), 1, self.scale)
        return window_merge(h, meta_l)


class AdjacentPair(nn.Module):
    """Interaction for one (smaller view, larger view) pair at one stage."""

    def __init__(self, c_small: int, c_large: int, common: int, window: int,
                 max_offset: float, rng: np.random.Generator):
        super().__init__()
        self.align_small = nn.Linear(c_small, common, rng)
        self.align_large = nn.Linear(c_large, common, rng)
        self.attn = DeformableWindowCrossAttention(common, window, max_offset, rng)
        self.back = nn.Linear(common, c_large, rng, zero_init=True)

    def align(self, z_small: Tensor, z_large: Tensor):
        """(B,T,S,S,c) views -> (B,S,S,common) temporal means."""
        if z_small.shape[2:4] != z_large.shape[2:4]:
            raise T.ShapeError(
                f"interaction: views at one stage must share spatial side, "
                f"got {z_small.shape} and {z_large.shape}"
            )
        small2d = self.align_small(z_small.mean(axis=1))
        large2d = self.align_large(z_large.mean(axis=1))
        return small2d, large2d

    def forward(self, z_small: Tensor, z_large: Tensor) -> Tensor:
        small2d, large2d = self.align(z_small, z_large)
        h = self.back(self.attn(small2d, large2d))
        b, s, _, c = h.shape
        # the update is shared by every temporal slice of the larger view
        return z_large + h.reshape(b, 1, s, s, c)


class ViewInteraction(nn.Module):
    """Ascending-order chain of adjacent-pair interactions per stage."""

    def __init__(self, stage_channels: list[list[int]], common: int, window: int,
                 max_offset: float, rng: np.random.Generator):
        # stage_channels[l][i] = channels of view i at stage l
        super().__init__()
        self.stages = nn.ModuleList()
        for chans in stage_channels:
            pairs = nn.ModuleList()
            for i in range(len(chans) - 1):
                pairs.append(AdjacentPair(chans[i], chans[i + 1], common,
                                          window, max_offset, rng))
            self.stages.append(pairs)

    def forward(self, views: list[Tensor], stage: int) -> list[Tensor]:
        """Update larger views in place order; smaller views are read-only.
        Each step feeds the already updated view into the next pair."""
        out = list(views)
        for i, pair in enumerate(self.stages[stage]):
            out[i + 1] = pair(out[i], out[i + 1])
        return out
