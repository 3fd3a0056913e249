"""Frequency-assistance features.

The middle frames of a batch of clips go through one full-frame orthonormal
2D DCT, which transforms the last two axes of every clip and channel at
once. The spectrum is split into low/mid/high bands by an exact partition,
each band is inverse transformed, and the bands are concatenated along
channels. Repeated 2x2 average pooling, each stage side from the level
before it, turns that into a pyramid matched to the decoder stage sides.
The whole branch carries no learnable state. ``data.perturb_jpeg`` runs its
8x8 blocks through the same ``dct2``/``idct2``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import compute_dtype


@lru_cache(maxsize=32)
def dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix C: X = C @ x for a length-n signal."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    c = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    c[0] *= np.sqrt(0.5)
    return c


def dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II over the last two axes of an (..., H, W) array."""
    ch = dct_basis(x.shape[-2])
    cw = dct_basis(x.shape[-1])
    return ch @ x @ cw.T


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2` (orthonormal DCT-III), over the last two axes."""
    ch = dct_basis(coeffs.shape[-2])
    cw = dct_basis(coeffs.shape[-1])
    return ch.T @ coeffs @ cw


def band_masks(h: int, w: int, thresholds=(1 / 3, 2 / 3)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binary low/mid/high masks partitioning the (u+v) diagonal spectrum.

    The normalized diagonal index r(u,v) = (u+v)/(H-1+W-1) is cut at the two
    thresholds; the three masks are pairwise disjoint and cover everything.
    """
    t1, t2 = thresholds
    if not 0.0 < t1 < t2 < 1.0:
        raise ValueError(f"band thresholds must satisfy 0 < t1 < t2 < 1, got {thresholds}")
    u = np.arange(h)[:, None]
    v = np.arange(w)[None, :]
    denom = (h - 1) + (w - 1)
    r = (u + v) / denom if denom > 0 else np.zeros((h, w))
    low = r <= t1
    mid = (r > t1) & (r <= t2)
    high = r > t2
    return low.astype(np.float64), mid.astype(np.float64), high.astype(np.float64)


def band_channels(channels: int) -> int:
    """Channels of the band features of a ``channels``-channel frame: one
    low, one mid and one high band image per channel."""
    return 3 * channels


def middle_frame_index(t: int) -> int:
    """Middle frame of a T-frame clip; even T picks index T/2 - 1."""
    if t <= 0:
        raise ValueError("clip must have at least one frame")
    return (t - 1) // 2


def frequency_features(frames: np.ndarray, stage_sides: list[int],
                       thresholds=(1 / 3, 2 / 3)) -> list[np.ndarray]:
    """Band-pass feature pyramid of a batch of middle frames.

    ``frames`` is (B,H,W,C). One DCT covers every clip and channel; each band
    mask is applied and inverse transformed, and the three band images are
    concatenated along channels, low to high, giving (B,H,W,3C). The
    transforms run in float64 and the stack is cast once to the compute
    dtype. Returns one (B,s,s,3C) array per entry of ``stage_sides``, each
    halved by 2x2 average pooling from the one before it; the frame's own
    side pools nothing.
    """
    b, h, w, c = frames.shape
    coeffs = dct2(np.ascontiguousarray(frames.transpose(0, 3, 1, 2), dtype=np.float64))
    masks = np.stack(band_masks(h, w, thresholds))[:, None]
    bands = idct2(coeffs[:, None] * masks)  # (B,3,C,H,W)
    cur = bands.transpose(0, 3, 4, 1, 2).astype(compute_dtype(), order="C")
    cur = cur.reshape(b, h, w, band_channels(c))

    levels = []
    for side in stage_sides:
        while cur.shape[1] > side and cur.shape[1] % 2 == 0 and cur.shape[2] % 2 == 0:
            n, hh, ww, cc = cur.shape
            cur = cur.reshape(n, hh // 2, 2, ww // 2, 2, cc).mean(axis=(2, 4))
        if cur.shape[1] != side:
            raise ValueError(f"stage side {side} unreachable from {h}x{w} by 2x2 pooling")
        levels.append(cur)
    return levels
