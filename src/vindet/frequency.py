"""Frequency-assistance features.

The middle frame of a clip is transformed with a full-frame orthonormal 2D
DCT, split into low/mid/high bands by an exact spectral partition, inverse
transformed per band, and concatenated along channels. Repeated 2x2 average
pooling turns that into a pyramid matched to the decoder stage sides. The
whole branch carries no learnable state.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Orthonormal 2D DCT-II of an H x W array."""
    ch = dct_basis(x.shape[0])
    cw = dct_basis(x.shape[1])
    return ch @ x @ cw.T


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2` (orthonormal DCT-III)."""
    ch = dct_basis(coeffs.shape[0])
    cw = dct_basis(coeffs.shape[1])
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


def middle_frame_index(t: int) -> int:
    """Middle frame of a T-frame clip; even T picks index T/2 - 1."""
    if t <= 0:
        raise ValueError("clip must have at least one frame")
    return (t - 1) // 2


@dataclass
class FrequencyFeatures:
    """Band-pass features of the middle frame plus their pooled pyramid."""

    full: np.ndarray             # H x W x 3C
    pyramid: list[np.ndarray]    # stage l entry matches decoder side at l


def frequency_features(frames: np.ndarray, stage_sides: list[int],
                       thresholds=(1 / 3, 2 / 3)) -> FrequencyFeatures:
    """Build the band-pass feature stack for a clip's middle frame.

    ``frames`` is (T,H,W,C); every channel is transformed once, masked per
    band, inverse transformed, and the three band images are concatenated
    along channels giving H x W x 3C. The transforms run in float64 and the
    stack is cast once to the compute dtype, in which average pooling halves
    the side repeatedly until each requested stage side is met.
    """
    t, h, w, c = frames.shape
    frame = frames[middle_frame_index(t)]
    coeffs = [dct2(frame[:, :, ch]) for ch in range(c)]
    full = np.concatenate([np.stack([idct2(k * m) for k in coeffs], axis=-1)
                           for m in band_masks(h, w, thresholds)], axis=-1,
                          dtype=compute_dtype())

    pyramid = []
    for side in stage_sides:
        cur = full
        while cur.shape[0] > side:
            if cur.shape[0] % 2 or cur.shape[1] % 2:
                raise ValueError(
                    f"cannot pool {cur.shape[:2]} down to side {side}: odd intermediate size"
                )
            hh, ww, cc = cur.shape
            cur = cur.reshape(hh // 2, 2, ww // 2, 2, cc).mean(axis=(1, 3))
        if cur.shape[0] != side:
            raise ValueError(f"stage side {side} unreachable from {h}x{w} by 2x2 pooling")
        pyramid.append(cur)
    return FrequencyFeatures(full, pyramid)
