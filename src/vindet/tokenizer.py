"""Clip tokenization: one token grid per temporal view, one token per tubelet.

Clips arrive as a batch (B,T,H,W,C) and leave as token grids (B,T',S,S,c).

A view of length t turns the clip into non-overlapping t x h x w tubelets;
trailing frames that do not fill a tubelet are dropped (floor semantics).
Also holds the on-disk clip format: P6 frames plus a manifest, P5 masks.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .config import read_text
from .tensor import Tensor


@dataclass
class VideoClip:
    frames: np.ndarray  # (T,H,W,C) in [0,1]

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 4:
            raise ValueError(f"clip frames must be (T,H,W,C), got {f.shape}")
        if f.shape[0] < 1:
            raise ValueError("clip needs at least one frame")
        if f.min() < 0.0 or f.max() > 1.0:
            raise ValueError("frame values must lie in [0,1]")
        self.frames = f

    @property
    def t(self):
        return self.frames.shape[0]

    @property
    def h(self):
        return self.frames.shape[1]

    @property
    def w(self):
        return self.frames.shape[2]

    @property
    def c(self):
        return self.frames.shape[3]


class TubeletEmbed(nn.Module):
    """Embeds one temporal view: each view x patch x patch tubelet times one
    linear map (a 3D convolution with stride equal to its kernel)."""

    def __init__(self, view: int, patch: int, c_in: int, c_out: int,
                 rng: np.random.Generator):
        super().__init__()
        self.view = view
        self.proj = nn.PatchEmbed(c_in, c_out, (view, patch, patch), rng)

    def forward(self, frames: Tensor) -> Tensor:
        """(B,T,H,W,C) frames to (B, floor(T/view), H/patch, W/patch, c_out) tokens."""
        t = frames.shape[1]
        usable = (t // self.view) * self.view
        if usable != t:
            frames = T.slice_axis(frames, 1, 0, usable)
        return self.proj(frames)


# ---------------------------------------------------------------------------
# on-disk clip format
# ---------------------------------------------------------------------------

def write_ppm(path, img: np.ndarray):
    """Write an (H,W,3) [0,1] image as binary P6."""
    h, w, _ = img.shape
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def write_pgm(path, img: np.ndarray):
    """Write an (H,W) [0,1] map as binary P5."""
    h, w = img.shape
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def _read_netpbm(path, magic: str, channels: int) -> np.ndarray:
    """The (h, w, channels) uint8 pixels of a binary P5/P6 file; a bad header
    or a payload shorter than the header says raises ValueError naming it."""
    with open(path, "rb") as fh:
        buf = fh.read()
    m = re.match(rb"(P[56])\s+(?:#[^\n]*\s+)?(\d+)\s+(\d+)\s+(\d+)\s", buf)
    if not m or m.group(1).decode() != magic:
        raise ValueError(f"{path}: not a {magic} file")
    w, h, maxval = int(m.group(2)), int(m.group(3)), int(m.group(4))
    if w < 1 or h < 1:
        raise ValueError(f"{path}: empty {w}x{h} {magic} image")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    size = h * w * channels
    if len(buf) - m.end() < size:
        raise ValueError(f"{path}: truncated {magic} payload: {len(buf) - m.end()} "
                         f"bytes for {w}x{h}x{channels}")
    return np.frombuffer(buf, np.uint8, count=size, offset=m.end()).reshape(h, w, channels)


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, "P6", 3).astype(np.float64) / 255.0


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, "P5", 1)[:, :, 0].astype(np.float64) / 255.0


def save_clip(dirpath, clip: VideoClip, mask: np.ndarray | None = None):
    """Write frames as P6 plus a manifest; optional P5 mask (255=inpainted)."""
    os.makedirs(dirpath, exist_ok=True)
    names = []
    for i in range(clip.t):
        name = f"frame_{i:03d}.ppm"
        write_ppm(os.path.join(dirpath, name), clip.frames[i])
        names.append(name)
    with open(os.path.join(dirpath, "manifest.txt"), "w") as fh:
        fh.write("\n".join(names) + "\n")
    if mask is not None:
        write_pgm(os.path.join(dirpath, "gt.pgm"), mask)


def load_clip(dirpath) -> tuple[VideoClip, np.ndarray | None]:
    """Read a clip directory: the frames its manifest lists, and ``gt.pgm``
    if present. The manifest must be UTF-8 and list at least one frame, each
    a regular file in the directory itself and of the first frame's size;
    ValueError names the manifest otherwise."""
    manifest = os.path.join(dirpath, "manifest.txt")
    names = [ln.strip() for ln in read_text(manifest).splitlines() if ln.strip()]
    if not names:
        raise ValueError(f"{manifest}: lists no frames")
    for n in names:
        if os.path.basename(n) != n or not os.path.isfile(os.path.join(dirpath, n)):
            raise ValueError(f"{manifest}: entry {n!r} is not a regular file in {dirpath}")
    frames = [read_ppm(os.path.join(dirpath, n)) for n in names]
    for n, f in zip(names, frames):
        if f.shape != frames[0].shape:
            raise ValueError(f"{manifest}: entry {n!r} is {f.shape[0]}x{f.shape[1]}, "
                             f"entry {names[0]!r} is {frames[0].shape[0]}x{frames[0].shape[1]}")
    frames = np.stack(frames)
    mask_path = os.path.join(dirpath, "gt.pgm")
    mask = read_pgm(mask_path) if os.path.exists(mask_path) else None
    if mask is not None:
        mask = (mask > 0.5).astype(np.float64)
    return VideoClip(frames), mask
