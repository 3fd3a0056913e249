"""Synthetic forgery data and signal perturbations.

Each scene is a textured background with two moving textured rectangles; the
"inpainted" rendering removes one of them along its whole track and fills the
hole with blurred background plus per-frame noise, leaving a spatial texture
anomaly and temporal flicker. Rectangles snap to the token grid so masks are
crisply learnable at desk scale. Everything is reproducible from the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .frequency import dct_basis, middle_frame_index
from .tokenizer import VideoClip, load_clip, save_clip


# ---------------------------------------------------------------------------
# scene synthesis
# ---------------------------------------------------------------------------

def _box_blur(img: np.ndarray, radius: int = 2) -> np.ndarray:
    """Separable box blur with edge padding, per channel."""
    k = 2 * radius + 1
    out = np.pad(img, ((radius, radius), (0, 0), (0, 0)), mode="edge")
    out = np.cumsum(out, axis=0)
    out = (out[k - 1:] - np.concatenate([np.zeros_like(out[:1]), out[:-k]], axis=0)) / k
    out = np.pad(out, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out = np.cumsum(out, axis=1)
    out = (out[:, k - 1:] - np.concatenate([np.zeros_like(out[:, :1]), out[:, :-k]], axis=1)) / k
    return out


def _texture(rng: np.random.Generator, h: int, w: int, c: int) -> np.ndarray:
    """Smooth color field plus fine high-contrast grain."""
    coarse = rng.uniform(0.15, 0.85, size=(-(-h // 4), -(-w // 4), c))
    coarse = np.repeat(np.repeat(coarse, 4, axis=0), 4, axis=1)[:h, :w]
    coarse = _box_blur(coarse, 2)
    grain = rng.uniform(-0.18, 0.18, size=(h, w, c))
    return np.clip(coarse + grain, 0.0, 1.0)


@dataclass
class SceneRecipe:
    seed: int
    t: int
    h: int
    w: int
    c: int
    grid: int = 4          # rectangles snap to this pitch

    def _layout(self, rng: np.random.Generator):
        g = self.grid
        def rect(min_cells, max_cells):
            rw = int(rng.integers(min_cells, max_cells + 1)) * g
            rh = int(rng.integers(min_cells, max_cells + 1)) * g
            return rh, rw
        # keep the worst-case square inside the 0.4 area bound; rectangles
        # span two cells or more unless two cells would break that bound
        hi = max(1, int(np.floor(np.sqrt(0.4 * self.h * self.w)) // g))
        lo = max(min(2, hi), hi - 2)
        target = rect(lo, hi)
        distract = rect(min(2, hi), min(3, hi))
        def start_for(size):
            return (
                int(rng.integers(0, (self.h - size[0]) // g + 1)) * g,
                int(rng.integers(0, (self.w - size[1]) // g + 1)) * g,
            )
        steps = [(0, g), (0, -g), (g, 0), (-g, 0), (g, g), (-g, -g)]
        vel_t = steps[int(rng.integers(0, len(steps)))]
        vel_d = steps[int(rng.integers(0, len(steps)))]
        return target, start_for(target), vel_t, distract, start_for(distract), vel_d

    def _positions(self, start, vel, size):
        """Per-frame top-left corners, bouncing off the borders."""
        pos = []
        y, x = start
        for _ in range(self.t):
            y = min(max(y, 0), self.h - size[0])
            x = min(max(x, 0), self.w - size[1])
            pos.append((y, x))
            y2, x2 = y + vel[0], x + vel[1]
            if not 0 <= y2 <= self.h - size[0]:
                vel = (-vel[0], vel[1])
                y2 = y + vel[0]
            if not 0 <= x2 <= self.w - size[1]:
                vel = (vel[0], -vel[1])
                x2 = x + vel[1]
            y, x = y2, x2
        return pos

    def render(self, inpainted: bool) -> tuple[np.ndarray, np.ndarray]:
        """Frames (T,H,W,C) and the middle-frame mask of the removed region."""
        rng = np.random.default_rng([self.seed, 0xC11F])
        bg = _texture(rng, self.h, self.w, self.c)
        # distractor texture drawn from the same family as the target, so a
        # textured rectangle is never by itself evidence of inpainting
        tex_t = _texture(rng, self.h, self.w, self.c) * 0.6 + 0.2
        tex_d = _texture(rng, self.h, self.w, self.c) * 0.6 + 0.2
        tsize, tstart, tvel, dsize, dstart, dvel = self._layout(rng)
        tpos = self._positions(tstart, tvel, tsize)
        dpos = self._positions(dstart, dvel, dsize)
        # fill: heavy blur plus a per-clip tint, like a sloppy exemplar fill
        tint = rng.uniform(0.08, 0.14) * (1 if rng.uniform() < 0.5 else -1)
        fill_base = np.clip(_box_blur(bg, 4) + tint, 0.0, 1.0)
        flicker = rng.uniform(-0.08, 0.08, size=(self.t, self.h, self.w, self.c))

        frames = np.empty((self.t, self.h, self.w, self.c))
        mask_mid = np.zeros((self.h, self.w))
        mid = middle_frame_index(self.t)
        for f in range(self.t):
            img = bg.copy()
            dy, dx = dpos[f]
            img[dy:dy + dsize[0], dx:dx + dsize[1]] = \
                tex_d[dy:dy + dsize[0], dx:dx + dsize[1]]
            ty, tx = tpos[f]
            region = (slice(ty, ty + tsize[0]), slice(tx, tx + tsize[1]))
            if inpainted:
                img[region] = np.clip(fill_base[region] + flicker[f][region], 0.0, 1.0)
            else:
                img[region] = tex_t[region]
            frames[f] = img
            if f == mid:
                mask_mid[region] = 1.0
        return np.clip(frames, 0.0, 1.0), mask_mid


@dataclass
class SyntheticClip:
    clip: VideoClip
    gt_mask: np.ndarray      # middle-frame mask, zeros when authentic
    recipe: SceneRecipe
    inpainted: bool = True


def make_clip(seed: int, cfg: ExperimentConfig, inpainted: bool = True) -> SyntheticClip:
    g = cfg.geometry
    recipe = SceneRecipe(seed, g.frames, g.height, g.width, g.channels, g.patch)
    frames, mask = recipe.render(inpainted)
    if not inpainted:
        mask = np.zeros_like(mask)
    area = mask.mean()
    if inpainted and not 0.02 <= area <= 0.4:
        raise ValueError(f"synthetic clips: a {g.height}x{g.width} frame leaves no "
                         f"{g.patch}-pixel-aligned mask covering 2-40% of it")
    return SyntheticClip(VideoClip(frames), mask, recipe, inpainted)


def generate_dataset(n_clips: int, seed: int, cfg: ExperimentConfig,
                     inpainted: bool = True) -> list[SyntheticClip]:
    if n_clips < 1:
        raise ValueError("need at least one clip")
    return [make_clip(seed * 100003 + i, cfg, inpainted) for i in range(n_clips)]


def save_dataset(dirpath, clips: list[SyntheticClip]):
    os.makedirs(dirpath, exist_ok=True)
    for i, sc in enumerate(clips):
        save_clip(os.path.join(dirpath, f"clip_{i:04d}"), sc.clip, sc.gt_mask)


def load_dataset(dirpath, cfg: ExperimentConfig | None = None
                 ) -> list[tuple[str, VideoClip, np.ndarray]]:
    """(name, clip, mask) for every clip directory under ``dirpath``. Each
    mask must match its frames' (H,W); with ``cfg``, the frames must also
    have the config's (T,H,W,C), so that any of the clips stack into a batch.
    ValueError names the mask or the manifest that breaks a rule."""
    names = sorted(d for d in os.listdir(dirpath)
                   if os.path.isdir(os.path.join(dirpath, d)))
    if not names:
        raise ValueError(f"{dirpath}: no clip directories found")
    out = []
    for name in names:
        path = os.path.join(dirpath, name)
        clip, mask = load_clip(path)
        if mask is None:
            raise ValueError(f"{path}: missing gt.pgm")
        if cfg is not None:
            g = cfg.geometry
            want = (g.frames, g.height, g.width, g.channels)
            if clip.frames.shape != want:
                raise ValueError(f"{os.path.join(path, 'manifest.txt')}: frames are "
                                 f"{clip.frames.shape} (T,H,W,C), the config needs {want}")
        if mask.shape != clip.frames.shape[1:3]:
            raise ValueError(f"{os.path.join(path, 'gt.pgm')}: mask is {mask.shape}, "
                             f"frames are {clip.h}x{clip.w}")
        out.append((name, clip, mask))
    return out


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

# Standard luminance quantization table.
JPEG_LUMA = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


def jpeg_quant_table(quality: int) -> np.ndarray:
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1,100], got {quality}")
    scale = (5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality)
    q = np.floor((JPEG_LUMA * scale + 50.0) / 100.0)
    return np.maximum(q, 1.0)


def perturb_jpeg(clip: VideoClip, quality: int) -> VideoClip:
    """Blockwise DCT quantization round-trip on every frame and channel: the
    edge-padded planes are cut into 8x8 blocks, and all blocks go through the
    8-point DCT basis at once."""
    q = jpeg_quant_table(quality)
    d = dct_basis(8)
    t, h, w, c = clip.frames.shape
    planes = np.pad(clip.frames.transpose(0, 3, 1, 2) * 255.0 - 128.0,
                    ((0, 0), (0, 0), (0, -h % 8), (0, -w % 8)), mode="edge")
    hb, wb = planes.shape[2] // 8, planes.shape[3] // 8
    blocks = planes.reshape(t, c, hb, 8, wb, 8).transpose(0, 1, 2, 4, 3, 5)
    coeffs = np.round(d @ blocks @ d.T / q) * q
    rec = (d.T @ coeffs @ d).transpose(0, 1, 2, 4, 3, 5).reshape(planes.shape)
    out = (rec[:, :, :h, :w].transpose(0, 2, 3, 1) + 128.0) / 255.0
    return VideoClip(np.clip(out, 0.0, 1.0))


def perturb_gaussian(clip: VideoClip, snr_db: float, seed: int) -> tuple[VideoClip, float]:
    """Additive white Gaussian noise at the requested clip-level SNR.

    Returns the clamped clip and the measured pre-clamp SNR in dB.
    """
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    rng = np.random.default_rng([seed, 0x5D8])
    signal_power = float(np.mean(clip.frames ** 2))
    noise_power = signal_power * 10.0 ** (-snr_db / 10.0)  # underflows to 0 for huge SNR
    if noise_power == 0.0:
        return VideoClip(clip.frames.copy()), float("inf")
    noise = rng.normal(0.0, np.sqrt(noise_power), size=clip.frames.shape)
    measured = 10.0 * np.log10(signal_power / float(np.mean(noise ** 2)))
    return VideoClip(np.clip(clip.frames + noise, 0.0, 1.0)), measured


def apply_perturbation(clip: VideoClip, cfg: ExperimentConfig, seed: int) -> VideoClip:
    p = cfg.perturb
    if p.kind == "none":
        return clip
    if p.kind == "jpeg":
        return perturb_jpeg(clip, p.jpeg_quality)
    if p.kind == "gaussian":
        return perturb_gaussian(clip, p.snr_db, seed)[0]
    raise ValueError(f"unknown perturbation {p.kind!r}")


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 1.0) -> float:
    mse = float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)
