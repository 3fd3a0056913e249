"""Full detector: tokenize per view, run branches with cross-view
interaction after every stage, and decode a middle-frame detection map."""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .config import ExperimentConfig
from .decoder import PyramidDecoder
from .encoder import GlobalEncoder, StagePlan, ViewBranch
from .frequency import frequency_features, middle_frame_index
from .interaction import ViewInteraction
from .tensor import Tensor
from .tokenizer import TubeletEmbed


class InpaintingDetector(nn.Module):
    def __init__(self, cfg: ExperimentConfig):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        g, e = cfg.geometry, cfg.encoder

        self.embeds = nn.ModuleList(
            TubeletEmbed(v, g.patch, g.channels, d, rng)
            for v, d in zip(g.views, e.dims)
        )
        plans = [StagePlan(e.depths[l], e.window, e.heads[l]) for l in range(e.stages)]
        self.branches = nn.ModuleList(ViewBranch(d, plans, rng) for d in e.dims)
        if cfg.uses_dwti():
            stage_chans = [cfg.view_channels(l) for l in range(e.stages)]
            self.interaction = ViewInteraction(
                stage_chans, cfg.dwti.common_dim, cfg.dwti.window,
                cfg.dwti.max_offset, rng,
            )
        else:
            self.interaction = None
        self.global_enc = GlobalEncoder(g.channels, cfg.glob.patch, cfg.glob.dim,
                                        cfg.glob.depth, cfg.glob.heads, rng)
        self.decoder = PyramidDecoder(cfg, rng)
        self._registry = nn.build_registry(self)

    # ------------------------------------------------------------------
    def encode(self, frames: Tensor) -> list[list[Tensor]]:
        """Per-stage, per-view (B,T,S,S,c) features with interaction applied
        per stage."""
        cur = [emb(frames) for emb in self.embeds]
        per_stage = []
        for l in range(self.cfg.encoder.stages):
            cur = [branch.run_stage(z, l) for branch, z in zip(self.branches, cur)]
            if self.interaction is not None:
                cur = self.interaction(cur, l)
            per_stage.append(cur)
        return per_stage

    def forward(self, frames: np.ndarray | Tensor) -> Tensor:
        """Detection maps in [0,1] for the middle frame of each clip.

        ``frames`` is a batch (B,T,H,W,C), giving (B,H,W) maps, or one clip
        (T,H,W,C), giving one (H,W) map; the single clip runs as a batch of one.
        Each clip's (T,H,W,C) must be the config's geometry, or ``ShapeError``
        names both. An array is cast once, into the compute dtype, as it
        becomes a Tensor.
        """
        ft = frames if isinstance(frames, Tensor) else Tensor(frames)
        g = self.cfg.geometry
        clip = (g.frames, g.height, g.width, g.channels)
        if ft.ndim not in (4, 5) or ft.shape[-4:] != clip:
            raise T.ShapeError(f"model: frames of shape {ft.shape} do not hold (T,H,W,C) "
                               f"clips of the config's geometry {clip}")
        if ft.ndim == 4:
            return self.forward(ft.reshape(1, *ft.shape)).reshape(ft.shape[1:3])
        stage_views = self.encode(ft)
        b, t, h, w, c = ft.shape
        frame = T.take_tokens(ft, middle_frame_index(t) * h * w + np.arange(h * w), b,
                              (b, h, w, c))
        pyramid = None
        if self.cfg.decoder.use_frequency:
            # the band features carry no gradient
            pyramid = frequency_features(frame.data, self.cfg.stage_sides(),
                                         (self.cfg.freq.low, self.cfg.freq.high))
        f_high = self.global_enc(frame)
        return self.decoder(stage_views, pyramid, f_high, (g.height, g.width))

    # ------------------------------------------------------------------
    def registry(self):
        """Dotted path -> parameter, in path order, as built at construction."""
        return self._registry

    def encoder_param_names(self) -> set[str]:
        """Names in the encoder learning-rate group (branches, embeds,
        interaction, global encoder); everything else is decoder-group."""
        prefixes = ("embeds.", "branches.", "interaction.", "global_enc.")
        return {n for n in self._registry if n.startswith(prefixes)}
