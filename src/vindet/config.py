"""Experiment configuration: typed groups, a line-oriented file format, and
validation of every divisibility constraint before anything runs.

File format: one ``key = value`` per line with dotted keys, ``#`` comments.
Unknown keys are errors. Tuples are comma-separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .objectives import LossConfig


@dataclass
class GeometryConfig:
    frames: int = 3
    height: int = 32
    width: int = 32
    channels: int = 3
    patch: int = 4
    views: tuple = (1, 2, 3)


@dataclass
class EncoderConfig:
    dims: tuple = (16, 24, 32)     # per-view embedding width
    stages: int = 2
    depths: tuple = (2, 2)         # block pairs per stage
    window: int = 4
    heads: tuple = (2, 4)


@dataclass
class GlobalConfig:
    patch: int = 8
    dim: int = 32
    depth: int = 2
    heads: int = 2


@dataclass
class DwtiConfig:
    enabled: bool = True
    window: int = 4
    max_offset: float = 1.0        # window cells
    common_dim: int = 24


@dataclass
class DecoderConfig:
    channels: tuple = (32, 48)
    use_tff: bool = True           # feed intermediate stages into the decoder
    use_frequency: bool = True


@dataclass
class FreqConfig:
    low: float = 1 / 3
    high: float = 2 / 3


@dataclass
class OptimConfig:
    lr_encoder: float = 0.001
    lr_decoder: float = 0.01
    weight_decay: float = 1e-4
    momentum: float = 0.96
    min_lr: float = 1e-5
    poly_power: float = 0.7


@dataclass
class TrainConfig:
    iters: int = 500
    batch: int = 4
    eval_every: int = 50
    augment: bool = False          # random square-symmetry per sample


@dataclass
class DataConfig:
    dir: str = "data"


@dataclass
class PerturbConfig:
    kind: str = "none"             # none | jpeg | gaussian
    jpeg_quality: int = 90
    snr_db: float = 25.0


@dataclass
class ExperimentConfig:
    seed: int = 0
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    glob: GlobalConfig = field(default_factory=GlobalConfig)
    dwti: DwtiConfig = field(default_factory=DwtiConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    freq: FreqConfig = field(default_factory=FreqConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    perturb: PerturbConfig = field(default_factory=PerturbConfig)

    # ------------------------------------------------------------------
    def grid_side(self, stage: int) -> int:
        """Spatial token side at a stage (0-based)."""
        return self.geometry.height // self.geometry.patch // (2 ** stage)

    def stage_sides(self) -> list[int]:
        return [self.grid_side(l) for l in range(self.encoder.stages)]

    def view_channels(self, stage: int) -> list[int]:
        return [d * (2 ** stage) for d in self.encoder.dims]

    def validate(self) -> "ExperimentConfig":
        g, e = self.geometry, self.encoder
        if g.frames < 1:
            raise ValueError("geometry.frames must be >= 1")
        sizes = {"geometry.patch": (g.patch,), "geometry.channels": (g.channels,),
                 "encoder.window": (e.window,), "encoder.dims": e.dims,
                 "encoder.heads": e.heads, "global.patch": (self.glob.patch,),
                 "global.dim": (self.glob.dim,), "global.heads": (self.glob.heads,),
                 "dwti.window": (self.dwti.window,), "decoder.channels": self.decoder.channels}
        for key, values in sizes.items():
            if any(v < 1 for v in values):
                raise ValueError(f"{key} must be >= 1, got {','.join(map(str, values))}")
        if g.height != g.width:
            raise ValueError("square frames required")
        if g.height % g.patch or g.width % g.patch:
            raise ValueError(f"patch {g.patch} must divide frame {g.height}x{g.width}")
        vs = tuple(g.views)
        if not vs or any(a >= b for a, b in zip(vs, vs[1:])) or vs[0] < 1:
            raise ValueError(f"views must be strictly ascending positive, got {vs}")
        if vs[-1] > g.frames:
            raise ValueError(f"view {vs[-1]} exceeds clip length {g.frames}")
        if len(e.dims) != len(vs):
            raise ValueError("encoder.dims must match the number of views")
        if len(e.depths) != e.stages or len(e.heads) != e.stages:
            raise ValueError("encoder.depths and encoder.heads must have one entry per stage")
        if len(self.decoder.channels) != e.stages:
            raise ValueError("decoder.channels must have one entry per stage")
        for l in range(e.stages):
            side = self.grid_side(l)
            if side < 1:
                raise ValueError(f"stage {l}: token grid vanishes")
            if side < e.window:
                raise ValueError(f"stage {l}: side {side} smaller than window {e.window}")
            if self.dwti.enabled and side < self.dwti.window:
                raise ValueError(f"stage {l}: side {side} smaller than dwti window")
            for d in self.view_channels(l):
                if d % e.heads[l]:
                    raise ValueError(f"stage {l}: dim {d} not divisible by heads {e.heads[l]}")
        if g.height % self.glob.patch or g.width % self.glob.patch:
            raise ValueError("global patch must divide the frame")
        if self.decoder.use_frequency and (g.patch & (g.patch - 1)):
            raise ValueError("frequency pyramid needs a power-of-two patch for 2x2 pooling")
        if not 0.0 < self.freq.low < self.freq.high < 1.0:
            raise ValueError("frequency thresholds must satisfy 0 < low < high < 1")
        self.loss.validate()
        if self.train.batch < 1 or self.train.iters < 0:
            raise ValueError("train.batch >= 1 and train.iters >= 0 required")
        if self.train.eval_every < 1:
            raise ValueError(f"train.eval_every must be >= 1, got {self.train.eval_every}")
        o, d = self.optim, self.dwti
        if not 0.0 <= o.momentum < 1.0:
            raise ValueError(f"optim.momentum must be in [0, 1), got {o.momentum}")
        if not 0.0 <= o.min_lr <= min(o.lr_encoder, o.lr_decoder):
            raise ValueError(f"optim.min_lr must be in [0, min(lr_encoder, lr_decoder)], "
                             f"got {o.min_lr}")
        if not d.max_offset > 0.0:
            raise ValueError(f"dwti.max_offset must be > 0, got {d.max_offset}")
        if d.common_dim < 1:
            raise ValueError(f"dwti.common_dim must be >= 1, got {d.common_dim}")
        if self.perturb.kind not in ("none", "jpeg", "gaussian"):
            raise ValueError(f"unknown perturbation {self.perturb.kind!r}")
        if not 1 <= self.perturb.jpeg_quality <= 100:
            raise ValueError("jpeg quality must be in [1,100]")
        return self


_GROUPS = {
    "geometry": "geometry", "encoder": "encoder", "global": "glob",
    "dwti": "dwti", "decoder": "decoder", "freq": "freq", "loss": "loss",
    "optim": "optim", "train": "train", "data": "data", "perturb": "perturb",
}


def _coerce(current, raw: str):
    raw = raw.strip()
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        elem = current[0] if current else 1
        return tuple(type(elem)(p) for p in parts)
    return raw


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse ``key = value`` lines into a config; unknown keys are errors."""
    cfg = base or ExperimentConfig()
    groups = {name: replace(getattr(cfg, attr)) for name, attr in _GROUPS.items()}
    seed = cfg.seed
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key == "seed":
            seed = int(raw)
            continue
        if "." not in key:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        group, _, attr = key.partition(".")
        if group not in groups:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        target = groups[group]
        if attr not in {f.name for f in fields(target)}:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(target, attr, _coerce(getattr(target, attr), raw))
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad value for {key}: {err}") from err
    kwargs = {attr: groups[name] for name, attr in _GROUPS.items()}
    return ExperimentConfig(seed=seed, **kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def dump_config(cfg: ExperimentConfig) -> str:
    lines = [f"seed = {cfg.seed}"]
    for name, attr in _GROUPS.items():
        group = getattr(cfg, attr)
        for f in fields(group):
            v = getattr(group, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{name}.{f.name} = {v}")
    return "\n".join(lines) + "\n"
