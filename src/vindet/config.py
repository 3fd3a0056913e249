"""Experiment configuration: typed groups, a line-oriented file format, and
validation before anything runs.

Each field declares the values it admits beside its default (:func:`rule`).
One walk, :func:`leaves`, yields every file key; ``validate()`` checks the
rules along it, then the rules that tie fields together. File format: one
``key = value`` per line with dotted keys, ``#`` comments. Unknown keys are
errors. Tuples are comma-separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass


@dataclass(frozen=True)
class Rule:
    """Admits values (each entry, for a tuple) in ``interval``, written ``[lo, hi]``
    with ``(`` or ``)`` at an open end, or in ``choices`` when given. NaN lies in
    no interval, and one open at +-inf admits no infinity. ``doc`` describes
    the field in error messages."""
    interval: str = "(-inf, inf)"
    choices: tuple = ()
    doc: str = ""

    def admits(self, value) -> bool:
        if self.choices:
            return value in self.choices
        lo, hi = (float(s) for s in self.interval[1:-1].split(","))
        return ((lo < value if self.interval[0] == "(" else lo <= value)
                and (value < hi if self.interval[-1] == ")" else value <= hi))

    def __str__(self) -> str:
        return f"one of {', '.join(self.choices)}" if self.choices else f"in {self.interval}"


def rule(default, interval: str = "(-inf, inf)", choices: tuple = (), doc: str = ""):
    """A dataclass field holding ``default`` that admits what :class:`Rule` says."""
    return field(default=default, metadata={"rule": Rule(interval, choices, doc)})


def leaves(cfg):
    """Yield ``(file key, owner, field)`` for every value of ``cfg`` (the
    config or one group) in file order; a ``key`` in field metadata renames."""
    for f in fields(cfg):
        key = f.metadata.get("key", f.name)
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from ((f"{key}.{sub}", owner, g) for sub, owner, g in leaves(value))
        else:
            yield key, cfg, f


def check_rules(group):
    """Return ``group``, or raise ValueError naming the file key (within
    ``group``) of its first value, or tuple entry, that the field's rule
    rejects."""
    for key, owner, f in leaves(group):
        r, value = f.metadata.get("rule"), getattr(owner, f.name)
        if r and not all(map(r.admits, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{key}{f' ({r.doc})' if r.doc else ''} "
                             f"must be {r}, got {_text(value)}")
    return group


def _text(value) -> str:
    """A value as the config file writes it; tuples are comma-separated."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@dataclass
class GeometryConfig:
    frames: int = rule(3, "[1, inf)")
    height: int = rule(32, "[1, inf)")
    width: int = rule(32, "[1, inf)")
    channels: int = rule(3, "[3, 3]", doc="clip frames are 3-channel P6 images")
    patch: int = rule(4, "[1, inf)")
    views: tuple = rule((1, 2, 3), "[1, inf)")


@dataclass
class EncoderConfig:
    dims: tuple = rule((16, 24, 32), "[1, inf)", doc="per-view embedding width")
    stages: int = rule(2, "[1, inf)")
    depths: tuple = rule((2, 2), "[0, inf)", doc="block pairs per stage")
    window: int = rule(4, "[1, inf)")
    heads: tuple = rule((2, 4), "[1, inf)")


@dataclass
class GlobalConfig:
    patch: int = rule(8, "[1, inf)")
    dim: int = rule(32, "[1, inf)")
    depth: int = rule(2, "[0, inf)")
    heads: int = rule(2, "[1, inf)")


@dataclass
class DwtiConfig:
    enabled: bool = True
    window: int = rule(4, "[1, inf)")
    max_offset: float = rule(1.0, "(0, inf)", doc="offset bound in window cells")
    common_dim: int = rule(24, "[1, inf)")


FUSION_GROUPS = 4                  # group-norm groups of the decoder's view fusion


@dataclass
class DecoderConfig:
    channels: tuple = rule((32, 48), "[1, inf)")
    use_tff: bool = True           # feed intermediate stages into the decoder
    use_frequency: bool = True


@dataclass
class FreqConfig:
    low: float = rule(1 / 3, "(0, 1)")
    high: float = rule(2 / 3, "(0, 1)")


@dataclass
class LossConfig:
    alpha: float = rule(0.25, "(0, 1)", doc="balance weight for inpainted pixels")
    gamma: float = rule(2.0, "[0, inf)", doc="hard-mining exponent")
    lambda_miou: float = rule(1.0, "[0, inf)")
    lambda_focal: float = rule(1.0, "[0, inf)")
    eps: float = rule(1e-7, "(0, inf)", doc="log guard")

    def validate(self) -> "LossConfig":
        return check_rules(self)


@dataclass
class OptimConfig:
    lr_encoder: float = rule(0.001, "[0, inf)")
    lr_decoder: float = rule(0.01, "[0, inf)")
    weight_decay: float = rule(1e-4, "[0, inf)")
    momentum: float = rule(0.96, "[0, 1)")
    min_lr: float = rule(1e-5, "[0, inf)")
    poly_power: float = rule(0.7, "[0, inf)")


@dataclass
class TrainConfig:
    iters: int = rule(500, "[0, inf)")
    batch: int = rule(4, "[1, inf)")
    eval_every: int = rule(50, "[1, inf)")
    augment: bool = False          # random square-symmetry per sample


@dataclass
class DataConfig:
    dir: str = "data"


@dataclass
class PerturbConfig:
    kind: str = rule("none", choices=("none", "jpeg", "gaussian"),
                     doc="evaluation-time perturbation")
    jpeg_quality: int = rule(90, "[1, 100]")
    snr_db: float = rule(25.0)


@dataclass
class ExperimentConfig:
    seed: int = rule(0, "[0, inf)")
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    glob: GlobalConfig = field(default_factory=GlobalConfig, metadata={"key": "global"})
    dwti: DwtiConfig = field(default_factory=DwtiConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    freq: FreqConfig = field(default_factory=FreqConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    perturb: PerturbConfig = field(default_factory=PerturbConfig)

    def grid_side(self, stage: int) -> int:
        """Spatial token side at a stage (0-based)."""
        return self.geometry.height // self.geometry.patch // (2 ** stage)

    def stage_sides(self) -> list[int]:
        return [self.grid_side(l) for l in range(self.encoder.stages)]

    def view_channels(self, stage: int) -> list[int]:
        return [d * (2 ** stage) for d in self.encoder.dims]

    def validate(self) -> "ExperimentConfig":
        """Check every field's rule, then the rules that tie fields together."""
        check_rules(self)
        g, e, o = self.geometry, self.encoder, self.optim
        if g.height != g.width:
            raise ValueError("square frames required")
        if g.height % g.patch:
            raise ValueError(f"patch {g.patch} must divide frame {g.height}x{g.width}")
        vs = tuple(g.views)
        if not vs or any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"views must be strictly ascending, got {vs}")
        if vs[-1] > g.frames:
            raise ValueError(f"view {vs[-1]} exceeds clip length {g.frames}")
        if len(e.dims) != len(vs):
            raise ValueError("encoder.dims must match the number of views")
        if {len(e.depths), len(e.heads), len(self.decoder.channels)} != {e.stages}:
            raise ValueError("encoder.depths, encoder.heads and decoder.channels must have "
                             "one entry per stage")
        for l in range(e.stages):
            side = self.grid_side(l)
            if l + 1 < e.stages and side % 2:
                raise ValueError(f"stage {l}: side {side} must be even to merge into stage {l + 1}")
            if side < e.window:
                raise ValueError(f"stage {l}: side {side} smaller than window {e.window}")
            if self.dwti.enabled and side < self.dwti.window:
                raise ValueError(f"stage {l}: side {side} smaller than dwti window")
            for d in self.view_channels(l):
                if d % e.heads[l]:
                    raise ValueError(f"stage {l}: dim {d} not divisible by heads {e.heads[l]}")
        if any(c % FUSION_GROUPS for c in self.decoder.channels):
            raise ValueError(f"decoder.channels must be multiples of {FUSION_GROUPS}, got "
                             f"{_text(self.decoder.channels)}")
        if g.height % self.glob.patch:
            raise ValueError("global patch must divide the frame")
        if self.decoder.use_frequency and (g.patch & (g.patch - 1)):
            raise ValueError("frequency pyramid needs a power-of-two patch for 2x2 pooling")
        if self.freq.low >= self.freq.high:
            raise ValueError("frequency thresholds must satisfy freq.low < freq.high")
        if o.min_lr > min(o.lr_encoder, o.lr_decoder):
            raise ValueError(f"optim.min_lr must be at most min(lr_encoder, lr_decoder), "
                             f"got {o.min_lr}")
        return self


def _coerce(current, raw: str):
    if isinstance(current, bool):
        if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"expected boolean, got {raw!r}")
        return raw.lower() in ("true", "1", "yes")
    if isinstance(current, (int, float)):
        return type(current)(raw)
    if isinstance(current, tuple):
        kind = type(current[0]) if current else int
        return tuple(kind(p) for p in raw.split(",") if p.strip())
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines over the defaults; unknown keys are errors."""
    cfg = ExperimentConfig()
    known = {key: (owner, f.name) for key, owner, f in leaves(cfg)}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        owner, attr = known[key]
        try:
            setattr(owner, attr, _coerce(getattr(owner, attr), raw))
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad value for {key}: {err}") from err
    return cfg


def read_text(path) -> str:
    """The UTF-8 text of ``path``; ValueError names the file if it is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None


def load_config(path) -> ExperimentConfig:
    """Parse and validate the file ``path``; a ValueError names the file."""
    text = read_text(path)
    try:
        return parse_config(text).validate()
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def dump_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{key} = {_text(getattr(owner, f.name))}\n" for key, owner, f in leaves(cfg))
