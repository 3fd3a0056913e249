"""Guards across the config space: every config that ``validate()`` accepts
builds a model that runs.

Configs are drawn from each field's rule and the cross-field rules, kept
small (sides 16-48, 1-3 views, 1-2 stages, depth 0-1, narrow widths), with
every ablation flag drawn. On each, with jittered parameters, the no-grad
maps lie in [0, 1] and a training step leaves finite gradients; in float64,
the batched maps equal the per-clip ones and the step's loss the mean of the
per-clip losses. A checkpoint round trip is byte-identical, and the
analytic parameter count equals the registry.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from vindet import nn
from vindet import tensor as T
from vindet.complexity import count_params_flops
from vindet.config import FUSION_GROUPS, ExperimentConfig
from vindet.data import generate_dataset
from vindet.model import InpaintingDetector
from vindet.objectives import total_loss
from vindet.tensor import Tensor
from vindet.train import _dihedral, _train_step, load_checkpoint, save_checkpoint


@st.composite
def valid_configs(draw):
    cfg = ExperimentConfig(seed=draw(st.integers(0, 2 ** 16)))
    g, e, d = cfg.geometry, cfg.encoder, cfg.decoder
    d.use_tff, d.use_frequency = draw(st.booleans()), draw(st.booleans())
    cfg.dwti.enabled = draw(st.booleans())
    # a power-of-two patch when the band pyramid pools by 2x2
    g.patch = draw(st.sampled_from([2, 4, 8] if d.use_frequency else [2, 3, 4, 8]))
    cfg.glob.patch = draw(st.sampled_from([2, 4, 8, 16]))
    step = math.lcm(g.patch, cfg.glob.patch)
    g.height = g.width = draw(st.sampled_from([s for s in range(16, 49) if s % step == 0]))

    g.frames = draw(st.integers(1, 5))
    g.views = tuple(draw(st.lists(st.integers(1, g.frames), min_size=1, max_size=3,
                                  unique=True).map(sorted)))
    e.stages = draw(st.integers(1, 2))
    sides = cfg.stage_sides()
    assume(all(s % 2 == 0 for s in sides[:-1]))     # patch merging halves the side
    e.window = draw(st.integers(1, min(4, sides[-1])))
    cfg.dwti.window = draw(st.integers(1, min(4, sides[-1])))
    e.dims = tuple(draw(st.lists(st.integers(1, 8), min_size=len(g.views),
                                 max_size=len(g.views))))
    e.heads = tuple(draw(st.sampled_from([h for h in (1, 2, 3)
                                          if all(c % h == 0 for c in cfg.view_channels(l))]))
                    for l in range(e.stages))
    e.depths = tuple(draw(st.integers(0, 1)) for _ in range(e.stages))
    d.channels = tuple(FUSION_GROUPS * draw(st.integers(1, 3)) for _ in range(e.stages))

    cfg.glob.heads = draw(st.integers(1, 2))
    cfg.glob.dim = cfg.glob.heads * draw(st.integers(1, 4))
    cfg.glob.depth = draw(st.integers(0, 1))
    cfg.dwti.common_dim = draw(st.integers(1, 8))
    cfg.dwti.max_offset = draw(st.floats(0.1, 2.0))
    cfg.freq.low = draw(st.floats(0.05, 0.9))
    cfg.freq.high = draw(st.floats(cfg.freq.low + 0.01, 0.95))
    cfg.loss.alpha = draw(st.floats(0.05, 0.95))
    cfg.loss.gamma = draw(st.floats(0.0, 3.0))
    cfg.train.batch = draw(st.integers(1, 3))
    cfg.train.augment = draw(st.booleans())
    return cfg.validate()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("space")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=valid_configs())
def test_every_valid_config_runs(scratch, cfg):
    b = cfg.train.batch
    ds = [(f"clip_{i}", sc.clip, sc.gt_mask)
          for i, sc in enumerate(generate_dataset(b, cfg.seed, cfg))]
    frames = np.stack([clip.frames for _, clip, _ in ds])
    model = _jittered(cfg)
    registry = model.registry()
    with T.no_grad():
        maps = model(frames).data
    assert maps.shape == (b, cfg.geometry.height, cfg.geometry.width)
    assert np.all(np.isfinite(maps)) and maps.min() >= 0.0 and maps.max() <= 1.0
    nn.pack(registry.values())
    _train_step(model, ds, np.arange(b), np.random.default_rng(1), cfg, 0)
    assert all(np.all(np.isfinite(p.grad)) for p in registry.values())

    first, again = os.path.join(scratch, "first.mpci"), os.path.join(scratch, "again.mpci")
    velocities = {name: p.grad for name, p in registry.items()}
    save_checkpoint(first, model, velocities, 3)
    fresh = InpaintingDetector(dataclasses.replace(cfg, seed=cfg.seed + 1))
    save_checkpoint(again, fresh, *load_checkpoint(first, fresh))
    with open(first, "rb") as a, open(again, "rb") as c:
        assert a.read() == c.read()

    assert count_params_flops(cfg)["params"] == sum(p.size for p in registry.values())

    with T.float64_scope():
        model = _jittered(cfg)
        with T.no_grad():
            maps = model(frames).data
            per_clip = np.stack([model(f).data for f in frames])
        assert np.max(np.abs(maps - per_clip)) <= 1e-12

        # the per-clip losses of the clips the step draws, augmented alike
        draw = np.random.default_rng(1)
        losses = []
        with T.no_grad():
            for _, clip, mask in ds:
                f, m = clip.frames, mask
                if cfg.train.augment:
                    f, m = _dihedral(f, m, int(draw.integers(0, 8)))
                losses.append(total_loss(model(f), Tensor(m), cfg.loss).item())
        value = _train_step(model, ds, np.arange(b), np.random.default_rng(1), cfg, 0)
        assert abs(value - np.mean(losses)) <= 1e-12


def _jittered(cfg):
    """A model of ``cfg`` in the compute dtype, every parameter moved by
    N(0, 0.05): the zero-initialised layers would keep every map at 0.5."""
    model = InpaintingDetector(cfg)
    rng = np.random.default_rng(cfg.seed)
    for p in model.registry().values():
        p.data[...] += rng.normal(0.0, 0.05, size=p.shape)
    return model
