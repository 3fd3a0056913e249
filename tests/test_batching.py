"""The leading batch axis: batched layers equal stacked per-clip results,
samples stay independent, and one batched train step gives the mean of the
per-clip gradients."""

from pathlib import Path

import numpy as np
import pytest

from vindet import nn
from vindet import tensor as T
from vindet.config import FUSION_GROUPS, ExperimentConfig, load_config
from vindet.data import generate_dataset, make_clip
from vindet.decoder import PyramidDecoder, TffBlock
from vindet.encoder import GlobalEncoder, StagePlan, ViewBranch
from vindet.interaction import ViewInteraction
from vindet.model import InpaintingDetector
from vindet.objectives import total_loss
from vindet.tensor import Tensor, backward
from vindet.tokenizer import TubeletEmbed
from vindet.train import _dihedral, _train_step

TOL = 1e-10
B = 3
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _per_clip(fn, *batches):
    """fn applied to each clip as a batch of one, results stacked."""
    outs = [fn(*(Tensor(x.data[i:i + 1]) for x in batches)).data[0]
            for i in range(batches[0].shape[0])]
    return np.stack(outs)


def _assert_matches(fn, *batches):
    got = fn(*batches).data
    want = _per_clip(fn, *batches)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL


def _live(model: InpaintingDetector, rng):
    """Move the zero-initialized layers off zero so every path carries signal."""
    head = model.decoder.head_out.w
    head.data[:] = rng.normal(size=head.shape) * 0.2
    for pairs in model.interaction.stages:
        for p in pairs:
            p.back.w.data[:] = rng.normal(size=p.back.w.shape) * 0.1
            p.attn.theta.fc2.w.data[:] = rng.normal(
                size=p.attn.theta.fc2.w.shape) * 0.1


class TestLayersMatchPerClip:
    def test_tubelet_embed(self):
        emb = TubeletEmbed(2, 4, 3, 8, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).uniform(0, 1, size=(B, 3, 16, 16, 3)))
        _assert_matches(emb, x)

    def test_view_branch_stages(self):
        branch = ViewBranch(8, [StagePlan(1, 4, 2), StagePlan(1, 4, 2)],
                            np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(B, 3, 8, 8, 8)))
        _assert_matches(lambda z: branch.run_stage(z, 0), x)
        _assert_matches(lambda z: branch.run_stage(z, 1), x)

    def test_view_interaction(self):
        rng = np.random.default_rng(4)
        inter = ViewInteraction([[4, 6, 8]], 4, 2, 1.0, np.random.default_rng(5))
        for p in inter.stages[0]:
            p.back.w.data[:] = rng.normal(size=p.back.w.shape) * 0.3
            p.attn.theta.fc2.w.data[:] = rng.normal(
                size=p.attn.theta.fc2.w.shape) * 0.3
        views = [Tensor(rng.normal(size=(B, t, 8, 8, c)))
                 for t, c in ((3, 4), (1, 6), (1, 8))]
        for k in range(3):
            _assert_matches(lambda *vs: inter(list(vs), 0)[k], *views)

    def test_global_encoder(self):
        enc = GlobalEncoder(3, 8, 16, 2, 2, np.random.default_rng(6))
        x = Tensor(np.random.default_rng(7).uniform(0, 1, size=(B, 32, 32, 3)))
        _assert_matches(enc, x)

    def test_tff_block(self):
        rng = np.random.default_rng(8)
        tff = TffBlock(4 + 6, 8, np.random.default_rng(9))
        views = [Tensor(rng.normal(size=(B, 3, 8, 8, 4))),
                 Tensor(rng.normal(size=(B, 1, 8, 8, 6)))]
        _assert_matches(lambda *vs: tff(list(vs)), *views)

    @pytest.mark.usefixtures("float64")
    def test_pyramid_decoder(self):
        cfg = ExperimentConfig()
        dec = PyramidDecoder(cfg, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        dec.head_out.w.data[:] = rng.normal(size=dec.head_out.w.shape)
        times = [cfg.geometry.frames // v for v in cfg.geometry.views]
        views = [Tensor(rng.normal(size=(B, t, cfg.grid_side(l), cfg.grid_side(l), c)))
                 for l in range(cfg.encoder.stages)
                 for t, c in zip(times, cfg.view_channels(l))]
        pyramid = [Tensor(rng.normal(size=(B, s, s, 9))) for s in cfg.stage_sides()]
        f_high = Tensor(rng.normal(size=(B, 4, 4, cfg.glob.dim)))
        nv = len(times)

        def run(*xs):
            sv = [list(xs[l * nv:(l + 1) * nv]) for l in range(cfg.encoder.stages)]
            pyr = list(xs[len(views):len(views) + len(pyramid)])
            return dec(sv, pyr, xs[-1], (32, 32))

        _assert_matches(run, *views, *pyramid, f_high)

    @pytest.mark.usefixtures("float64")
    def test_full_model(self):
        cfg = ExperimentConfig()
        model = InpaintingDetector(cfg)
        _live(model, np.random.default_rng(12))
        clips = np.stack([make_clip(s, cfg).clip.frames for s in range(B)])
        got = model(clips).data
        assert got.shape == (B, 32, 32)
        want = np.stack([model(c).data for c in clips])
        assert np.max(np.abs(got - want)) <= TOL
        assert np.ptp(got) > 1e-3  # the live head gives a non-constant map

    def test_unbatched_call_is_batch_of_one(self):
        cfg = ExperimentConfig()
        model = InpaintingDetector(cfg)
        _live(model, np.random.default_rng(13))
        frames = make_clip(5, cfg).clip.frames
        single = model(frames).data
        assert single.shape == (32, 32)
        np.testing.assert_array_equal(single, model(frames[None]).data[0])


class TestSampleIndependence:
    def test_group_norm_per_sample(self):
        rng = np.random.default_rng(14)
        g = Tensor(rng.uniform(0.5, 1.5, size=8))
        b = Tensor(rng.normal(size=8))
        x = rng.normal(size=(2, 3, 4, 8))
        base = T.group_norm(Tensor(x), g, b, 4).data
        x2 = x.copy()
        x2[1] = rng.normal(size=x2[1].shape)
        moved = T.group_norm(Tensor(x2), g, b, 4).data
        np.testing.assert_array_equal(moved[0], base[0])
        assert np.abs(moved[1] - base[1]).max() > 1e-3
        # and a sample normalizes as it would alone
        alone = T.group_norm(Tensor(x[1:]), g, b, 4).data
        assert np.max(np.abs(alone[0] - base[1])) <= TOL


def _row_widths(cfg: ExperimentConfig) -> list[int]:
    """The row widths whose sums ``tensor._sum_last`` takes in the model of
    ``cfg``: layer-norm widths (each stage's view channels, and 4x those
    where patch merging follows), the global width, decoder group-norm
    groups, softmax rows (window areas and global tokens) and DWTI's sampled
    channels."""
    e, g = cfg.encoder, cfg.geometry
    widths = {cfg.glob.dim, e.window ** 2, cfg.dwti.window ** 2, cfg.dwti.common_dim,
              (g.height // cfg.glob.patch) * (g.width // cfg.glob.patch)}
    widths |= {c // FUSION_GROUPS for c in cfg.decoder.channels}
    for l in range(e.stages):
        widths |= set(cfg.view_channels(l))
        if l + 1 < e.stages:
            widths |= {4 * c for c in cfg.view_channels(l)}
    return sorted(widths)


def test_row_widths_cover_the_desk_step(monkeypatch):
    cfg = ExperimentConfig()
    seen, sum_last = set(), T._sum_last

    def recording(x):
        seen.add(x.shape[-1])
        return sum_last(x)

    monkeypatch.setattr(T, "_sum_last", recording)
    clip = generate_dataset(1, 1, cfg)[0]
    backward(total_loss(InpaintingDetector(cfg)(clip.clip.frames), Tensor(clip.gt_mask), cfg.loss))
    assert sorted(seen) == _row_widths(cfg)


# a layer norm, softmax or group norm row of one clip must round alike in
# any batch; OpenBLAS's gemv rounds a lone row or a trailing partial block
# unlike a full one, so this fails for x @ ones(n)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", ["desk", "paper"])
def test_row_sum_is_the_same_whatever_the_row_count(config, dtype):
    rng = np.random.default_rng(17)
    for n in _row_widths(load_config(CONFIGS / f"{config}.cfg")):
        x = rng.normal(size=(97, n)).astype(dtype)
        alone = np.concatenate([T._sum_last(x[i:i + 1]) for i in range(97)])
        for m in range(2, 98):
            assert T._sum_last(x[:m]).tobytes() == alone[:m].tobytes(), (n, m)


class TestTrainStep:
    @pytest.mark.usefixtures("float64")
    def test_batched_step_gradients_are_mean_of_per_clip(self):
        cfg = ExperimentConfig()
        cfg.train.augment = True
        model = InpaintingDetector(cfg)
        _live(model, np.random.default_rng(15))
        registry = model.registry()
        dataset = [(f"c{i}", sc.clip, sc.gt_mask)
                   for i, sc in enumerate(make_clip(s, cfg) for s in range(4))]
        batch = np.array([2, 0, 3, 0])

        _, grad = nn.pack(registry.values())
        value = _train_step(model, dataset, batch, np.random.default_rng(16), cfg, 0)
        batched = {n: p.grad.copy() for n, p in registry.items()}

        # reference: the same augmentation draws, one graph per clip
        rng = np.random.default_rng(16)
        summed = {n: np.zeros_like(p.data) for n, p in registry.items()}
        losses = []
        for bi in batch:
            _, clip, mask = dataset[bi]
            frames, mask = _dihedral(clip.frames, mask, int(rng.integers(0, 8)))
            nn.zero_grads(grad)
            loss = total_loss(model(frames), Tensor(mask), cfg.loss)
            backward(loss)
            losses.append(loss.item())
            for n, p in registry.items():
                summed[n] += p.grad
        assert abs(value - np.mean(losses)) <= TOL
        worst = max(float(np.max(np.abs(batched[n] - summed[n] / len(batch))))
                    for n in registry)
        assert worst <= TOL
        assert max(float(np.abs(g).max()) for g in batched.values()) > 1e-3


def test_conv_keeps_input_shape():
    x = Tensor(np.zeros((2, 3, 5, 4, 2)))
    # anisotropic kernels, and a 7 longer than the time axis of 3
    for kernel in [(1, 1, 1), (3, 3, 3), (3, 3, 1), (1, 5, 3), (7, 1, 1)]:
        assert T.conv(x, Tensor(np.zeros((*kernel, 2, 7)))).shape == (2, 3, 5, 4, 7), kernel
    for kernel in [(2, 3, 3), (3, 3, 4)]:
        with pytest.raises(T.ShapeError, match="even side"):
            T.conv(x, Tensor(np.zeros((*kernel, 2, 7))))
    with pytest.raises(T.ShapeError):      # no batch axis
        T.conv(Tensor(np.zeros((5, 5, 2))), Tensor(np.zeros((3, 3, 2, 1))))
