"""Full detector wiring: shapes, ablation paths, parameter registry."""

import numpy as np
import pytest

from vindet.config import DecoderConfig, DwtiConfig, ExperimentConfig
from vindet.data import make_clip
from vindet.encoder import ViewBranch
from vindet import nn
from vindet import tensor as T
from vindet.model import InpaintingDetector
from vindet.tensor import Tensor


def _forward(cfg, seed=0):
    model = InpaintingDetector(cfg)
    sample = make_clip(seed, cfg)
    return model, model(sample.clip.frames)


class TestForward:
    def test_output_shape_and_range(self):
        model, m = _forward(ExperimentConfig())
        assert m.shape == (32, 32)
        assert m.data.min() >= 0.0 and m.data.max() <= 1.0

    @pytest.mark.parametrize("shape", [(1, 3, 64, 64, 3), (3, 32, 32, 1), (2, 32, 32, 3),
                                       (32, 32, 3), (1, 1, 3, 32, 32, 3)])
    def test_frames_off_the_config_geometry_are_refused_first(self, shape, monkeypatch):
        model = InpaintingDetector(ExperimentConfig())
        monkeypatch.setattr(model, "encode", lambda frames: pytest.fail("encoder ran"))
        with pytest.raises(T.ShapeError) as err:
            model(np.zeros(shape))
        assert str(shape) in str(err.value) and "(3, 32, 32, 3)" in str(err.value)

    def test_deterministic_construction(self):
        a = InpaintingDetector(ExperimentConfig())
        b = InpaintingDetector(ExperimentConfig())
        for (na, pa), (nb, pb) in zip(a.registry().items(), b.registry().items()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_registry_sorted_and_unique(self):
        model = InpaintingDetector(ExperimentConfig())
        names = list(model.registry())
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_registry_values_are_tensors(self):
        # a parameter is the tensor the engine differentiates, with its
        # gradient buffer allocated at construction
        for p in InpaintingDetector(ExperimentConfig()).registry().values():
            assert isinstance(p, Tensor) and T.as_tensor(p) is p
            assert p.requires_grad and p.dtype == np.float32
            assert p.grad is not None and p.grad.shape == p.shape and not p.grad.any()
            assert not hasattr(p, "__dict__")

    def test_encoder_group_covers_expected_prefixes(self):
        model = InpaintingDetector(ExperimentConfig())
        enc = model.encoder_param_names()
        all_names = set(model.registry())
        dec = all_names - enc
        assert all(n.startswith("decoder.") for n in dec)
        assert any(n.startswith("branches.") for n in enc)
        assert any(n.startswith("global_enc.") for n in enc)
        assert any(n.startswith("interaction.") for n in enc)
        assert any(n.startswith("embeds.") for n in enc)


    def test_every_layer_runs_through_module_call(self):
        # a layer defines forward; nn.Module.__call__ is the only entry
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        layers = [c for c in subclasses(nn.Module) if c.__module__.startswith("vindet.")]
        assert len(layers) >= 19
        assert [c.__qualname__ for c in layers if "__call__" in vars(c)] == []

    def test_every_module_is_entered_through_module_call(self, monkeypatch):
        # containers only hold modules and a ViewBranch runs stage by stage;
        # every other module of a forward is called
        entered, call = set(), nn.Module.__call__
        monkeypatch.setattr(nn.Module, "__call__",
                            lambda self, *a, **k: entered.add(id(self)) or call(self, *a, **k))
        cfg = ExperimentConfig()
        model = InpaintingDetector(cfg)
        model(np.stack([make_clip(i, cfg).clip.frames for i in range(2)]))

        def walk(name, module):
            yield name, module
            for key, child in module._children.items():
                yield from walk(f"{name}.{key}", child)

        missed = [name for name, m in walk("model", model)
                  if not isinstance(m, (nn.ModuleList, ViewBranch)) and id(m) not in entered]
        assert not missed, missed

    def test_band_features_built_once_per_batch(self, monkeypatch):
        import vindet.model as M

        calls = []
        real = M.frequency_features
        monkeypatch.setattr(M, "frequency_features",
                            lambda frames, *rest: calls.append(frames.shape) or real(frames, *rest))
        cfg = ExperimentConfig()
        model = InpaintingDetector(cfg)
        with T.no_grad():
            model(np.stack([make_clip(i, cfg).clip.frames for i in range(4)]))
        assert calls == [(4, 32, 32, 3)]


class TestAblations:
    def test_dwti_disabled_runs_and_drops_params(self):
        cfg = ExperimentConfig(dwti=DwtiConfig(enabled=False))
        model, m = _forward(cfg)
        assert m.shape == (32, 32)
        assert not any(n.startswith("interaction.") for n in model.registry())

    def test_frequency_disabled_runs_and_drops_params(self):
        cfg = ExperimentConfig(decoder=DecoderConfig(use_frequency=False))
        model, m = _forward(cfg)
        assert m.shape == (32, 32)
        assert not any("freq_fuse" in n for n in model.registry())

    def test_tff_disabled_runs_and_drops_stages(self):
        cfg = ExperimentConfig(decoder=DecoderConfig(use_tff=False))
        model, m = _forward(cfg)
        assert m.shape == (32, 32)
        names = model.registry()
        assert not any(n.startswith("decoder.gates.") for n in names)
        assert not any(n.startswith("decoder.guide.") for n in names)

    def test_flags_change_only_documented_prefixes(self):
        base = set(InpaintingDetector(ExperimentConfig()).registry())
        no_dwti = set(InpaintingDetector(
            ExperimentConfig(dwti=DwtiConfig(enabled=False))).registry())
        assert all(n.startswith("interaction.") for n in base - no_dwti)
        assert no_dwti - base == set()

        no_freq = set(InpaintingDetector(
            ExperimentConfig(decoder=DecoderConfig(use_frequency=False))).registry())
        assert all(".freq_fuse." in n for n in base - no_freq)
        assert no_freq - base == set()

    def test_single_view_has_no_interaction(self):
        cfg = ExperimentConfig()
        cfg.geometry.views = (2,)
        cfg.encoder.dims = (16,)
        model, m = _forward(cfg)
        assert m.shape == (32, 32)
        assert model.interaction is None


class TestMiddleFrameTarget:
    def test_prediction_reacts_to_middle_frame(self):
        cfg = ExperimentConfig()
        model = InpaintingDetector(cfg)
        # the head starts zeroed (constant 0.5 output); give it live weights
        rng = np.random.default_rng(5)
        model.decoder.head_out.w.data[:] = rng.normal(
            size=model.decoder.head_out.w.shape)
        sample = make_clip(3, cfg)
        base = model(sample.clip.frames).data
        bumped = sample.clip.frames.copy()
        bumped[1] = np.clip(bumped[1] + 0.2, 0, 1)
        moved = model(bumped).data
        assert np.abs(moved - base).max() > 1e-6

    def test_fresh_model_outputs_half_everywhere(self):
        cfg = ExperimentConfig()
        model = InpaintingDetector(cfg)
        sample = make_clip(4, cfg)
        np.testing.assert_allclose(model(sample.clip.frames).data, 0.5, atol=1e-15)
