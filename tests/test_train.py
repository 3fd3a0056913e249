"""Optimizer schedule, SGD semantics, checkpointing, and loop determinism."""

import re

import numpy as np
import pytest

from vindet import nn
from vindet import train as train_mod
from vindet.config import ExperimentConfig
from vindet.data import generate_dataset
from vindet.gradcheck import primitive_case_names
from vindet.model import InpaintingDetector
from vindet.objectives import f1_metric, frame_score, miou_metric
from vindet.tensor import Tensor
from vindet.train import (
    NumericalError,
    evaluate_model,
    load_checkpoint,
    poly_lr,
    poly_lr_pair,
    predict_maps,
    save_checkpoint,
    sgd_step,
    train,
)


class TestPolyLr:
    def test_endpoints(self):
        cfg = ExperimentConfig()
        cfg.train.iters = 1000
        assert poly_lr_pair(0, cfg) == (0.001, 0.01)
        assert poly_lr_pair(1000, cfg) == (1e-5, 1e-5)

    def test_linear_midpoint(self):
        assert poly_lr(50, 100, 0.2, min_lr=0.0, power=1.0) == pytest.approx(0.1)

    def test_clamps_past_end(self):
        assert poly_lr(250, 100, 0.01) == 1e-5

    def test_monotone_nonincreasing(self):
        vals = [poly_lr(i, 200, 0.01) for i in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_continuous_at_endpoints(self):
        assert poly_lr(199, 200, 0.01) == pytest.approx(poly_lr(200, 200, 0.01), abs=1e-3)
        assert poly_lr(1, 200, 0.01) == pytest.approx(poly_lr(0, 200, 0.01), abs=1e-3)


class TestSgdStep:
    def _param(self, value, grad):
        p = nn.Parameter(np.array([float(value)]))
        p.grad = np.array([float(grad)])
        return p

    def test_vanilla_step(self):
        p = self._param(1.0, 0.5)
        sgd_step({"w": p}, lambda n: 0.1, weight_decay=0.0, momentum=0.0, velocities={})
        assert p.data[0] == pytest.approx(0.95)

    def test_pure_weight_decay(self):
        p = self._param(1.0, 0.0)
        sgd_step({"w": p}, lambda n: 1.0, weight_decay=0.1, momentum=0.0, velocities={})
        assert p.data[0] == pytest.approx(0.9)

    def test_momentum_accumulates(self):
        p = self._param(0.0, 1.0)
        vel = {}
        sgd_step({"w": p}, lambda n: 1.0, 0.0, 0.9, vel)
        p.grad = np.array([1.0])
        sgd_step({"w": p}, lambda n: 1.0, 0.0, 0.9, vel)
        # steps: -1, then -(0.9+1)
        assert p.data[0] == pytest.approx(-2.9)

    def test_missing_grad_names_parameter(self):
        p = nn.Parameter(np.ones(2))
        p.grad = None
        with pytest.raises(ValueError, match="theta0"):
            sgd_step({"theta0": p}, lambda n: 0.1, 0.0, 0.0, {})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grad_moves_nothing(self, bad):
        reg = {name: self._param(1.0, 0.5) for name in ("a", "b", "c", "d")}
        reg["b"].grad = np.array([bad])
        reg["d"].grad = np.array([np.nan])
        vel = {name: np.array([0.25]) for name in reg}
        with pytest.raises(NumericalError, match="parameter b$"):
            sgd_step(reg, lambda n: 0.1, 1e-4, 0.9, vel)
        assert all(p.data[0] == 1.0 for p in reg.values())
        assert all(v[0] == 0.25 for v in vel.values())


def _sgd_step_before(registry, lr_of, weight_decay, momentum, velocities):
    """The update sgd_step made before it worked in place."""
    for name, p in registry.items():
        g = p.grad + weight_decay * p.data
        v = velocities.get(name)
        v = g if v is None else momentum * v + g
        velocities[name] = v
        p.data[...] = p.data - lr_of(name) * v


@pytest.mark.parametrize("initial_velocities", [False, True])
def test_sgd_step_matches_copying_update(initial_velocities):
    rng = np.random.default_rng(21)
    shapes = {"a.w": (3, 4), "a.b": (4,), "b.w": (2, 3, 5)}
    start = {n: rng.normal(size=s) for n, s in shapes.items()}
    vel0 = {n: rng.normal(size=s) for n, s in shapes.items()} if initial_velocities else {}
    grads = [{n: rng.normal(size=s) for n, s in shapes.items()} for _ in range(3)]
    lrs = {"a.w": 0.03, "a.b": 0.01, "b.w": 0.007}
    sides = []
    for step in (sgd_step, _sgd_step_before):
        reg = {n: nn.Parameter(v.copy()) for n, v in start.items()}
        vel = {n: v.copy() for n, v in vel0.items()}
        for gs in grads:
            for n, p in reg.items():
                p.grad = gs[n].copy()
            step(reg, lrs.__getitem__, 1e-4, 0.9, vel)
        sides.append(({n: p.data for n, p in reg.items()}, vel))
    (params, vel), (params_ref, vel_ref) = sides
    for n in shapes:
        assert np.array_equal(params[n], params_ref[n])
        assert np.array_equal(vel[n], vel_ref[n])


def _tiny_cfg(iters=4, seed=0):
    cfg = ExperimentConfig(seed=seed)
    cfg.geometry.height = cfg.geometry.width = 16
    cfg.geometry.views = (1, 2)
    cfg.encoder.dims = (8, 8)
    cfg.encoder.depths = (1, 1)
    cfg.encoder.heads = (2, 2)
    cfg.encoder.window = 2
    cfg.glob.patch = 8
    cfg.glob.dim = 8
    cfg.glob.depth = 1
    cfg.dwti.common_dim = 8
    cfg.dwti.window = 2
    cfg.decoder.channels = (8, 8)
    cfg.train.iters = iters
    cfg.train.batch = 2
    cfg.train.eval_every = 2
    return cfg


def _tiny_dataset(cfg, n=3):
    clips = generate_dataset(n, cfg.seed, cfg)
    return [(f"clip_{i}", sc.clip, sc.gt_mask) for i, sc in enumerate(clips)]


class TestTrainLoop:
    def test_runs_and_writes_artifacts(self, tmp_path):
        cfg = _tiny_cfg()
        res = train(cfg, str(tmp_path / "out"), dataset=_tiny_dataset(cfg))
        assert res.final_iter == 4
        assert (tmp_path / "out" / "checkpoint.mpci").exists()
        assert (tmp_path / "out" / "metrics.log").exists()
        assert len(res.log_lines) == 2

    def test_bit_identical_repeat_runs(self, tmp_path):
        cfg = _tiny_cfg(iters=6)
        ds = _tiny_dataset(cfg)
        a = train(cfg, str(tmp_path / "a"), dataset=ds)
        b = train(cfg, str(tmp_path / "b"), dataset=ds)
        with open(a.checkpoint, "rb") as fa, open(b.checkpoint, "rb") as fb:
            assert fa.read() == fb.read()
        with open(a.metrics_log) as fa, open(b.metrics_log) as fb:
            assert fa.read() == fb.read()

    def test_resume_reproduces_trajectory(self, tmp_path):
        cfg = _tiny_cfg(iters=6)
        ds = _tiny_dataset(cfg)
        full = train(cfg, str(tmp_path / "full"), dataset=ds)
        half = train(cfg, str(tmp_path / "half"), dataset=ds,
                     on_step=lambda it, *_: it == 3)
        assert half.final_iter == 3
        rest = train(cfg, str(tmp_path / "rest"), dataset=ds, resume=half.checkpoint)
        with open(full.checkpoint, "rb") as fa, open(rest.checkpoint, "rb") as fb:
            assert fa.read() == fb.read()

    def test_nan_loss_raises_numerical_error(self, tmp_path):
        cfg = _tiny_cfg(iters=2)
        ds = _tiny_dataset(cfg)
        bad = [(n, c, np.where(m > 0.5, np.nan, m)) for n, c, m in ds]
        with pytest.raises(NumericalError):
            train(cfg, str(tmp_path / "nan"), dataset=bad)

    def test_validation_before_step_zero(self, tmp_path):
        cfg = _tiny_cfg()
        cfg.geometry.patch = 5
        with pytest.raises(ValueError):
            train(cfg, str(tmp_path / "bad"), dataset=None)


class TestCheckpoint:
    def test_roundtrip_restores_params_and_state(self, tmp_path):
        cfg = _tiny_cfg()
        model = InpaintingDetector(cfg)
        vel = {name: np.full_like(p.data, 0.25)
               for name, p in model.registry().items()}
        path = str(tmp_path / "ck.mpci")
        save_checkpoint(path, model, vel, 17)
        model2 = InpaintingDetector(cfg, seed=123)
        vel2, it = load_checkpoint(path, model2)
        assert it == 17
        for name, p in model.registry().items():
            np.testing.assert_array_equal(p.data, model2.registry()[name].data)
            np.testing.assert_array_equal(vel2[name], vel[name])

    def test_float32_momentum_loads_in_parameter_dtype(self, tmp_path):
        # sgd_step updates momentum buffers in place, in the parameter's dtype
        model = InpaintingDetector(_tiny_cfg())
        path = str(tmp_path / "ck.mpci")
        save_checkpoint(path, model, {n: np.full(p.data.shape, 0.25, dtype=np.float32)
                                      for n, p in model.registry().items()}, 2)
        vel, _ = load_checkpoint(path, model)
        assert all(v.dtype == np.float64 and (v == 0.25).all() for v in vel.values())

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg = _tiny_cfg()
        model = InpaintingDetector(cfg)
        path = str(tmp_path / "ck.mpci")
        save_checkpoint(path, model, {}, 0)
        other = _tiny_cfg()
        other.decoder.channels = (16, 16)
        with pytest.raises(ValueError):
            load_checkpoint(path, InpaintingDetector(other))

    @pytest.mark.parametrize("entry, shape", [
        ("opt/momentum/decoder.head_out.b", (3,)),
        ("opt/momentum/no.such.param", (1,)),
    ])
    def test_bad_momentum_buffer_rejected(self, tmp_path, entry, shape):
        from vindet.serialize import load_container, save_container

        cfg = _tiny_cfg()
        model = InpaintingDetector(cfg)
        path = str(tmp_path / "ck.mpci")
        save_checkpoint(path, model, {}, 0)
        blobs = load_container(path)
        blobs[entry] = np.zeros(shape)
        save_container(path, blobs)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {entry}")):
            load_checkpoint(path, InpaintingDetector(cfg))

    @pytest.mark.parametrize("entry, value", [
        ("param/decoder.head_conv.w", np.nan),
        ("opt/momentum/decoder.head_out.b", np.inf),
        ("meta/iter", np.inf),
        ("meta/iter", -5.0),
        ("meta/iter", 1.5),
        ("meta/iter", np.array([1.0, 2.0])),
    ])
    def test_bad_entry_value_rejected(self, tmp_path, entry, value):
        from vindet.serialize import load_container, save_container

        cfg = _tiny_cfg()
        path = str(tmp_path / "ck.mpci")
        saved = InpaintingDetector(cfg, seed=5)
        save_checkpoint(path, saved, {n: np.ones_like(p.data)
                                      for n, p in saved.registry().items()}, 3)
        blobs = load_container(path)
        if np.ndim(value):
            blobs[entry] = value
        else:
            blobs[entry] = blobs[entry].copy()
            blobs[entry].reshape(-1)[-1] = value
        save_container(path, blobs)
        model = InpaintingDetector(cfg)
        before = {n: p.data.copy() for n, p in model.registry().items()}
        with pytest.raises(ValueError, match=re.escape(f"{path}: {entry}: ")
                           + "(non-finite values|not one whole number >= 0)"):
            load_checkpoint(path, model)
        for n, p in model.registry().items():
            np.testing.assert_array_equal(p.data, before[n])


def _tape_names(loss):
    """Names of every tape entry ``loss`` depends on."""
    names, seen, stack = set(), set(), [loss._entry]
    while stack:
        e = stack.pop()
        if e is None or id(e) in seen:
            continue
        seen.add(id(e))
        names.add(e.name)
        stack.extend(t._entry for t in e.inputs)
    return names


def test_gradient_suite_covers_every_training_op(monkeypatch):
    # a desk B=4 step; the backward is swapped for one that keeps the loss
    cfg = ExperimentConfig()
    ds = [(f"clip_{i}", sc.clip, sc.gt_mask)
          for i, sc in enumerate(generate_dataset(cfg.train.batch, cfg.seed, cfg))]
    losses = []
    monkeypatch.setattr(train_mod, "backward", losses.append)
    train_mod._train_step(InpaintingDetector(cfg), ds, np.arange(cfg.train.batch),
                          np.random.default_rng(0), cfg, 0)
    names = _tape_names(losses[0])
    cases = primitive_case_names()
    assert {"conv", "attention", "linear", "grid_sample"} <= names
    assert not [n for n in names if not any(c.startswith(n) for c in cases)]


def test_train_step_never_writes_an_op_output_gradient(monkeypatch):
    # op outputs adopt the arrays backward rules hand them, so no rule may
    # write into one: a desk B=4 step with each stored op-output gradient
    # made read-only must finish and give the same parameter gradients
    cfg = ExperimentConfig()
    ds = [(f"clip_{i}", sc.clip, sc.gt_mask)
          for i, sc in enumerate(generate_dataset(cfg.train.batch, cfg.seed, cfg))]

    def step_grads():
        model = InpaintingDetector(cfg)
        rng = np.random.default_rng(3)
        for p in model.registry().values():  # leave the zero-initialised head
            p.data[...] += rng.normal(0.0, 0.05, size=p.data.shape)
        train_mod._train_step(model, ds, np.arange(cfg.train.batch),
                              np.random.default_rng(0), cfg, 0)
        return {n: p.grad for n, p in model.registry().items()}

    want = step_grads()
    accumulate = Tensor.accumulate_grad
    guarded = []

    def read_only(self, g):
        accumulate(self, g)
        if self._entry is not None and isinstance(self.grad, np.ndarray):  # not a numpy scalar
            self.grad.flags.writeable = False
            guarded.append(1)

    monkeypatch.setattr(Tensor, "accumulate_grad", read_only)
    got = step_grads()
    assert len(guarded) > 500
    assert all(np.array_equal(got[n], want[n]) for n in want)


def test_zero_grads_zeroes_each_buffer_in_place():
    cfg = _tiny_cfg()
    model = InpaintingDetector(cfg)
    registry = model.registry()
    train_mod._train_step(model, _tiny_dataset(cfg, n=2), np.arange(2),
                          np.random.default_rng(0), cfg, 0)
    before = {n: p.grad for n, p in registry.items()}
    assert any(g.any() for g in before.values())
    nn.zero_grads(registry.values())
    for name, p in registry.items():
        assert p.grad is before[name] and not p.grad.any(), name


class TestEvaluate:
    def test_report_keeps_per_clip_metrics(self):
        # authentic clips between inpainted ones: the lists follow dataset order
        cfg = _tiny_cfg()
        ds = _tiny_dataset(cfg, n=3)
        auth = generate_dataset(2, cfg.seed + 1, cfg, inpainted=False)
        for at, sc in zip((1, 3), auth):
            ds.insert(at, (f"auth_{at}", sc.clip, sc.gt_mask))
        model = InpaintingDetector(cfg)
        rng = np.random.default_rng(4)
        for p in model.registry().values():  # leave the zero-initialised head
            p.data[...] += rng.normal(0.0, 0.05, size=p.data.shape)
        rep = evaluate_model(model, ds, cfg)
        maps = predict_maps(model, [clip for _, clip, _ in ds], cfg.train.batch)
        assert rep.ious == [miou_metric(m, mask) for m, (_, _, mask) in zip(maps, ds)]
        assert rep.f1s == [f1_metric(m, mask) for m, (_, _, mask) in zip(maps, ds)]
        assert rep.scores == [frame_score(m) for m in maps]
        assert len(set(rep.scores)) == len(ds)

    def test_report_format(self):
        cfg = _tiny_cfg()
        ds = _tiny_dataset(cfg, n=2)
        model = InpaintingDetector(cfg)
        rep = evaluate_model(model, ds, cfg)
        assert len(rep.lines) == 3
        for line in rep.lines[:-1]:
            parts = line.split()
            assert len(parts) == 4
            float(parts[1]), float(parts[2]), float(parts[3])
        assert rep.lines[-1].startswith("summary ")

    def test_auc_present_with_mixed_labels(self):
        cfg = _tiny_cfg()
        ds = _tiny_dataset(cfg, n=2)
        ds.append(("auth", ds[0][1], np.zeros_like(ds[0][2])))
        model = InpaintingDetector(cfg)
        rep = evaluate_model(model, ds, cfg)
        assert rep.auc is not None
        assert "auc=" in rep.lines[-1]

    @pytest.mark.parametrize("kind", ["jpeg", "gaussian"])
    def test_batched_matches_per_clip(self, kind, monkeypatch):
        # 5 clips at batch 4 leave a ragged last chunk; perturbation seeds
        # follow the clip index, not the chunk
        import dataclasses

        import vindet.train as train_mod

        cfg = _tiny_cfg()
        cfg.perturb = dataclasses.replace(cfg.perturb, kind=kind, jpeg_quality=70)
        ds = _tiny_dataset(cfg, n=3)
        ds += [(f"auth_{i}", ds[i][1], np.zeros_like(ds[i][2])) for i in range(2)]
        model = InpaintingDetector(cfg)
        rng = np.random.default_rng(9)
        for p in model.registry().values():  # leave the zero-initialised head
            p.data[...] += rng.normal(0.0, 0.05, size=p.data.shape)
        seen = []

        def recording(fn):
            def wrapped(*args):
                value = fn(*args)
                seen[-1].append(value)
                return value
            return wrapped

        for name in ("miou_metric", "f1_metric", "frame_score", "frame_score_auc"):
            monkeypatch.setattr(train_mod, name, recording(getattr(train_mod, name)))
        reports = []
        for batch in (1, 4):
            cfg.train.batch = batch
            seen.append([])
            reports.append(evaluate_model(model, ds, cfg, perturb=True))
        assert len(seen[0]) == len(seen[1]) == 3 * len(ds) + 1
        assert reports[0].auc is not None
        assert max(abs(a - b) for a, b in zip(*seen)) <= 1e-9
        assert len(set(seen[0][2:-1:3])) > 1  # scores vary: the check has teeth
