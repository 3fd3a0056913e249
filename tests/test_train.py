"""Optimizer schedule, SGD semantics, checkpointing, and loop determinism."""

import dataclasses
import re

import numpy as np
import pytest
from conftest import TINY_MODEL

from vindet import nn
from vindet import tensor as T
from vindet import train as train_mod
from vindet.config import ExperimentConfig, parse_config
from vindet.data import generate_dataset
from vindet.gradcheck import primitive_cases
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
        assert poly_lr(250, 100, 0.01, 1e-5, 0.9) == 1e-5

    def test_monotone_nonincreasing(self):
        vals = [poly_lr(i, 200, 0.01, 1e-5, 0.9) for i in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_continuous_at_endpoints(self):
        def lr(i):
            return poly_lr(i, 200, 0.01, 1e-5, 0.9)

        assert lr(199) == pytest.approx(lr(200), abs=1e-3)
        assert lr(1) == pytest.approx(lr(0), abs=1e-3)


class TestSgdStep:
    def _packed(self, values, grads):
        """One-element parameters packed in name order, their gradients
        set, and a zeroed momentum array."""
        reg = {name: nn.Parameter(np.array([float(v)])) for name, v in values.items()}
        data, grad = nn.pack(reg.values())
        grad[...] = grads
        return reg, data, grad, np.zeros_like(data)

    def test_vanilla_step(self):
        reg, data, grad, vel = self._packed({"w": 1.0}, [0.5])
        # in place: the benchmark's wrapper drops what sgd_step returns
        assert sgd_step(reg, data, grad, vel, [(slice(None), 0.1)],
                        weight_decay=0.0, momentum=0.0) is None
        assert reg["w"].data[0] == pytest.approx(0.95)

    def test_pure_weight_decay(self):
        reg, data, grad, vel = self._packed({"w": 1.0}, [0.0])
        sgd_step(reg, data, grad, vel, [(slice(None), 1.0)], weight_decay=0.1, momentum=0.0)
        assert reg["w"].data[0] == pytest.approx(0.9)

    def test_momentum_accumulates(self):
        reg, data, grad, vel = self._packed({"w": 0.0}, [1.0])
        sgd_step(reg, data, grad, vel, [(slice(None), 1.0)], 0.0, 0.9)
        sgd_step(reg, data, grad, vel, [(slice(None), 1.0)], 0.0, 0.9)
        # steps: -1, then -(0.9+1)
        assert reg["w"].data[0] == pytest.approx(-2.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grad_moves_nothing(self, bad):
        reg, data, grad, vel = self._packed(dict.fromkeys("abcd", 1.0), [0.5, bad, 0.5, np.nan])
        vel[...] = 0.25
        with pytest.raises(NumericalError, match="parameter b$"):
            sgd_step(reg, data, grad, vel, [(slice(None), 0.1)], 1e-4, 0.9)
        assert (data == 1.0).all() and (vel == 0.25).all()


def _sgd_step_before(registry, lr_of, weight_decay, momentum, velocities):
    """The per-parameter update sgd_step made before it worked in place,
    creating each momentum buffer at its parameter's first step."""
    for name, p in registry.items():
        g = p.grad + weight_decay * p.data
        v = velocities.get(name)
        v = g if v is None else momentum * v + g
        velocities[name] = v
        p.data[...] = p.data - lr_of(name) * v


@pytest.mark.parametrize("initial_velocities", [False, True])
def test_sgd_step_matches_copying_update(initial_velocities):
    # without initial momentum, the zeroed packed buffer matches buffers
    # created at the first step
    rng = np.random.default_rng(21)
    draw = lambda s: rng.normal(size=s).astype(T.compute_dtype())
    shapes = {"a.w": (3, 4), "a.b": (4,), "b.w": (2, 3, 5)}
    start = {n: draw(s) for n, s in shapes.items()}
    vel0 = {n: draw(s) for n, s in shapes.items()} if initial_velocities else {}
    grads = [{n: draw(s) for n, s in shapes.items()} for _ in range(3)]
    lrs = {"a.w": 0.03, "a.b": 0.01, "b.w": 0.007}

    reg = {n: nn.Parameter(v.copy()) for n, v in start.items()}
    data, grad = nn.pack(reg.values())
    velocity = np.zeros_like(data)
    vel = dict(zip(reg, nn.views(velocity, reg.values())))
    for n, v in vel0.items():
        vel[n][...] = v
    bounds = np.cumsum([0] + [p.size for p in reg.values()])
    groups = [(slice(lo, hi), lrs[n]) for n, lo, hi in zip(reg, bounds, bounds[1:])]

    ref = {n: nn.Parameter(v.copy()) for n, v in start.items()}
    vel_ref = {n: v.copy() for n, v in vel0.items()}
    for gs in grads:
        for n in shapes:
            reg[n].grad[...] = gs[n]
            ref[n].grad = gs[n].copy()
        sgd_step(reg, data, grad, velocity, groups, 1e-4, 0.9)
        _sgd_step_before(ref, lrs.__getitem__, 1e-4, 0.9, vel_ref)
    for n in shapes:
        assert np.array_equal(reg[n].data, ref[n].data)
        assert np.array_equal(vel[n], vel_ref[n])


class TestPack:
    def test_parameters_become_views_of_the_packed_arrays(self):
        rng = np.random.default_rng(2)
        reg = {n: nn.Parameter(rng.normal(size=s)) for n, s in (("w", (2, 3)), ("b", (3,)))}
        before = {n: p.data.copy() for n, p in reg.items()}
        data, grad = nn.pack(reg.values())
        assert data.dtype == grad.dtype == T.compute_dtype() and data.shape == (9,)
        assert not grad.any()
        for n, p in reg.items():
            assert p.dtype == T.compute_dtype() and np.array_equal(p.data, before[n])
            assert np.shares_memory(p.data, data) and np.shares_memory(p.grad, grad)
        x = Tensor(rng.normal(size=(4, 2)))
        T.backward(T.reduce_sum(T.linear(x, reg["w"], reg["b"])))
        assert np.array_equal(grad[6:], np.full(3, 4.0, dtype=grad.dtype))
        assert np.array_equal(grad[:6].reshape(2, 3), reg["w"].grad) and reg["w"].grad.any()

    def test_load_checkpoint_writes_through_the_views(self, tmp_path):
        cfg = _tiny_cfg()
        path = str(tmp_path / "ck.mpci")
        saved = InpaintingDetector(dataclasses.replace(cfg, seed=5))
        save_checkpoint(path, saved, {}, 0)
        model = InpaintingDetector(cfg)
        data, _ = nn.pack(model.registry().values())
        load_checkpoint(path, model)
        want = np.concatenate([p.data.ravel() for p in saved.registry().values()])
        assert np.array_equal(data, want)


def _tiny_cfg(iters=4):
    return parse_config(TINY_MODEL + f"train.iters = {iters}\ntrain.eval_every = 2\n")


def _tiny_dataset(cfg, n=3):
    clips = generate_dataset(n, cfg.seed, cfg)
    return [(f"clip_{i}", sc.clip, sc.gt_mask) for i, sc in enumerate(clips)]


class TestTrainLoop:
    def test_runs_and_writes_artifacts(self, tmp_path):
        cfg = _tiny_cfg()
        res = train(cfg, str(tmp_path / "out"), dataset=_tiny_dataset(cfg))
        assert res.final_iter == 4
        assert (tmp_path / "out" / "checkpoint.mpci").exists()
        assert len((tmp_path / "out" / "metrics.log").read_text().splitlines()) == 2

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

    def _count_evaluations(self, monkeypatch):
        calls = []
        evaluate = train_mod.evaluate_model

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(train_mod, "evaluate_model", counted)
        return calls

    def test_evaluates_on_schedule_and_at_the_last_step(self, tmp_path, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        cfg = _tiny_cfg(iters=5)
        res = train(cfg, str(tmp_path / "out"), dataset=_tiny_dataset(cfg))
        with open(res.metrics_log) as fh:
            assert [ln.split()[0] for ln in fh] == ["iter=2", "iter=4", "iter=5"]
        assert len(calls) == 3
        assert res.final_miou is not None and res.final_f1 is not None

    def test_hook_replaces_the_evaluation(self, tmp_path, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        cfg = _tiny_cfg(iters=5)
        seen = []
        res = train(cfg, str(tmp_path / "out"), dataset=_tiny_dataset(cfg),
                    on_step=lambda it, *_: seen.append(it))
        assert seen == [1, 2, 3, 4, 5] and calls == []
        assert (res.final_iter, res.final_miou, res.final_f1) == (5, None, None)
        with open(res.metrics_log) as fh:
            assert fh.read() == ""

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
        model2 = InpaintingDetector(dataclasses.replace(cfg, seed=123))
        vel2, it = load_checkpoint(path, model2)
        assert it == 17
        for name, p in model.registry().items():
            np.testing.assert_array_equal(p.data, model2.registry()[name].data)
            np.testing.assert_array_equal(vel2[name], vel[name])

    def test_float32_momentum_loads_in_parameter_dtype(self, tmp_path):
        # train() copies momentum into one array of the parameters' dtype
        model = InpaintingDetector(_tiny_cfg())
        path = str(tmp_path / "ck.mpci")
        save_checkpoint(path, model, {n: np.full(p.data.shape, 0.25, dtype=np.float32)
                                      for n, p in model.registry().items()}, 2)
        vel, _ = load_checkpoint(path, model)
        assert all(v.dtype == np.float32 and (v == 0.25).all() for v in vel.values())

    def test_float64_checkpoint_loads_rounded(self, tmp_path):
        # a checkpoint written when parameters were float64, every parameter
        # jittered so that the head and the DWTI offsets are live
        from vindet.serialize import load_container

        cfg = _tiny_cfg()
        frames = np.stack([c.clip.frames for c in generate_dataset(2, 1, cfg)])
        path = str(tmp_path / "ck.mpci")
        rng = np.random.default_rng(9)
        with T.float64_scope():
            old = InpaintingDetector(cfg)
            for p in old.registry().values():
                p.data[...] += rng.normal(0.0, 0.05, size=p.shape)
            vel = {n: np.full(p.shape, 0.5) for n, p in old.registry().items()}
            save_checkpoint(path, old, vel, 4)
            with T.no_grad():
                want = old(frames).data
        assert load_container(path)["param/decoder.head_out.w"].dtype == np.float64
        model = InpaintingDetector(dataclasses.replace(cfg, seed=1))
        vel, it = load_checkpoint(path, model)
        assert it == 4 and all(v.dtype == np.float32 for v in vel.values())
        for name, p in model.registry().items():
            assert p.dtype == np.float32
            assert np.array_equal(p.data, old.registry()[name].data.astype(np.float32))
        with T.no_grad():
            got = model(frames).data
        assert np.ptp(want) > 1e-2
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_entry_beyond_float32_rejected(self, tmp_path):
        # finite in the file, infinite once rounded to the parameter dtype
        from vindet.serialize import load_container, save_container

        cfg = _tiny_cfg()
        path = str(tmp_path / "ck.mpci")
        save_checkpoint(path, InpaintingDetector(cfg), {}, 0)
        blobs = load_container(path)
        entry = "param/decoder.head_conv.w"
        blobs[entry] = blobs[entry].astype(np.float64)
        blobs[entry].reshape(-1)[3] = -1e39
        save_container(path, blobs)
        model = InpaintingDetector(cfg)
        before = {n: p.data.copy() for n, p in model.registry().items()}
        with pytest.raises(ValueError, match=re.escape(f"{path}: {entry}: values overflow float32")):
            load_checkpoint(path, model)
        for n, p in model.registry().items():
            np.testing.assert_array_equal(p.data, before[n])

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
        saved = InpaintingDetector(dataclasses.replace(cfg, seed=5))
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


def _tape_pairs(loss):
    """(op name, input position) of each gradient-carrying input of every
    tape entry ``loss`` depends on."""
    pairs, seen, stack = set(), set(), [loss._entry]
    while stack:
        e = stack.pop()
        if e is None or id(e) in seen:
            continue
        seen.add(id(e))
        pairs.update((e.name, i) for i, t in enumerate(e.inputs) if t.requires_grad)
        stack.extend(t._entry for t in e.inputs)
    return pairs


def test_gradient_suite_covers_every_training_op(monkeypatch):
    # a desk B=4 step; the backward is swapped for one that keeps the loss.
    # Every op input that carries a gradient there carries one on the tape
    # of some primitive case, so the suite probes it.
    cfg = ExperimentConfig()
    ds = [(f"clip_{i}", sc.clip, sc.gt_mask)
          for i, sc in enumerate(generate_dataset(cfg.train.batch, cfg.seed, cfg))]
    losses = []
    monkeypatch.setattr(train_mod, "backward", losses.append)
    train_mod._train_step(InpaintingDetector(cfg), ds, np.arange(cfg.train.batch),
                          np.random.default_rng(0), cfg, 0)
    pairs = _tape_pairs(losses[0])
    names = {name for name, _ in pairs}
    probed = set()
    with T.float64_scope():
        cases = primitive_cases(np.random.default_rng(0))
        for f, x in cases.values():
            probed |= _tape_pairs(f(Tensor(x.data, requires_grad=True)))
    assert {"conv", "attention", "linear", "grid_sample"} <= names
    assert not [n for n in names if not any(c.startswith(n) for c in cases)]
    assert sorted(pairs - probed) == []


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


def test_no_float64_reaches_the_hot_path(monkeypatch):
    # a desk B=4 step, its SGD update and a B=4 no-grad forward compute in
    # float32 throughout: Tensor is handed no float64 array but the input
    # frames the forward casts, attention no float64 mask, and no backward
    # rule hands on a float64 gradient; every tape output, parameter,
    # gradient and momentum buffer is float32
    cfg = ExperimentConfig()
    ds = [(f"clip_{i}", sc.clip, sc.gt_mask)
          for i, sc in enumerate(generate_dataset(cfg.train.batch, cfg.seed, cfg))]
    frames = np.stack([clip.frames for _, clip, _ in ds])
    model = InpaintingDetector(cfg)
    registry = model.registry()
    rng = np.random.default_rng(3)
    for p in registry.values():  # carry signal past the zero-initialised head
        p.data[...] += rng.normal(0.0, 0.05, size=p.data.shape)
    data, grad = nn.pack(registry.values())
    velocity = np.zeros_like(data)

    upcasts = []
    init, accumulate, attention = Tensor.__init__, Tensor.accumulate_grad, T.attention

    def watched_init(self, data, requires_grad=False):
        if getattr(data, "dtype", None) == np.float64 and data is not frames:
            upcasts.append(("Tensor", np.shape(data)))
        init(self, data, requires_grad)

    def watched_accumulate(self, g):
        if g.dtype != np.float32:
            upcasts.append(("gradient", g.shape, g.dtype))
        accumulate(self, g)

    def watched_attention(q, k, v, heads, table=None, index=None, mask=None):
        if mask is not None and mask.dtype != np.float32:  # added in place to the scores
            upcasts.append(("mask", mask.shape, mask.dtype))
        return attention(q, k, v, heads, table, index, mask)

    losses = []

    def kept_backward(loss):
        losses.append(loss)
        T.backward(loss)

    monkeypatch.setattr(Tensor, "__init__", watched_init)
    monkeypatch.setattr(Tensor, "accumulate_grad", watched_accumulate)
    monkeypatch.setattr(T, "attention", watched_attention)
    monkeypatch.setattr(train_mod, "backward", kept_backward)
    train_mod._train_step(model, ds, np.arange(cfg.train.batch),
                          np.random.default_rng(0), cfg, 0)
    for _ in range(2):
        sgd_step(registry, data, grad, velocity, [(slice(None), 0.01)], 1e-4, 0.9)
    with T.no_grad():
        maps = model(frames)
    assert not upcasts, upcasts[:10]

    tape, seen, stack = [losses[0]], set(), [losses[0]._entry]
    while stack:
        e = stack.pop()
        if e is None or id(e) in seen:
            continue
        seen.add(id(e))
        tape.extend(e.inputs)
        stack.extend(t._entry for t in e.inputs)
    assert len(seen) > 500
    arrays = [t.data for t in tape] + [t.grad for t in tape if t.grad is not None]
    arrays += [p.data for p in registry.values()] + [p.grad for p in registry.values()]
    arrays += [data, grad, velocity, maps.data]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


def test_zero_grads_zeroes_each_buffer_in_place():
    cfg = _tiny_cfg()
    model = InpaintingDetector(cfg)
    registry = model.registry()
    _, grad = nn.pack(registry.values())
    train_mod._train_step(model, _tiny_dataset(cfg, n=2), np.arange(2),
                          np.random.default_rng(0), cfg, 0)
    before = {n: p.grad for n, p in registry.items()}
    assert grad.any()
    nn.zero_grads(grad)
    assert not grad.any()
    for name, p in registry.items():
        assert p.grad is before[name] and np.shares_memory(p.grad, grad), name


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
