"""The overfit experiment on a tiny config: one train() run whose hook
measures each check, keeps the best weights in memory and writes them once."""

import os

import numpy as np
import pytest
from conftest import TINY_MODEL

import vindet.experiment as experiment
import vindet.train as train_mod
from vindet import nn, serialize
from vindet.config import parse_config
from vindet.data import generate_dataset
from vindet.model import InpaintingDetector
from vindet.serialize import load_container
from vindet.tokenizer import VideoClip
from vindet.train import load_checkpoint, train

TINY = TINY_MODEL + """\
optim.lr_encoder = 0.05
optim.lr_decoder = 0.5
train.iters = 6
train.eval_every = 4
"""
N_CLIPS = 2      # the raised learning rates make the checks' scores differ
CHECKS = dict(first_check=2, check_every=2)          # checks at 2, 4 and 6
NEVER = dict(stop_miou=2.0, stop_f1=2.0, stop_auc=2.0)


def _run(work_dir, **kw):
    return experiment.run_overfit_experiment(parse_config(TINY), str(work_dir),
                                             n_clips=N_CLIPS, **CHECKS, **{**NEVER, **kw})


def _segment_chain(cfg, work_dir):
    """The former experiment: one train() per check, each resumed from the
    previous check's checkpoint, and each check measured on a fresh model
    loaded from that checkpoint."""
    clips = generate_dataset(N_CLIPS, cfg.seed, cfg)
    inpainted = [(f"clip_{i:04d}", sc.clip, sc.gt_mask) for i, sc in enumerate(clips)]
    twins = [(f"auth_{i:04d}", VideoClip(sc.recipe.render(False)[0]),
              np.zeros((cfg.geometry.height, cfg.geometry.width)))
             for i, sc in enumerate(clips)]
    history, best, resume = [], None, None
    for stop in (2, 4, 6):
        res = train(cfg, os.path.join(work_dir, f"seg_{stop:04d}"), resume=resume,
                    dataset=inpainted * 3 + twins,
                    on_step=lambda it, *_, stop=stop: it == stop)
        resume = res.checkpoint
        model = InpaintingDetector(cfg)
        load_checkpoint(res.checkpoint, model)
        miou, f1, auc, pos, neg = experiment._measure(model, inpainted, twins, cfg)
        history.append(f"iter={res.final_iter} miou={miou:.4f} f1={f1:.4f} auc={auc:.4f}")
        if best is None or miou > best[1]:
            best = (res.final_iter, miou, f1, auc, res.checkpoint, pos, neg)
    return history, best


def _assert_same_blobs(path_a, path_b):
    a, b = load_container(path_a), load_container(path_b)
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def test_matches_segment_chain(tmp_path):
    res = _run(tmp_path / "hook")
    history, (iteration, miou, f1, auc, ckpt, pos, neg) = _segment_chain(
        parse_config(TINY), str(tmp_path / "chain"))
    assert len(res.history) == 3
    assert res.history == history
    assert (res.iterations, res.train_miou, res.train_f1, res.auc) == (iteration, miou, f1, auc)
    assert (res.inpainted_scores, res.authentic_scores) == (pos, neg)
    _assert_same_blobs(res.checkpoint, ckpt)


def test_best_check_weights_are_written(tmp_path, monkeypatch):
    scores = iter([0.2, 0.9, 0.5])          # the middle check, iteration 4, is best
    monkeypatch.setattr(experiment, "_measure",
                        lambda *a: (next(scores), 0.5, 0.5, [0.5], [0.5]))
    states = {}
    real_train = experiment.train

    def recording_train(cfg, out_dir, dataset=None, on_step=None):
        def hook(it, model, velocities):
            states[it] = ({n: p.data.copy() for n, p in model.registry().items()},
                          {n: v.copy() for n, v in velocities.items()})
            return on_step(it, model, velocities)
        return real_train(cfg, out_dir, dataset=dataset, on_step=hook)

    monkeypatch.setattr(experiment, "train", recording_train)
    res = _run(tmp_path)
    assert (res.iterations, res.train_miou) == (4, 0.9)
    params, velocities = states[4]
    blobs = load_container(res.checkpoint)
    assert float(blobs["meta/iter"]) == 4.0
    assert set(blobs) == ({f"param/{n}" for n in params}
                          | {f"opt/momentum/{n}" for n in velocities} | {"meta/iter"})
    for name, arr in params.items():
        np.testing.assert_array_equal(blobs[f"param/{name}"], arr, err_msg=name)
    assert any(not np.array_equal(arr, states[6][0][n]) for n, arr in params.items())
    for name, arr in velocities.items():
        np.testing.assert_array_equal(blobs[f"opt/momentum/{name}"], arr, err_msg=name)


def test_stops_when_thresholds_met(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "_measure",
                        lambda *a: (0.97, 0.98, 1.0, [0.9], [0.1]))
    res = _run(tmp_path, stop_miou=0.955, stop_f1=0.975, stop_auc=0.99)
    assert res.iterations == 2 and len(res.history) == 1
    _, iteration = load_checkpoint(res.checkpoint, InpaintingDetector(parse_config(TINY)))
    assert iteration == 2


def test_one_train_call_and_no_checkpoint_reads(tmp_path, monkeypatch):
    calls = {"train": 0, "load_checkpoint": 0, "load_container": 0, "models": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(experiment, "train", counted("train", experiment.train))
    monkeypatch.setattr(train_mod, "load_checkpoint",
                        counted("load_checkpoint", train_mod.load_checkpoint))
    monkeypatch.setattr(serialize, "load_container",
                        counted("load_container", serialize.load_container))
    monkeypatch.setattr(InpaintingDetector, "__init__",
                        counted("models", InpaintingDetector.__init__))
    res = _run(tmp_path)
    assert calls == {"train": 1, "load_checkpoint": 0, "load_container": 0, "models": 1}
    assert len(res.history) == 3
    assert sorted(os.listdir(tmp_path)) == ["best.mpci", "checkpoint.mpci", "metrics.log"]


def test_one_evaluation_per_check(tmp_path, monkeypatch):
    calls = []
    evaluate = train_mod.evaluate_model

    def counted(model, dataset, *args, **kwargs):
        calls.append(len(dataset))
        return evaluate(model, dataset, *args, **kwargs)

    monkeypatch.setattr(train_mod, "evaluate_model", counted)
    monkeypatch.setattr(experiment, "evaluate_model", counted)
    res = _run(tmp_path)
    assert len(res.history) == 3
    assert calls == [2 * N_CLIPS] * 3        # the inpainted clips and their twins
    assert (tmp_path / "metrics.log").read_text() == ""


@pytest.mark.parametrize("first_check", [2, 5, 40])
def test_last_iteration_is_always_checked(tmp_path, first_check):
    # checks past the budget clamp to it, so the last iteration is checked
    # even when the first check lies past the budget
    res = experiment.run_overfit_experiment(parse_config(TINY), str(tmp_path),
                                            n_clips=N_CLIPS, first_check=first_check,
                                            check_every=4, **NEVER)
    iters = [int(line.split()[0][len("iter="):]) for line in res.history]
    assert iters == sorted({min(6, k) for k in range(first_check, 10, 4)} | {6})


def test_runs_keep_their_checkpoints_under_wrapped_step_functions(tmp_path, monkeypatch):
    # the benchmark wraps train.sgd_step and nn.zero_grads by name and drops
    # what they return: each runs once per step and updates in place
    cfg = parse_config(TINY)
    cfg.train.iters = 3
    dataset = [(f"clip_{i}", sc.clip, sc.gt_mask)
               for i, sc in enumerate(generate_dataset(N_CLIPS, cfg.seed, cfg))]

    def checkpoints(work):
        """A 3-step train() and the 6-step experiment: their checkpoints' bytes."""
        trained = train(cfg, str(work / "train"), dataset=dataset)
        overfit = _run(work / "overfit")
        return [open(path, "rb").read() for path in (
            trained.checkpoint, overfit.checkpoint, work / "overfit" / "checkpoint.mpci")]

    plain = checkpoints(tmp_path / "plain")
    calls = {"sgd_step": 0, "zero_grads": 0}
    for module, name in ((train_mod, "sgd_step"), (nn, "zero_grads")):
        def dropping(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, dropping)
    assert checkpoints(tmp_path / "wrapped") == plain
    assert calls == {"sgd_step": 3 + 6, "zero_grads": 3 + 6}
