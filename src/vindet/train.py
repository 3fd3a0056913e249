"""SGD training with poly learning-rate decay, evaluation, checkpoints.

Encoder and decoder parameters use separate learning rates. Batch selection
is a stateless function of (seed, iteration) so resuming from a checkpoint
replays the exact remaining trajectory. A step runs the whole batch through
the model as one stacked forward, one loss call and one backward;
evaluation stacks ``train.batch`` clips per no-grad forward.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import nn, serialize
from . import tensor as T
from .config import ExperimentConfig
from .data import apply_perturbation, load_dataset
from .model import InpaintingDetector
from .objectives import f1_metric, frame_score, frame_score_auc, miou_metric, total_loss
from .tensor import Tensor, backward


class NumericalError(RuntimeError):
    """Loss or gradients became non-finite."""


def poly_lr(it: int, max_iter: int, lr0: float, min_lr: float = 1e-5,
            power: float = 0.9) -> float:
    """(lr0 - min) * (1 - it/max)^power + min; clamps past the end."""
    if it >= max_iter or max_iter == 0:
        return min_lr
    it = max(it, 0)
    return (lr0 - min_lr) * (1.0 - it / max_iter) ** power + min_lr


def poly_lr_pair(it: int, cfg: ExperimentConfig) -> tuple[float, float]:
    o = cfg.optim
    n = cfg.train.iters
    return (poly_lr(it, n, o.lr_encoder, o.min_lr, o.poly_power),
            poly_lr(it, n, o.lr_decoder, o.min_lr, o.poly_power))


def sgd_step(registry: dict[str, nn.Parameter], lr_of, weight_decay: float,
             momentum: float, velocities: dict[str, np.ndarray]) -> None:
    """v <- mu*v + g + wd*theta; theta <- theta - lr*v, in name order,
    updating parameters and momentum buffers in place.

    Every gradient is checked before any parameter moves: a missing one
    raises ValueError and a non-finite one NumericalError, naming the first
    such parameter in registry order."""
    for name, p in registry.items():
        if p.grad is None:
            raise ValueError(f"sgd_step: parameter {name} has no gradient")
        if not (math.isfinite(p.grad.min()) and math.isfinite(p.grad.max())):
            raise NumericalError(f"non-finite gradient in parameter {name}")
    for name, p in registry.items():
        g = p.data * weight_decay
        g += p.grad
        v = velocities.get(name)
        if v is None:
            velocities[name] = v = g
        else:
            v *= momentum
            v += g
        p.data -= v * lr_of(name)


def _batch_indices(rng: np.random.Generator, n: int, batch: int,
                   positives: np.ndarray | None = None) -> np.ndarray:
    """Uniform batch sampling; when the dataset mixes empty and non-empty
    masks, batches are stratified to the dataset's class ratio so per-batch
    gradients do not swing with composition."""
    if positives is None or positives.all() or not positives.any():
        return rng.choice(n, size=batch, replace=n < batch)
    pos_idx = np.flatnonzero(positives)
    neg_idx = np.flatnonzero(~positives)
    n_pos = min(max(int(round(batch * pos_idx.size / n)), 1), batch - 1)
    take_p = rng.choice(pos_idx, size=n_pos, replace=pos_idx.size < n_pos)
    take_n = rng.choice(neg_idx, size=batch - n_pos,
                        replace=neg_idx.size < batch - n_pos)
    return np.concatenate([take_p, take_n])


def _train_step(model: InpaintingDetector, dataset, batch: np.ndarray,
                rng: np.random.Generator, cfg: ExperimentConfig, it: int) -> float:
    """Forward the stacked batch, back-propagate the loss averaged over its
    maps and return its value. The tape lives only in this frame, so it is freed on
    return."""
    frames, masks = [], []
    for bi in batch:
        _, clip, mask = dataset[int(bi)]
        f = clip.frames
        if cfg.train.augment:
            f, mask = _dihedral(f, mask, int(rng.integers(0, 8)))
        frames.append(f)
        masks.append(mask)
    loss = total_loss(model(np.stack(frames)), Tensor(np.stack(masks)), cfg.loss)
    value = loss.item()
    if not math.isfinite(value):
        raise NumericalError(f"non-finite loss at iteration {it}")
    backward(loss)
    return value


def _dihedral(frames: np.ndarray, mask: np.ndarray, k: int):
    """One of the 8 square symmetries applied to a clip and its mask."""
    f = np.rot90(frames, k % 4, axes=(1, 2))
    m = np.rot90(mask, k % 4)
    if k >= 4:
        f = f[:, :, ::-1]
        m = m[:, ::-1]
    return np.ascontiguousarray(f), np.ascontiguousarray(m)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def checkpoint_blobs(model: InpaintingDetector, velocities: dict[str, np.ndarray],
                     iteration: int) -> dict[str, np.ndarray]:
    """The container entries of a checkpoint: the live parameter and momentum
    arrays, in registry and momentum order, then the iteration."""
    blobs = {f"param/{name}": p.data for name, p in model.registry().items()}
    blobs.update((f"opt/momentum/{name}", v) for name, v in velocities.items())
    blobs["meta/iter"] = np.array(float(iteration))
    return blobs


def save_checkpoint(path, model: InpaintingDetector,
                    velocities: dict[str, np.ndarray], iteration: int):
    serialize.save_container(path, checkpoint_blobs(model, velocities, iteration))


def load_checkpoint(path, model: InpaintingDetector):
    """Load parameters into ``model``; return (momentum buffers, iteration).
    A missing parameter, or a parameter or momentum buffer whose name or
    shape does not match the model or that holds a non-finite value, or an
    iteration that is not one whole number >= 0, raises ValueError naming
    the file and the entry before any parameter is set."""
    blobs = serialize.load_container(path)
    registry = model.registry()

    def check(key, arr, name):
        if arr.shape != registry[name].data.shape:
            raise ValueError(f"{path}: {key}: shape {arr.shape}, parameter "
                             f"{name} has {registry[name].data.shape}")
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise ValueError(f"{path}: {key}: non-finite values")

    for name in registry:
        key = f"param/{name}"
        if key not in blobs:
            raise ValueError(f"{path}: {key}: missing")
        check(key, blobs[key], name)
    velocities = {}
    for key, arr in blobs.items():
        if key.startswith("opt/momentum/"):
            name = key[len("opt/momentum/"):]
            if name not in registry:
                raise ValueError(f"{path}: {key}: no such parameter")
            check(key, arr, name)
            # sgd_step updates momentum in place, in the parameter's dtype
            velocities[name] = arr.astype(registry[name].data.dtype, copy=False)
    it = blobs.get("meta/iter", np.array(0.0)).ravel()
    if it.size != 1 or not np.isfinite(it[0]) or it[0] < 0 or it[0] % 1:
        raise ValueError(f"{path}: meta/iter: not one whole number >= 0")
    for name, p in registry.items():
        p.data[...] = blobs[f"param/{name}"]
    return velocities, int(it[0])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def predict_maps(model: InpaintingDetector, clips, batch: int) -> list[np.ndarray]:
    """No-grad (H,W) detection maps of ``clips`` (a list of VideoClip), run
    ``batch`` clips per forward. Every layer keeps its samples apart, so a
    clip's map does not depend on the clips batched with it."""
    maps = []
    with T.no_grad():
        for lo in range(0, len(clips), batch):
            maps.extend(model(np.stack([c.frames for c in clips[lo:lo + batch]])).data)
    return maps


@dataclass
class EvalReport:
    lines: list[str]
    mean_miou: float
    mean_f1: float
    auc: float | None
    ious: list[float]            # per clip, in dataset order
    f1s: list[float]
    scores: list[float]          # frame scores

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def evaluate_model(model: InpaintingDetector, dataset, cfg: ExperimentConfig,
                   perturb: bool = False, dump_dir: str | None = None) -> EvalReport:
    """Per-clip metrics plus frame-level AUC when both classes appear.

    ``dataset`` is a list of (clip_id, VideoClip, mask) triples. With
    ``dump_dir`` set, each prediction is written as `<clip_id>_pred.pgm`
    (round(255*M)) and `<clip_id>_mask.pgm` (255 where M > 0.5).
    """
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    clips = [apply_perturbation(clip, cfg, cfg.seed * 1009 + idx) if perturb else clip
             for idx, (_, clip, _) in enumerate(dataset)]
    lines = []
    ious, f1s, scores, labels = [], [], [], []
    for (clip_id, _, mask), m in zip(dataset, predict_maps(model, clips, cfg.train.batch)):
        if dump_dir is not None:
            from .tokenizer import write_pgm

            write_pgm(os.path.join(dump_dir, f"{clip_id}_pred.pgm"), m)
            write_pgm(os.path.join(dump_dir, f"{clip_id}_mask.pgm"),
                      (m > 0.5).astype(np.float64))
        iou = miou_metric(m, mask)
        f1 = f1_metric(m, mask)
        score = frame_score(m)
        ious.append(iou)
        f1s.append(f1)
        scores.append(score)
        labels.append(bool(mask.any()))
        lines.append(f"{clip_id} {iou:.6f} {f1:.6f} {score:.6f}")
    auc = None
    if any(labels) and not all(labels):
        auc = frame_score_auc(scores, labels)
    mean_miou = float(np.mean(ious))
    mean_f1 = float(np.mean(f1s))
    summary = f"summary {mean_miou:.6f} {mean_f1:.6f} n={len(dataset)}"
    if auc is not None:
        summary += f" auc={auc:.6f}"
    lines.append(summary)
    return EvalReport(lines, mean_miou, mean_f1, auc, ious, f1s, scores)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    checkpoint: str
    metrics_log: str
    final_iter: int
    final_miou: float
    final_f1: float
    log_lines: list[str] = field(default_factory=list)


def train(cfg: ExperimentConfig, out_dir: str, resume: str | None = None,
          dataset=None, on_step=None) -> TrainResult:
    """Run the training loop, then write ``checkpoint.mpci`` and ``metrics.log``
    to ``out_dir``.

    ``on_step(iteration, model, velocities)`` is called after each SGD step,
    and after that step's evaluation if there is one, with the number of
    steps done so far and the live model and momentum buffers. When it
    returns True, training ends at that step. The hook leaves the
    evaluation schedule alone: evaluation runs every ``eval_every`` steps
    and at the configured last step, so a run the hook ends early reports
    its latest scheduled evaluation.
    """
    cfg.validate()
    if dataset is None:
        dataset = load_dataset(cfg.data.dir, cfg)
    os.makedirs(out_dir, exist_ok=True)

    model = InpaintingDetector(cfg)
    registry = model.registry()
    enc_names = model.encoder_param_names()
    velocities: dict[str, np.ndarray] = {}
    start = 0
    if resume is not None:
        velocities, start = load_checkpoint(resume, model)

    n = len(dataset)
    positives = np.array([bool(np.any(mask > 0.5)) for _, _, mask in dataset])
    log: list[str] = []
    last_miou = last_f1 = 0.0
    end = cfg.train.iters
    final = start
    for it in range(start, end):
        lr_enc, lr_dec = poly_lr_pair(it, cfg)
        lr_of = lambda name: lr_enc if name in enc_names else lr_dec
        nn.zero_grads(registry.values())

        rng = np.random.default_rng([cfg.seed, 7919, it])
        batch = _batch_indices(rng, n, cfg.train.batch, positives)
        value = _train_step(model, dataset, batch, rng, cfg, it)
        sgd_step(registry, lr_of, cfg.optim.weight_decay, cfg.optim.momentum, velocities)

        final = it + 1
        if final % cfg.train.eval_every == 0 or final == end:
            rep = evaluate_model(model, dataset, cfg)
            last_miou, last_f1 = rep.mean_miou, rep.mean_f1
            log.append(f"iter={final} loss={value:.8e} lr_enc={lr_enc:.8e} "
                       f"lr_dec={lr_dec:.8e} miou={rep.mean_miou:.6f} f1={rep.mean_f1:.6f}")
        if on_step is not None and on_step(final, model, velocities):
            break

    ckpt = os.path.join(out_dir, "checkpoint.mpci")
    save_checkpoint(ckpt, model, velocities, final)
    log_path = os.path.join(out_dir, "metrics.log")
    with open(log_path, "w") as fh:
        fh.write("\n".join(log) + ("\n" if log else ""))
    return TrainResult(ckpt, log_path, final, last_miou, last_f1, log)
