"""Desk-scale overfit experiment.

Trains on a small synthetic set together with authentic twins of the same
scenes (empty masks), so the detector must key on fill evidence rather than
scene identity. Inpainted clips are oversampled 3:1 against twins.

The experiment is one ``train()`` run. At each check iteration its
``on_step`` hook measures the inpainted-clip masks and the
authentic-vs-inpainted frame AUC on the live model, keeps a copy of the
best check's weights and momentum by mask quality, and ends training once
the stop thresholds are met. The best check is then written as one
checkpoint. Total iterations never exceed the configured budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .data import generate_dataset
from .model import InpaintingDetector
from .objectives import f1_metric, frame_score, frame_score_auc, miou_metric
from .tokenizer import VideoClip
from .train import predict_maps, save_checkpoint, train


@dataclass
class OverfitResult:
    iterations: int
    train_miou: float
    train_f1: float
    auc: float
    checkpoint: str
    inpainted_scores: list[float] = field(default_factory=list)
    authentic_scores: list[float] = field(default_factory=list)
    history: list[str] = field(default_factory=list)


def _measure(model: InpaintingDetector, inpainted, twins, batch: int):
    maps = predict_maps(model, [clip for _, clip, _ in inpainted + twins], batch)
    pos, neg = maps[:len(inpainted)], maps[len(inpainted):]
    ious = [miou_metric(m, mask) for m, (_, _, mask) in zip(pos, inpainted)]
    f1s = [f1_metric(m, mask) for m, (_, _, mask) in zip(pos, inpainted)]
    pos_scores = [frame_score(m) for m in pos]
    neg_scores = [frame_score(m) for m in neg]
    auc = frame_score_auc(pos_scores + neg_scores,
                          [1] * len(pos_scores) + [0] * len(neg_scores))
    return float(np.mean(ious)), float(np.mean(f1s)), auc, pos_scores, neg_scores


def run_overfit_experiment(cfg: ExperimentConfig, work_dir: str,
                           n_clips: int = 8, first_check: int = 300,
                           check_every: int = 25,
                           stop_miou: float = 0.955,
                           stop_f1: float = 0.975,
                           stop_auc: float = 0.99) -> OverfitResult:
    cfg.validate()
    os.makedirs(work_dir, exist_ok=True)
    clips = generate_dataset(n_clips, cfg.seed, cfg)
    inpainted = [(f"clip_{i:04d}", sc.clip, sc.gt_mask) for i, sc in enumerate(clips)]
    twins = [
        (f"auth_{i:04d}", VideoClip(sc.recipe.render(False)[0]),
         np.zeros((cfg.geometry.height, cfg.geometry.width)))
        for i, sc in enumerate(clips)
    ]
    train_set = inpainted * 3 + twins

    max_iter = cfg.train.iters
    checks = set(range(first_check, max_iter, check_every)) | {max_iter}
    best_path = os.path.join(work_dir, "best.mpci")
    history: list[str] = []
    best = kept = None   # the best check's result; its model, weights and momentum

    def check(it, model, velocities) -> bool:
        nonlocal best, kept
        if it not in checks:
            return False
        miou, f1, auc, pos, neg = _measure(model, inpainted, twins, cfg.train.batch)
        history.append(f"iter={it} miou={miou:.4f} f1={f1:.4f} auc={auc:.4f}")
        done = miou >= stop_miou and f1 >= stop_f1 and auc >= stop_auc
        if done or best is None or miou > best.train_miou:
            best = OverfitResult(it, miou, f1, auc, best_path, pos, neg)
            kept = (model, [p.data.copy() for p in model.registry().values()],
                    {n: v.copy() for n, v in velocities.items()})
        return done

    train(cfg, work_dir, dataset=train_set, on_step=check)
    model, params, velocities = kept
    for p, data in zip(model.registry().values(), params):
        p.data[...] = data
    save_checkpoint(best_path, model, velocities, best.iterations)
    best.history = history
    return best
