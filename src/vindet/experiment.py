"""Desk-scale overfit experiment.

Trains on a small synthetic set together with authentic twins of the same
scenes (empty masks), so the detector must key on fill evidence rather than
scene identity. Inpainted clips are oversampled 3:1 against twins.

The experiment is one ``train()`` run. Its ``on_step`` hook replaces
``train()``'s scheduled evaluation, so the model is evaluated once per check
iteration: the hook measures the inpainted-clip masks and the
authentic-vs-inpainted frame AUC on the live model through
``evaluate_model``, keeps a copy of the best check's checkpoint entries by
mask quality, and ends training once the stop thresholds are met. Those
entries are then written as one checkpoint. Total iterations never exceed
the configured budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .config import ExperimentConfig
from .data import generate_dataset
from .train import checkpoint_blobs, evaluate_model, train


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


def _measure(model, inpainted, twins, cfg: ExperimentConfig):
    """Mean mIoU and F1 of the inpainted clips, the frame AUC of all clips,
    and the inpainted and authentic frame scores."""
    rep = evaluate_model(model, inpainted + twins, cfg)
    n = len(inpainted)
    return (float(np.mean(rep.ious[:n])), float(np.mean(rep.f1s[:n])), rep.auc,
            rep.scores[:n], rep.scores[n:])


def run_overfit_experiment(cfg: ExperimentConfig, work_dir: str,
                           n_clips: int = 8, first_check: int = 300,
                           check_every: int = 25,
                           stop_miou: float = 0.955,
                           stop_f1: float = 0.975,
                           stop_auc: float = 0.99) -> OverfitResult:
    cfg.validate()
    os.makedirs(work_dir, exist_ok=True)
    inpainted = [(f"clip_{i:04d}", sc.clip, sc.gt_mask)
                 for i, sc in enumerate(generate_dataset(n_clips, cfg.seed, cfg))]
    twins = [(f"auth_{i:04d}", sc.clip, sc.gt_mask)
             for i, sc in enumerate(generate_dataset(n_clips, cfg.seed, cfg, inpainted=False))]
    train_set = inpainted * 3 + twins

    max_iter = cfg.train.iters
    checks = set(range(first_check, max_iter, check_every)) | {max_iter}
    best_path = os.path.join(work_dir, "best.mpci")
    history: list[str] = []
    best = kept = None   # the best check's result and a copy of its checkpoint entries

    def check(it, model, velocities) -> bool:
        nonlocal best, kept
        if it not in checks:
            return False
        miou, f1, auc, pos, neg = _measure(model, inpainted, twins, cfg)
        history.append(f"iter={it} miou={miou:.4f} f1={f1:.4f} auc={auc:.4f}")
        done = miou >= stop_miou and f1 >= stop_f1 and auc >= stop_auc
        if done or best is None or miou > best.train_miou:
            best = OverfitResult(it, miou, f1, auc, best_path, pos, neg)
            kept = {k: v.copy() for k, v in checkpoint_blobs(model, velocities, it).items()}
        return done

    train(cfg, work_dir, dataset=train_set, on_step=check)
    serialize.save_container(best_path, kept)
    best.history = history
    return best
