"""Training losses for the detection map and the evaluation metrics.

Two loss terms: a soft intersection-over-union loss on the raw probability
map and a focal cross-entropy that counters the authentic/inpainted pixel
imbalance. Each reduces every map over its own last two axes, so a (B,H,W)
batch gives one value per map; both are mean-normalized over pixels and
combined as a weighted sum. Metrics binarize at a fixed threshold.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import LossConfig
from .tensor import ShapeError, Tensor, as_tensor


def _check_pair(m, gt):
    """The axes each map reduces over: the last two, or a 1-D map's only one."""
    if m.shape != gt.shape:
        raise ShapeError(f"loss: prediction {m.shape} vs ground truth {gt.shape}")
    return tuple(range(m.ndim))[-2:]


def miou_loss(m, gt) -> Tensor:
    """1 - soft IoU of each map. Both masks all-zero is defined as zero loss."""
    m, gt = as_tensor(m), as_tensor(gt)
    axes = _check_pair(m, gt)
    prod = m * gt
    inter = T.reduce_sum(prod, axes)
    union = T.reduce_sum(m + gt - prod, axes)
    empty = union.data == 0.0
    return (1.0 - inter / (union + empty)) * ~empty


def focal_loss(m, gt, cfg: LossConfig) -> Tensor:
    """Class-balanced focal cross-entropy, mean over each map's pixels."""
    m, gt = as_tensor(m), as_tensor(gt)
    axes = _check_pair(m, gt)
    pos = ((1.0 - m) ** cfg.gamma) * gt * T.log(m + cfg.eps)
    neg = (m ** cfg.gamma) * (1.0 - gt) * T.log(1.0 - m + cfg.eps)
    return -T.reduce_mean(cfg.alpha * pos + (1.0 - cfg.alpha) * neg, axes)


def total_loss(m, gt, cfg: LossConfig) -> Tensor:
    """The weighted sum of both terms, averaged over the maps of a batch."""
    per_map = cfg.lambda_miou * miou_loss(m, gt) + cfg.lambda_focal * focal_loss(m, gt, cfg)
    return T.reduce_mean(per_map)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _binarize_counts(m: np.ndarray, gt: np.ndarray, thr: float):
    pred = m > thr
    actual = gt > 0.5
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    return tp, fp, fn


def miou_metric(m: np.ndarray, gt: np.ndarray, thr: float = 0.5) -> float:
    """IoU of the thresholded map; empty against empty scores 1.0."""
    tp, fp, fn = _binarize_counts(np.asarray(m), np.asarray(gt), thr)
    denom = tp + fp + fn
    return 1.0 if denom == 0 else tp / denom


def f1_metric(m: np.ndarray, gt: np.ndarray, thr: float = 0.5) -> float:
    tp, fp, fn = _binarize_counts(np.asarray(m), np.asarray(gt), thr)
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def frame_score(m: np.ndarray) -> float:
    """Frame-level score: average of the pixel-wise predictions."""
    return float(np.mean(m))


def frame_score_auc(scores, labels) -> float:
    """ROC AUC of frame scores by pairwise comparison; ties count half.

    ``labels`` are truthy for inpainted frames. Requires at least one frame
    of each class.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("frame_score_auc: need at least one frame of each class")
    diff = pos[:, None] - neg[None, :]
    wins = float(np.sum(diff > 0)) + 0.5 * float(np.sum(diff == 0))
    return wins / (pos.size * neg.size)
